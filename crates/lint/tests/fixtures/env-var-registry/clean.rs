//! Fixture: only registered knobs, plus the bare `"WHYNOT_"` prefix a
//! matcher might hold — clean.

/// Reads the declared sparse-threshold knob.
pub fn sparse_threshold() -> Option<String> {
    std::env::var("WHYNOT_SPARSE_THRESHOLD").ok()
}

/// A prefix literal is not a variable name.
pub fn is_knob(name: &str) -> bool {
    name.starts_with("WHYNOT_")
}
