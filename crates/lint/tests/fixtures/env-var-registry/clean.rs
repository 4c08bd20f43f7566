//! Fixture: only registered knobs, plus the bare `"WHYNOT_"` prefix a
//! matcher might hold — clean.

/// Reads the declared server queue-depth knob.
pub fn queue_depth() -> Option<String> {
    std::env::var("WHYNOT_SERVER_QUEUE_DEPTH").ok()
}

/// A prefix literal is not a variable name.
pub fn is_knob(name: &str) -> bool {
    name.starts_with("WHYNOT_")
}
