//! Fixture: raw `std::thread` in library code — fires
//! `thread-containment`.

/// Spawns a thread from library code.
pub fn rogue() {
    std::thread::spawn(|| {}).join().ok();
}
