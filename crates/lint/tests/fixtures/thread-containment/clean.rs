//! Fixture: threads confined to comments and `#[cfg(test)]` — clean.

// std::thread::spawn in a comment is fine.

/// Library code that runs on the calling thread.
pub fn contained() {}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_thread() {
        std::thread::spawn(|| {}).join().unwrap();
    }
}
