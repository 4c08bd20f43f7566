//! End-to-end smoke test: pipes the scripted multi-tenant session in
//! `tests/data/smoke.in` through the built `whynot-server` binary and
//! diffs stdout against the committed golden transcript. The same
//! pair of files backs the CI smoke gate, so a protocol change that
//! alters the wire output fails here first — regenerate the golden
//! deliberately, never by accident.

use std::io::Write;
use std::process::{Command, Stdio};

#[test]
fn scripted_session_matches_golden_transcript() {
    let script = include_str!("data/smoke.in");
    let golden = include_str!("data/smoke.golden");

    let mut child = Command::new(env!("CARGO_BIN_EXE_whynot-server"))
        .env_remove("WHYNOT_SERVER_QUEUE_DEPTH")
        .env_remove("WHYNOT_SERVER_CACHE_BUDGET")
        .env_remove("WHYNOT_SERVER_SNAPSHOT_DIR")
        .env_remove("WHYNOT_SERVER_MAX_TENANTS")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn whynot-server");

    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(script.as_bytes())
        .expect("write script");
    let out = child.wait_with_output().expect("server exits");

    assert!(
        out.status.success(),
        "server exited with {:?}; stderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let got = String::from_utf8(out.stdout).expect("utf-8 transcript");
    if got != golden {
        for (i, (g, w)) in got.lines().zip(golden.lines()).enumerate() {
            assert_eq!(g, w, "transcript diverges at line {}", i + 1);
        }
        assert_eq!(
            got.lines().count(),
            golden.lines().count(),
            "transcript length differs"
        );
        panic!("transcripts differ only in trailing whitespace");
    }
}
