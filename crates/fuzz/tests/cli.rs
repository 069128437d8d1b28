//! Command-line validation of the `subwarp-fuzz` binary.

use std::process::Command;

/// `--deadline 0` would abandon every seed at once and start a replacement
/// thread for each, so it is refused before anything is checked.
#[test]
fn fuzz_rejects_a_zero_deadline() {
    let out = Command::new(env!("CARGO_BIN_EXE_subwarp-fuzz"))
        .args(["--iters", "2", "--deadline", "0"])
        .output()
        .expect("subwarp-fuzz runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--deadline needs a positive"), "{stderr}");
    assert!(!stderr.contains("# fuzzing"), "{stderr}");
}
