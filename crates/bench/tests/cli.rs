//! Command-line validation of the `figures` binary.

use std::process::Command;

/// `--deadline 0` would abandon every cell at once and start a replacement
/// thread for each, so it is refused before anything is simulated.
#[test]
fn figures_rejects_a_zero_deadline() {
    let toy = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus/toy.swt");
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["trace", "--trace", toy, "--deadline", "0"])
        .output()
        .expect("figures runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--deadline needs a positive integer"),
        "{stderr}"
    );
}
