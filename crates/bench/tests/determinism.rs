//! The tentpole guarantee of the sweep engine: a parallel experiment grid
//! is config-for-config identical to the serial one.
//!
//! The full-suite check simulates the Figure 12a grid twice (70 runs each
//! way), which is cheap in release but minutes in debug — so it is gated
//! to optimized builds (CI's `test` job runs the test suite in release).
//! The toy-scale check in `experiments.rs`'s unit tests covers debug
//! builds.

#![cfg(not(debug_assertions))]

use subwarp_bench::fig12a_sweep;

#[test]
fn fig12a_grid_parallel_matches_serial_config_for_config() {
    let sweep = fig12a_sweep();
    let serial = sweep.run_with_jobs(1).expect("serial sweep");
    let parallel = sweep.run_with_jobs(8).expect("parallel sweep");
    assert_eq!(serial.len(), parallel.len());
    for (w, (s_row, p_row)) in serial.iter().zip(&parallel).enumerate() {
        for (c, (s, p)) in s_row.iter().zip(p_row).enumerate() {
            assert_eq!(s, p, "workload {w} config {c} diverged across schedules");
        }
    }
}
