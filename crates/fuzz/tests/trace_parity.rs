//! Export/replay parity over fuzzer-generated kernels: for each seed the
//! generated workload must encode, decode bit-identically, and replay with
//! the same `RunStats` and final memory image as the direct build under
//! every configuration in the differential grid.

use subwarp_fuzz::{config_grid, Oracle};

#[test]
fn twenty_seeds_replay_bit_identically() {
    for seed in 0..20 {
        let o = Oracle::TraceParity.check(seed);
        if let Some(d) = o.failure {
            panic!("seed {} diverged under {}: {}", d.seed, d.config, d.what);
        }
        // Direct + replay under every configuration.
        assert_eq!(o.runs, 2 * config_grid().len() as u64);
        assert!(o.instructions > 0);
    }
}
