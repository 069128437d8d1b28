//! Regression test for fast-forward accounting over the full Figure-12a grid:
//! every suite workload under the baseline plus all six SI settings must
//! produce *identical* `RunStats` — cycles, exposed-stall counters, cache
//! stats, and the per-cause cycle attribution — whether quiescent stretches
//! are stepped serially or fast-forwarded in bulk.

use subwarp_bench::si_configs;
use subwarp_core::{SiConfig, SmConfig};
use subwarp_sweep::Sweep;

#[test]
fn fig12a_grid_is_identical_with_and_without_fast_forward() {
    let grid = |ff: bool| {
        let mut sweep = Sweep::over_suite().config(
            "baseline",
            SmConfig::turing_like().with_fast_forward(ff),
            SiConfig::disabled(),
        );
        for (label, si) in si_configs() {
            sweep = sweep.config(label, SmConfig::turing_like().with_fast_forward(ff), si);
        }
        sweep.run().expect("fig12a grid simulates cleanly")
    };
    let fast = grid(true);
    let serial = grid(false);
    assert_eq!(fast.len(), serial.len());
    let labels: Vec<String> = std::iter::once("baseline".to_owned())
        .chain(si_configs().into_iter().map(|(l, _)| l))
        .collect();
    let names: Vec<String> = Sweep::over_suite()
        .workload_names()
        .map(str::to_owned)
        .collect();
    for (w, (frow, srow)) in fast.iter().zip(&serial).enumerate() {
        for (c, (f, s)) in frow.iter().zip(srow).enumerate() {
            assert_eq!(
                f, s,
                "{} / {}: fast-forward changed the simulation result",
                names[w], labels[c]
            );
            assert_eq!(f.causes_total(), f.cycles, "{} / {}", names[w], labels[c]);
        }
    }
}
