#![warn(missing_docs)]

//! # subwarp-bench — experiment library regenerating every paper result
//!
//! One function per table/figure of *GPU Subwarp Interleaving* (HPCA 2022):
//!
//! | function | paper result |
//! |---|---|
//! | [`fig3`] | Figure 3 — exposed load-to-use stalls, total vs divergent |
//! | [`table3`] | Table III — microbenchmark speedup vs divergence factor |
//! | [`fig10`] | Figure 10 — TST state walkthroughs (without/with yield) |
//! | [`fig12a`] | Figure 12a — per-trace speedups, 6 SI configs + BestOf |
//! | [`fig12b`] | Figure 12b — reduction in exposed stalls |
//! | [`fig13`] | Figure 13 — mean speedup vs L1 miss latency |
//! | [`fig14`] | Figure 14 — sensitivity to warp slots |
//! | [`fig15`] | Figure 15 — sensitivity to subwarps per warp |
//! | [`icache`] | §V-C-4 — 4× smaller instruction caches |
//! | [`ablation_diverge_order`] | §VI limiter #3 — divergent-path order |
//! | [`mem_sweep`] | beyond the paper — SI speedup vs measured miss latency and DRAM bandwidth on the hierarchical memory backend |
//!
//! The `figures` binary formats these as tables and ASCII charts.
//!
//! Every experiment is a `subwarp_sweep::Sweep` grid; the sweep engine
//! (resilient runs, journals, fingerprints) lives in the `subwarp-sweep`
//! crate, shared with the `subwarp-serve` daemon.

pub mod experiments;

pub use experiments::*;
