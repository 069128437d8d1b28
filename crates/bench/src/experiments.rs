//! Experiment implementations. Each returns plain data so the `figures`
//! binary and the integration tests can share them. Every experiment
//! propagates simulation failures as [`SimError`] instead of panicking.
//!
//! Experiments are expressed as [`Sweep`] grids — named simulator
//! configurations crossed with shared, prebuilt workloads — so every
//! figure both avoids rebuilding workloads in its inner loops and runs
//! its independent simulations on the worker pool.

use std::sync::Arc;

use subwarp_core::{
    DivergeOrder, EventRecorder, HierarchyConfig, MemBackendConfig, RunStats, SelectPolicy,
    SiConfig, SimError, Simulator, SmConfig,
};
use subwarp_sweep::Sweep;
use subwarp_workloads::{figure9_workload, microbenchmark_with, MicroConfig};

/// The six SI settings of Figure 12a, in the paper's legend order.
pub fn si_configs() -> Vec<(String, SiConfig)> {
    let policies = [
        SelectPolicy::AllStalled,
        SelectPolicy::HalfStalled,
        SelectPolicy::AnyStalled,
    ];
    let mut v = Vec::new();
    for p in policies {
        for (kind, cfg) in [("SOS", SiConfig::sos(p)), ("Both", SiConfig::both(p))] {
            v.push((format!("{kind},{}", p.label()), cfg));
        }
    }
    v
}

/// Percentage gain of `si` over `base` (`6.3` means 6.3% faster).
pub fn gain_pct(si: &RunStats, base: &RunStats) -> f64 {
    (si.speedup_vs(base) - 1.0) * 100.0
}

// ---------------------------------------------------------------- Figure 3

/// One Figure 3 row: baseline stall characterization of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Row {
    /// Trace name.
    pub name: String,
    /// Total exposed load-to-use stalls / kernel time.
    pub total: f64,
    /// Exposed load-to-use stalls in divergent blocks / kernel time.
    pub divergent: f64,
}

/// Figure 3: baseline exposed-stall characterization over the suite.
pub fn fig3() -> Result<Vec<Fig3Row>, SimError> {
    let sweep = Sweep::over_suite().config("base", SmConfig::turing_like(), SiConfig::disabled());
    let grid = sweep.run()?;
    Ok(sweep
        .workload_names()
        .zip(&grid)
        .map(|(name, row)| Fig3Row {
            name: name.to_owned(),
            total: row[0].exposed_ratio(),
            divergent: row[0].exposed_divergent_ratio(),
        })
        .collect())
}

// --------------------------------------------------------------- Table III

/// One Table III cell: microbenchmark speedup at a divergence factor.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Row {
    /// `SUBWARP_SIZE` (paper's top row).
    pub subwarp_size: usize,
    /// Divergence factor (`32 / subwarp_size`).
    pub divergence_factor: usize,
    /// SI speedup over baseline (×).
    pub speedup: f64,
    /// Exposed fetch-stall share under SI (explains the 32-way taper).
    pub si_fetch_ratio: f64,
}

/// Table III: microbenchmark speedups at divergence factors 2..32, fixed
/// 600-cycle miss latency. `iterations` trades accuracy for runtime
/// (the paper's figure uses a steady-state loop; ≥4 is representative).
pub fn table3(iterations: u32) -> Result<Vec<Table3Row>, SimError> {
    let sizes = [16usize, 8, 4, 2, 1];
    let mut sweep = Sweep::new()
        .config("base", SmConfig::turing_like(), SiConfig::disabled())
        .config(
            "si",
            SmConfig::turing_like(),
            SiConfig::both(SelectPolicy::AnyStalled),
        );
    for ss in sizes {
        let wl = microbenchmark_with(MicroConfig {
            subwarp_size: ss,
            iterations,
            ..MicroConfig::default()
        });
        sweep = sweep.workload(wl.name.clone(), Arc::new(wl));
    }
    let grid = sweep.run()?;
    Ok(sizes
        .iter()
        .zip(&grid)
        .map(|(&ss, row)| {
            let (b, s) = (&row[0], &row[1]);
            Table3Row {
                subwarp_size: ss,
                divergence_factor: 32 / ss,
                speedup: s.speedup_vs(b),
                si_fetch_ratio: s.exposed_fetch_stalls() as f64 / s.cycles as f64,
            }
        })
        .collect())
}

// --------------------------------------------------------------- Figure 10

/// Figure 10 state-machine walkthroughs on the Figure 9 toy:
/// `(stats, events)` without yield (10a) and with yield (10b).
///
/// Stays serial: `run_recorded` returns the event tape alongside the
/// stats, and two toy runs are far below the pool's break-even point.
#[allow(clippy::type_complexity)]
pub fn fig10() -> Result<((RunStats, EventRecorder), (RunStats, EventRecorder)), SimError> {
    let wl = figure9_workload();
    let a = Simulator::new(
        SmConfig::turing_like(),
        SiConfig::sos(SelectPolicy::AnyStalled),
    )
    .run_recorded(&wl)?;
    let b = Simulator::new(
        SmConfig::turing_like(),
        SiConfig::both(SelectPolicy::AnyStalled),
    )
    .run_recorded(&wl)?;
    Ok((a, b))
}

// -------------------------------------------------------------- Figure 12a

/// Per-trace speedups for every SI configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig12aRow {
    /// Trace name.
    pub name: String,
    /// `(config label, speedup %)` for the six settings.
    pub speedups: Vec<(String, f64)>,
    /// Best configuration's speedup % (the BestOf bar).
    pub best_of: f64,
}

/// The Figure 12a job grid — the full suite × (baseline + the six SI
/// settings). Also the `perf` binary's reference sweep.
pub fn fig12a_sweep() -> Sweep {
    let mut sweep =
        Sweep::over_suite().config("base", SmConfig::turing_like(), SiConfig::disabled());
    for (label, si) in si_configs() {
        sweep = sweep.config(label, SmConfig::turing_like(), si);
    }
    sweep
}

/// Figure 12a: suite speedups across SOS/Both × N policies at 600 cycles.
pub fn fig12a() -> Result<Vec<Fig12aRow>, SimError> {
    let configs = si_configs();
    let sweep = fig12a_sweep();
    let grid = sweep.run()?;
    Ok(sweep
        .workload_names()
        .zip(&grid)
        .map(|(name, row)| {
            let base = &row[0];
            let speedups: Vec<(String, f64)> = configs
                .iter()
                .zip(&row[1..])
                .map(|((label, _), s)| (label.clone(), gain_pct(s, base)))
                .collect();
            let best_of = speedups
                .iter()
                .map(|(_, g)| *g)
                .fold(f64::NEG_INFINITY, f64::max);
            Fig12aRow {
                name: name.to_owned(),
                speedups,
                best_of,
            }
        })
        .collect())
}

// -------------------------------------------------------------- Figure 12b

/// Per-trace exposed-stall reductions under the paper's best setting.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig12bRow {
    /// Trace name.
    pub name: String,
    /// Reduction in total exposed load-to-use stalls (fraction, positive =
    /// reduced).
    pub total_reduction: f64,
    /// Reduction in divergent exposed load-to-use stalls.
    pub divergent_reduction: f64,
}

/// Figure 12b: stall reductions of `Both, N ≥ 0.5` vs baseline.
pub fn fig12b() -> Result<Vec<Fig12bRow>, SimError> {
    let sweep = Sweep::over_suite()
        .config("base", SmConfig::turing_like(), SiConfig::disabled())
        .config("si", SmConfig::turing_like(), SiConfig::best());
    let grid = sweep.run()?;
    Ok(sweep
        .workload_names()
        .zip(&grid)
        .map(|(name, row)| {
            let (b, s) = (&row[0], &row[1]);
            Fig12bRow {
                name: name.to_owned(),
                total_reduction: RunStats::reduction(
                    s.exposed_load_stalls(),
                    b.exposed_load_stalls(),
                ),
                divergent_reduction: RunStats::reduction(
                    s.exposed_load_stalls_divergent,
                    b.exposed_load_stalls_divergent,
                ),
            }
        })
        .collect())
}

// --------------------------------------------------------------- Figure 13

/// Mean suite speedups per SI configuration at one miss latency.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig13Row {
    /// L1 miss latency (300/600/900).
    pub latency: u64,
    /// `(config label, mean speedup %)`.
    pub means: Vec<(String, f64)>,
    /// Mean of per-trace best configurations.
    pub best_of: f64,
}

/// Figure 13: latency sensitivity sweep over {300, 600, 900} cycles.
pub fn fig13() -> Result<Vec<Fig13Row>, SimError> {
    let configs = si_configs();
    let mut rows = Vec::new();
    for lat in [300u64, 600, 900] {
        let sm = SmConfig::turing_like().with_miss_latency(lat);
        let mut sweep = Sweep::over_suite().config("base", sm.clone(), SiConfig::disabled());
        for (label, si) in &configs {
            sweep = sweep.config(label.clone(), sm.clone(), *si);
        }
        let grid = sweep.run()?;
        // gains[c][t]: config c's gain on trace t.
        let mut gains = vec![Vec::new(); configs.len()];
        let mut best = Vec::new();
        for row in &grid {
            let base = &row[0];
            let mut trace_best = f64::NEG_INFINITY;
            for (ci, s) in row[1..].iter().enumerate() {
                let g = gain_pct(s, base);
                gains[ci].push(g);
                trace_best = trace_best.max(g);
            }
            best.push(trace_best);
        }
        rows.push(Fig13Row {
            latency: lat,
            means: configs
                .iter()
                .zip(&gains)
                .map(|((label, _), g)| (label.clone(), subwarp_stats::mean(g)))
                .collect(),
            best_of: subwarp_stats::mean(&best),
        });
    }
    Ok(rows)
}

// --------------------------------------------------------------- Figure 14

/// Per-trace SI speedups at one warp-slot budget, against an equally
/// throttled baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig14Row {
    /// Total SM warp slots (8/16/32).
    pub warp_slots: usize,
    /// `(trace, speedup %)`.
    pub gains: Vec<(String, f64)>,
    /// Suite mean.
    pub mean: f64,
}

/// Figure 14: warp-slot sensitivity (8/16/32 slots per SM).
pub fn fig14() -> Result<Vec<Fig14Row>, SimError> {
    let mut rows = Vec::new();
    for per_pb in [2usize, 4, 8] {
        let sm = SmConfig::turing_like().with_warp_slots_per_pb(per_pb);
        let sweep = Sweep::over_suite()
            .config("base", sm.clone(), SiConfig::disabled())
            .config("si", sm, SiConfig::best());
        let grid = sweep.run()?;
        let gains: Vec<(String, f64)> = sweep
            .workload_names()
            .zip(&grid)
            .map(|(name, row)| (name.to_owned(), gain_pct(&row[1], &row[0])))
            .collect();
        let mean = subwarp_stats::mean(&gains.iter().map(|(_, g)| *g).collect::<Vec<_>>());
        rows.push(Fig14Row {
            warp_slots: per_pb * 4,
            gains,
            mean,
        });
    }
    Ok(rows)
}

// --------------------------------------------------------------- Figure 15

/// Per-trace SI speedups at one thread-status-table capacity.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig15Row {
    /// Maximum subwarps per warp (TST entries); 32 = unlimited.
    pub max_subwarps: usize,
    /// `(trace, speedup %)`.
    pub gains: Vec<(String, f64)>,
    /// Suite mean.
    pub mean: f64,
}

/// Figure 15: subwarps-per-warp sensitivity (2/4/6/unlimited). One grid:
/// the baseline column is shared by all four capacities, so it is
/// simulated once.
pub fn fig15() -> Result<Vec<Fig15Row>, SimError> {
    let caps = [2usize, 4, 6, 32];
    let mut sweep =
        Sweep::over_suite().config("base", SmConfig::turing_like(), SiConfig::disabled());
    for n in caps {
        sweep = sweep.config(
            format!("tst{n}"),
            SmConfig::turing_like(),
            SiConfig::best().with_max_subwarps(n),
        );
    }
    let grid = sweep.run()?;
    let mut rows = Vec::new();
    for (ci, n) in caps.into_iter().enumerate() {
        let gains: Vec<(String, f64)> = sweep
            .workload_names()
            .zip(&grid)
            .map(|(name, row)| (name.to_owned(), gain_pct(&row[1 + ci], &row[0])))
            .collect();
        let mean = subwarp_stats::mean(&gains.iter().map(|(_, g)| *g).collect::<Vec<_>>());
        rows.push(Fig15Row {
            max_subwarps: n,
            gains,
            mean,
        });
    }
    Ok(rows)
}

// ------------------------------------------------------------ §V-C-4 icache

/// Instruction-cache sizing result (§V-C-4).
#[derive(Debug, Clone, PartialEq)]
pub struct IcacheResult {
    /// Mean SI gain with the paper's upsized caches (16 KB L0 / 64 KB L1I).
    pub big_mean: f64,
    /// Mean SI gain with 4× smaller caches (shipping-GPU-like).
    pub small_mean: f64,
}

/// §V-C-4: rerun the best setting with 4× smaller L0/L1 instruction caches.
pub fn icache() -> Result<IcacheResult, SimError> {
    let small = SmConfig::turing_like().with_small_icaches();
    let sweep = Sweep::over_suite()
        .config("big/base", SmConfig::turing_like(), SiConfig::disabled())
        .config("big/si", SmConfig::turing_like(), SiConfig::best())
        .config("small/base", small.clone(), SiConfig::disabled())
        .config("small/si", small, SiConfig::best());
    let grid = sweep.run()?;
    let mean_gain = |si: usize, base: usize| {
        let gains: Vec<f64> = grid
            .iter()
            .map(|row| gain_pct(&row[si], &row[base]))
            .collect();
        subwarp_stats::mean(&gains)
    };
    Ok(IcacheResult {
        big_mean: mean_gain(1, 0),
        small_mean: mean_gain(3, 2),
    })
}

// ------------------------------------------------------- order ablation §VI

/// Divergent-path execution-order ablation (§VI, limiter #3).
#[derive(Debug, Clone, PartialEq)]
pub struct OrderAblation {
    /// `(order label, mean SI gain %)`.
    pub means: Vec<(String, f64)>,
}

/// Sweeps which side of a divergent branch executes first, quantifying the
/// paper's observation that subwarp encounter order gates SI's value.
pub fn ablation_diverge_order() -> Result<OrderAblation, SimError> {
    let orders = [
        ("fallthrough-first", DivergeOrder::FallthroughFirst),
        ("taken-first", DivergeOrder::TakenFirst),
        ("random", DivergeOrder::Random),
        // §VI future work: compiler stall hints steer the order (the
        // megakernel generator annotates its dispatch branches).
        ("hinted", DivergeOrder::Hinted),
    ];
    let mut sweep = Sweep::over_suite();
    for (label, order) in orders {
        let mut sm = SmConfig::turing_like();
        sm.diverge_order = order;
        sweep = sweep
            .config(format!("{label}/base"), sm.clone(), SiConfig::disabled())
            .config(format!("{label}/si"), sm, SiConfig::best());
    }
    let grid = sweep.run()?;
    let means = orders
        .iter()
        .enumerate()
        .map(|(oi, (label, _))| {
            let gains: Vec<f64> = grid
                .iter()
                .map(|row| gain_pct(&row[2 * oi + 1], &row[2 * oi]))
                .collect();
            (label.to_string(), subwarp_stats::mean(&gains))
        })
        .collect();
    Ok(OrderAblation { means })
}

// ---------------------------------------------------- DWS comparison §VII-B

/// SI vs a Dynamic-Warp-Subdivision-like scheme at one occupancy point.
#[derive(Debug, Clone, PartialEq)]
pub struct DwsRow {
    /// Warps launched (out of 32 slots).
    pub n_warps: usize,
    /// Subwarp Interleaving gain % (TST-hosted subwarps).
    pub si_gain: f64,
    /// DWS-like gain % (subwarps must fit in free warp slots).
    pub dws_gain: f64,
}

/// §VII-B: "our approach will perform better than DWS, especially when
/// there are few unused warp slots." Sweeps occupancy on the most
/// divergence-limited trace; DWS-like interleaving needs free slots, so its
/// gains collapse as the SM fills while SI's do not.
pub fn dws_comparison() -> Result<Vec<DwsRow>, SimError> {
    let trace = subwarp_workloads::trace_by_name("BFV1").expect("suite trace");
    let occupancies = [8usize, 16, 24, 32];
    let mut sweep = Sweep::new()
        .config("base", SmConfig::turing_like(), SiConfig::disabled())
        .config("si", SmConfig::turing_like(), SiConfig::best())
        .config("dws", SmConfig::turing_like(), SiConfig::dws_like());
    for n in occupancies {
        let mut cfg = trace.config.clone();
        cfg.n_warps = n;
        sweep = sweep.workload(format!("BFV1/{n}w"), Arc::new(cfg.build()));
    }
    let grid = sweep.run()?;
    Ok(occupancies
        .iter()
        .zip(&grid)
        .map(|(&n, row)| DwsRow {
            n_warps: n,
            si_gain: gain_pct(&row[1], &row[0]),
            dws_gain: gain_pct(&row[2], &row[0]),
        })
        .collect())
}

// -------------------------------------------- compute negative result §VI

/// SI's (lack of) effect on one non-raytracing compute kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct ComputeRow {
    /// Kernel name.
    pub name: String,
    /// SI gain % (expected: within the margin of noise).
    pub gain: f64,
    /// Baseline exposed load-to-use stall ratio.
    pub exposed: f64,
    /// Divergent share of exposure.
    pub divergent: f64,
}

/// §VI: "We profiled a broad suite of more than 400 non-raytracing CUDA and
/// Direct3D compute kernels and found only 11 that feature long stalls in
/// divergent code, and none benefited beyond the margin of noise from SI."
/// Runs the archetype compute kernels and reports SI's (absent) effect.
pub fn compute_negative_result() -> Result<Vec<ComputeRow>, SimError> {
    let mut sweep = Sweep::new()
        .config("base", SmConfig::turing_like(), SiConfig::disabled())
        .config("si", SmConfig::turing_like(), SiConfig::best());
    for wl in subwarp_workloads::compute_suite() {
        let name = wl.name.clone();
        sweep = sweep.workload(name, Arc::new(wl));
    }
    let grid = sweep.run()?;
    Ok(sweep
        .workload_names()
        .zip(&grid)
        .map(|(name, row)| {
            let (b, s) = (&row[0], &row[1]);
            ComputeRow {
                name: name.to_owned(),
                gain: gain_pct(s, b),
                exposed: b.exposed_ratio(),
                divergent: b.exposed_divergent_ratio(),
            }
        })
        .collect())
}

// ------------------------------------------------- memory-hierarchy sweep

/// One point of the memory-hierarchy sensitivity sweep: a hierarchical
/// backend variant, its *measured* memory behaviour over the suite, and the
/// mean SI gain it yields.
#[derive(Debug, Clone, PartialEq)]
pub struct MemSweepRow {
    /// Variant label (`lat x1.5`, `burst 16`, ...).
    pub label: String,
    /// Mean fill latency actually observed over the suite's baseline runs
    /// (total fill cycles / fills) — the x-axis of the latency trend.
    pub mean_fill_latency: f64,
    /// Mean SI (`Both,N>=0.5`) speedup % over the suite.
    pub mean_gain_pct: f64,
    /// Suite-aggregate L2 hit rate of the baseline runs.
    pub l2_hit_rate: f64,
    /// Mean per-channel DRAM busy fraction of the baseline runs.
    pub channel_utilization: f64,
}

/// The two axes of `figures mem-sweep`.
#[derive(Debug, Clone, PartialEq)]
pub struct MemSweepResult {
    /// L2/DRAM latency scaling at fixed bandwidth (Figure 13's question,
    /// re-asked with load-dependent latency).
    pub latency: Vec<MemSweepRow>,
    /// Channel-bandwidth scaling (burst cycles per line) at fixed latency.
    pub bandwidth: Vec<MemSweepRow>,
}

/// A [`HierarchyConfig`] with every latency leg scaled by `scale`.
fn scaled_hierarchy(scale: f64) -> HierarchyConfig {
    let s = |x: u64| ((x as f64 * scale).round() as u64).max(1);
    let mut h = HierarchyConfig::turing_like();
    h.l2_hit_latency = s(h.l2_hit_latency);
    h.dram.row_hit_latency = s(h.dram.row_hit_latency);
    h.dram.row_miss_latency = s(h.dram.row_miss_latency);
    h
}

/// Runs baseline vs. SI-best over the suite on one hierarchical variant and
/// reduces the grid to a [`MemSweepRow`].
fn mem_sweep_point(label: String, h: HierarchyConfig) -> Result<MemSweepRow, SimError> {
    let sm = SmConfig::turing_like().with_mem_backend(MemBackendConfig::Hierarchical(h));
    let sweep = Sweep::over_suite()
        .config("base", sm.clone(), SiConfig::disabled())
        .config("si", sm, SiConfig::best());
    let grid = sweep.run()?;
    let mut gains = Vec::new();
    let mut fills = 0u64;
    let mut fill_cycles = 0u64;
    let mut l2 = subwarp_core::MemBackendStats::default();
    let mut utils = Vec::new();
    for row in &grid {
        let (base, si) = (&row[0], &row[1]);
        gains.push(gain_pct(si, base));
        fills += base.mem.fills;
        fill_cycles += base.mem.total_fill_latency;
        l2.merge(&base.mem);
        let busy: u64 = base.mem.channel_busy_cycles.iter().sum();
        let chans = base.mem.channel_busy_cycles.len() as u64;
        if chans > 0 && base.sm_cycles_total > 0 {
            utils.push(busy as f64 / (chans * base.sm_cycles_total) as f64);
        }
    }
    Ok(MemSweepRow {
        label,
        mean_fill_latency: if fills == 0 {
            0.0
        } else {
            fill_cycles as f64 / fills as f64
        },
        mean_gain_pct: subwarp_stats::mean(&gains),
        l2_hit_rate: 1.0 - l2.l2.miss_ratio(),
        channel_utilization: subwarp_stats::mean(&utils),
    })
}

/// `figures mem-sweep`: SI sensitivity to *realistic* memory behaviour.
///
/// Axis 1 scales every L2/DRAM latency leg (×0.5 … ×2), re-asking Figure
/// 13's question with load-dependent latency: SI's upside should grow
/// monotonically with the mean fill latency it helps hide. Axis 2 scales
/// per-channel bandwidth via the burst occupancy (1 … 64 cycles/line),
/// probing whether SI's extra memory-level parallelism still pays when
/// channels saturate.
pub fn mem_sweep() -> Result<MemSweepResult, SimError> {
    let mut latency = Vec::new();
    for scale in [0.5, 1.0, 1.5, 2.0] {
        latency.push(mem_sweep_point(
            format!("lat x{scale}"),
            scaled_hierarchy(scale),
        )?);
    }
    let mut bandwidth = Vec::new();
    for burst in [1u64, 4, 16, 64] {
        let mut h = HierarchyConfig::turing_like();
        h.dram.burst_cycles = burst;
        bandwidth.push(mem_sweep_point(format!("burst {burst}"), h)?);
    }
    Ok(MemSweepResult { latency, bandwidth })
}

// --------------------------------------------------------------- chip sweep

/// One point of `figures chip-sweep`: a chip size, how saturated the shared
/// memory partitions ran, and the SI gain that survived the contention.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipSweepRow {
    /// SM count sharing one set of L2/DRAM partitions.
    pub n_sms: usize,
    /// Baseline (SI disabled) chip cycles.
    pub base_cycles: u64,
    /// SI (`Both,N>=0.5`) speedup % over the baseline at this chip size.
    pub gain_pct: f64,
    /// Chip-aggregate L2 hit rate of the baseline run.
    pub l2_hit_rate: f64,
    /// Mean DRAM channel busy fraction of the baseline run (busy cycles
    /// over channels × chip cycles) — the saturation axis.
    pub channel_utilization: f64,
    /// Mean fill latency the baseline's loads actually saw, inflated by
    /// cross-SM bank/channel queueing as the chip grows.
    pub mean_fill_latency: f64,
}

/// `figures chip-sweep`: the paper's Sec. VI limiter trend, reproduced at
/// chip scale. Work scales *weakly* — every SM runs the same per-SM slice
/// of the divergent microbenchmark (disjoint address regions, so DRAM
/// traffic grows with the chip) — while the shared partitions stay fixed at
/// the TU102-like configuration. As SM count drives the shared channels
/// toward saturation, the extra memory-level parallelism SI generates has
/// nowhere to go: the gain it shows at small chips erodes.
pub fn chip_sweep() -> Result<Vec<ChipSweepRow>, SimError> {
    const WARPS_PER_SM: usize = 8;
    let mut rows = Vec::new();
    for n_sms in [1usize, 2, 4, 9, 18, 36] {
        let wl = microbenchmark_with(MicroConfig {
            n_warps: WARPS_PER_SM * n_sms,
            ..MicroConfig::default()
        });
        let mut sm = SmConfig::turing_like().with_mem_backend(MemBackendConfig::Hierarchical(
            HierarchyConfig::turing_like(),
        ));
        sm.n_sms = n_sms;
        let base = Simulator::new(sm.clone(), SiConfig::disabled()).run(&wl)?;
        let si = Simulator::new(sm, SiConfig::best()).run(&wl)?;
        let busy: u64 = base.mem.channel_busy_cycles.iter().sum();
        let chans = base.mem.channel_busy_cycles.len() as u64;
        rows.push(ChipSweepRow {
            n_sms,
            base_cycles: base.cycles,
            gain_pct: gain_pct(&si, &base),
            l2_hit_rate: 1.0 - base.mem.l2.miss_ratio(),
            channel_utilization: if chans == 0 || base.cycles == 0 {
                0.0
            } else {
                busy as f64 / (chans * base.cycles) as f64
            },
            mean_fill_latency: if base.mem.fills == 0 {
                0.0
            } else {
                base.mem.total_fill_latency as f64 / base.mem.fills as f64
            },
        });
    }
    Ok(rows)
}

// ----------------------------------------------------------- trace files

/// Figure 12a-style report over trace files instead of the built-in
/// suite: each `(name, workload)` is a row (keyed like every workload by
/// its canonical encoding, so `--resume` journals survive across
/// processes), the columns are the baseline plus the six SI settings.
pub fn trace_report(
    files: &[(String, Arc<subwarp_core::Workload>)],
) -> Result<Vec<Fig12aRow>, SimError> {
    let configs = si_configs();
    let mut sweep = Sweep::new();
    for (name, wl) in files {
        sweep = sweep.workload(name.clone(), Arc::clone(wl));
    }
    sweep = sweep.config("base", SmConfig::turing_like(), SiConfig::disabled());
    for (label, si) in &configs {
        sweep = sweep.config(label.clone(), SmConfig::turing_like(), *si);
    }
    let grid = sweep.run()?;
    Ok(sweep
        .workload_names()
        .zip(&grid)
        .map(|(name, row)| {
            let base = &row[0];
            let speedups: Vec<(String, f64)> = configs
                .iter()
                .zip(&row[1..])
                .map(|((label, _), s)| (label.clone(), gain_pct(s, base)))
                .collect();
            let best_of = speedups
                .iter()
                .map(|(_, g)| *g)
                .fold(f64::NEG_INFINITY, f64::max);
            Fig12aRow {
                name: name.to_owned(),
                speedups,
                best_of,
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn si_config_labels_cover_figure_12a_legend() {
        let labels: Vec<String> = si_configs().into_iter().map(|(l, _)| l).collect();
        assert_eq!(labels.len(), 6);
        assert!(labels.contains(&"SOS,N=1".to_string()));
        assert!(labels.contains(&"Both,N>=0.5".to_string()));
        assert!(labels.contains(&"Both,N>0".to_string()));
    }

    #[test]
    fn gain_pct_math() {
        let base = RunStats {
            cycles: 1063,
            ..Default::default()
        };
        let si = RunStats {
            cycles: 1000,
            ..Default::default()
        };
        assert!((gain_pct(&si, &base) - 6.3).abs() < 0.01);
    }
}
