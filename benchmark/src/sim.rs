//! The two in-process simulation workloads: `paper-grid` (the suite under
//! the 1-SM fixed-latency configurations of `figures all`) and `chip-hier`
//! (the chip sweep and the suite on the hierarchical memory backend).

use std::sync::Arc;
use std::time::Instant;

use subwarp_core::{
    DivergeOrder, HierarchyConfig, MemBackendConfig, RunStats, SelectPolicy, SiConfig, SimError,
    Simulator, SmConfig, Workload,
};
use subwarp_prng::SmallRng;
use subwarp_sweep::Sweep;
use subwarp_workloads::{built_suite, microbenchmark_with, suite, MicroConfig};

use crate::span::Tracer;

/// One simulator configuration column.
#[derive(Clone)]
pub struct Config {
    /// Column label, unique within a workload.
    pub label: String,
    /// SM configuration.
    pub sm: SmConfig,
    /// SI configuration.
    pub si: SiConfig,
    /// The same configuration as service-request knobs (`"si":...`).
    pub knobs: String,
}

/// One cell: a workload row under one configuration.
#[derive(Clone)]
pub struct Cell {
    /// `<workload>/<config>`: the golden-digest key.
    pub label: String,
    /// The workload.
    pub wl: Arc<Workload>,
    /// SM configuration.
    pub sm: SmConfig,
    /// SI configuration.
    pub si: SiConfig,
    /// The equivalent service request line, when one exists.
    pub request: Option<String>,
}

fn si_knobs(si: &SiConfig) -> String {
    if !si.enabled {
        return "\"si\":\"off\"".to_owned();
    }
    let policy = match si.policy {
        SelectPolicy::AnyStalled => "any",
        SelectPolicy::HalfStalled => "half",
        SelectPolicy::AllStalled => "all",
    };
    let kind = if si.yield_enabled { "both" } else { "sos" };
    let mut k = format!("\"si\":\"{kind}\",\"policy\":\"{policy}\"");
    if si.max_subwarps != SiConfig::disabled().max_subwarps {
        k.push_str(&format!(",\"subwarps\":{}", si.max_subwarps));
    }
    k
}

fn config(label: String, sm: SmConfig, si: SiConfig, sm_knobs: &str) -> Config {
    let knobs = format!("{}{sm_knobs}", si_knobs(&si));
    Config {
        label,
        sm,
        si,
        knobs,
    }
}

/// The six SI settings of Figure 12a plus the baseline.
fn fig12a_si() -> Vec<SiConfig> {
    let mut v = vec![SiConfig::disabled()];
    for p in [
        SelectPolicy::AllStalled,
        SelectPolicy::HalfStalled,
        SelectPolicy::AnyStalled,
    ] {
        v.push(SiConfig::sos(p));
        v.push(SiConfig::both(p));
    }
    v
}

/// The 36 distinct 1-SM fixed-latency configurations `figures all` runs
/// the suite under: Fig. 12a's 7 at 600 cycles, Fig. 13's 7 at 300 and 900,
/// Fig. 14's baseline/best at 2 and 4 slots per PB, Fig. 15's best at 2/4/6
/// TST entries, the small-icache pair, and the taken/random/hinted order
/// pairs.
pub fn paper_configs() -> Vec<Config> {
    let base = SmConfig::turing_like();
    let mut v = Vec::new();
    for lat in [600u64, 300, 900] {
        for si in fig12a_si() {
            let sm = base.clone().with_miss_latency(lat);
            v.push(config(
                format!("{}@lat{lat}", si.label()),
                sm,
                si,
                &format!(",\"latency\":{lat}"),
            ));
        }
    }
    for slots in [2usize, 4] {
        for si in [SiConfig::disabled(), SiConfig::best()] {
            let sm = base.clone().with_warp_slots_per_pb(slots);
            v.push(config(
                format!("{}@slots{slots}", si.label()),
                sm,
                si,
                &format!(",\"slots\":{slots}"),
            ));
        }
    }
    for tst in [2usize, 4, 6] {
        let si = SiConfig::best().with_max_subwarps(tst);
        v.push(config(
            format!("{}@tst{tst}", si.label()),
            base.clone(),
            si,
            "",
        ));
    }
    for si in [SiConfig::disabled(), SiConfig::best()] {
        let sm = base.clone().with_small_icaches();
        v.push(config(
            format!("{}@small-icache", si.label()),
            sm,
            si,
            ",\"small_icache\":true",
        ));
    }
    for (name, order) in [
        ("taken", DivergeOrder::TakenFirst),
        ("random", DivergeOrder::Random),
        ("hinted", DivergeOrder::Hinted),
    ] {
        for si in [SiConfig::disabled(), SiConfig::best()] {
            let mut sm = base.clone();
            sm.diverge_order = order;
            v.push(config(
                format!("{}@order-{name}", si.label()),
                sm,
                si,
                &format!(",\"order\":\"{name}\""),
            ));
        }
    }
    v
}

fn hier_sm() -> SmConfig {
    SmConfig::turing_like().with_mem_backend(MemBackendConfig::Hierarchical(
        HierarchyConfig::turing_like(),
    ))
}

/// Chip sizes of `figures chip-sweep`.
pub const CHIP_SMS: [usize; 6] = [1, 2, 4, 9, 18, 36];
/// Warps per SM in the chip sweep (work scales weakly with the chip).
const WARPS_PER_SM: usize = 8;

/// The chip-sweep microbenchmark for `n_sms` SMs.
pub fn chip_workload(n_sms: usize) -> Workload {
    microbenchmark_with(MicroConfig {
        n_warps: WARPS_PER_SM * n_sms,
        ..MicroConfig::default()
    })
}

/// Label of a chip-sweep cell.
pub fn chip_label(n_sms: usize, si: &SiConfig) -> String {
    format!("chip{n_sms}sm/{}", si.label())
}

/// One chip-sweep cell: the shared hierarchical L2/DRAM at `n_sms` SMs.
pub fn chip_cell(n_sms: usize, wl: Arc<Workload>, si: SiConfig) -> Cell {
    Cell {
        label: chip_label(n_sms, &si),
        wl,
        sm: hier_sm().with_n_sms(n_sms),
        si,
        request: None,
    }
}

fn suite_cells(configs: &[Config]) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (t, wl) in built_suite() {
        for c in configs {
            cells.push(Cell {
                label: format!("{}/{}", t.name, c.label),
                wl: Arc::clone(wl),
                sm: c.sm.clone(),
                si: c.si,
                request: Some(format!(
                    "{{\"cmd\":\"run\",\"workload\":\"trace:{}\",{}}}",
                    t.name, c.knobs
                )),
            });
        }
    }
    cells
}

/// Builds the workloads a simulation workload needs `reps` times and
/// returns the cells plus each build's wall time. The first build is the
/// process-wide [`built_suite`] that the cells (and `trace:` requests)
/// share; later ones rebuild from the generators and are dropped, so the
/// set-up time is a median rather than one sample.
pub fn setup(chip: bool, reps: usize, tracer: &mut Tracer) -> (Vec<Cell>, Vec<f64>) {
    let mut times = Vec::new();
    let mut chip_wls: Vec<Arc<Workload>> = Vec::new();
    for rep in 0..reps.max(1) {
        let t = Instant::now();
        let open = tracer.begin("workloads.build", rep as u64);
        if rep == 0 {
            std::hint::black_box(built_suite());
        } else {
            std::hint::black_box(suite().iter().map(|t| t.build()).collect::<Vec<_>>());
        }
        if chip {
            let built: Vec<Arc<Workload>> = CHIP_SMS
                .iter()
                .map(|&n| Arc::new(chip_workload(n)))
                .collect();
            if rep == 0 {
                chip_wls = built;
            }
        }
        tracer.end(open);
        times.push(t.elapsed().as_secs_f64());
    }
    let cells = if chip {
        let mut cells = Vec::new();
        for (&n, wl) in CHIP_SMS.iter().zip(&chip_wls) {
            for si in [SiConfig::disabled(), SiConfig::best()] {
                cells.push(chip_cell(n, Arc::clone(wl), si));
            }
        }
        let hier = [SiConfig::disabled(), SiConfig::best()].map(|si| {
            config(
                format!("{}@hier", si.label()),
                hier_sm(),
                si,
                ",\"mem\":\"hier\"",
            )
        });
        cells.extend(suite_cells(&hier));
        cells
    } else {
        suite_cells(&paper_configs())
    };
    (cells, times)
}

/// Runs the paper grid as one `Sweep::run_with_jobs(1)`, the way
/// `figures` runs a figure, returning results in `cells` order.
pub fn run_as_sweep(cells: &[Cell]) -> Result<Vec<RunStats>, SimError> {
    let configs = paper_configs();
    let mut sweep = Sweep::over_suite();
    for c in &configs {
        sweep = sweep.config(c.label.clone(), c.sm.clone(), c.si);
    }
    assert_eq!(sweep.len(), cells.len(), "sweep grid matches the cell list");
    Ok(sweep.run_with_jobs(1)?.into_iter().flatten().collect())
}

/// One timed cell execution.
pub struct CellRun {
    /// Index into the cell list.
    pub cell: usize,
    /// Host wall time of `Simulator::run`.
    pub dur_ns: u64,
    /// The result.
    pub result: Result<RunStats, SimError>,
}

/// A seeded permutation of `0..n`.
pub fn shuffled(n: usize, rng: &mut SmallRng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order
}

/// Runs every cell once, in `order`, timing each `Simulator::run`. With
/// `profile_phases` the simulator also clocks its own phases (traced runs
/// only: the clock reads cost time).
pub fn pass(
    cells: &[Cell],
    order: &[usize],
    profile_phases: bool,
    tracer: &mut Tracer,
) -> Vec<CellRun> {
    order
        .iter()
        .map(|&i| {
            let c = &cells[i];
            let sm = c.sm.clone().with_profile_phases(profile_phases);
            let sim = Simulator::new(sm, c.si);
            let open = tracer.begin("core.Simulator::run", i as u64);
            let t = Instant::now();
            let result = sim.run(&c.wl);
            let dur_ns = t.elapsed().as_nanos() as u64;
            tracer.end(open);
            CellRun {
                cell: i,
                dur_ns,
                result,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_are_36_distinct_and_expressible_as_requests() {
        let cfgs = paper_configs();
        assert_eq!(cfgs.len(), 36);
        let labels: std::collections::HashSet<&str> =
            cfgs.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(labels.len(), 36);
        for (i, a) in cfgs.iter().enumerate() {
            for b in &cfgs[i + 1..] {
                assert!(a.sm != b.sm || a.si != b.si, "{} == {}", a.label, b.label);
            }
        }
        // Every column resolves through the service's request parser to
        // exactly the configuration the benchmark simulates.
        for c in &cfgs {
            let line = format!("{{\"cmd\":\"run\",\"workload\":\"toy\",{}}}", c.knobs);
            let spec =
                subwarp_serve::JobSpec::from_request(&subwarp_serve::json::parse(&line).unwrap())
                    .unwrap();
            assert!(spec.sm == c.sm, "{}", c.label);
            assert!(spec.si == c.si, "{}", c.label);
        }
    }
}
