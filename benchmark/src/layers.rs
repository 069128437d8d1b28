//! Per-layer metrics: the simulated-model counters, the core's wall-time
//! phases, and small timed calls into the layers a workload does not
//! otherwise reach, so every traced run reports every layer.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use subwarp_core::{CycleCause, RunStats, SiConfig, Simulator, SmConfig, N_PHASES, PHASE_NAMES};
use subwarp_serve::json::parse;
use subwarp_serve::JobSpec;
use subwarp_sweep::{cell_fingerprint, workload_hash, CompactPolicy, Journal};

use crate::span::Tracer;
use crate::stats::median;

/// Per-layer values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// One simulated result that feeds the `model.*`, `isa.*` and `mem.*`
/// counters.
pub struct ModelCell<'a> {
    /// Cell or job label (results are counted once per label).
    pub label: &'a str,
    /// Workload identity, for pairing baseline and SI runs.
    pub workload: &'a str,
    /// SM configuration.
    pub sm: &'a SmConfig,
    /// SI configuration.
    pub si: &'a SiConfig,
    /// The result.
    pub stats: &'a RunStats,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Simulated-model counters over distinct results: totals, IPC, cycle-cause
/// shares, ALU issue share, memory ratios, and the mean best-of SI gain over
/// every (workload, 600-cycle SM configuration) group holding a baseline.
pub fn model(cells: &[ModelCell]) -> Values {
    let mut seen = std::collections::HashSet::new();
    let mut tot = RunStats::default();
    let (mut issued, mut alu) = (0u64, 0u64);
    let mut l2 = (0u64, 0u64);
    // group -> (baseline cycles, best SI cycles)
    let mut groups: BTreeMap<String, (Option<u64>, Option<u64>)> = BTreeMap::new();
    for c in cells {
        if !seen.insert(c.label) {
            continue;
        }
        let s = c.stats;
        tot.cycles += s.cycles;
        tot.instructions += s.instructions;
        for (a, b) in tot.cycle_causes.iter_mut().zip(s.cycle_causes) {
            *a += b;
        }
        issued += s.issued_by_unit.iter().sum::<u64>();
        alu += s.issued_by_unit[0];
        tot.l1d.hits += s.l1d.hits;
        tot.l1d.misses += s.l1d.misses;
        l2.0 += s.mem.l2.hits;
        l2.1 += s.mem.l2.misses;
        tot.mem.fills += s.mem.fills;
        tot.mem.total_fill_latency += s.mem.total_fill_latency;
        tot.mem.requests += s.mem.requests;
        if c.sm.miss_latency == SmConfig::turing_like().miss_latency {
            let key = format!("{}|{:?}", c.workload, c.sm);
            let g = groups.entry(key).or_default();
            if c.si.enabled {
                g.1 = Some(g.1.map_or(s.cycles, |b| b.min(s.cycles)));
            } else {
                g.0 = Some(s.cycles);
            }
        }
    }
    let gains: Vec<f64> = groups
        .values()
        .filter_map(|g| match *g {
            (Some(base), Some(si)) if si > 0 => Some((base as f64 / si as f64 - 1.0) * 100.0),
            _ => None,
        })
        .collect();
    let causes: u64 = tot.cycle_causes.iter().sum();
    let mut v = Values::new();
    v.insert("model.cycles", tot.cycles as f64);
    v.insert("model.instructions", tot.instructions as f64);
    v.insert("model.ipc", tot.ipc());
    v.insert(
        "model.si_gain_pct",
        ratio(gains.iter().sum(), gains.len() as f64),
    );
    for cause in CycleCause::ALL {
        v.insert(
            cause_metric(cause),
            ratio(tot.cause(cause) as f64, causes as f64),
        );
    }
    v.insert("isa.alu_issue_share", ratio(alu as f64, issued as f64));
    v.insert(
        "mem.l1d_miss_ratio",
        ratio(
            tot.l1d.misses as f64,
            (tot.l1d.hits + tot.l1d.misses) as f64,
        ),
    );
    v.insert("mem.l2_hit_rate", ratio(l2.0 as f64, (l2.0 + l2.1) as f64));
    v.insert(
        "mem.fill_latency_cy_mean",
        ratio(tot.mem.total_fill_latency as f64, tot.mem.fills as f64),
    );
    v.insert(
        "mem.requests_per_kinst",
        ratio(tot.mem.requests as f64 * 1000.0, tot.instructions as f64),
    );
    v
}

fn cause_metric(c: CycleCause) -> &'static str {
    match c {
        CycleCause::Issued => "model.cause.issued_share",
        CycleCause::LoadStall => "model.cause.load_stall_share",
        CycleCause::TraversalStall => "model.cause.traversal_stall_share",
        CycleCause::FetchStall => "model.cause.fetch_stall_share",
        CycleCause::SwitchPenalty => "model.cause.switch_penalty_share",
        CycleCause::ShortDep => "model.cause.short_dep_share",
        CycleCause::Barrier => "model.cause.barrier_share",
        CycleCause::Idle => "model.cause.idle_share",
    }
}

/// Core wall-time metrics over `(run span ns, result)` pairs from runs with
/// `profile_phases` on: nanoseconds per simulated instruction, each phase's
/// share of the run spans, and the unattributed rest, so the shares sum to
/// one.
pub fn core(runs: &[(u64, &RunStats)]) -> Values {
    let span: u64 = runs.iter().map(|(d, _)| d).sum();
    let insts: u64 = runs.iter().map(|(_, s)| s.instructions).sum();
    let mut phases = [0u64; N_PHASES];
    for (_, s) in runs {
        for (a, b) in phases.iter_mut().zip(s.phase_nanos) {
            *a += b;
        }
    }
    let mut v = Values::new();
    v.insert("core.ns_per_inst", ratio(span as f64, insts as f64));
    for (name, ns) in PHASE_NAMES.iter().zip(phases) {
        v.insert(phase_metric(name), ratio(ns as f64, span as f64));
    }
    let attributed: u64 = phases.iter().sum();
    v.insert(
        "core.phase.unattributed_share",
        ratio(span as f64 - attributed as f64, span as f64),
    );
    v
}

fn phase_metric(name: &str) -> &'static str {
    match name {
        "issue" => "core.phase.issue_share",
        "execute" => "core.phase.execute_share",
        "memory" => "core.phase.memory_share",
        "fast_forward" => "core.phase.fast_forward_share",
        _ => "core.phase.other_share",
    }
}

/// Runs `f` repeatedly for at least `min_s` seconds (and at least once per
/// item), returning the mean nanoseconds per call.
fn time_per_call(min_s: f64, mut f: impl FnMut() -> usize) -> f64 {
    let t = Instant::now();
    let mut calls = 0usize;
    while calls == 0 || t.elapsed().as_secs_f64() < min_s {
        calls += f();
    }
    t.elapsed().as_nanos() as f64 / calls as f64
}

/// `trace.decode_mb_per_s`: decode throughput over the given `.swt` files.
pub fn trace_decode(files: &[Vec<u8>], tracer: &mut Tracer) -> Result<Values, String> {
    let bytes: usize = files.iter().map(Vec::len).sum();
    let mut err = None;
    let open = tracer.begin("trace.decode_workload", 0);
    let ns_per_round = time_per_call(0.2, || {
        for f in files {
            if let Err(e) = subwarp_trace::decode_workload(std::hint::black_box(f)) {
                err = Some(e.to_string());
            }
        }
        1
    });
    tracer.end(open);
    if let Some(e) = err {
        return Err(format!("corpus decode failed: {e}"));
    }
    let mut v = Values::new();
    v.insert(
        "trace.decode_mb_per_s",
        bytes as f64 / 1e6 / (ns_per_round / 1e9),
    );
    Ok(v)
}

/// Reads the frozen trace corpus.
pub fn read_corpus(root: &Path) -> Result<Vec<Vec<u8>>, String> {
    crate::loadgen::CORPUS
        .iter()
        .map(|stem| {
            let p = root.join(crate::loadgen::corpus_path(stem));
            std::fs::read(&p).map_err(|e| format!("cannot read {}: {e}", p.display()))
        })
        .collect()
}

/// The request-path layers on `lines`, in process: `serve.json_parse_us`,
/// `serve.spec_us` (`JobSpec::from_request`, workloads already cached) and
/// `sweep.fingerprint_us` (`cell_fingerprint` of the resolved spec).
/// Returns the resolved specs too.
pub fn request_path(
    lines: &[String],
    tracer: &mut Tracer,
) -> Result<(Values, Vec<JobSpec>), String> {
    let parsed = lines
        .iter()
        .map(|l| parse(l).map_err(|e| format!("bad request line {l}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let specs = parsed
        .iter()
        .map(JobSpec::from_request)
        .collect::<Result<Vec<_>, _>>()?;
    let hashes: HashMap<*const subwarp_core::Workload, u64> = specs
        .iter()
        .map(|s| (Arc::as_ptr(&s.wl), workload_hash(&s.wl)))
        .collect();
    let mut v = Values::new();
    let open = tracer.begin("serve.json::parse", 0);
    let ns = time_per_call(0.1, || {
        lines.iter().for_each(|l| {
            std::hint::black_box(parse(std::hint::black_box(l)).ok());
        });
        lines.len()
    });
    tracer.end(open);
    v.insert("serve.json_parse_us", ns / 1e3);
    let open = tracer.begin("serve.JobSpec::from_request", 0);
    let ns = time_per_call(0.1, || {
        parsed.iter().for_each(|p| {
            std::hint::black_box(JobSpec::from_request(p).ok());
        });
        parsed.len()
    });
    tracer.end(open);
    v.insert("serve.spec_us", ns / 1e3);
    let open = tracer.begin("sweep.cell_fingerprint", 0);
    let ns = time_per_call(0.1, || {
        for s in &specs {
            let wh = hashes[&Arc::as_ptr(&s.wl)];
            std::hint::black_box(cell_fingerprint(&s.label, wh, &s.sm, &s.si));
        }
        specs.len()
    });
    tracer.end(open);
    v.insert("sweep.fingerprint_us", ns / 1e3);
    Ok((v, specs))
}

/// One in-process simulation: its wall time (ns) and result.
pub type SimRun = (u64, Result<RunStats, String>);

/// In-process `Simulator::run` of each spec: `serve.sim_ms_p50` plus each
/// run's wall time and result, for checking service replies and feeding the
/// model and core counters.
pub fn simulate_specs(specs: &[JobSpec], tracer: &mut Tracer) -> (Values, Vec<SimRun>) {
    let runs: Vec<SimRun> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let open = tracer.begin("core.Simulator::run", i as u64);
            let t = Instant::now();
            let r = Simulator::new(s.sm.clone(), s.si).run(&s.wl);
            let ns = t.elapsed().as_nanos() as u64;
            tracer.end(open);
            (ns, r.map_err(|e| e.to_string()))
        })
        .collect();
    let ms: Vec<f64> = runs.iter().map(|(ns, _)| *ns as f64 / 1e6).collect();
    (
        Values::from([("serve.sim_ms_p50", median(&ms).unwrap_or(0.0))]),
        runs,
    )
}

/// The journal layer on real results: record each into a fresh journal in
/// `dir`, look each up, reopen (load) the file, and compact it.
pub fn journal(
    dir: &Path,
    entries: &[(u64, String, RunStats)],
    tracer: &mut Tracer,
) -> Result<Values, String> {
    let path = dir.join("journal-probe.jsonl");
    let _ = std::fs::remove_file(&path);
    let io = |e: std::io::Error| format!("journal probe: {e}");
    let mut v = Values::new();
    let (mut record_ns, mut lookup_ns) = (Vec::new(), Vec::new());
    {
        let j = Journal::open(&path).map_err(io)?;
        for (i, (fp, label, stats)) in entries.iter().enumerate() {
            record_ns.push(tracer.span("journal.record", i as u64, || {
                let t = Instant::now();
                j.record(*fp, label, stats);
                t.elapsed().as_nanos() as f64
            }));
        }
        for (i, (fp, _, stats)) in entries.iter().enumerate() {
            let (ns, got) = tracer.span("journal.lookup", i as u64, || {
                let t = Instant::now();
                let got = j.lookup(*fp);
                (t.elapsed().as_nanos() as f64, got)
            });
            lookup_ns.push(ns);
            if got.as_ref() != Some(stats) {
                return Err(format!(
                    "journal probe: lookup of {fp:016x} lost the result"
                ));
            }
        }
    }
    v.insert(
        "journal.record_us_p50",
        median(&record_ns).unwrap_or(0.0) / 1e3,
    );
    v.insert(
        "journal.lookup_us_p50",
        median(&lookup_ns).unwrap_or(0.0) / 1e3,
    );
    let t = Instant::now();
    let j = tracer
        .span("journal.open", 0, || Journal::open(&path))
        .map_err(io)?;
    v.insert("journal.open_ms", t.elapsed().as_secs_f64() * 1e3);
    if j.restored()
        != entries
            .iter()
            .map(|e| e.0)
            .collect::<std::collections::HashSet<_>>()
            .len()
    {
        return Err("journal probe: reopen restored the wrong count".into());
    }
    let t = Instant::now();
    tracer
        .span("journal.compact", 0, || {
            j.compact(&CompactPolicy::keep_all())
        })
        .map_err(io)?;
    v.insert("journal.compact_ms", t.elapsed().as_secs_f64() * 1e3);
    drop(j);
    let _ = std::fs::remove_file(&path);
    Ok(v)
}
