//! One workload run: set-up, the measured window (untraced, or an untraced
//! and a traced half), the correctness checks, and the metrics.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use subwarp_core::{RunStats, SiConfig};
use subwarp_prng::SmallRng;
use subwarp_sweep::fnv1a;

use crate::golden::{digest, Goldens};
use crate::layers::{self, Values};
use crate::metrics::PER_LAYER;
use crate::report::{end_to_end, jstr, num, Jobs, Measured, RunResult};
use crate::serve_load;
use crate::service::{self, Fleet};
use crate::sim::{self, Cell, CellRun};
use crate::span::{chrome_trace, totals, Tracer};
use crate::stats::{median, percentile};

/// Set-up repetitions per run: `setup_s` is their median, so one or two
/// slow starts do not decide it.
pub const SETUP_REPS: usize = 9;

/// Where and how to run.
pub struct Ctx {
    /// Repository root (the parent of the benchmark package).
    pub root: PathBuf,
    /// The benchmark package directory.
    pub bench: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Length of the measured window, s.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Rewrite the golden digests instead of checking them.
    pub bless: bool,
}

impl Ctx {
    /// `benchmark/out`, where result files and traces go.
    pub fn out(&self) -> PathBuf {
        self.bench.join("out")
    }
}

/// The chip path at its two ends: the chip-sweep baseline at 1 and at 36
/// SMs, run once each, and the weak-scaling ratio `(t36 / 36) / t1`.
pub fn chip_probe(tracer: &mut Tracer) -> Result<Values, String> {
    let mut t = Vec::new();
    for n in [1usize, 36] {
        let cell = sim::chip_cell(n, Arc::new(sim::chip_workload(n)), SiConfig::disabled());
        let runs = sim::pass(&[cell], &[0], false, tracer);
        let run = &runs[0];
        run.result
            .as_ref()
            .map_err(|e| format!("chip probe: {e}"))?;
        t.push(run.dur_ns as f64 / 1e9);
    }
    Ok(chip_values(t[0], t[1]))
}

fn chip_values(t1: f64, t36: f64) -> Values {
    Values::from([
        ("chip.run_s.1sm", t1),
        ("chip.run_s.36sm", t36),
        ("chip.weak_scaling", (t36 / 36.0) / t1),
    ])
}

fn check_cell(
    cell: &Cell,
    result: &Result<RunStats, subwarp_core::SimError>,
    goldens: &Goldens,
    blessed: &mut Option<Goldens>,
    res: &mut RunResult,
) -> bool {
    match result {
        Ok(stats) => {
            let d = digest(stats);
            if let Some(b) = blessed {
                b.0.insert(cell.label.clone(), d);
                return true;
            }
            match goldens.check(&cell.label, d) {
                Ok(()) => true,
                Err(e) => {
                    res.error(e);
                    false
                }
            }
        }
        Err(e) => {
            res.error(format!("cell `{}`: {e}", cell.label));
            false
        }
    }
}

/// Wall time of one pass of each simulation workload on the reference
/// machine at the commit that added the benchmark. `--seconds` becomes a
/// pass count through it, so both sides of a comparison do the same work
/// and report the same number of jobs, whatever the host's speed.
fn pass_count(chip: bool, secs: f64) -> usize {
    let reference_pass_s = if chip { 0.45 } else { 2.4 };
    ((secs / reference_pass_s).round() as usize).max(1)
}

/// Runs `passes` shuffled passes over the cells, checking every result.
/// Returns the jobs and, when traced, every cell run. A traced window also
/// turns on the simulator's phase clocks.
///
/// A job is a cell, and its latency is the cell's fastest execution in the
/// window; the window's elapsed time is the sum of those. Every pass does
/// the same deterministic work, so whatever an execution takes beyond the
/// cell's fastest is host interference, which on a shared VM slows whole
/// passes by a quarter or more. A change that slows a cell slows every
/// execution of it, so the fastest hides nothing.
fn measure(
    cells: &[Cell],
    goldens: &Goldens,
    passes: usize,
    rng: &mut SmallRng,
    res: &mut RunResult,
    tracer: &mut Tracer,
) -> (Jobs, Vec<CellRun>) {
    let traced = tracer.enabled();
    let (mut jobs, mut runs) = (Jobs::default(), Vec::new());
    // Each cell's fastest correct execution (ms) and its instructions.
    let mut fastest: Vec<Option<(f64, u64)>> = vec![None; cells.len()];
    for p in 0..passes {
        // The pass span's self time is the harness's own cost between
        // cells: shuffling and checking results.
        let open = tracer.begin("bench.pass", p as u64);
        let order = sim::shuffled(cells.len(), rng);
        for run in sim::pass(cells, &order, traced, tracer) {
            jobs.attempted += 1;
            if check_cell(&cells[run.cell], &run.result, goldens, &mut None, res) {
                let ms = run.dur_ns as f64 / 1e6;
                let insts = run.result.as_ref().map_or(0, |s| s.instructions);
                let best = &mut fastest[run.cell];
                if best.is_none_or(|(fast, _)| ms < fast) {
                    *best = Some((ms, insts));
                }
            } else {
                jobs.failed += 1;
            }
            if traced {
                runs.push(run);
            }
        }
        tracer.end(open);
    }
    for (ms, insts) in fastest.into_iter().flatten() {
        jobs.ok_ms.push(ms);
        jobs.insts += insts;
        jobs.elapsed_s += ms / 1e3;
    }
    (jobs, runs)
}

fn sim_run(
    ctx: &Ctx,
    bins: &Path,
    workload: &str,
    res: &mut RunResult,
    tracer: &mut Tracer,
) -> Result<Measured, String> {
    let chip = workload == "chip-hier";
    let (cells, builds) = sim::setup(chip, SETUP_REPS, tracer);
    let golden_path = ctx.bench.join("golden").join(format!("{workload}.txt"));
    let goldens = Goldens::load(&golden_path)?;
    let mut blessed = ctx.bless.then(Goldens::default);

    // Untimed warm-up pass, which is also the full correctness check. The
    // paper grid goes through the sweep engine the way `figures` runs it.
    let warm: Vec<Result<RunStats, subwarp_core::SimError>> = if chip {
        let order: Vec<usize> = (0..cells.len()).collect();
        let mut off = Tracer::new(false, tracer.epoch(), 0);
        sim::pass(&cells, &order, false, &mut off)
            .into_iter()
            .map(|r| r.result)
            .collect()
    } else {
        sim::run_as_sweep(&cells)
            .map_err(|e| format!("sweep: {e}"))?
            .into_iter()
            .map(Ok)
            .collect()
    };
    for (cell, result) in cells.iter().zip(&warm) {
        check_cell(cell, result, &goldens, &mut blessed, res);
    }
    let goldens = match blessed {
        Some(b) => {
            b.write(&golden_path, &format!("{workload}: {} cells", cells.len()))?;
            println!(
                "blessed {} digests into {}",
                b.0.len(),
                golden_path.display()
            );
            b
        }
        None => goldens,
    };

    let mut rng = SmallRng::seed_from_u64(ctx.seed);
    let mut off = Tracer::new(false, tracer.epoch(), 0);
    let secs = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let passes = pass_count(chip, secs);
    let (jobs, _) = measure(&cells, &goldens, passes, &mut rng, res, &mut off);
    let second = ctx
        .trace
        .then(|| measure(&cells, &goldens, passes, &mut rng, res, tracer));
    let (traced, runs) = match second {
        Some((jobs, runs)) => (Some(jobs), runs),
        None => (None, Vec::new()),
    };
    let total_passes = if ctx.trace { 2 * passes } else { passes };
    res.meta.push(("passes", total_passes.to_string()));
    res.meta.push((
        "cells",
        (jobs.attempted + traced.as_ref().map_or(0, |t| t.attempted)).to_string(),
    ));
    let mut run = Measured {
        setup_s: median(&builds).expect("timed builds"),
        peak_rss_mb: service::vm_hwm_mb("/proc/self/status").unwrap_or(0.0),
        jobs: vec![jobs],
        traced: traced.map(|t| vec![t]),
        ..Measured::default()
    };
    if !ctx.trace {
        return Ok(run);
    }

    let v = &mut run.layers;
    v.insert("workloads.build_s", run.setup_s);
    let core_runs: Vec<(u64, &RunStats)> = runs
        .iter()
        .filter_map(|r| r.result.as_ref().ok().map(|s| (r.dur_ns, s)))
        .collect();
    v.extend(layers::core(&core_runs));
    let model_cells: Vec<layers::ModelCell> = cells
        .iter()
        .zip(&warm)
        .filter_map(|(c, r)| {
            r.as_ref().ok().map(|stats| layers::ModelCell {
                label: &c.label,
                workload: c.label.rsplit_once('/').map_or("", |(w, _)| w),
                sm: &c.sm,
                si: &c.si,
                stats,
            })
        })
        .collect();
    v.extend(layers::model(&model_cells));
    if chip {
        let dur = |label: &str| {
            let ds: Vec<f64> = runs
                .iter()
                .filter(|r| cells[r.cell].label == label)
                .map(|r| r.dur_ns as f64 / 1e9)
                .collect();
            median(&ds).unwrap_or(0.0)
        };
        let base = SiConfig::disabled();
        v.extend(chip_values(
            dur(&sim::chip_label(1, &base)),
            dur(&sim::chip_label(36, &base)),
        ));
    } else {
        v.extend(chip_probe(tracer)?);
    }
    v.extend(layers::trace_decode(
        &layers::read_corpus(&ctx.root)?,
        tracer,
    )?);

    // The journal on this workload's results, keyed by label (the
    // fingerprint's cost is measured separately, on the request path).
    let entries: Vec<(u64, String, RunStats)> = cells
        .iter()
        .zip(&warm)
        .filter_map(|(c, r)| {
            let key = fnv1a(0, c.label.as_bytes());
            r.as_ref().ok().map(|s| (key, c.label.clone(), s.clone()))
        })
        .collect();
    let scratch = scratch_dir(ctx, workload);
    v.extend(layers::journal(&scratch, &entries, tracer)?);

    // A seeded sample of cells as service requests: resolved and simulated
    // in process, then served by a one-daemon fleet behind a router. Both
    // must reproduce the cell's golden digest.
    let with_req: Vec<&Cell> = cells.iter().filter(|c| c.request.is_some()).collect();
    let pick = sim::shuffled(with_req.len(), &mut rng);
    let sample: Vec<&Cell> = pick.iter().take(20).map(|&i| with_req[i]).collect();
    let lines: Vec<String> = sample
        .iter()
        .map(|c| c.request.clone().expect("has a request"))
        .collect();
    let (req_values, specs) = layers::request_path(&lines, tracer)?;
    v.extend(req_values);
    let (sim_values, sims) = layers::simulate_specs(&specs, tracer);
    v.extend(sim_values);
    for (cell, (_, r)) in sample.iter().zip(&sims) {
        match r {
            Ok(stats) => {
                if let Err(e) = goldens.check(&cell.label, digest(stats)) {
                    res.error(format!("as a service request: {e}"));
                }
            }
            Err(e) => res.error(format!("as a service request, {}: {e}", cell.label)),
        }
    }
    let fleet = Fleet::start(bins, &ctx.root, &scratch.join("fleet"), 1, true)?;
    let shard = fleet.shards[0].addr.clone();
    let mut client = service::connect(&shard)?;
    let mut cached = Vec::new();
    for (cell, line) in sample.iter().zip(&lines) {
        let reply = client.request_raw(line).map_err(|e| e.to_string())?;
        let (fp, _, stats) = serve_load::reply_result(&reply)?;
        if let Err(e) = goldens.check(&cell.label, digest(&stats)) {
            res.error(format!("served by subwarp-serve: {e}"));
        }
        cached.push((line.clone(), fp));
    }
    let (hop, late) = serve_load::hop_probe(fleet.front(), &[&shard], &cached, ctx.seed, tracer)?;
    v.extend(hop);
    v.extend(serve_load::fleet_counters(&[&shard], Some(fleet.front()))?);
    run.late_ms_p99 = percentile(&late, 99.0).map_or(0.0, |p| p.0);
    drop(fleet);
    Ok(run)
}

fn scratch_dir(ctx: &Ctx, workload: &str) -> PathBuf {
    ctx.out()
        .join(format!("tmp-{workload}-{}", std::process::id()))
}

/// Reads the commit from `.git` without running git, which would search
/// directories above the checkout.
fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    if let Ok(id) = std::fs::read_to_string(git.join(r)) {
        return id.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(r).map(|id| id.trim().to_owned()))
        .unwrap_or_else(|| "unknown".into())
}

fn loadavg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Runs one workload in this process and writes its result file (and, when
/// traced, its Chrome trace) to `benchmark/out/`.
pub fn run_workload(ctx: &Ctx, workload: &str) -> RunResult {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut res = RunResult {
        workload: workload.to_owned(),
        correct: true,
        meta: vec![
            ("seed", ctx.seed.to_string()),
            ("seconds", num(ctx.seconds)),
            ("trace", ctx.trace.to_string()),
            ("nproc", nproc.to_string()),
            ("loadavg_1m", num(loadavg_1m())),
            ("commit", jstr(&commit(&ctx.root))),
        ],
        ..RunResult::default()
    };
    let mut tracer = Tracer::new(ctx.trace, Instant::now(), 0);
    let scratch = scratch_dir(ctx, workload);
    // The service binaries are built first in every run, so the first run
    // in a fresh checkout pays for the build before anything is timed.
    let outcome = service::build_bins(&ctx.root).and_then(|bins| match workload {
        "paper-grid" | "chip-hier" => sim_run(ctx, &bins, workload, &mut res, &mut tracer),
        "serve-hot" | "serve-cold" => {
            let f = if workload == "serve-hot" {
                serve_load::serve_hot
            } else {
                serve_load::serve_cold
            };
            let r = f(
                &bins,
                &ctx.root,
                &scratch,
                ctx.seed,
                ctx.seconds,
                ctx.trace,
                &mut tracer,
            )?;
            let requests = Jobs::total(&r.jobs).attempted
                + r.traced.as_deref().map_or(0, |t| Jobs::total(t).attempted);
            res.meta.push(("requests", requests.to_string()));
            Ok(r)
        }
        other => Err(format!("unknown workload `{other}`")),
    });
    let _ = std::fs::remove_dir_all(&scratch);
    match outcome {
        Ok(run) => report(workload, run, &mut res, &tracer),
        Err(e) => res.error(e),
    }
    write_files(ctx, workload, &res, &tracer);
    res
}

fn report(workload: &str, run: Measured, res: &mut RunResult, tracer: &Tracer) {
    for e in &run.errors {
        res.error(e.clone());
    }
    res.meta.push(("late_ms_p99", num(run.late_ms_p99)));
    let limit = match workload {
        "serve-hot" => Some(serve_load::HOT_LIMIT_MS),
        "serve-cold" => Some(serve_load::COLD_LIMIT_MS),
        _ => None,
    };
    let (e2e, tail) = end_to_end(run.setup_s, run.peak_rss_mb, &run.jobs, limit);
    let untraced = Jobs::total(&run.jobs);
    res.attempted = untraced.attempted;
    res.failed = untraced.failed;
    res.meta.push(("windows", run.jobs.len().to_string()));
    if let Some(t) = tail {
        res.meta.push(("job_p99_pct", num(t.pct)));
        res.meta.push(("job_p99_beyond", t.beyond.to_string()));
        res.meta.push(("job_samples", t.n.to_string()));
        res.notes.push(match run.jobs.len() {
            1 => format!(
                "job_p99_ms is p{:.2} over {} jobs, {} beyond it",
                t.pct, t.n, t.beyond
            ),
            w => format!(
                "job_p99_ms is the median of {w} windows' p{:.2} or higher, each with at least {} jobs beyond it ({} jobs in all)",
                t.pct, t.beyond, t.n
            ),
        });
    }
    let Some(traced) = &run.traced else {
        res.metrics = e2e
            .iter()
            .map(|(d, v)| (d.name.to_owned(), *v, d.unit))
            .collect();
        return;
    };
    let traced = Jobs::total(traced);
    res.attempted += traced.attempted;
    res.failed += traced.failed;
    let mut v = run.layers;
    let p50 = |j: &Jobs| median(&j.ok_ms).unwrap_or(0.0);
    let overhead = (p50(&traced) / p50(&untraced) - 1.0) * 100.0;
    v.insert("trace_overhead_pct", overhead);
    v.insert("loadgen.late_ms_p99", run.late_ms_p99);
    res.notes.push(format!(
        "trace_overhead_pct = {overhead:.2} (job p50 traced vs untraced)"
    ));
    let phase_sum: f64 = v
        .iter()
        .filter(|(k, _)| k.starts_with("core.phase."))
        .map(|(_, x)| x)
        .sum();
    res.notes.push(format!(
        "core.phase shares + unattributed sum to {phase_sum:.4}"
    ));
    for def in &PER_LAYER {
        match v.get(def.name) {
            Some(x) if x.is_finite() => res.metrics.push((def.name.to_owned(), *x, def.unit)),
            _ => {
                res.error(format!("per-layer metric {} was not measured", def.name));
                res.metrics.push((def.name.to_owned(), 0.0, def.unit));
            }
        }
    }
    let spans = tracer.spans();
    if tracer.dropped() > 0 {
        res.notes.push(format!(
            "{} spans past the per-lane cap were counted but not recorded",
            tracer.dropped()
        ));
    }
    for (name, t) in totals(spans) {
        res.notes.push(format!(
            "span {name:<28} n={:<8} total={:>10.3} ms self={:>10.3} ms",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
}

fn write_files(ctx: &Ctx, workload: &str, res: &RunResult, tracer: &Tracer) {
    let out = ctx.out();
    if std::fs::create_dir_all(&out).is_err() {
        return;
    }
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap_or(Duration::ZERO)
        .as_millis();
    let kind = if ctx.trace { "trace" } else { "run" };
    let stem = format!("{workload}-seed{}-{kind}-{stamp}", ctx.seed);
    let _ = std::fs::write(out.join(format!("{stem}.json")), res.file_json());
    if ctx.trace {
        let _ = std::fs::write(
            out.join(format!("{stem}.trace.json")),
            chrome_trace(tracer.spans()),
        );
    }
}
