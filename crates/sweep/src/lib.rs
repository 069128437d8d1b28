//! Reusable sweep engine: the declarative workload × configuration grid,
//! fault-tolerant supervised execution, content fingerprints, and locked
//! JSONL checkpoint journals.
//!
//! Extracted from `subwarp-bench` so both the figure pipeline and the
//! `subwarp-serve` daemon share one implementation of "run this simulation
//! exactly once, remember the answer exactly, and survive every failure
//! mode". The pieces:
//!
//! - [`Sweep`]: the cartesian grid of shared workloads × named simulator
//!   configurations every figure (and every batch of service jobs) is a
//!   slice of.
//! - [`run_resilient`]: the grid under [`subwarp_pool::run_supervised`] —
//!   each cell isolated by `catch_unwind`, optionally bounded by a soft
//!   wall-clock deadline and retried on transient failures — returning a
//!   [`PartialGrid`] where every cell is either its `RunStats` or a labeled
//!   [`JobError`] *hole*, never a lost sweep.
//! - [`Journal`]: an append-only JSONL checkpoint keyed by
//!   [`cell_fingerprint`], exact for the all-integer `RunStats`, guarded by
//!   an exclusive lock file so two writers can never interleave.
//! - [`json`]: the workspace's one JSON codec — a std-only reader with
//!   lossless 64-bit integers, the string escaper, and the JSONL file
//!   (torn lines skipped, one flushed write per record) under both this
//!   journal and the fuzzer's.
//! - [`SweepPolicy`] + [`FaultPlan`] deterministic fault injection — the
//!   chaos path exercised by `figures chaos` and the CI `chaos-smoke` and
//!   `serve-smoke` jobs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use subwarp_core::{FaultPlan, RunStats, SiConfig, SimError, Simulator, SmConfig, Workload};
use subwarp_pool::{JobCause, JobError, Supervisor};
use subwarp_workloads::built_suite;

pub mod fingerprint;
pub mod journal;
pub mod json;

pub use fingerprint::{cell_fingerprint, workload_hash};
pub use journal::{
    lock_path_for, push_stats_json, CompactPolicy, CompactStats, CompactStep, Journal,
};
pub use json::json_escape;
pub use subwarp_core::{fnv1a, stats_to_units, units_to_stats};

// ------------------------------------------------------------------- Sweep

/// A declarative experiment sweep: the cartesian grid of shared workloads
/// × named simulator configurations.
///
/// Every figure and table of the paper is some slice of this grid. The
/// cells are completely independent `Simulator::run` calls, so
/// [`Sweep::run`] fans them out across the [`subwarp_pool`] workers and
/// reassembles the results in grid order — a parallel sweep returns
/// exactly what the serial one (`SUBWARP_JOBS=1`) returns.
#[derive(Default)]
pub struct Sweep {
    workloads: Vec<(String, Arc<Workload>)>,
    configs: Vec<(String, SmConfig, SiConfig)>,
}

impl Sweep {
    /// An empty sweep; add rows and columns with the builder methods.
    pub fn new() -> Sweep {
        Sweep::default()
    }

    /// A sweep over the shared, built-once Table II suite
    /// ([`built_suite`]).
    pub fn over_suite() -> Sweep {
        let mut s = Sweep::new();
        for (t, wl) in built_suite() {
            s.workloads.push((t.name.to_owned(), Arc::clone(wl)));
        }
        s
    }

    /// Adds a (prebuilt, shared) workload row.
    pub fn workload(mut self, name: impl Into<String>, wl: Arc<Workload>) -> Sweep {
        self.workloads.push((name.into(), wl));
        self
    }

    /// Adds a simulator-configuration column.
    pub fn config(mut self, label: impl Into<String>, sm: SmConfig, si: SiConfig) -> Sweep {
        self.configs.push((label.into(), sm, si));
        self
    }

    /// Workload names in grid row order.
    pub fn workload_names(&self) -> impl Iterator<Item = &str> {
        self.workloads.iter().map(|(n, _)| n.as_str())
    }

    /// Configuration labels in grid column order.
    pub fn config_labels(&self) -> impl Iterator<Item = &str> {
        self.configs.iter().map(|(l, _, _)| l.as_str())
    }

    /// Number of cells (`workloads × configs`) the sweep will run.
    pub fn len(&self) -> usize {
        self.workloads.len() * self.configs.len()
    }

    /// True when the grid has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runs the grid on the default worker count
    /// ([`subwarp_pool::default_jobs`]). `grid[w][c]` holds workload `w`
    /// under configuration `c`; on failure, the first error in grid order
    /// is returned.
    pub fn run(&self) -> Result<Vec<Vec<RunStats>>, SimError> {
        self.run_with_jobs(subwarp_pool::default_jobs())
    }

    /// Runs the grid on exactly `workers` threads (the serial/parallel
    /// determinism A/B hook).
    ///
    /// When a process-global [`SweepPolicy`] has been installed (the
    /// `figures` binary does this for `--resume`/`--journal`/`--deadline`/
    /// `--attempts`), the grid runs under supervision instead; a
    /// strict-mode caller still sees the first hole as a `SimError`.
    /// Without an installed policy the grid runs unsupervised through
    /// [`subwarp_pool::run_with_jobs`]. That path stays because supervision
    /// runs each cell on a spawned worker thread, which costs memory:
    /// routing every grid through [`run_resilient`] raised the benchmark's
    /// paper-grid peak RSS from 5.85 to 6.21 MB (median of 3 runs each on a
    /// 2-vCPU VM).
    pub fn run_with_jobs(&self, workers: usize) -> Result<Vec<Vec<RunStats>>, SimError> {
        if let Some(policy) = global_policy() {
            let mut policy = policy.clone();
            policy.workers = Some(workers);
            return run_resilient(self, &policy).into_result();
        }
        let nc = self.configs.len();
        let cells = subwarp_pool::run_with_jobs(workers, self.len(), |i| {
            let (_, wl) = &self.workloads[i / nc];
            let (_, sm, si) = &self.configs[i % nc];
            Simulator::new(sm.clone(), *si).run(wl)
        });
        let mut it = cells.into_iter();
        let mut grid = Vec::with_capacity(self.workloads.len());
        for _ in 0..self.workloads.len() {
            grid.push((&mut it).take(nc).collect::<Result<Vec<_>, _>>()?);
        }
        Ok(grid)
    }
}

// ----------------------------------------------------------------- policy

/// How a resilient sweep is supervised.
#[derive(Debug, Clone, Default)]
pub struct SweepPolicy {
    /// Worker threads; `None` uses [`subwarp_pool::default_jobs`].
    pub workers: Option<usize>,
    /// Per-cell soft wall-clock deadline; an overdue cell becomes a
    /// [`SimError::Timeout`] hole.
    pub deadline: Option<Duration>,
    /// Attempts per cell (`0`/`1` = no retries). Retries apply to panics
    /// and simulation errors — transient injected faults (see
    /// `FaultPlan::clears_after`) succeed on a later attempt.
    pub max_attempts: u32,
    /// Deterministic fault injection, evaluated per cell label before the
    /// simulation runs.
    pub faults: Option<FaultPlan>,
    /// Checkpoint journal: completed cells are restored from (and recorded
    /// to) this journal.
    pub journal: Option<Arc<Journal>>,
}

impl SweepPolicy {
    fn supervisor(&self) -> Supervisor {
        Supervisor {
            workers: self.workers.unwrap_or_else(subwarp_pool::default_jobs),
            deadline: self.deadline,
            max_attempts: self.max_attempts.max(1),
            ..Supervisor::default()
        }
    }
}

/// Process-global sweep policy, installed once by the `figures` binary when
/// invoked with `--resume`/`--journal`/`--deadline`/`--attempts` so every
/// figure's internal `Sweep::run` becomes resilient without threading the
/// policy through each experiment's signature. Library users (and tests)
/// pass a policy to [`run_resilient`] explicitly instead; nothing in this
/// crate installs a global policy on its own.
static GLOBAL_POLICY: OnceLock<SweepPolicy> = OnceLock::new();

/// Installs the process-global policy. Returns `false` (and changes
/// nothing) if one was already installed.
pub fn install_global_policy(policy: SweepPolicy) -> bool {
    GLOBAL_POLICY.set(policy).is_ok()
}

/// The installed process-global policy, if any.
pub fn global_policy() -> Option<&'static SweepPolicy> {
    GLOBAL_POLICY.get()
}

/// Process-global count of holes produced by [`run_resilient`] calls, for
/// callers (the `figures --max-holes` budget) that aggregate over many
/// grids without threading a counter through every experiment signature.
static HOLES: AtomicUsize = AtomicUsize::new(0);

/// Total holes observed by every [`run_resilient`] call in this process.
pub fn holes_observed() -> usize {
    HOLES.load(Ordering::Relaxed)
}

// ----------------------------------------------------------- partial grid

/// A sweep result where every cell is either its `RunStats` or a labeled
/// hole explaining the failure.
#[derive(Debug)]
pub struct PartialGrid {
    n_configs: usize,
    cells: Vec<Result<RunStats, JobError<SimError>>>,
}

impl PartialGrid {
    /// Grid rows: `rows()[w][c]` is workload `w` under configuration `c`.
    pub fn rows(&self) -> Vec<&[Result<RunStats, JobError<SimError>>]> {
        if self.n_configs == 0 {
            return Vec::new();
        }
        self.cells.chunks(self.n_configs).collect()
    }

    /// One cell.
    pub fn cell(&self, workload: usize, config: usize) -> &Result<RunStats, JobError<SimError>> {
        &self.cells[workload * self.n_configs + config]
    }

    /// Every failed cell, in grid order.
    pub fn holes(&self) -> Vec<&JobError<SimError>> {
        self.cells.iter().filter_map(|c| c.as_ref().err()).collect()
    }

    /// Cells that completed successfully.
    pub fn completed(&self) -> usize {
        self.cells.iter().filter(|c| c.is_ok()).count()
    }

    /// Collapses into the strict all-or-nothing grid `Sweep::run` returns:
    /// the first hole in grid order becomes the sweep's `SimError`.
    pub fn into_result(self) -> Result<Vec<Vec<RunStats>>, SimError> {
        let n_configs = self.n_configs;
        let mut flat = Vec::with_capacity(self.cells.len());
        for cell in self.cells {
            flat.push(cell.map_err(job_error_to_sim)?);
        }
        Ok(if n_configs == 0 {
            Vec::new()
        } else {
            flat.chunks(n_configs).map(<[RunStats]>::to_vec).collect()
        })
    }
}

/// Converts a supervision failure into the `SimError` vocabulary so strict
/// callers keep their `Result<_, SimError>` signature.
pub fn job_error_to_sim(e: JobError<SimError>) -> SimError {
    match e.cause {
        JobCause::Err(sim) => sim,
        JobCause::Panic(message) => SimError::Panicked {
            workload: e.label,
            message,
        },
        JobCause::Timeout { deadline } => SimError::Timeout {
            workload: e.label,
            deadline_ms: deadline.as_millis() as u64,
        },
        JobCause::Cancelled => SimError::Cancelled { workload: e.label },
    }
}

// ------------------------------------------------------------ run_resilient

struct JobSpec {
    label: String,
    fp: u64,
    wl: Arc<Workload>,
    sm: SmConfig,
    si: SiConfig,
}

/// Runs a sweep grid under supervision, returning a [`PartialGrid`] with
/// one labeled outcome per cell.
///
/// Cells whose fingerprint is already in the policy's [`Journal`] are
/// restored without re-simulating; freshly completed cells are journaled
/// as they finish. Cell labels are `"<workload>/<config>"`. Determinism:
/// for a fault-free (or deterministically-faulted) sweep, the `Ok`/`Err`
/// pattern and every `Ok` payload are identical for serial and parallel
/// runs, and for interrupted-then-resumed versus uninterrupted runs.
// `JobError<SimError>` is only materialized once per *failed* cell; boxing
// it would push the indirection into every PartialGrid accessor for no
// hot-path benefit.
#[allow(clippy::result_large_err)]
pub fn run_resilient(sweep: &Sweep, policy: &SweepPolicy) -> PartialGrid {
    let n_configs = sweep.configs.len();
    let specs: Vec<JobSpec> = sweep
        .workloads
        .iter()
        .flat_map(|(wname, wl)| {
            let whash = workload_hash(wl);
            sweep.configs.iter().map(move |(cname, sm, si)| {
                let label = format!("{wname}/{cname}");
                let fp = cell_fingerprint(&label, whash, sm, si);
                JobSpec {
                    label,
                    fp,
                    wl: Arc::clone(wl),
                    sm: sm.clone(),
                    si: *si,
                }
            })
        })
        .collect();

    let mut cells: Vec<Option<Result<RunStats, JobError<SimError>>>> =
        (0..specs.len()).map(|_| None).collect();
    if let Some(journal) = &policy.journal {
        for (i, spec) in specs.iter().enumerate() {
            if let Some(stats) = journal.lookup(spec.fp) {
                cells[i] = Some(Ok(stats));
            }
        }
    }
    let pending: Vec<usize> = (0..specs.len()).filter(|&i| cells[i].is_none()).collect();
    if !pending.is_empty() {
        let labels: Vec<String> = pending.iter().map(|&i| specs[i].label.clone()).collect();
        let specs = Arc::new(specs);
        let run_specs = Arc::clone(&specs);
        let pending_for_job = pending.clone();
        let faults = policy.faults.clone();
        let journal = policy.journal.clone();
        let outcomes =
            subwarp_pool::run_supervised(&policy.supervisor(), &labels, move |k, attempt| {
                let spec = &run_specs[pending_for_job[k]];
                if let Some(plan) = &faults {
                    plan.sabotage(&spec.label, attempt)?;
                }
                let stats = Simulator::new(spec.sm.clone(), spec.si).run(&spec.wl)?;
                if let Some(j) = &journal {
                    j.record(spec.fp, &spec.label, &stats);
                }
                Ok(stats)
            });
        for (k, outcome) in outcomes.into_iter().enumerate() {
            // Re-anchor the supervised batch's job index to the grid index.
            let i = pending[k];
            cells[i] = Some(outcome.map_err(|e| JobError { index: i, ..e }));
        }
    }
    let grid = PartialGrid {
        n_configs,
        cells: cells
            .into_iter()
            .map(|c| c.expect("every cell resolved"))
            .collect(),
    };
    HOLES.fetch_add(grid.holes().len(), Ordering::Relaxed);
    grid
}

// ------------------------------------------------------------- chaos sweep

/// A small, fast sweep with deterministic injected faults, used by
/// `figures chaos` and the CI `chaos-smoke` job to prove the supervision
/// layer end to end: a panic hole, an injected-`SimError` hole, a
/// deadline-timeout hole, and a dropped-fill column that must surface as a
/// deadlock hole via the SM watchdog — while every healthy cell completes.
pub fn chaos_sweep() -> (Sweep, SweepPolicy) {
    use subwarp_core::{FaultKind, MemBackendConfig, MemFaultConfig};
    use subwarp_workloads::{figure9_workload, microbenchmark};

    let mut sm = SmConfig::turing_like();
    // Keep the dropped-fill deadlock cheap: a short watchdog horizon is
    // plenty for these tiny kernels.
    sm.max_cycles = 10_000_000;
    let mut faulty_sm = sm.clone();
    faulty_sm.mem_backend = MemBackendConfig::Faulty {
        fault: MemFaultConfig {
            seed: 0xC405,
            drop_per_mille: 1000,
            ..MemFaultConfig::default()
        },
        inner: Box::new(MemBackendConfig::Fixed),
    };

    let sweep = Sweep::new()
        .workload("toy", Arc::new(figure9_workload()))
        .workload("micro", Arc::new(microbenchmark(8, 4)))
        .config("base", sm.clone(), SiConfig::disabled())
        .config("si", sm, SiConfig::best())
        .config("dropped-fills", faulty_sm, SiConfig::disabled());

    let faults = FaultPlan::none(0xC405)
        .with_target("toy/si", FaultKind::Panic)
        .with_target("micro/base", FaultKind::Error)
        .with_target("micro/si", FaultKind::Delay { ms: 60_000 });
    let policy = SweepPolicy {
        deadline: Some(Duration::from_millis(1500)),
        faults: Some(faults),
        ..SweepPolicy::default()
    };
    (sweep, policy)
}
