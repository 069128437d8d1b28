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
    /// Shared with the jobs of a run, so a cell reads its row and column
    /// in place instead of carrying a copy of its config.
    grid: Arc<Grid>,
}

#[derive(Default, Clone)]
struct Grid {
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
            s = s.workload(t.name, Arc::clone(wl));
        }
        s
    }

    /// Adds a (prebuilt, shared) workload row.
    pub fn workload(mut self, name: impl Into<String>, wl: Arc<Workload>) -> Sweep {
        Arc::make_mut(&mut self.grid)
            .workloads
            .push((name.into(), wl));
        self
    }

    /// Adds a simulator-configuration column.
    pub fn config(mut self, label: impl Into<String>, sm: SmConfig, si: SiConfig) -> Sweep {
        Arc::make_mut(&mut self.grid)
            .configs
            .push((label.into(), sm, si));
        self
    }

    /// Workload names in grid row order.
    pub fn workload_names(&self) -> impl Iterator<Item = &str> {
        self.grid.workloads.iter().map(|(n, _)| n.as_str())
    }

    /// Configuration labels in grid column order.
    pub fn config_labels(&self) -> impl Iterator<Item = &str> {
        self.grid.configs.iter().map(|(l, _, _)| l.as_str())
    }

    /// Number of cells (`workloads × configs`) the sweep will run.
    pub fn len(&self) -> usize {
        self.grid.workloads.len() * self.grid.configs.len()
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
    /// determinism A/B hook): [`run_resilient`] under the process-global
    /// [`SweepPolicy`] when one is installed (the `figures` binary installs
    /// one for its `--resume`/`--journal`/`--deadline`/`--attempts` flags),
    /// otherwise under the default policy, with `workers` set. The first
    /// hole in grid order becomes the sweep's `SimError`, so a panicking
    /// cell is a [`SimError::Panicked`] naming its label.
    ///
    /// One worker runs every cell on the calling thread. A cell reads its
    /// row and column from the shared grid and restores from the journal
    /// inside its job, so supervision copies no config per cell: the
    /// benchmark's paper-grid, whose warm-up is one `run_with_jobs(1)`,
    /// peaks at 5.91 MB RSS against 5.86 MB through the unsupervised pool
    /// this replaced (medians of 20 alternating pairs on a 2-vCPU VM).
    pub fn run_with_jobs(&self, workers: usize) -> Result<Vec<Vec<RunStats>>, SimError> {
        let policy = SweepPolicy {
            workers: Some(workers),
            ..global_policy().cloned().unwrap_or_default()
        };
        run_resilient(self, &policy).into_result()
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
        let mut rows: Vec<Vec<RunStats>> = Vec::new();
        for (i, cell) in self.cells.into_iter().enumerate() {
            if i % self.n_configs == 0 {
                rows.push(Vec::with_capacity(self.n_configs));
            }
            let row = rows.last_mut().expect("a row was started");
            row.push(cell.map_err(job_error_to_sim)?);
        }
        Ok(rows)
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

/// Runs a sweep grid under supervision, returning a [`PartialGrid`] with
/// one labeled outcome per cell.
///
/// Each cell's job restores the cell from the policy's [`Journal`] when
/// its fingerprint is there; otherwise it applies the policy's
/// [`FaultPlan`], simulates, and journals the result as it finishes. Cell
/// labels are `"<workload>/<config>"`. Determinism: for a fault-free (or
/// deterministically-faulted) sweep, the `Ok`/`Err` pattern and every `Ok`
/// payload are identical for serial and parallel runs, and for
/// interrupted-then-resumed versus uninterrupted runs.
// `JobError<SimError>` is only materialized once per *failed* cell; boxing
// it would push the indirection into every PartialGrid accessor for no
// hot-path benefit.
#[allow(clippy::result_large_err)]
pub fn run_resilient(sweep: &Sweep, policy: &SweepPolicy) -> PartialGrid {
    let grid = Arc::clone(&sweep.grid);
    let n_configs = grid.configs.len();
    let mut labels = Vec::with_capacity(sweep.len());
    for (wname, _) in &grid.workloads {
        for (cname, _, _) in &grid.configs {
            labels.push(format!("{wname}/{cname}"));
        }
    }
    let labels = Arc::new(labels);
    // The journal, with each row's workload hash for the cell keys.
    let journal = policy.journal.clone().map(|j| {
        let rows: Vec<u64> = grid
            .workloads
            .iter()
            .map(|(_, wl)| workload_hash(wl))
            .collect();
        (j, rows)
    });
    let faults = policy.faults.clone();
    let job_labels = Arc::clone(&labels);
    let cells = subwarp_pool::run_supervised(&policy.supervisor(), &labels, move |i, attempt| {
        let (_, wl) = &grid.workloads[i / n_configs];
        let (_, sm, si) = &grid.configs[i % n_configs];
        let label = &job_labels[i];
        let key = journal
            .as_ref()
            .map(|(j, rows)| (j, cell_fingerprint(label, rows[i / n_configs], sm, si)));
        if let Some(stats) = key.and_then(|(j, fp)| j.lookup(fp)) {
            return Ok(stats);
        }
        if let Some(plan) = &faults {
            plan.sabotage(label, attempt)?;
        }
        let stats = Simulator::new(sm.clone(), *si).run(wl)?;
        if let Some((j, fp)) = key {
            j.record(fp, label, &stats);
        }
        Ok(stats)
    });
    let grid = PartialGrid { n_configs, cells };
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
