#![warn(missing_docs)]

//! # subwarp-pool — a scoped-thread worker pool for embarrassingly
//! parallel sweeps
//!
//! The simulator's experiment sweeps (figures, tables, fuzzing batches) are
//! cartesian grids of completely independent `Simulator::run` calls. This
//! crate fans such a grid out across OS threads with three guarantees:
//!
//! 1. **No external dependencies.** Built on [`std::thread`] (and the
//!    workspace's std-only `subwarp-prng` mixer for backoff jitter), so the
//!    workspace stays offline. [`run_with_jobs`] uses
//!    [`std::thread::scope`], so borrowed (non-`'static`) job closures work.
//! 2. **Deterministic results.** Jobs are identified by index `0..n_jobs`
//!    and results are returned ordered by that index, regardless of which
//!    worker ran which job or in what order they finished. A parallel sweep
//!    is therefore byte-identical to the serial one.
//! 3. **Dynamic scheduling.** Workers claim job indices from a shared
//!    atomic counter (self-scheduling with chunk size 1 — the degenerate
//!    but contention-free form of work stealing), so a grid mixing 2 ms
//!    microbenchmark runs with 400 ms megakernel runs still load-balances.
//!
//! The worker count defaults to the host parallelism and can be pinned with
//! the `SUBWARP_JOBS` environment variable (`SUBWARP_JOBS=1` forces the
//! serial path, useful for determinism A/B checks).
//!
//! ```
//! let squares = subwarp_pool::run_with_jobs(4, 8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```
//!
//! ## Supervised execution
//!
//! Long sweeps want to *survive* individual-cell failures instead of dying
//! with them: [`run_supervised`] wraps every job in
//! [`std::panic::catch_unwind`], enforces an optional per-job soft deadline
//! via a supervisor watchdog, retries failures with capped exponential
//! backoff while attempts remain, and returns index-ordered
//! `Vec<Result<T, JobError<E>>>` — one labeled outcome per job, never a
//! cross-job abort. The determinism guarantee is unchanged: `Ok` payloads
//! and fault-injected `Err` patterns are identical for serial and parallel
//! runs (only real wall-clock timeouts depend on the host).

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use subwarp_prng::splitmix64;

/// The default worker count: the `SUBWARP_JOBS` environment variable
/// when set to a positive integer, otherwise the host's available
/// parallelism (1 if that cannot be determined).
///
/// An unparsable or zero `SUBWARP_JOBS` value falls back to the host
/// parallelism and emits a one-time warning on stderr naming the bad value.
pub fn default_jobs() -> usize {
    let (jobs, warning) = jobs_from_env(std::env::var("SUBWARP_JOBS").ok().as_deref());
    if let Some(w) = warning {
        static WARNED: std::sync::Once = std::sync::Once::new();
        WARNED.call_once(|| eprintln!("warning: {w}"));
    }
    jobs
}

/// Resolves a raw `SUBWARP_JOBS` value to a worker count, plus a warning
/// message when the value was present but unusable (unparsable or zero).
/// Split out from [`default_jobs`] so the fallback policy is testable.
pub fn jobs_from_env(raw: Option<&str>) -> (usize, Option<String>) {
    match raw {
        None => (host_parallelism(), None),
        Some(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => (n, None),
            _ => {
                let fallback = host_parallelism();
                (
                    fallback,
                    Some(format!(
                        "ignoring SUBWARP_JOBS={v:?} (not a positive integer); \
                         using host parallelism ({fallback})"
                    )),
                )
            }
        },
    }
}

thread_local! {
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Whether the calling thread is a worker spawned by [`run_with_jobs`] or
/// [`run_supervised`]. Code that could fan out further (a multi-SM run
/// steps its SMs on threads) stays on this one thread instead, so a sweep
/// never oversubscribes the host.
pub fn in_worker() -> bool {
    IN_WORKER.with(|w| w.get())
}

/// The host's available parallelism (1 when undetectable).
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs jobs `0..n_jobs` on exactly `workers` threads (clamped to
/// `[1, n_jobs]`), returning results ordered by job index. `workers == 1`
/// runs inline on the calling thread with no synchronization at all, which
/// is the reference serial schedule for determinism tests.
///
/// A panicking job stops the sweep: remaining jobs are not claimed, and the
/// *first* panic's payload is re-raised on the calling thread once all
/// workers have parked — never a secondary "poisoned mutex" panic that
/// would mask the original message.
pub fn run_with_jobs<T, F>(workers: usize, n_jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.max(1).min(n_jobs.max(1));
    if workers <= 1 || n_jobs <= 1 {
        return (0..n_jobs).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let done: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n_jobs));
    // First panic payload wins; later panics (and clean workers' results)
    // are discarded. Guards are recovered with `into_inner` so one
    // panicking worker can never poison the collection path for the rest.
    let panicked: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                IN_WORKER.with(|w| w.set(true));
                // Finished jobs are buffered locally and published in one
                // lock per worker batch, keeping the mutex out of the
                // per-job path.
                let mut local: Vec<(usize, T)> = Vec::new();
                loop {
                    if abort.load(Ordering::Relaxed) {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n_jobs {
                        break;
                    }
                    match catch_unwind(AssertUnwindSafe(|| f(i))) {
                        Ok(t) => local.push((i, t)),
                        Err(payload) => {
                            abort.store(true, Ordering::Relaxed);
                            let mut first = panicked.lock().unwrap_or_else(|e| e.into_inner());
                            if first.is_none() {
                                *first = Some(payload);
                            }
                            break;
                        }
                    }
                }
                if !local.is_empty() {
                    done.lock().unwrap_or_else(|e| e.into_inner()).extend(local);
                }
            });
        }
    });
    if let Some(payload) = panicked.into_inner().unwrap_or_else(|e| e.into_inner()) {
        resume_unwind(payload);
    }
    let mut done = done.into_inner().unwrap_or_else(|e| e.into_inner());
    done.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(done.len(), n_jobs);
    done.into_iter().map(|(_, t)| t).collect()
}

// ---------------------------------------------------- supervised execution

/// Why one supervised job failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobCause<E> {
    /// The job panicked; the payload (downcast to a string when possible)
    /// was captured by [`std::panic::catch_unwind`].
    Panic(String),
    /// The job returned an error of the caller's type.
    Err(E),
    /// The job exceeded the supervisor's per-job soft deadline and was
    /// abandoned. Its thread may still be running (threads cannot be
    /// killed); the supervisor spawns a replacement worker so pool capacity
    /// is unaffected.
    Timeout {
        /// The deadline that elapsed.
        deadline: Duration,
    },
    /// The job was never run: an external [`Supervisor::cancel`] flag was
    /// raised (e.g. a server drain).
    Cancelled,
}

impl<E: std::fmt::Display> std::fmt::Display for JobCause<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobCause::Panic(msg) => write!(f, "panic: {msg}"),
            JobCause::Err(e) => write!(f, "{e}"),
            JobCause::Timeout { deadline } => {
                write!(f, "timed out after {} ms", deadline.as_millis())
            }
            JobCause::Cancelled => write!(f, "cancelled before running"),
        }
    }
}

/// One supervised job's failure: which job, what it was called, how many
/// attempts were made, and why the last one failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError<E> {
    /// Job index within the supervised batch (`0..n_jobs`).
    pub index: usize,
    /// Caller-supplied human-readable label (e.g. `"AV1/Both,N>=0.5"`).
    pub label: String,
    /// Attempts made (1 = no retries; 0 = cancelled before running).
    pub attempts: u32,
    /// The final attempt's failure cause.
    pub cause: JobCause<E>,
}

impl<E: std::fmt::Display> std::fmt::Display for JobError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job {} (`{}`) ", self.index, self.label)?;
        if self.attempts > 1 {
            write!(f, "failed after {} attempts: ", self.attempts)?;
        } else {
            write!(f, "failed: ")?;
        }
        write!(f, "{}", self.cause)
    }
}

impl<E: std::fmt::Debug + std::fmt::Display> std::error::Error for JobError<E> {}

/// Capped exponential backoff with deterministic per-(index, attempt)
/// jitter — the retry schedule [`run_supervised`] sleeps on, extracted so
/// other retry loops (the `subwarp-router` shard dialer, for one) share the
/// exact same machinery instead of growing a second, subtly different
/// backoff.
///
/// The jitter is a pure function of `(jitter_seed, index, attempt)`: two
/// runs with the same configuration sleep identical amounts for identical
/// pairs, while distinct indices spread over `[0.5, 1.0)` of the cap so a
/// herd of simultaneous failures does not retry in lockstep.
#[derive(Debug, Clone)]
pub struct Backoff {
    /// First retry backoff; doubles per attempt.
    pub base: Duration,
    /// Backoff cap.
    pub max: Duration,
    /// Seed for the deterministic jitter.
    pub jitter_seed: u64,
}

impl Default for Backoff {
    fn default() -> Backoff {
        Backoff {
            base: Duration::from_millis(10),
            max: Duration::from_secs(1),
            jitter_seed: 0,
        }
    }
}

impl Backoff {
    /// Capped exponential backoff before retry attempt `attempt` (2-based:
    /// the first retry is attempt 2), un-jittered.
    pub fn cap(&self, attempt: u32) -> Duration {
        let factor = 1u32 << (attempt.saturating_sub(2)).min(16);
        self.base.saturating_mul(factor).min(self.max)
    }

    /// The jittered sleep before retry `attempt` of job `index`: the
    /// capped exponential [`cap`](Backoff::cap) (never exceeded) scaled by
    /// a deterministic factor in `[0.5, 1.0)` derived from
    /// `(jitter_seed, index, attempt)`.
    pub fn delay(&self, index: usize, attempt: u32) -> Duration {
        let capped = self.cap(attempt);
        // One splitmix64 draw over the (seed, index, attempt) triple.
        let z = splitmix64(
            &mut self
                .jitter_seed
                .wrapping_add((index as u64) << 32)
                .wrapping_add(attempt as u64),
        );
        // Map to [0.5, 1.0): half the cap guarantees progress, the spread
        // de-synchronizes the herd.
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
        capped.mul_f64(0.5 + unit / 2.0)
    }
}

/// Supervision policy for [`run_supervised`].
#[derive(Debug, Clone)]
pub struct Supervisor {
    /// Worker threads (clamped to `[1, n_jobs]`).
    pub workers: usize,
    /// Per-job soft deadline. A job running longer is abandoned with
    /// [`JobCause::Timeout`] and a replacement worker is spawned; `None`
    /// disables the watchdog.
    pub deadline: Option<Duration>,
    /// Maximum attempts per job (≥ 1). A job that panics or returns `Err`
    /// is retried while attempts remain.
    pub max_attempts: u32,
    /// The sleep before each retry. Its jitter only scales the *sleep* —
    /// never job results — so serial/parallel determinism is unaffected.
    pub backoff: Backoff,
    /// External cancellation hook: when the flag is raised (e.g. by a
    /// draining server), jobs not yet started complete as
    /// [`JobCause::Cancelled`] and failed jobs stop retrying; jobs already
    /// running finish normally.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl Default for Supervisor {
    fn default() -> Supervisor {
        Supervisor {
            workers: default_jobs(),
            deadline: None,
            max_attempts: 1,
            backoff: Backoff::default(),
            cancel: None,
        }
    }
}

/// Per-batch state shared between workers and the supervisor.
struct Shared {
    next: AtomicUsize,
    /// Microseconds-since-epoch (+1, so 0 means "not running") of the
    /// attempt currently executing each job.
    running_since: Vec<AtomicU64>,
    /// Attempt number currently executing each job.
    attempt_of: Vec<AtomicU32>,
}

struct DoneMsg<T, E> {
    index: usize,
    attempts: u32,
    outcome: Result<T, JobCause<E>>,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs `labels.len()` jobs under supervision and returns index-ordered
/// per-job outcomes — one `Result` per job, never a cross-job abort.
///
/// Each job `f(index, attempt)` (attempts are 1-based) is wrapped in
/// [`catch_unwind`]; panics become [`JobCause::Panic`] with the original
/// payload preserved. Failures retry up to [`Supervisor::max_attempts`]
/// with the supervisor's [`Backoff`] between attempts. An
/// optional per-job soft [`Supervisor::deadline`] is enforced by the
/// supervising (calling) thread: an overdue job is abandoned as
/// [`JobCause::Timeout`], a replacement worker is spawned so remaining jobs
/// still run, and the stuck thread is left detached (it cannot be killed;
/// a late result is discarded).
///
/// Determinism: `Ok` payloads — and `Err` patterns produced by
/// deterministic job code — are identical regardless of the worker count.
/// Only real wall-clock timeouts depend on the host.
pub fn run_supervised<T, E, F>(
    sup: &Supervisor,
    labels: &[String],
    f: F,
) -> Vec<Result<T, JobError<E>>>
where
    T: Send + 'static,
    E: Send + 'static,
    F: Fn(usize, u32) -> Result<T, E> + Send + Sync + 'static,
{
    let n = labels.len();
    if n == 0 {
        return Vec::new();
    }
    let epoch = Instant::now();
    let shared = Arc::new(Shared {
        next: AtomicUsize::new(0),
        running_since: (0..n).map(|_| AtomicU64::new(0)).collect(),
        attempt_of: (0..n).map(|_| AtomicU32::new(0)).collect(),
    });
    let f = Arc::new(f);
    let (tx, rx) = mpsc::channel::<DoneMsg<T, E>>();
    let sup = sup.clone();
    let workers = sup.workers.clamp(1, n);

    let spawn_worker =
        |shared: &Arc<Shared>, tx: &mpsc::Sender<DoneMsg<T, E>>| -> std::thread::JoinHandle<()> {
            let shared = Arc::clone(shared);
            let tx = tx.clone();
            let f = Arc::clone(&f);
            let sup = sup.clone();
            std::thread::spawn(move || {
                IN_WORKER.with(|w| w.set(true));
                loop {
                    let i = shared.next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let externally_cancelled = || {
                        sup.cancel
                            .as_ref()
                            .is_some_and(|c| c.load(Ordering::SeqCst))
                    };
                    if externally_cancelled() {
                        let _ = tx.send(DoneMsg {
                            index: i,
                            attempts: 0,
                            outcome: Err(JobCause::Cancelled),
                        });
                        continue;
                    }
                    let mut attempt = 1u32;
                    let outcome = loop {
                        shared.attempt_of[i].store(attempt, Ordering::SeqCst);
                        shared.running_since[i]
                            .store(epoch.elapsed().as_micros() as u64 + 1, Ordering::SeqCst);
                        let result = catch_unwind(AssertUnwindSafe(|| f(i, attempt)));
                        shared.running_since[i].store(0, Ordering::SeqCst);
                        let cause = match result {
                            Ok(Ok(t)) => break Ok(t),
                            Ok(Err(e)) => JobCause::Err(e),
                            Err(payload) => JobCause::Panic(panic_message(payload)),
                        };
                        // A drain in progress turns remaining retries into a final
                        // verdict: report the real failure now rather than sleeping
                        // through the shutdown window.
                        if attempt >= sup.max_attempts || externally_cancelled() {
                            break Err(cause);
                        }
                        attempt += 1;
                        std::thread::sleep(sup.backoff.delay(i, attempt));
                    };
                    let _ = tx.send(DoneMsg {
                        index: i,
                        attempts: attempt,
                        outcome,
                    });
                }
            })
        };

    let mut handles = Vec::with_capacity(workers);
    for _ in 0..workers {
        handles.push(spawn_worker(&shared, &tx));
    }

    let mut out: Vec<Option<Result<T, JobError<E>>>> = (0..n).map(|_| None).collect();
    let mut abandoned = vec![false; n];
    let mut completed = 0usize;
    while completed < n {
        // Wake at least every 25 ms when a deadline is armed so overdue
        // jobs are noticed promptly; otherwise just wait for results.
        let wait = match sup.deadline {
            Some(d) => d.min(Duration::from_millis(25)),
            None => Duration::from_secs(3600),
        };
        let msg = rx.recv_timeout(wait);
        if let Ok(DoneMsg {
            index,
            attempts,
            outcome,
        }) = msg
        {
            if out[index].is_none() {
                out[index] = Some(outcome.map_err(|cause| JobError {
                    index,
                    label: labels[index].clone(),
                    attempts,
                    cause,
                }));
                completed += 1;
            }
            // A late result from an abandoned (timed-out) job is discarded:
            // first outcome wins, so resumed/retried sweeps stay stable.
            continue;
        }
        if let Some(deadline) = sup.deadline {
            let now = epoch.elapsed().as_micros() as u64 + 1;
            let overdue = deadline.as_micros() as u64;
            for i in 0..n {
                if out[i].is_some() || abandoned[i] {
                    continue;
                }
                let started = shared.running_since[i].load(Ordering::SeqCst);
                if started != 0 && now.saturating_sub(started) > overdue {
                    abandoned[i] = true;
                    out[i] = Some(Err(JobError {
                        index: i,
                        label: labels[i].clone(),
                        attempts: shared.attempt_of[i].load(Ordering::SeqCst),
                        cause: JobCause::Timeout { deadline },
                    }));
                    completed += 1;
                    // The stuck worker's thread is occupied indefinitely;
                    // restore pool capacity so the rest of the batch runs.
                    handles.push(spawn_worker(&shared, &tx));
                }
            }
        }
    }
    // With every result in hand, idle workers exit promptly — join them so
    // resources owned by the closure (e.g. a journal's exclusive lock) are
    // released before this returns. When a job was abandoned its stuck
    // thread cannot be joined, but every *other* worker still can and must
    // be: replacement workers would otherwise accumulate as leaked threads
    // for the process lifetime in a long-lived server. Reap whatever
    // finishes within a short grace window and leave only the genuinely
    // stuck threads behind.
    if !abandoned.iter().any(|&a| a) {
        for h in handles {
            let _ = h.join();
        }
    } else {
        let grace = Instant::now();
        while !handles.is_empty() && grace.elapsed() < Duration::from_secs(1) {
            let (done, pending): (Vec<_>, Vec<_>) =
                handles.into_iter().partition(|h| h.is_finished());
            for h in done {
                let _ = h.join();
            }
            handles = pending;
            if handles.is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    out.into_iter()
        .map(|o| o.expect("every job has exactly one outcome"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_ordered_by_job_index() {
        // Jobs finish intentionally out of order (larger index = shorter
        // work), yet results come back in index order.
        let out = run_with_jobs(4, 32, |i| {
            std::thread::sleep(std::time::Duration::from_micros(((32 - i) * 50) as u64));
            i * 3
        });
        assert_eq!(out, (0..32).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn workers_know_they_are_workers() {
        assert!(!in_worker());
        assert_eq!(run_with_jobs(2, 4, |_| in_worker()), vec![true; 4]);
        let sup = Supervisor {
            workers: 2,
            ..Supervisor::default()
        };
        let labels: Vec<String> = (0..3).map(|i| i.to_string()).collect();
        let out = run_supervised(&sup, &labels, |_, _| Ok::<bool, ()>(in_worker()));
        assert!(out.into_iter().all(|r| r == Ok(true)));
        assert!(!in_worker());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let f = |i: usize| i.wrapping_mul(0x9e37_79b9).rotate_left(7);
        assert_eq!(run_with_jobs(1, 100, f), run_with_jobs(8, 100, f));
    }

    #[test]
    fn zero_and_one_job_edge_cases() {
        assert_eq!(run_with_jobs(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(run_with_jobs(4, 1, |i| i + 1), vec![1]);
    }

    #[test]
    fn borrows_non_static_data() {
        let data = [10u64, 20, 30];
        let out = run_with_jobs(2, data.len(), |i| data[i] + 1);
        assert_eq!(out, vec![11, 21, 31]);
    }

    #[test]
    fn worker_count_is_clamped() {
        // More workers than jobs must not deadlock or drop results.
        assert_eq!(run_with_jobs(64, 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
        assert!(host_parallelism() >= 1);
    }

    #[test]
    fn jobs_env_fallback_warns_on_bad_values() {
        assert_eq!(jobs_from_env(Some("8")), (8, None));
        assert_eq!(jobs_from_env(Some(" 3 ")), (3, None));
        assert_eq!(jobs_from_env(None).1, None);
        for bad in ["0", "-2", "abc", "", "1.5"] {
            let (jobs, warning) = jobs_from_env(Some(bad));
            assert_eq!(jobs, host_parallelism(), "{bad:?}");
            let w = warning.unwrap_or_else(|| panic!("{bad:?} must warn"));
            assert!(
                w.contains(&format!("{bad:?}")) && w.contains("host parallelism"),
                "warning must name the bad value and the fallback: {w}"
            );
        }
    }

    #[test]
    #[should_panic]
    fn job_panics_propagate() {
        run_with_jobs(2, 4, |i| {
            if i == 2 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    fn job_panic_payload_is_preserved_not_poisoned() {
        // The propagated panic must be the job's original message, not a
        // secondary "poisoned mutex" panic from another worker's cleanup.
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_with_jobs(4, 64, |i| {
                if i == 7 {
                    panic!("original message {i}");
                }
                std::thread::sleep(Duration::from_micros(200));
                i
            })
        }));
        let payload = result.expect_err("sweep must panic");
        let msg = panic_message(payload);
        assert!(
            msg.contains("original message 7"),
            "first panic payload must survive: {msg}"
        );
    }

    // -------------------------------------------------------- supervised

    fn labels(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("job{i}")).collect()
    }

    #[test]
    fn supervised_all_ok_matches_plain_run() {
        let sup = Supervisor {
            workers: 4,
            ..Supervisor::default()
        };
        let out = run_supervised::<_, (), _>(&sup, &labels(16), |i, _| Ok(i * i));
        let got: Vec<usize> = out.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(got, (0..16).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn supervised_isolates_panics_with_payload() {
        let sup = Supervisor {
            workers: 4,
            ..Supervisor::default()
        };
        let out = run_supervised::<_, (), _>(&sup, &labels(8), |i, _| {
            if i == 3 {
                panic!("injected panic at {i}");
            }
            Ok(i)
        });
        for (i, r) in out.iter().enumerate() {
            if i == 3 {
                let e = r.as_ref().unwrap_err();
                assert_eq!(e.index, 3);
                assert_eq!(e.label, "job3");
                assert_eq!(e.attempts, 1);
                match &e.cause {
                    JobCause::Panic(msg) => assert!(msg.contains("injected panic at 3"), "{msg}"),
                    other => panic!("expected Panic, got {other:?}"),
                }
            } else {
                assert_eq!(*r.as_ref().unwrap(), i);
            }
        }
    }

    #[test]
    fn supervised_serial_and_parallel_fault_patterns_agree() {
        let job = |i: usize, _attempt: u32| -> Result<usize, String> {
            match i % 5 {
                0 => Err(format!("err {i}")),
                1 => panic!("panic {i}"),
                _ => Ok(i * 7),
            }
        };
        let run = |workers| {
            let sup = Supervisor {
                workers,
                ..Supervisor::default()
            };
            run_supervised(&sup, &labels(20), job)
                .into_iter()
                .map(|r| match r {
                    Ok(v) => format!("ok {v}"),
                    Err(e) => format!("{e}"),
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(6));
    }

    #[test]
    fn supervised_retries_transient_failures() {
        use std::sync::atomic::AtomicUsize;
        let tries = Arc::new(AtomicUsize::new(0));
        let t = Arc::clone(&tries);
        let sup = Supervisor {
            workers: 2,
            max_attempts: 3,
            backoff: Backoff {
                base: Duration::from_millis(1),
                ..Backoff::default()
            },
            ..Supervisor::default()
        };
        let out = run_supervised(&sup, &labels(1), move |_, attempt| {
            t.fetch_add(1, Ordering::SeqCst);
            if attempt < 3 {
                Err("transient")
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(out[0].as_ref().unwrap(), &3);
        assert_eq!(tries.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn supervised_exhausts_attempts_then_reports() {
        let sup = Supervisor {
            workers: 1,
            max_attempts: 3,
            backoff: Backoff {
                base: Duration::from_millis(1),
                ..Backoff::default()
            },
            ..Supervisor::default()
        };
        let out = run_supervised::<usize, (), _>(&sup, &labels(1), |_, _| panic!("always"));
        let e = out[0].as_ref().unwrap_err();
        assert_eq!(e.attempts, 3);
        assert!(matches!(e.cause, JobCause::Panic(_)));
    }

    #[test]
    fn supervised_deadline_abandons_hung_jobs_within_tolerance() {
        let deadline = Duration::from_millis(250);
        let sup = Supervisor {
            workers: 2,
            deadline: Some(deadline),
            ..Supervisor::default()
        };
        let t0 = Instant::now();
        let out = run_supervised::<usize, (), _>(&sup, &labels(4), |i, _| {
            if i == 1 {
                // Deliberately hung job: far beyond the deadline.
                std::thread::sleep(Duration::from_secs(30));
            }
            Ok(i)
        });
        let elapsed = t0.elapsed();
        let e = out[1].as_ref().unwrap_err();
        assert!(
            matches!(e.cause, JobCause::Timeout { deadline: d } if d == deadline),
            "{e:?}"
        );
        for i in [0usize, 2, 3] {
            assert_eq!(*out[i].as_ref().unwrap(), i, "healthy jobs still finish");
        }
        assert!(
            elapsed >= deadline,
            "cannot fire before the deadline: {elapsed:?}"
        );
        assert!(
            elapsed < Duration::from_secs(20),
            "watchdog must abandon the hung job long before it returns: {elapsed:?}"
        );
    }

    /// Live threads of this process, from `/proc/self/status`.
    #[cfg(target_os = "linux")]
    fn live_threads() -> usize {
        std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("Threads:"))
                    .and_then(|l| l.split_whitespace().nth(1))
                    .and_then(|v| v.parse().ok())
            })
            .expect("/proc/self/status has a Threads: line")
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn supervised_abandonment_does_not_leak_worker_threads() {
        let baseline = live_threads();
        let deadline = Duration::from_millis(100);
        let sup = Supervisor {
            workers: 2,
            deadline: Some(deadline),
            ..Supervisor::default()
        };
        let out = run_supervised::<usize, (), _>(&sup, &labels(6), |i, _| {
            if i == 1 {
                // Hung job: outlives the sweep, finishes during the test.
                std::thread::sleep(Duration::from_millis(1500));
            }
            Ok(i)
        });
        assert!(
            matches!(out[1].as_ref().unwrap_err().cause, JobCause::Timeout { .. }),
            "job 1 must be abandoned"
        );
        // At return, every joinable worker — the idle originals and the
        // replacement spawned on abandonment — has been reaped. Only the
        // genuinely stuck thread may still be alive.
        let after = live_threads();
        assert!(
            after <= baseline + 1,
            "joinable worker threads leaked past run_supervised: \
             {baseline} threads before, {after} after"
        );
        // Once the stuck job's sleep elapses its thread exits too: nothing
        // from the sweep survives for the process lifetime.
        let t0 = Instant::now();
        let mut settled = live_threads();
        while settled > baseline && t0.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(25));
            settled = live_threads();
        }
        assert!(
            settled <= baseline,
            "stuck worker never exited: {baseline} threads before, {settled} after"
        );
    }

    #[test]
    fn backoff_jitter_is_deterministic_bounded_and_spread() {
        let backoff = Backoff {
            base: Duration::from_millis(10),
            max: Duration::from_secs(1),
            jitter_seed: 0xA5A5,
        };
        let mut seen = Vec::new();
        for index in 0..16 {
            for attempt in 2..=8 {
                let d = backoff.delay(index, attempt);
                let cap = backoff.cap(attempt);
                // Jitter scales within [0.5, 1.0) of the capped schedule:
                // the cap stays strict, progress is guaranteed.
                assert!(d <= cap, "jitter must never exceed the cap");
                assert!(d >= cap.mul_f64(0.5), "jitter floor is half the cap");
                // Pure function of (seed, index, attempt).
                assert_eq!(d, backoff.delay(index, attempt));
                seen.push(d);
            }
        }
        // Different (index, attempt) pairs spread: not all identical.
        seen.sort();
        seen.dedup();
        assert!(seen.len() > 16, "jitter must de-synchronize the herd");
        // A different seed yields a different schedule.
        let other = Backoff {
            jitter_seed: 0x5A5A,
            ..backoff.clone()
        };
        assert_ne!(backoff.delay(3, 2), other.delay(3, 2));
    }

    #[test]
    fn supervised_external_cancel_stops_unclaimed_jobs() {
        let cancel = Arc::new(AtomicBool::new(false));
        let sup = Supervisor {
            workers: 1,
            cancel: Some(Arc::clone(&cancel)),
            ..Supervisor::default()
        };
        let c = Arc::clone(&cancel);
        let out = run_supervised::<usize, (), _>(&sup, &labels(6), move |i, _| {
            if i == 1 {
                // Raise the drain flag mid-batch.
                c.store(true, Ordering::SeqCst);
            }
            Ok(i)
        });
        assert!(out[0].is_ok());
        assert!(out[1].is_ok(), "the in-flight job still finishes");
        // With one worker, claims are in index order: everything after the
        // cancellation point is reported Cancelled without running.
        for r in &out[2..] {
            assert!(
                matches!(r.as_ref().unwrap_err().cause, JobCause::Cancelled),
                "{r:?}"
            );
        }
    }

    #[test]
    fn supervised_empty_batch() {
        let sup = Supervisor {
            workers: 4,
            ..Supervisor::default()
        };
        let out = run_supervised::<usize, (), _>(&sup, &[], |i, _| Ok(i));
        assert!(out.is_empty());
    }

    #[test]
    fn job_error_display_names_job_label_attempts_and_cause() {
        let e = JobError::<String> {
            index: 5,
            label: "AV1/Both,N>=0.5".into(),
            attempts: 2,
            cause: JobCause::Panic("boom".into()),
        };
        let s = e.to_string();
        assert!(
            s.contains("job 5") && s.contains("AV1/Both,N>=0.5") && s.contains("2 attempts"),
            "{s}"
        );
        assert!(s.contains("panic: boom"), "{s}");
        let t = JobError::<String> {
            index: 0,
            label: "x".into(),
            attempts: 1,
            cause: JobCause::Timeout {
                deadline: Duration::from_millis(1500),
            },
        };
        assert!(t.to_string().contains("timed out after 1500 ms"));
    }
}
