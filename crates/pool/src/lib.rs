#![warn(missing_docs)]

//! # subwarp-pool — a supervised worker pool for embarrassingly parallel
//! sweeps
//!
//! The simulator's experiment sweeps (figures, tables, fuzzing batches,
//! the service daemon's batches) are sets of completely independent
//! `Simulator::run` calls. [`run_supervised`] is the one way the workspace
//! runs such a batch, with four guarantees:
//!
//! 1. **No external dependencies.** Built on [`std::thread`] (and the
//!    workspace's std-only `subwarp-prng` mixer for backoff jitter), so the
//!    workspace stays offline.
//! 2. **Deterministic results.** Jobs are identified by index `0..n_jobs`
//!    and results are returned ordered by that index, regardless of which
//!    worker ran which job or in what order they finished. A parallel batch
//!    is therefore byte-identical to the serial one.
//! 3. **Dynamic scheduling.** Workers claim job indices from a shared
//!    atomic counter (self-scheduling with chunk size 1 — the degenerate
//!    but contention-free form of work stealing), so a grid mixing 2 ms
//!    microbenchmark runs with 400 ms megakernel runs still load-balances.
//! 4. **Isolation.** Every job is wrapped in [`std::panic::catch_unwind`],
//!    optionally bounded by a per-job soft deadline and retried with capped
//!    exponential backoff; the result is one labeled
//!    `Result<T, JobError<E>>` per job, never a cross-job abort. Only real
//!    wall-clock timeouts depend on the host.
//!
//! The worker count defaults to the host parallelism and can be pinned with
//! the `SUBWARP_JOBS` environment variable. One worker without a deadline
//! runs the jobs in index order on the calling thread (`SUBWARP_JOBS=1` is
//! the serial reference schedule for determinism A/B checks).
//!
//! ```
//! use subwarp_pool::{run_supervised, Supervisor};
//! let sup = Supervisor { workers: 4, ..Supervisor::default() };
//! let labels: Vec<String> = (0..8).map(|i| format!("job{i}")).collect();
//! let squares: Vec<usize> = run_supervised::<_, (), _>(&sup, &labels, |i, _| Ok(i * i))
//!     .into_iter()
//!     .map(|r| r.unwrap())
//!     .collect();
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
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

/// Whether the calling thread is a worker spawned by [`run_supervised`].
/// Code that could fan out further (a multi-SM run steps its SMs on
/// threads) stays on this one thread instead, so a sweep never
/// oversubscribes the host. A batch that runs inline on the calling
/// thread (one worker, no deadline) does not mark it: like any serial
/// caller, its jobs may fan out.
pub fn in_worker() -> bool {
    IN_WORKER.with(|w| w.get())
}

/// The host's available parallelism (1 when undetectable).
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
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

/// Per-batch state shared between workers and the supervisor's watchdog.
struct Shared {
    next: AtomicUsize,
    epoch: Instant,
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

/// Runs job `i` to its final outcome: each attempt under [`catch_unwind`],
/// failures retried with the supervisor's backoff while attempts remain.
/// Returns the attempts made and the outcome; a job the `cancel` flag
/// stops before its first attempt makes none. `watch` publishes each
/// attempt's start to the watchdog when the batch has one.
fn run_job<T, E>(
    sup: &Supervisor,
    i: usize,
    f: &impl Fn(usize, u32) -> Result<T, E>,
    watch: Option<&Shared>,
) -> (u32, Result<T, JobCause<E>>) {
    let cancelled = || {
        sup.cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::SeqCst))
    };
    if cancelled() {
        return (0, Err(JobCause::Cancelled));
    }
    let mut attempt = 1u32;
    loop {
        if let Some(w) = watch {
            w.attempt_of[i].store(attempt, Ordering::SeqCst);
            w.running_since[i].store(w.epoch.elapsed().as_micros() as u64 + 1, Ordering::SeqCst);
        }
        let result = catch_unwind(AssertUnwindSafe(|| f(i, attempt)));
        if let Some(w) = watch {
            w.running_since[i].store(0, Ordering::SeqCst);
        }
        let cause = match result {
            Ok(Ok(t)) => return (attempt, Ok(t)),
            Ok(Err(e)) => JobCause::Err(e),
            Err(payload) => JobCause::Panic(panic_message(payload)),
        };
        // A drain in progress turns remaining retries into a final
        // verdict: report the real failure now rather than sleeping
        // through the shutdown window.
        if attempt >= sup.max_attempts || cancelled() {
            return (attempt, Err(cause));
        }
        attempt += 1;
        std::thread::sleep(sup.backoff.delay(i, attempt));
    }
}

/// Runs `labels.len()` jobs under supervision and returns index-ordered
/// per-job outcomes — one `Result` per job, never a cross-job abort.
///
/// Each job `f(index, attempt)` (attempts are 1-based) is wrapped in
/// [`catch_unwind`]; panics become [`JobCause::Panic`] with the original
/// payload preserved. Failures retry up to [`Supervisor::max_attempts`]
/// with the supervisor's [`Backoff`] between attempts.
///
/// With one worker (after clamping to `[1, n_jobs]`) and no deadline the
/// jobs run in index order on the calling thread: the serial reference
/// schedule, with no thread, channel or watchdog. Otherwise they run on
/// spawned workers, and an optional per-job soft
/// [`Supervisor::deadline`] is enforced by the supervising (calling)
/// thread: an overdue job is abandoned as [`JobCause::Timeout`], a
/// replacement worker is spawned so remaining jobs still run, and the
/// stuck thread is left detached (it cannot be killed; a late result is
/// discarded).
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
    let job_error = |index: usize, attempts: u32, cause: JobCause<E>| JobError {
        index,
        label: labels[index].clone(),
        attempts,
        cause,
    };
    let workers = sup.workers.clamp(1, n);
    if workers == 1 && sup.deadline.is_none() {
        return (0..n)
            .map(|i| {
                let (attempts, outcome) = run_job(sup, i, &f, None);
                outcome.map_err(|cause| job_error(i, attempts, cause))
            })
            .collect();
    }
    let shared = Arc::new(Shared {
        next: AtomicUsize::new(0),
        epoch: Instant::now(),
        running_since: (0..n).map(|_| AtomicU64::new(0)).collect(),
        attempt_of: (0..n).map(|_| AtomicU32::new(0)).collect(),
    });
    let f = Arc::new(f);
    let (tx, rx) = mpsc::channel::<DoneMsg<T, E>>();

    let spawn_worker = || -> std::thread::JoinHandle<()> {
        let shared = Arc::clone(&shared);
        let tx = tx.clone();
        let f = Arc::clone(&f);
        let sup = sup.clone();
        std::thread::spawn(move || {
            IN_WORKER.with(|w| w.set(true));
            loop {
                let index = shared.next.fetch_add(1, Ordering::Relaxed);
                if index >= n {
                    break;
                }
                let (attempts, outcome) = run_job(&sup, index, &*f, Some(&shared));
                let _ = tx.send(DoneMsg {
                    index,
                    attempts,
                    outcome,
                });
            }
        })
    };

    let mut handles: Vec<_> = (0..workers).map(|_| spawn_worker()).collect();
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
        if let Ok(DoneMsg {
            index,
            attempts,
            outcome,
        }) = rx.recv_timeout(wait)
        {
            // A late result from an abandoned (timed-out) job is discarded:
            // first outcome wins, so resumed/retried sweeps stay stable.
            if out[index].is_none() {
                out[index] = Some(outcome.map_err(|cause| job_error(index, attempts, cause)));
                completed += 1;
            }
            continue;
        }
        if let Some(deadline) = sup.deadline {
            let now = shared.epoch.elapsed().as_micros() as u64 + 1;
            let overdue = deadline.as_micros() as u64;
            for i in 0..n {
                if out[i].is_some() || abandoned[i] {
                    continue;
                }
                let started = shared.running_since[i].load(Ordering::SeqCst);
                if started != 0 && now.saturating_sub(started) > overdue {
                    abandoned[i] = true;
                    let attempts = shared.attempt_of[i].load(Ordering::SeqCst);
                    out[i] = Some(Err(job_error(i, attempts, JobCause::Timeout { deadline })));
                    completed += 1;
                    // The stuck worker's thread is occupied indefinitely;
                    // restore pool capacity so the rest of the batch runs.
                    handles.push(spawn_worker());
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

    fn labels(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("job{i}")).collect()
    }

    /// Runs `n` infallible jobs on `workers` and unwraps the outcomes.
    fn run_ok<T: Send + 'static>(
        workers: usize,
        n: usize,
        f: impl Fn(usize) -> T + Send + Sync + 'static,
    ) -> Vec<T> {
        let sup = Supervisor {
            workers,
            ..Supervisor::default()
        };
        run_supervised::<_, (), _>(&sup, &labels(n), move |i, _| Ok(f(i)))
            .into_iter()
            .map(|r| r.unwrap())
            .collect()
    }

    #[test]
    fn results_are_ordered_by_job_index() {
        // Jobs finish intentionally out of order (larger index = shorter
        // work), yet results come back in index order.
        for workers in [1, 4] {
            let out = run_ok(workers, 32, |i| {
                std::thread::sleep(Duration::from_micros(((32 - i) * 50) as u64));
                i * 3
            });
            assert_eq!(out, (0..32).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn workers_know_they_are_workers() {
        assert!(!in_worker());
        assert_eq!(run_ok(2, 3, |_| in_worker()), vec![true; 3]);
        assert!(!in_worker());
    }

    #[test]
    fn one_worker_without_deadline_runs_inline() {
        let caller = std::thread::current().id();
        let on_caller = move |_| std::thread::current().id() == caller && !in_worker();
        assert_eq!(run_ok(1, 4, on_caller), vec![true; 4]);
        // More workers than jobs clamp to one: still inline.
        assert_eq!(run_ok(8, 1, on_caller), vec![true]);

        // Retries and panic isolation behave as they do on a worker.
        let tries = Arc::new(AtomicUsize::new(0));
        let t = Arc::clone(&tries);
        let sup = Supervisor {
            workers: 1,
            max_attempts: 2,
            backoff: Backoff {
                base: Duration::from_millis(1),
                ..Backoff::default()
            },
            ..Supervisor::default()
        };
        let out = run_supervised::<_, String, _>(&sup, &labels(3), move |i, attempt| {
            t.fetch_add(1, Ordering::SeqCst);
            assert_eq!(std::thread::current().id(), caller);
            match (i, attempt) {
                (0, 1) => Err("transient".into()),
                (1, _) => panic!("always {i}"),
                _ => Ok((i, attempt)),
            }
        });
        assert_eq!(out[0], Ok((0, 2)));
        let e = out[1].as_ref().unwrap_err();
        assert_eq!((e.index, e.attempts), (1, 2));
        assert_eq!(e.cause, JobCause::Panic("always 1".into()));
        assert_eq!(out[2], Ok((2, 1)));
        assert_eq!(tries.load(Ordering::SeqCst), 5);
        assert!(!in_worker());
    }

    #[test]
    fn a_deadline_runs_jobs_on_a_worker_thread() {
        let caller = std::thread::current().id();
        let sup = Supervisor {
            workers: 1,
            deadline: Some(Duration::from_secs(30)),
            ..Supervisor::default()
        };
        let out = run_supervised::<_, (), _>(&sup, &labels(2), move |_, _| {
            Ok(std::thread::current().id() != caller && in_worker())
        });
        assert_eq!(out, vec![Ok(true), Ok(true)]);
    }

    #[test]
    fn serial_and_parallel_agree() {
        let f = |i: usize| i.wrapping_mul(0x9e37_79b9).rotate_left(7);
        assert_eq!(run_ok(1, 100, f), run_ok(8, 100, f));
    }

    #[test]
    fn one_job_and_more_workers_than_jobs() {
        for workers in [1, 4] {
            assert_eq!(run_ok(workers, 1, |i| i + 1), vec![1]);
        }
        // More workers than jobs must not deadlock or drop results.
        assert_eq!(run_ok(64, 3, |i| i), vec![0, 1, 2]);
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
