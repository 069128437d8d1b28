//! The daemon core: admission control, in-flight coalescing, supervised
//! batch dispatch, and the drain/shed/recover state machine.
//!
//! ## Lifecycle
//!
//! ```text
//!            SIGTERM / {"cmd":"shutdown"}          queue drained
//!  Running ───────────────────────────────▶ Draining ─────────▶ Stopped
//!    │ admit / coalesce / shed                │ shed all new work
//!    ▼                                        ▼ after `drain_grace`:
//!  dispatcher batches → run_supervised        raise the pool cancel flag
//! ```
//!
//! Every submitted job terminates in exactly one definite state: a result
//! (fresh or memoized), a labeled failure (panic / error / timeout /
//! cancelled), or an explicit shed at admission. Nothing is silently
//! dropped, and nothing — panicking simulations, hung cells, client floods
//! — kills the daemon itself.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

use subwarp_core::{FaultPlan, RunStats, SimError, Simulator};
use subwarp_pool::{Backoff, JobCause, Supervisor};

use crate::spec::JobSpec;
use crate::store::MemoStore;

/// Server tuning knobs; [`Default`] is sized for the smoke tests and the
/// `loadgen` examples.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum distinct jobs waiting for dispatch; submissions beyond this
    /// are shed with a retry-after hint instead of growing memory.
    pub queue_cap: usize,
    /// Maximum outstanding (queued + in-flight) subscriptions per client.
    pub client_quota: usize,
    /// Worker threads per supervised batch.
    pub workers: usize,
    /// Per-job soft deadline; overdue jobs become labeled timeout failures.
    pub deadline: Option<Duration>,
    /// Attempts per job (> 1 enables retries of panics and errors).
    pub max_attempts: u32,
    /// Maximum jobs per supervised batch.
    pub batch_max: usize,
    /// After a drain starts, how long in-flight/queued work may keep
    /// running before the pool cancel flag is raised and the remainder is
    /// reported as cancelled.
    pub drain_grace: Duration,
    /// Deterministic fault injection (chaos mode), evaluated per job label.
    pub faults: Option<FaultPlan>,
    /// Seed for deterministic retry-backoff jitter.
    pub jitter_seed: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            queue_cap: 64,
            client_quota: 16,
            workers: subwarp_pool::default_jobs(),
            deadline: Some(Duration::from_secs(30)),
            max_attempts: 2,
            batch_max: 8,
            drain_grace: Duration::from_secs(30),
            faults: None,
            jitter_seed: 0x5EED,
        }
    }
}

/// Lifecycle phase (see the module diagram).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Accepting work.
    Running,
    /// Shedding new work, finishing accepted work.
    Draining,
    /// Dispatcher exited; every accepted job has been answered.
    Stopped,
}

impl Phase {
    /// Lower-case wire name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Running => "running",
            Phase::Draining => "draining",
            Phase::Stopped => "stopped",
        }
    }
}

/// Why a job failed (the wire `kind` vocabulary).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// `panic` | `error` | `timeout` | `cancelled`.
    pub kind: &'static str,
    /// Human-readable detail.
    pub message: String,
}

/// What a completed job resolves to.
pub type JobReply = Result<(RunStats, bool), JobFailure>;

/// The outcome of [`Server::submit`].
pub enum Submitted {
    /// Served from the memo store without queueing.
    Cached(Box<RunStats>),
    /// Accepted; the receiver yields exactly one [`JobReply`].
    Queued(mpsc::Receiver<JobReply>),
    /// Rejected at admission.
    Shed {
        /// `queue-full` | `quota` | `draining`.
        reason: &'static str,
        /// Client hint: when to retry.
        retry_after_ms: u64,
    },
}

/// One pending fingerprint: the spec plus everyone waiting on it.
struct PendingJob {
    spec: JobSpec,
    subscribers: Vec<(String, mpsc::Sender<JobReply>)>,
}

#[derive(Default)]
struct QueueState {
    /// Fingerprints awaiting dispatch, oldest first (unique).
    order: VecDeque<u64>,
    /// Every pending fingerprint (queued or in-flight).
    jobs: HashMap<u64, PendingJob>,
    /// Outstanding subscriptions per client id.
    per_client: HashMap<String, usize>,
}

/// Monotonic service counters (all relaxed: they are reporting, not
/// synchronization).
#[derive(Default)]
pub struct Counters {
    /// Jobs accepted into the queue (including coalesced subscribers).
    pub accepted: AtomicU64,
    /// Submissions answered from the store without queueing.
    pub cached: AtomicU64,
    /// Submissions attached to an identical pending job.
    pub coalesced: AtomicU64,
    /// Simulations actually executed (attempt 1 only).
    pub simulated: AtomicU64,
    /// Jobs answered with a result.
    pub ok: AtomicU64,
    /// Jobs answered with a labeled failure.
    pub failed: AtomicU64,
    /// Submissions shed at admission.
    pub shed: AtomicU64,
    /// Connections closed because a read deadline fired (slowloris
    /// defense on the accept path).
    pub conn_timeouts: AtomicU64,
    /// Request lines rejected (and connections closed) for exceeding the
    /// wire line-length limit.
    pub oversized: AtomicU64,
}

struct Inner {
    cfg: ServerConfig,
    store: MemoStore,
    phase: AtomicU8,
    cancel: Arc<AtomicBool>,
    queue: Mutex<QueueState>,
    queue_cv: Condvar,
    counters: Counters,
}

/// The in-process daemon: submit jobs, read stats, drain, join. Transport
/// (TCP/unix socket NDJSON) lives in [`crate::wire`]; tests drive this
/// struct directly.
pub struct Server {
    inner: Arc<Inner>,
    dispatcher: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Server {
    /// Starts the dispatcher and returns the running server.
    pub fn start(cfg: ServerConfig, store: MemoStore) -> Arc<Server> {
        let inner = Arc::new(Inner {
            cfg,
            store,
            phase: AtomicU8::new(0),
            cancel: Arc::new(AtomicBool::new(false)),
            queue: Mutex::new(QueueState::default()),
            queue_cv: Condvar::new(),
            counters: Counters::default(),
        });
        let dispatcher = std::thread::spawn({
            let inner = Arc::clone(&inner);
            move || dispatch_loop(&inner)
        });
        Arc::new(Server {
            inner,
            dispatcher: Mutex::new(Some(dispatcher)),
        })
    }

    /// Current lifecycle phase.
    pub fn phase(&self) -> Phase {
        match self.inner.phase.load(Ordering::SeqCst) {
            0 => Phase::Running,
            1 => Phase::Draining,
            _ => Phase::Stopped,
        }
    }

    /// The service counters.
    pub fn counters(&self) -> &Counters {
        &self.inner.counters
    }

    /// The memo store (hit/miss counters, size).
    pub fn store(&self) -> &MemoStore {
        &self.inner.store
    }

    /// Jobs currently queued or in flight.
    pub fn pending(&self) -> usize {
        self.inner
            .queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .jobs
            .len()
    }

    /// Submits a job for `client`. Never blocks on simulation: the caller
    /// gets a cached result, a receiver, or an explicit shed.
    pub fn submit(&self, client: &str, spec: JobSpec) -> Submitted {
        let inner = &self.inner;
        if self.phase() != Phase::Running {
            inner.counters.shed.fetch_add(1, Ordering::Relaxed);
            return Submitted::Shed {
                reason: "draining",
                retry_after_ms: 0,
            };
        }
        if let Some(stats) = inner.store.lookup(spec.fp) {
            inner.counters.cached.fetch_add(1, Ordering::Relaxed);
            return Submitted::Cached(Box::new(stats));
        }
        let mut q = inner.queue.lock().unwrap_or_else(|e| e.into_inner());
        // Per-client quota covers queued and coalesced subscriptions alike:
        // a client cannot flood the service by subscribing to one hot job
        // any more than by submitting distinct ones.
        let outstanding = q.per_client.get(client).copied().unwrap_or(0);
        if outstanding >= inner.cfg.client_quota {
            drop(q);
            inner.counters.shed.fetch_add(1, Ordering::Relaxed);
            return Submitted::Shed {
                reason: "quota",
                retry_after_ms: self.retry_after_ms(),
            };
        }
        let (tx, rx) = mpsc::channel();
        if let Some(job) = q.jobs.get_mut(&spec.fp) {
            // Identical job already pending: piggyback instead of queueing
            // a duplicate simulation.
            job.subscribers.push((client.to_owned(), tx));
            *q.per_client.entry(client.to_owned()).or_insert(0) += 1;
            drop(q);
            inner.counters.coalesced.fetch_add(1, Ordering::Relaxed);
            inner.counters.accepted.fetch_add(1, Ordering::Relaxed);
            return Submitted::Queued(rx);
        }
        if q.order.len() >= inner.cfg.queue_cap {
            drop(q);
            inner.counters.shed.fetch_add(1, Ordering::Relaxed);
            return Submitted::Shed {
                reason: "queue-full",
                retry_after_ms: self.retry_after_ms(),
            };
        }
        let fp = spec.fp;
        q.jobs.insert(
            fp,
            PendingJob {
                spec,
                subscribers: vec![(client.to_owned(), tx)],
            },
        );
        q.order.push_back(fp);
        *q.per_client.entry(client.to_owned()).or_insert(0) += 1;
        drop(q);
        inner.counters.accepted.fetch_add(1, Ordering::Relaxed);
        inner.queue_cv.notify_all();
        Submitted::Queued(rx)
    }

    /// A load-shedding hint: scale with queue depth so a flooded server
    /// pushes clients further out instead of inviting an immediate retry
    /// storm.
    fn retry_after_ms(&self) -> u64 {
        let depth = self
            .inner
            .queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .order
            .len() as u64;
        100 + 25 * depth
    }

    /// Begins a graceful drain: stop admitting, finish (and journal)
    /// accepted work, then stop. Idempotent. After
    /// [`drain_grace`](ServerConfig::drain_grace), still-running work is
    /// cancelled so a hung simulation cannot wedge shutdown forever.
    pub fn drain(&self) {
        let was = self
            .inner
            .phase
            .compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst);
        if was.is_ok() {
            self.inner.queue_cv.notify_all();
            let inner = Arc::clone(&self.inner);
            std::thread::spawn(move || {
                let grace = inner.cfg.drain_grace;
                let step = Duration::from_millis(25);
                let mut waited = Duration::ZERO;
                while waited < grace {
                    if inner.phase.load(Ordering::SeqCst) == 2 {
                        return; // drained cleanly within the grace window
                    }
                    std::thread::sleep(step);
                    waited += step;
                }
                inner.cancel.store(true, Ordering::SeqCst);
                inner.queue_cv.notify_all();
            });
        }
    }

    /// Waits for the dispatcher to finish (call after [`drain`](Self::drain)).
    pub fn join(&self) {
        let handle = self
            .dispatcher
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }

    /// One-line stats snapshot in wire form.
    pub fn stats_json(&self) -> String {
        let c = &self.inner.counters;
        let (hits, misses) = self.inner.store.counters();
        format!(
            "{{\"ok\":true,\"phase\":\"{}\",\"accepted\":{},\"cached\":{},\"coalesced\":{},\
             \"simulated\":{},\"completed_ok\":{},\"failed\":{},\"shed\":{},\
             \"conn_timeouts\":{},\"oversized\":{},\
             \"store_hits\":{hits},\"store_misses\":{misses},\"store_len\":{},\
             \"store_bytes\":{},\"compactions\":{},\
             \"restored\":{},\"pending\":{}}}",
            self.phase().name(),
            c.accepted.load(Ordering::Relaxed),
            c.cached.load(Ordering::Relaxed),
            c.coalesced.load(Ordering::Relaxed),
            c.simulated.load(Ordering::Relaxed),
            c.ok.load(Ordering::Relaxed),
            c.failed.load(Ordering::Relaxed),
            c.shed.load(Ordering::Relaxed),
            c.conn_timeouts.load(Ordering::Relaxed),
            c.oversized.load(Ordering::Relaxed),
            self.inner.store.len(),
            self.inner.store.disk_bytes(),
            self.inner.store.compactions(),
            self.inner.store.restored(),
            self.pending(),
        )
    }
}

/// Claims up to `batch_max` queued jobs, runs them under supervision,
/// records results, and answers every subscriber. Exits only when draining
/// and the queue is empty.
fn dispatch_loop(inner: &Arc<Inner>) {
    loop {
        let batch: Vec<JobSpec> = {
            let mut q = inner.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if !q.order.is_empty() {
                    break;
                }
                if inner.phase.load(Ordering::SeqCst) != 0 {
                    // Draining with an empty queue: every accepted job has
                    // been answered. Stop.
                    inner.phase.store(2, Ordering::SeqCst);
                    return;
                }
                let (guard, _) = inner
                    .queue_cv
                    .wait_timeout(q, Duration::from_millis(100))
                    .unwrap_or_else(|e| e.into_inner());
                q = guard;
            }
            let n = q.order.len().min(inner.cfg.batch_max.max(1));
            (0..n)
                .filter_map(|_| {
                    let fp = q.order.pop_front()?;
                    q.jobs.get(&fp).map(|j| j.spec.clone())
                })
                .collect()
        };
        if batch.is_empty() {
            continue;
        }

        let labels: Vec<String> = batch.iter().map(|s| s.label.clone()).collect();
        let sup = Supervisor {
            workers: inner.cfg.workers.max(1),
            deadline: inner.cfg.deadline,
            max_attempts: inner.cfg.max_attempts.max(1),
            backoff: Backoff {
                jitter_seed: inner.cfg.jitter_seed,
                ..Backoff::default()
            },
            cancel: Some(Arc::clone(&inner.cancel)),
        };
        let specs = Arc::new(batch);
        let run_specs = Arc::clone(&specs);
        let run_inner = Arc::clone(inner);
        let outcomes = subwarp_pool::run_supervised(&sup, &labels, move |k, attempt| {
            let spec = &run_specs[k];
            // A result that landed in the store between admission and
            // dispatch (e.g. recorded by a previous batch before this
            // duplicate was admitted) short-circuits the simulation.
            if let Some(stats) = run_inner.store.peek(spec.fp) {
                return Ok((stats, true));
            }
            if let Some(plan) = &run_inner.cfg.faults {
                plan.sabotage(&spec.label, attempt)?;
            }
            if attempt == 1 {
                run_inner.counters.simulated.fetch_add(1, Ordering::Relaxed);
            }
            let stats = Simulator::new(spec.sm.clone(), spec.si).run(&spec.wl)?;
            // Journal (flushed) before the client hears about it: a crash
            // after this point re-serves the result instead of re-running.
            run_inner.store.record(spec.fp, &spec.label, &stats);
            Ok::<(RunStats, bool), SimError>((stats, false))
        });

        for (k, outcome) in outcomes.into_iter().enumerate() {
            let fp = specs[k].fp;
            let reply: JobReply = match outcome {
                Ok((stats, cached)) => Ok((stats, cached)),
                Err(e) => {
                    let kind = match &e.cause {
                        JobCause::Panic(_) => "panic",
                        JobCause::Err(_) => "error",
                        JobCause::Timeout { .. } => "timeout",
                        JobCause::Cancelled => "cancelled",
                    };
                    Err(JobFailure {
                        kind,
                        message: e.to_string(),
                    })
                }
            };
            let job = {
                let mut q = inner.queue.lock().unwrap_or_else(|e| e.into_inner());
                let job = q.jobs.remove(&fp);
                if let Some(job) = &job {
                    for (client, _) in &job.subscribers {
                        if let Some(n) = q.per_client.get_mut(client) {
                            *n = n.saturating_sub(1);
                        }
                    }
                }
                job
            };
            if let Some(job) = job {
                let n = job.subscribers.len() as u64;
                match &reply {
                    Ok(_) => inner.counters.ok.fetch_add(n, Ordering::Relaxed),
                    Err(_) => inner.counters.failed.fetch_add(n, Ordering::Relaxed),
                };
                for (_, tx) in job.subscribers {
                    // A subscriber that hung up (client disconnect) is fine.
                    let _ = tx.send(reply.clone());
                }
            }
        }
    }
}
