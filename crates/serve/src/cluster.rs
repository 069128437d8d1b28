//! `subwarp-cluster`: fingerprint-sharded routing across a fleet of
//! `subwarp-serve` daemons.
//!
//! The router is deliberately thin and stateless: every piece of durable
//! state (the memo journal, admission queues, quotas) lives in the shards.
//! The router's whole job is *placement* and *liveness*:
//!
//! - **Placement.** A job's content fingerprint — the same
//!   `cell_fingerprint` the shards key their memo stores on — picks its
//!   primary shard on a ring (`fp % n`), plus `replicas` ring successors
//!   as failover owners. Every retry of the same job lands on the same
//!   owner set, so each shard's journal accumulates a coherent slice of
//!   the fingerprint space and cache hits concentrate instead of
//!   scattering.
//! - **Liveness.** A background prober pings every shard with a hard
//!   deadline. Forwarding retries transient failures with the pool's
//!   capped seeded-jitter [`Backoff`], fails over to ring successors when
//!   an owner stays dead, and — when *every* owner of the range is down —
//!   sheds with a typed `retry_after_ms` reply instead of hanging the
//!   client. Retrying a `run` on another shard is always safe: jobs are
//!   pure simulations keyed by content, so re-execution is wasteful but
//!   never wrong.

use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use subwarp_pool::Backoff;
use subwarp_sweep::json::{json_escape, parse};

use crate::client::Client;
use crate::spec::JobSpec;
use crate::wire::{err_line, request_cmd, serve_lines, WireLimits};

/// Router tuning; every wait it can incur is bounded by one of these.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Shard addresses (`host:port`), position = ring slot.
    pub shards: Vec<String>,
    /// Extra ring successors tried after the primary (so each fingerprint
    /// has `1 + replicas` owners, capped at the fleet size).
    pub replicas: usize,
    /// TCP connect deadline per dial.
    pub connect_timeout: Duration,
    /// Read/write deadline for health pings.
    pub ping_timeout: Duration,
    /// Read/write deadline for a forwarded `run` (generous: the shard may
    /// be simulating, and a queued job legitimately waits).
    pub run_timeout: Duration,
    /// Dial attempts per owner before failing over (an owner the prober
    /// already marked down gets exactly one — a quick liveness re-check,
    /// not a full retry ladder).
    pub attempts: u32,
    /// Backoff between attempts on the same owner.
    pub backoff: Backoff,
    /// Pause between health-prober sweeps.
    pub health_interval: Duration,
    /// `retry_after_ms` suggested to clients when a request is shed
    /// because every owner of its range is dead.
    pub shed_retry_after_ms: u64,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            shards: Vec::new(),
            replicas: 1,
            connect_timeout: Duration::from_millis(1000),
            ping_timeout: Duration::from_millis(1000),
            run_timeout: Duration::from_secs(120),
            attempts: 3,
            backoff: Backoff {
                base: Duration::from_millis(50),
                max: Duration::from_millis(500),
                jitter_seed: 0x5eed_0c1a_55e5_0001,
            },
            health_interval: Duration::from_millis(500),
            shed_retry_after_ms: 500,
        }
    }
}

/// Last observed liveness of one shard.
#[derive(Debug, Clone, Default)]
pub struct ShardHealth {
    /// Did the most recent probe (or forward) succeed?
    pub up: bool,
    /// Round-trip time of the last successful ping, microseconds.
    pub last_rtt_us: u64,
    /// Total probes sent.
    pub probes: u64,
    /// Total probe failures.
    pub failures: u64,
}

#[derive(Debug, Default)]
struct RouterCounters {
    routed: AtomicU64,
    forwarded_ok: AtomicU64,
    retries: AtomicU64,
    failovers: AtomicU64,
    shed: AtomicU64,
    bad_requests: AtomicU64,
    conn_timeouts: AtomicU64,
    oversized: AtomicU64,
}

/// The routing core; shared across accept-loop threads via `Arc`.
pub struct Router {
    cfg: RouterConfig,
    health: Vec<Mutex<ShardHealth>>,
    counters: RouterCounters,
    /// Per-request sequence number, used as the backoff jitter index so
    /// concurrent retries against a struggling shard do not thundering-herd
    /// on identical delays.
    seq: AtomicU64,
    stop: AtomicBool,
}

impl Router {
    /// Builds a router over `cfg.shards` (at least one required).
    pub fn new(cfg: RouterConfig) -> Arc<Router> {
        assert!(!cfg.shards.is_empty(), "router needs at least one shard");
        let health = cfg
            .shards
            .iter()
            .map(|_| {
                Mutex::new(ShardHealth {
                    // Optimistic until the first probe says otherwise, so a
                    // router started before its prober's first sweep still
                    // forwards.
                    up: true,
                    ..ShardHealth::default()
                })
            })
            .collect();
        Arc::new(Router {
            cfg,
            health,
            counters: RouterCounters::default(),
            seq: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        })
    }

    /// The configured shard addresses.
    pub fn shard_addrs(&self) -> &[String] {
        &self.cfg.shards
    }

    /// Flags the router to stop (health prober exits, accept loops drain).
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// True once [`shutdown`](Router::shutdown) was called.
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// The owner set for a fingerprint: the primary ring slot plus up to
    /// `replicas` distinct successors, in failover order.
    pub fn owners(&self, fp: u64) -> Vec<usize> {
        let n = self.cfg.shards.len();
        let take = (1 + self.cfg.replicas).min(n);
        let primary = (fp % n as u64) as usize;
        (0..take).map(|i| (primary + i) % n).collect()
    }

    /// Snapshot of one shard's health.
    pub fn health(&self, shard: usize) -> ShardHealth {
        self.health[shard]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    fn mark(&self, shard: usize, up: bool, rtt_us: Option<u64>, probed: bool) {
        let mut h = self.health[shard].lock().unwrap_or_else(|e| e.into_inner());
        h.up = up;
        if probed {
            h.probes += 1;
            if !up {
                h.failures += 1;
            }
        }
        if let Some(rtt) = rtt_us {
            h.last_rtt_us = rtt;
        }
    }

    /// Pings one shard with the configured deadlines; updates its health.
    pub fn probe(&self, shard: usize) -> bool {
        let addr = &self.cfg.shards[shard];
        let started = Instant::now();
        let ok = (|| -> std::io::Result<()> {
            let mut c = Client::connect_with_deadlines(
                addr,
                self.cfg.connect_timeout,
                Some(self.cfg.ping_timeout),
            )?;
            let reply = c.request("{\"cmd\":\"ping\"}")?;
            if reply.bool_field("ok") == Some(true) {
                Ok(())
            } else {
                Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "ping not ok",
                ))
            }
        })()
        .is_ok();
        let rtt = started.elapsed().as_micros() as u64;
        self.mark(shard, ok, ok.then_some(rtt), true);
        ok
    }

    /// One synchronous probe sweep over every shard.
    pub fn probe_all(&self) {
        for shard in 0..self.cfg.shards.len() {
            self.probe(shard);
        }
    }

    /// Spawns the background health prober; exits once
    /// [`shutdown`](Router::shutdown) is called.
    pub fn start_health(self: &Arc<Self>) -> std::thread::JoinHandle<()> {
        let router = Arc::clone(self);
        std::thread::spawn(move || {
            while !router.stopping() {
                router.probe_all();
                // Sleep in small slices so shutdown is prompt.
                let mut left = router.cfg.health_interval;
                while !router.stopping() && !left.is_zero() {
                    let step = left.min(Duration::from_millis(50));
                    std::thread::sleep(step);
                    left = left.saturating_sub(step);
                }
            }
        })
    }

    /// Forwards one raw request line to one shard, returning the raw reply
    /// line. Any transport or framing failure is an `Err` — and every such
    /// failure is retryable, because simulations are idempotent.
    fn forward_once(&self, shard: usize, raw: &str) -> std::io::Result<String> {
        let mut c = Client::connect_with_deadlines(
            &self.cfg.shards[shard],
            self.cfg.connect_timeout,
            Some(self.cfg.run_timeout),
        )?;
        let reply = c.request_raw(raw)?;
        // A reply the shard wrote is valid JSON; anything else means the
        // stream was corrupted or truncated in flight.
        parse(&reply).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unparseable shard reply: {e}"),
            )
        })?;
        Ok(reply)
    }

    /// Routes a validated `run` request: tries each owner in ring order
    /// with bounded retries and backoff, marks owners up/down as it learns,
    /// and sheds with `retry_after_ms` when every owner is dead. The reply
    /// line is the shard's verbatim — byte-identical passthrough, so
    /// cached-result guarantees survive the extra hop.
    pub fn route_run(&self, raw: &str, fp: u64) -> String {
        self.counters.routed.fetch_add(1, Ordering::Relaxed);
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) as usize;
        let owners = self.owners(fp);
        for (rank, &shard) in owners.iter().enumerate() {
            if rank > 0 {
                self.counters.failovers.fetch_add(1, Ordering::Relaxed);
            }
            // A shard the prober believes is down gets one quick re-check
            // dial instead of the full ladder; "never hang" beats "never
            // miss a recovery by one request".
            let attempts = if self.health(shard).up {
                self.cfg.attempts.max(1)
            } else {
                1
            };
            for attempt in 1..=attempts {
                if attempt > 1 {
                    self.counters.retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(self.cfg.backoff.delay(seq, attempt));
                }
                match self.forward_once(shard, raw) {
                    Ok(reply) => {
                        self.mark(shard, true, None, false);
                        self.counters.forwarded_ok.fetch_add(1, Ordering::Relaxed);
                        return reply;
                    }
                    Err(_) => {
                        self.mark(shard, false, None, false);
                    }
                }
            }
        }
        self.counters.shed.fetch_add(1, Ordering::Relaxed);
        err_line(
            "shed",
            "no live shard owns this fingerprint range",
            Some(self.cfg.shed_retry_after_ms),
        )
    }

    /// Router stats as a JSON line (shape mirrors the daemon's `stats`).
    pub fn stats_json(&self) -> String {
        let c = &self.counters;
        let shards = (0..self.cfg.shards.len())
            .map(|i| {
                let h = self.health(i);
                format!(
                    "{{\"addr\":\"{}\",\"up\":{},\"rtt_us\":{},\"probes\":{},\"failures\":{}}}",
                    json_escape(&self.cfg.shards[i]),
                    h.up,
                    h.last_rtt_us,
                    h.probes,
                    h.failures
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"ok\":true,\"router\":true,\"routed\":{},\"forwarded_ok\":{},\"retries\":{},\
             \"failovers\":{},\"shed\":{},\"bad_requests\":{},\"conn_timeouts\":{},\
             \"oversized\":{},\"replicas\":{},\"shards\":[{}]}}",
            c.routed.load(Ordering::Relaxed),
            c.forwarded_ok.load(Ordering::Relaxed),
            c.retries.load(Ordering::Relaxed),
            c.failovers.load(Ordering::Relaxed),
            c.shed.load(Ordering::Relaxed),
            c.bad_requests.load(Ordering::Relaxed),
            c.conn_timeouts.load(Ordering::Relaxed),
            c.oversized.load(Ordering::Relaxed),
            self.cfg.replicas,
            shards
        )
    }

    /// Answers one request line. Returns `(reply, shutdown_requested)`.
    pub fn handle_line(&self, line: &str) -> (String, bool) {
        let req = match parse(line) {
            Ok(v) => v,
            Err(e) => {
                self.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
                return (err_line("bad-request", &e.to_string(), None), false);
            }
        };
        match request_cmd(&req) {
            "ping" => {
                let up = (0..self.cfg.shards.len())
                    .filter(|&i| self.health(i).up)
                    .count();
                (
                    format!(
                        "{{\"ok\":true,\"pong\":true,\"router\":true,\"shards_up\":{up},\
                         \"shards\":{}}}",
                        self.cfg.shards.len()
                    ),
                    false,
                )
            }
            "stats" => (self.stats_json(), false),
            "shutdown" => {
                self.shutdown();
                ("{\"ok\":true,\"draining\":true}".to_owned(), true)
            }
            "run" => {
                // Validate locally so garbage is rejected here (and counted
                // here) instead of burning a shard round trip; the shard
                // revalidates and computes the identical fingerprint.
                let spec = match JobSpec::from_request(&req) {
                    Ok(s) => s,
                    Err(e) => {
                        self.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
                        return (err_line("bad-request", &e, None), false);
                    }
                };
                (self.route_run(line, spec.fp), false)
            }
            other => {
                self.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
                (
                    err_line("bad-request", &format!("unknown cmd `{other}`"), None),
                    false,
                )
            }
        }
    }
}

/// Serves one client connection against the router until EOF or shutdown,
/// through the daemon's connection loop (bounded lines, read-deadline
/// accounting; see [`serve_connection`](crate::wire::serve_connection)).
/// Returns `true` when the client asked for shutdown.
pub fn route_connection<R: BufRead, W: Write>(
    router: &Router,
    reader: R,
    writer: W,
    limits: WireLimits,
) -> std::io::Result<bool> {
    let c = &router.counters;
    serve_lines(
        reader,
        writer,
        limits,
        (&c.oversized, &c.conn_timeouts),
        |line| router.handle_line(line),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn router_over(shards: &[&str], replicas: usize) -> Arc<Router> {
        Router::new(RouterConfig {
            shards: shards.iter().map(|s| (*s).to_owned()).collect(),
            replicas,
            ..RouterConfig::default()
        })
    }

    #[test]
    fn owners_walk_the_ring_without_repeats() {
        let r = router_over(&["a:1", "b:2", "c:3"], 1);
        assert_eq!(r.owners(0), vec![0, 1]);
        assert_eq!(r.owners(2), vec![2, 0]);
        assert_eq!(r.owners(7), vec![1, 2]);
        // Replica count larger than the fleet is capped, no duplicates.
        let r = router_over(&["a:1", "b:2"], 9);
        assert_eq!(r.owners(5), vec![1, 0]);
        // Single shard: it owns everything, alone.
        let r = router_over(&["a:1"], 3);
        assert_eq!(r.owners(u64::MAX), vec![0]);
    }

    #[test]
    fn placement_is_deterministic_and_spread() {
        let r = router_over(&["a:1", "b:2", "c:3", "d:4"], 1);
        let mut counts = [0usize; 4];
        for fp in 0..1000u64 {
            let owners = r.owners(fp.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            assert_eq!(owners, r.owners(fp.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
            counts[owners[0]] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 150, "shard {i} owns only {c}/1000 primaries");
        }
    }

    #[test]
    fn stats_line_escapes_shard_addresses() {
        let addr = r#"host"quoted\path:1"#;
        let r = router_over(&[addr], 0);
        let stats = parse(&r.stats_json()).expect("the stats line is JSON");
        let shards = stats.get("shards").and_then(|s| s.as_arr()).unwrap();
        assert_eq!(shards[0].str_field("addr"), Some(addr));
    }

    #[test]
    fn bad_lines_are_rejected_without_touching_shards() {
        // No shard is listening on this port; a bad request must not dial.
        let r = router_over(&["127.0.0.1:1"], 0);
        let (reply, shutdown) = r.handle_line("{\"cmd\":\"nope\"}");
        assert!(reply.contains("bad-request"));
        assert!(!shutdown);
        let (reply, _) = r.handle_line("not json at all");
        assert!(reply.contains("bad-request"));
        let (reply, _) = r.handle_line("{\"cmd\":\"run\",\"workload\":\"no-such\"}");
        assert!(reply.contains("bad-request"));
    }
}
