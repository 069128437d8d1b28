//! Seeded request streams and the two load shapes: an open loop that sends
//! on a Poisson schedule and times each request from when it was due, and a
//! closed loop where each connection sends its next request only after the
//! previous reply.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use subwarp_prng::SmallRng;

/// Workload keys a service request may name: the ten suite traces, the
/// microbenchmark at every divergence factor and 1–4 iterations, and the
/// frozen trace corpus as `file:` keys (resolved from the repository root).
pub fn workload_keys() -> Vec<String> {
    let mut keys: Vec<String> = subwarp_workloads::suite()
        .iter()
        .map(|t| format!("trace:{}", t.name))
        .collect();
    for size in [1, 2, 4, 8, 16, 32] {
        for iters in 1..=4 {
            keys.push(format!("micro:{size}@{iters}"));
        }
    }
    for name in CORPUS {
        keys.push(format!("file:{}", corpus_path(name)));
    }
    keys
}

/// The frozen corpus files, by stem.
pub const CORPUS: [&str; 5] = ["av1", "fuzz42", "fuzz7", "micro8", "toy"];

/// A corpus file's path relative to the repository root.
pub fn corpus_path(stem: &str) -> String {
    format!("tests/corpus/{stem}.swt")
}

/// Miss latencies the measured request space draws from. Warm-up requests
/// use [`WARM_LATENCY`], outside this range, so they never collide with a
/// measured spec.
pub const LATENCIES: std::ops::RangeInclusive<u64> = 6..=24; // × 50 cycles: 300..=1200
/// Latency of the shard-cache warm-up requests.
pub const WARM_LATENCY: u64 = 1250;

/// One generated `run` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Req {
    /// When it is due, nanoseconds after the stream starts.
    pub due_ns: u64,
    /// The request line, byte for byte.
    pub line: String,
    /// For a repeat, the index of the earlier request it repeats.
    pub repeat_of: Option<usize>,
}

/// A random spec from the service request space, as a request line. The
/// line is canonical (fixed key order, `policy` only when SI is on), so two
/// equal lines are the same job and two different lines are different jobs.
pub fn random_line(rng: &mut SmallRng, keys: &[String]) -> String {
    let wl = &keys[rng.gen_range(0..keys.len())];
    let si = ["off", "sos", "both"][rng.gen_range(0..3usize)];
    let latency = 50 * rng.gen_range(LATENCIES);
    let slots = [2u64, 4, 8][rng.gen_range(0..3usize)];
    let mem = ["fixed", "hier"][rng.gen_range(0..2usize)];
    let policy = match si {
        "off" => String::new(),
        _ => format!(
            ",\"policy\":\"{}\"",
            ["any", "half", "all"][rng.gen_range(0..3usize)]
        ),
    };
    format!(
        "{{\"cmd\":\"run\",\"workload\":\"{wl}\",\"si\":\"{si}\"{policy},\
         \"latency\":{latency},\"slots\":{slots},\"mem\":\"{mem}\"}}"
    )
}

/// `n` distinct request lines.
pub fn distinct_lines(seed: u64, n: usize) -> Vec<String> {
    let keys = workload_keys();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let line = random_line(&mut rng, &keys);
        if seen.insert(line.clone()) {
            out.push(line);
        }
    }
    out
}

/// Generator seed of the fresh-spec population the open-loop stream draws
/// from. It is fixed, so every workload seed offers the same work.
const STREAM_SET_SEED: u64 = 0xc01d;

/// The open-loop stream: `n` arrivals, one every `1 / rate_per_s` seconds.
/// The requests are a fixed population of distinct fresh specs in seeded
/// order, with exactly `n / 10` of them, at seeded positions, repeating an
/// earlier fresh one.
///
/// The schedule is evenly spaced rather than Poisson. With two connections,
/// a Poisson burst that meets two slow simulations queues in the generator,
/// and the p99 then measured how the seed's bursts lined up with the host's
/// slow moments more than it measured the service: on a shared 2-vCPU VM
/// it spread by a third between seeds. Evenly spaced, a request waits for
/// a connection only behind a slow reply, and the tail is the service's.
pub fn open_stream(seed: u64, n: usize, rate_per_s: f64) -> Vec<Req> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut fresh = distinct_lines(STREAM_SET_SEED, n - n / 10);
    for i in (1..fresh.len()).rev() {
        fresh.swap(i, rng.gen_range(0..=i));
    }
    // Seeded positions of the repeats (never the first request).
    let mut is_repeat = vec![false; n];
    let mut order: Vec<usize> = (1..n).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    for &p in order.iter().take(n / 10) {
        is_repeat[p] = true;
    }
    let due = (0..n).map(|i| (i as f64 * 1e9 / rate_per_s) as u64);
    let mut out: Vec<Req> = Vec::with_capacity(n);
    let mut fresh_lines = fresh.into_iter();
    let mut fresh_idx: Vec<usize> = Vec::new();
    for (repeat, due_ns) in is_repeat.into_iter().zip(due) {
        let (line, repeat_of) = if repeat {
            let of = fresh_idx[rng.gen_range(0..fresh_idx.len())];
            (out[of].line.clone(), Some(of))
        } else {
            fresh_idx.push(out.len());
            (
                fresh_lines.next().expect("one fresh line per fresh slot"),
                None,
            )
        };
        out.push(Req {
            due_ns,
            line,
            repeat_of,
        });
    }
    out
}

/// What happened to one request.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// When it was due (ns after start).
    pub due_ns: u64,
    /// When the generator actually sent it.
    pub sent_ns: u64,
    /// When its reply arrived.
    pub done_ns: u64,
    /// The reply line, or the transport error.
    pub reply: Result<String, String>,
}

impl Outcome {
    /// Latency counted from the due time, so a stall that delays later
    /// sends is charged to them.
    pub fn latency_ms(&self) -> f64 {
        self.done_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }

    /// How late the generator sent it.
    pub fn late_ms(&self) -> f64 {
        self.sent_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }
}

/// Sends `reqs` on schedule over `conns` connections, one thread each.
/// A free connection takes the next request in due order and sleeps until
/// it is due; when every connection is busy, requests queue and go out
/// late. `send` performs one round trip on a connection.
pub fn open_loop<C, F>(
    reqs: &[Req],
    conns: Vec<C>,
    start: Instant,
    send: F,
) -> (Vec<Outcome>, Vec<C>)
where
    C: Send,
    F: Fn(&mut C, usize, &str) -> Result<String, String> + Sync,
{
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Outcome>>> = reqs.iter().map(|_| Mutex::new(None)).collect();
    let conns = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .map(|mut conn| {
                let (next, slots, send) = (&next, &slots, &send);
                s.spawn(move || {
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(req) = reqs.get(i) else { break };
                        let due = start + Duration::from_nanos(req.due_ns);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent_ns = start.elapsed().as_nanos() as u64;
                        let reply = send(&mut conn, i, &req.line);
                        let done_ns = start.elapsed().as_nanos() as u64;
                        *slots[i].lock().expect("outcome slot lock") = Some(Outcome {
                            due_ns: req.due_ns,
                            sent_ns,
                            done_ns,
                            reply,
                        });
                    }
                    conn
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let outcomes = slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("outcome slot lock")
                .expect("every request was sent")
        })
        .collect();
    (outcomes, conns)
}

/// A closed-loop sample.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When the reply arrived, s after the loop started.
    pub done_s: f64,
    /// Round-trip latency, ms.
    pub ms: f64,
    /// The simulated instructions the reply carried when it was correct
    /// (`None` for a failure).
    pub insts: Option<u64>,
}

/// Runs a closed loop on each connection for `seconds`: `send` picks and
/// performs the connection's next round trip. Returns per-connection
/// samples.
pub fn closed_loop<C, F>(conns: Vec<C>, seconds: f64, send: F) -> (Vec<Vec<Sample>>, Vec<C>)
where
    C: Send,
    F: Fn(&mut C, u64) -> Option<u64> + Sync,
{
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .map(|mut conn| {
                let send = &send;
                s.spawn(move || {
                    let mut samples = Vec::new();
                    let mut seq = 0u64;
                    while Instant::now() < deadline {
                        let t = Instant::now();
                        let insts = send(&mut conn, seq);
                        samples.push(Sample {
                            done_s: start.elapsed().as_secs_f64(),
                            ms: t.elapsed().as_nanos() as f64 / 1e6,
                            insts,
                        });
                        seq += 1;
                    }
                    (samples, conn)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .unzip()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_and_an_exact_ninety_ten_split() {
        let a = open_stream(7, 1200, 40.0);
        let b = open_stream(7, 1200, 40.0);
        assert_eq!(a, b, "a seed names one request list");
        assert_ne!(a, open_stream(8, 1200, 40.0));

        let repeats: Vec<&Req> = a.iter().filter(|r| r.repeat_of.is_some()).collect();
        assert_eq!(repeats.len(), 120, "exactly 10% repeats");
        for (i, r) in a.iter().enumerate() {
            if let Some(of) = r.repeat_of {
                assert!(of < i, "a repeat names an earlier request");
                assert_eq!(r.line, a[of].line);
                assert!(a[of].repeat_of.is_none());
            }
        }
        let fresh: std::collections::HashSet<&str> = a
            .iter()
            .filter(|r| r.repeat_of.is_none())
            .map(|r| r.line.as_str())
            .collect();
        assert_eq!(fresh.len(), 1080, "fresh requests are all distinct");
        // 1200 arrivals at 40/s fill 30 s; every seed offers the same specs.
        let span_s = a.last().unwrap().due_ns as f64 / 1e9;
        assert!((29.0..30.0).contains(&span_s), "{span_s}");
        let set = |s: &[Req]| {
            let mut v: Vec<String> = s.iter().map(|r| r.line.clone()).collect();
            v.sort();
            v.dedup();
            v
        };
        assert_eq!(set(&a), set(&open_stream(8, 1200, 40.0)));
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
    }

    #[test]
    fn a_stalled_reply_makes_later_requests_late_and_the_delay_counts() {
        let reqs: Vec<Req> = (0..5)
            .map(|i| Req {
                due_ns: i * 10_000_000,
                line: format!("r{i}"),
                repeat_of: None,
            })
            .collect();
        let start = Instant::now();
        // One connection; the first reply stalls for 60 ms, the rest are
        // instant.
        let (out, _) = open_loop(&reqs, vec![()], start, |_, i, _| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(60));
            }
            Ok(String::new())
        });
        assert!(out[0].latency_ms() >= 60.0);
        for o in &out[1..5] {
            // Requests due at 10..40 ms could not go out before 60 ms.
            assert!(o.late_ms() >= 15.0, "late {:.1} ms", o.late_ms());
            assert!(o.latency_ms() >= o.late_ms());
        }
        // Request 1 was due at 10 ms and answered after 60 ms: ~50 ms.
        assert!(out[1].latency_ms() >= 49.0, "{}", out[1].latency_ms());
    }

    #[test]
    fn closed_loop_sends_only_after_each_reply() {
        let (samples, conns) = closed_loop(vec![0u32, 0u32], 0.05, |n, _| {
            *n += 1;
            std::thread::sleep(Duration::from_millis(5));
            Some(1)
        });
        assert_eq!(conns.len(), 2);
        for (s, n) in samples.iter().zip(&conns) {
            assert_eq!(s.len(), *n as usize);
            assert!((5..=11).contains(&s.len()), "{}", s.len());
            // Each reply arrives at least one round trip after the last.
            assert!(s.windows(2).all(|w| w[1].done_s - w[0].done_s >= 0.005));
        }
    }
}
