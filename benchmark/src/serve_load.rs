//! The two service workloads, `serve-hot` and `serve-cold`, and the
//! service-side layer probes (daemon and router `stats`, the router hop).

use std::path::Path;
use std::time::{Duration, Instant};

use subwarp_prng::SmallRng;
use subwarp_serve::json::{parse, Value};
use subwarp_serve::wire::ok_line;
use subwarp_serve::{Client, JobSpec};
use subwarp_sweep::units_to_stats;

use crate::layers::{self, Values};
use crate::loadgen::{self, Req};
use crate::report::{Jobs, Measured};
use crate::run::SETUP_REPS;
use crate::service::{connect, stats, Fleet};
use crate::span::Tracer;
use crate::stats::{median, percentile};

/// A reply with its `cached` flag cleared: a memoized reply must equal the
/// original simulation's reply in every other byte.
pub fn uncached(reply: &str) -> String {
    reply.replacen("\"cached\":true", "\"cached\":false", 1)
}

/// Checks a reply against the expected one (the `cached` flag aside).
pub fn check_reply(got: &str, expected: &str) -> Result<(), String> {
    if uncached(got) == uncached(expected) {
        Ok(())
    } else {
        Err(format!("reply `{got}` differs from expected `{expected}`"))
    }
}

/// The result a successful reply carries, with its fingerprint and label.
pub fn reply_result(reply: &str) -> Result<(u64, String, subwarp_core::RunStats), String> {
    let v = parse(reply).map_err(|e| format!("unparseable reply `{reply}`: {e}"))?;
    if v.bool_field("ok") != Some(true) {
        return Err(format!("error reply `{reply}`"));
    }
    let ints =
        |k: &str| -> Option<Vec<u64>> { v.get(k)?.as_arr()?.iter().map(Value::as_u64).collect() };
    let fp = v
        .str_field("fp")
        .and_then(|h| u64::from_str_radix(h, 16).ok());
    let stats = ints("u")
        .zip(ints("ch"))
        .and_then(|(u, ch)| units_to_stats(&u, &ch));
    match (fp, v.str_field("label"), stats) {
        (Some(fp), Some(label), Some(stats)) => Ok((fp, label.to_owned(), stats)),
        _ => Err(format!("malformed ok reply `{reply}`")),
    }
}

/// A result re-simulated in process.
pub struct Checked {
    /// The resolved request.
    pub spec: JobSpec,
    /// Wall time of its `Simulator::run`, ns.
    pub ns: u64,
    /// The result.
    pub stats: subwarp_core::RunStats,
}

/// Re-simulates `lines` in process and checks each reply bit for bit
/// against the line the daemon would write for that result. Returns the
/// layer values of the in-process request path and the results.
pub fn verify_in_process(
    lines: &[&str],
    replies: &[&str],
    profile: bool,
    tracer: &mut Tracer,
) -> Result<(Values, Vec<Checked>), Vec<String>> {
    let owned: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
    let (mut v, specs) = layers::request_path(&owned, tracer).map_err(|e| vec![e])?;
    let specs: Vec<JobSpec> = specs
        .into_iter()
        .map(|mut s| {
            s.sm = s.sm.with_profile_phases(profile);
            s
        })
        .collect();
    let (sim, runs) = layers::simulate_specs(&specs, tracer);
    v.extend(sim);
    let mut errors = Vec::new();
    let mut out = Vec::new();
    for ((spec, (ns, result)), reply) in specs.into_iter().zip(runs).zip(replies) {
        match result {
            Ok(stats) => {
                let want = ok_line(spec.fp, &spec.label, false, &stats);
                if let Err(e) = check_reply(reply, &want) {
                    errors.push(format!("in-process re-simulation: {e}"));
                }
                out.push(Checked { spec, ns, stats });
            }
            Err(e) => errors.push(format!("in-process re-simulation of {}: {e}", spec.label)),
        }
    }
    if errors.is_empty() {
        Ok((v, out))
    } else {
        Err(errors)
    }
}

/// Model and core counters over in-process results.
pub fn model_and_core(checked: &[Checked]) -> Values {
    let cells: Vec<layers::ModelCell> = checked
        .iter()
        .map(|c| layers::ModelCell {
            label: &c.spec.label,
            workload: c.spec.label.rsplit_once('/').map_or("", |(w, _)| w),
            sm: &c.spec.sm,
            si: &c.spec.si,
            stats: &c.stats,
        })
        .collect();
    let mut v = layers::model(&cells);
    let runs: Vec<(u64, &subwarp_core::RunStats)> =
        checked.iter().map(|c| (c.ns, &c.stats)).collect();
    v.extend(layers::core(&runs));
    v
}

/// Counters from the daemons' and the router's `stats` replies.
pub fn fleet_counters(shards: &[&str], router: Option<&str>) -> Result<Values, String> {
    let (mut hits, mut misses) = (0u64, 0u64);
    let mut v = Values::new();
    for addr in shards {
        let st = stats(addr)?;
        let n = |k: &str| st.u64_field(k).unwrap_or(0);
        hits += n("store_hits");
        misses += n("store_misses");
        for (metric, key) in [
            ("serve.coalesced", "coalesced"),
            ("serve.simulated", "simulated"),
            ("serve.shed", "shed"),
            ("serve.failed", "failed"),
        ] {
            *v.entry(metric).or_insert(0.0) += n(key) as f64;
        }
    }
    if !shards.is_empty() {
        v.insert(
            "serve.hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
        );
    }
    if let Some(addr) = router {
        let st = stats(addr)?;
        for (metric, key) in [
            ("router.retries", "retries"),
            ("router.failovers", "failovers"),
            ("router.shed", "shed"),
        ] {
            v.insert(metric, st.u64_field(key).unwrap_or(0) as f64);
        }
    }
    Ok(v)
}

/// Request pairs the hop probe sends.
const HOP_PAIRS: usize = 100;
/// Spacing of hop-probe sends.
const HOP_INTERVAL_NS: u64 = 12_000_000;

/// The router hop: seeded cached requests sent alternately through the
/// router and straight to the shard that owns them (`fp % shards`), on a
/// fixed schedule over one connection to each. The hop is the router round
/// trip minus the direct one, per pair. Also returns how late each send
/// went out.
pub fn hop_probe(
    router: &str,
    shards: &[&str],
    cached: &[(String, u64)],
    seed: u64,
    tracer: &mut Tracer,
) -> Result<(Values, Vec<f64>), String> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x40b);
    let mut reqs = Vec::new();
    let mut owner = Vec::new();
    for k in 0..HOP_PAIRS {
        let (line, fp) = &cached[rng.gen_range(0..cached.len())];
        owner.push((fp % shards.len() as u64) as usize);
        for j in 0..2 {
            reqs.push(Req {
                due_ns: (2 * k + j) as u64 * HOP_INTERVAL_NS,
                line: line.clone(),
                repeat_of: None,
            });
        }
    }
    let direct = shards
        .iter()
        .map(|a| connect(a))
        .collect::<Result<Vec<Client>, _>>()?;
    let conn = (
        connect(router)?,
        direct,
        Tracer::new(tracer.enabled(), tracer.epoch(), 9),
    );
    let (outcomes, mut conns) =
        loadgen::open_loop(&reqs, vec![conn], Instant::now(), |c, i, line| {
            let (name, client) = if i % 2 == 0 {
                ("cluster.route_run", &mut c.0)
            } else {
                ("serve.direct_run", &mut c.1[owner[i / 2]])
            };
            let open = c.2.begin(name, i as u64);
            let r = client.request_raw(line).map_err(|e| e.to_string());
            c.2.end(open);
            r
        });
    tracer.absorb(conns.pop().expect("one connection").2);
    let rtt = |o: &loadgen::Outcome| o.done_ns.saturating_sub(o.sent_ns) as f64 / 1e6;
    let mut hops = Vec::new();
    for pair in outcomes.chunks(2) {
        let (a, b) = (&pair[0], &pair[1]);
        check_reply(a.reply.as_deref()?, b.reply.as_deref()?)?;
        reply_result(a.reply.as_deref()?)?;
        hops.push(rtt(a) - rtt(b));
    }
    let v = Values::from([
        ("router.hop_ms_p50", median(&hops).unwrap_or(0.0)),
        (
            "router.hop_ms_p99",
            percentile(&hops, 99.0).map_or(0.0, |p| p.0),
        ),
    ]);
    Ok((v, outcomes.iter().map(loadgen::Outcome::late_ms).collect()))
}

/// A load-generating connection with its own span lane.
pub struct Conn {
    client: Client,
    tracer: Tracer,
    errors: Vec<String>,
    offset: usize,
}

impl Conn {
    fn open(addr: &str, traced: bool, epoch: Instant, tid: u32) -> Result<Conn, String> {
        Ok(Conn {
            client: connect(addr)?,
            tracer: Tracer::new(traced, epoch, tid),
            errors: Vec::new(),
            offset: 0,
        })
    }

    fn request(&mut self, id: u64, line: &str) -> Result<String, String> {
        let open = self.tracer.begin("serve.Client::request", id);
        let r = self.client.request_raw(line).map_err(|e| e.to_string());
        self.tracer.end(open);
        r
    }
}

/// Set-up of a service workload, [`SETUP_REPS`] times: start a fleet with
/// fresh stores, wait until every process answers `ping`, and `warm` it.
/// Returns the last fleet, its warm-up output, and the median set-up time.
/// The warm-up is part of set-up because the service cannot serve the
/// workload without it; it also makes set-up time a sum of real work rather
/// than a race against the accept loop's 10 ms poll.
fn set_up<T>(
    bins: &Path,
    root: &Path,
    dir: &Path,
    shards: usize,
    router: bool,
    tracer: &mut Tracer,
    mut warm: impl FnMut(&Fleet) -> Result<T, String>,
) -> Result<(Fleet, T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..SETUP_REPS {
        if let Some((old, _)) = last.take() {
            drop(old);
        }
        let t = Instant::now();
        let open = tracer.begin("serve.set_up", rep as u64);
        let fleet = Fleet::start(bins, root, &dir.join(format!("start{rep}")), shards, router)?;
        let out = warm(&fleet)?;
        tracer.end(open);
        times.push(t.elapsed().as_secs_f64());
        last = Some((fleet, out));
    }
    let (fleet, out) = last.expect("at least one set-up");
    Ok((fleet, out, median(&times).expect("timed set-ups")))
}

/// Layer values every traced service run adds: corpus decode, the chip
/// probe, and the journal on this run's results.
fn common_layers(
    root: &Path,
    dir: &Path,
    results: &[(u64, String, subwarp_core::RunStats)],
    tracer: &mut Tracer,
) -> Result<Values, String> {
    let mut v = layers::trace_decode(&layers::read_corpus(root)?, tracer)?;
    v.extend(crate::run::chip_probe(tracer)?);
    v.extend(layers::journal(dir, results, tracer)?);
    Ok(v)
}

/// Builds the suite in process (the in-process checks resolve `trace:`
/// keys against it), timed as `workloads.build_s`.
fn build_in_process(tracer: &mut Tracer) -> Values {
    let t = Instant::now();
    tracer.span("workloads.build", 0, || {
        std::hint::black_box(subwarp_workloads::built_suite());
    });
    Values::from([("workloads.build_s", t.elapsed().as_secs_f64())])
}

/// `serve-cold`'s load-generating connections (one thread each): no more
/// than the 2-core reference machine has cores, and one per daemon.
const COLD_CONNS: usize = 2;
/// `serve-hot`'s closed-loop connections. With two, the four threads
/// ping-ponging on two vCPUs ran each hit in 22 to 33 µs at p50 from one
/// run to the next, as the scheduler happened to place them; with one, in
/// 40 to 44 µs.
const HOT_CONNS: usize = 1;

/// Distinct specs `serve-hot` re-requests.
const HOT_SPECS: usize = 64;
/// Generator seed of the `serve-hot` spec set.
const HOT_SET_SEED: u64 = 0x407;
/// How many of those specs each run re-simulates in process.
const HOT_VERIFY: usize = 16;
/// `serve-hot` goodput latency limit, ms.
pub const HOT_LIMIT_MS: f64 = 1.0;
/// Length of the windows `serve-hot`'s metrics are medians over, s.
const HOT_WINDOW_S: f64 = 1.0;

/// Splits closed-loop samples into consecutive [`HOT_WINDOW_S`] windows by
/// when each reply arrived. The last window also takes the replies that
/// arrived after the loop's end, and its elapsed time is what remains of
/// `elapsed_s`. Each window holds tens of thousands of hits, so a burst of
/// host interference that spoils a window or two does not move the
/// medians taken over them.
fn hot_windows(samples: impl Iterator<Item = loadgen::Sample>, elapsed_s: f64) -> Vec<Jobs> {
    let n = ((elapsed_s / HOT_WINDOW_S) as usize).max(1);
    let mut windows = vec![Jobs::default(); n];
    for s in samples {
        let w = ((s.done_s / HOT_WINDOW_S) as usize).min(n - 1);
        windows[w].push(s.ms, s.insts.is_some(), s.insts.unwrap_or(0));
    }
    for (k, w) in windows.iter_mut().enumerate() {
        w.elapsed_s = if k + 1 < n {
            HOT_WINDOW_S
        } else {
            elapsed_s - (n - 1) as f64 * HOT_WINDOW_S
        };
    }
    windows
}

/// `serve-hot`: one daemon with a fresh store, a warmed set of distinct
/// specs, and a closed loop on one connection that re-requests them, so
/// every reply is a cache hit.
pub fn serve_hot(
    bins: &Path,
    root: &Path,
    dir: &Path,
    seed: u64,
    seconds: f64,
    tracing: bool,
    tracer: &mut Tracer,
) -> Result<Measured, String> {
    // The spec set is fixed, so every seed offers the same load; the seed
    // picks where each connection starts and which specs are re-simulated.
    let lines = loadgen::distinct_lines(HOT_SET_SEED, HOT_SPECS);
    // Warm-up: the first request simulates; the second must be a hit equal
    // to it, and is the exact reply every later request must get.
    let (fleet, (expected, errors), setup_s) =
        set_up(bins, root, dir, 1, false, tracer, |fleet| {
            let mut c = connect(&fleet.shards[0].addr)?;
            let (mut expected, mut errors) = (Vec::new(), Vec::new());
            for line in &lines {
                let first = c.request_raw(line).map_err(|e| e.to_string())?;
                let hit = c.request_raw(line).map_err(|e| e.to_string())?;
                if !hit.contains("\"cached\":true") {
                    errors.push(format!("second request was not a cache hit: {hit}"));
                }
                if let Err(e) = check_reply(&hit, &first) {
                    errors.push(e);
                }
                expected.push(hit);
            }
            Ok((expected, errors))
        })?;
    let addr = fleet.shards[0].addr.clone();
    let mut run = Measured {
        setup_s,
        errors,
        ..Measured::default()
    };
    let results = expected
        .iter()
        .map(|r| reply_result(r))
        .collect::<Result<Vec<_>, _>>()?;
    let insts: Vec<u64> = results.iter().map(|r| r.2.instructions).collect();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x407);
    let sample = crate::sim::shuffled(HOT_SPECS, &mut rng);
    let sample = &sample[..HOT_VERIFY];
    if tracing {
        run.layers = build_in_process(tracer);
    }
    let check_lines: Vec<&str> = sample.iter().map(|&i| lines[i].as_str()).collect();
    let check_replies: Vec<&str> = sample.iter().map(|&i| expected[i].as_str()).collect();
    let checked = match verify_in_process(&check_lines, &check_replies, tracing, tracer) {
        Ok((v, checked)) => {
            run.layers.extend(v);
            checked
        }
        Err(e) => {
            run.errors.extend(e);
            Vec::new()
        }
    };
    let offsets: Vec<usize> = (0..HOT_CONNS)
        .map(|_| rng.gen_range(0..HOT_SPECS))
        .collect();

    let mut measure = |traced: bool, secs: f64, tracer: &mut Tracer| -> Result<Vec<Jobs>, String> {
        let conns = (0..HOT_CONNS)
            .map(|k| {
                let mut c = Conn::open(&addr, traced, tracer.epoch(), k as u32 + 1)?;
                c.offset = offsets[k];
                Ok(c)
            })
            .collect::<Result<Vec<_>, String>>()?;
        let t = Instant::now();
        let (samples, conns) = loadgen::closed_loop(conns, secs, |c, seq| {
            // Stride 7 is coprime to the spec count: each connection walks
            // every spec before repeating one.
            let i = (c.offset + seq as usize * 7) % HOT_SPECS;
            match c.request(seq, &lines[i]) {
                Ok(r) if r == expected[i] => Some(insts[i]),
                Ok(r) => {
                    c.errors
                        .push(format!("hot reply differs from warm-up: {r}"));
                    None
                }
                Err(e) => {
                    c.errors.push(format!("transport: {e}"));
                    None
                }
            }
        });
        let elapsed_s = t.elapsed().as_secs_f64();
        for c in conns {
            run.errors.extend(c.errors.into_iter().take(5));
            tracer.absorb(c.tracer);
        }
        Ok(hot_windows(samples.into_iter().flatten(), elapsed_s))
    };
    if tracing {
        run.jobs = measure(false, seconds / 2.0, tracer)?;
        run.traced = Some(measure(true, seconds / 2.0, tracer)?);
    } else {
        run.jobs = measure(false, seconds, tracer)?;
    }
    run.peak_rss_mb = fleet.peak_rss_mb();

    if tracing {
        run.layers.extend(fleet_counters(&[&addr], None)?);
        run.layers
            .extend(common_layers(root, dir, &results, tracer)?);
        run.layers.extend(model_and_core(&checked));
        // The router is not on this workload's path; one started in front
        // of the same daemon measures the hop the workload skips.
        let args = [
            "--replicas".to_owned(),
            "1".to_owned(),
            "--shard".to_owned(),
            addr.clone(),
        ];
        let router = crate::service::Proc::spawn(&bins.join("subwarp-router"), &args, root)?;
        crate::service::wait_ping(&router.addr, Duration::from_secs(20))?;
        let cached: Vec<(String, u64)> = lines
            .iter()
            .cloned()
            .zip(results.iter().map(|r| r.0))
            .collect();
        let (hop, late) = hop_probe(&router.addr, &[&addr], &cached, seed, tracer)?;
        run.layers.extend(hop);
        run.layers.extend(fleet_counters(&[], Some(&router.addr))?);
        run.late_ms_p99 = percentile(&late, 99.0).map_or(0.0, |p| p.0);
        drop(router);
    }
    drop(fleet);
    Ok(run)
}

/// `serve-cold` arrival rate, jobs/s.
pub const COLD_RATE: f64 = 60.0;
/// `serve-cold` goodput latency limit, ms.
pub const COLD_LIMIT_MS: f64 = 250.0;
/// Fresh replies re-simulated in process each run.
const COLD_VERIFY: usize = 24;

/// `serve-cold`: a router in front of two daemons with fresh stores, and an
/// open loop of evenly spaced arrivals over two connections; 90% of the
/// requests are new specs, 10% repeat an earlier one.
pub fn serve_cold(
    bins: &Path,
    root: &Path,
    dir: &Path,
    seed: u64,
    seconds: f64,
    tracing: bool,
    tracer: &mut Tracer,
) -> Result<Measured, String> {
    // Warm each daemon's workload cache directly, with specs outside the
    // measured space, so timing starts with every workload built or
    // decoded once per shard.
    let (fleet, (), setup_s) = set_up(bins, root, dir, 2, true, tracer, |fleet| {
        for shard in &fleet.shards {
            let mut c = connect(&shard.addr)?;
            for key in loadgen::workload_keys() {
                let line = format!(
                    "{{\"cmd\":\"run\",\"workload\":\"{key}\",\"si\":\"off\",\"latency\":{},\"mem\":\"fixed\"}}",
                    loadgen::WARM_LATENCY
                );
                let reply = c.request_raw(&line).map_err(|e| e.to_string())?;
                reply_result(&reply).map_err(|e| format!("warm-up: {e}"))?;
            }
        }
        Ok(())
    })?;
    let router = fleet.front().to_owned();
    let shards: Vec<&str> = fleet.shards.iter().map(|s| s.addr.as_str()).collect();
    let mut run = Measured {
        setup_s,
        ..Measured::default()
    };

    let n = ((COLD_RATE * seconds).round() as usize).max(20);
    let stream = loadgen::open_stream(seed, n, COLD_RATE);
    let halves: Vec<(std::ops::Range<usize>, bool)> = if tracing {
        vec![(0..n / 2, false), (n / 2..n, true)]
    } else {
        vec![(0..n, false)]
    };
    let mut outcomes = Vec::with_capacity(n);
    let mut windows = Vec::new();
    for (range, traced) in halves {
        let base = stream[range.start].due_ns;
        let reqs: Vec<Req> = stream[range.clone()]
            .iter()
            .map(|r| Req {
                due_ns: r.due_ns - base,
                ..r.clone()
            })
            .collect();
        let conns = (0..COLD_CONNS)
            .map(|k| Conn::open(&router, traced, tracer.epoch(), k as u32 + 1))
            .collect::<Result<Vec<_>, String>>()?;
        let first = range.start as u64;
        let t = Instant::now();
        let (out, conns) = loadgen::open_loop(&reqs, conns, t, |c, i, line| {
            c.request(first + i as u64, line)
        });
        windows.push((range, t.elapsed().as_secs_f64()));
        outcomes.extend(out);
        for c in conns {
            tracer.absorb(c.tracer);
        }
    }

    // Checks: every reply is a result; a repeat equals its first reply.
    let mut ok = vec![false; n];
    let mut insts = vec![0u64; n];
    let mut fresh_ok = Vec::new();
    for (i, o) in outcomes.iter().enumerate() {
        let checked = o
            .reply
            .as_deref()
            .map_err(|e| format!("transport: {e}"))
            .and_then(|r| {
                let res = reply_result(r)?;
                if let Some(of) = stream[i].repeat_of {
                    if let Ok(first) = &outcomes[of].reply {
                        check_reply(r, first)?;
                    }
                }
                Ok(res)
            });
        match checked {
            Ok(res) => {
                ok[i] = true;
                insts[i] = res.2.instructions;
                if stream[i].repeat_of.is_none() {
                    fresh_ok.push((i, res));
                }
            }
            Err(e) if run.errors.len() < 20 => run.errors.push(e),
            Err(_) => {}
        }
    }
    let mut jobs: Vec<Jobs> = windows
        .into_iter()
        .map(|(range, elapsed_s)| {
            let mut j = Jobs {
                elapsed_s,
                ..Jobs::default()
            };
            for i in range {
                j.push(outcomes[i].latency_ms(), ok[i], insts[i]);
            }
            j
        })
        .collect();
    // Each half is one window: its tail needs every request.
    run.traced = if tracing {
        jobs.pop().map(|j| vec![j])
    } else {
        None
    };
    run.jobs = vec![jobs.pop().expect("an untraced window")];
    let late: Vec<f64> = outcomes.iter().map(loadgen::Outcome::late_ms).collect();
    run.late_ms_p99 = percentile(&late, 99.0).map_or(0.0, |p| p.0);
    run.peak_rss_mb = fleet.peak_rss_mb();

    // A seeded sample of fresh replies, re-simulated in process.
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xc01d);
    let pick = crate::sim::shuffled(fresh_ok.len(), &mut rng);
    let pick = &pick[..COLD_VERIFY.min(pick.len())];
    let check_lines: Vec<&str> = pick
        .iter()
        .map(|&k| stream[fresh_ok[k].0].line.as_str())
        .collect();
    let check_replies: Vec<&str> = pick
        .iter()
        .map(|&k| outcomes[fresh_ok[k].0].reply.as_deref().expect("ok reply"))
        .collect();
    if tracing {
        run.layers = build_in_process(tracer);
    }
    let checked = match verify_in_process(&check_lines, &check_replies, tracing, tracer) {
        Ok((v, checked)) => {
            run.layers.extend(v);
            checked
        }
        Err(e) => {
            run.errors.extend(e);
            Vec::new()
        }
    };
    if pick.len() < COLD_VERIFY {
        run.errors
            .push(format!("only {} fresh replies to re-simulate", pick.len()));
    }

    if tracing {
        run.layers.extend(fleet_counters(&shards, Some(&router))?);
        let results: Vec<_> = fresh_ok.iter().map(|(_, r)| r.clone()).collect();
        run.layers
            .extend(common_layers(root, dir, &results, tracer)?);
        run.layers.extend(model_and_core(&checked));
        let cached: Vec<(String, u64)> = fresh_ok
            .iter()
            .map(|(i, r)| (stream[*i].line.clone(), r.0))
            .collect();
        let (hop, _) = hop_probe(&router, &shards, &cached, seed, tracer)?;
        run.layers.extend(hop);
    }
    drop(fleet);
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tampered_reply_fails_the_checks() {
        let stats = subwarp_core::RunStats {
            cycles: 100,
            instructions: 40,
            ..Default::default()
        };
        let good = ok_line(0xabc, "toy/baseline", false, &stats);
        let hit = ok_line(0xabc, "toy/baseline", true, &stats);
        assert!(
            check_reply(&hit, &good).is_ok(),
            "a hit differs only in `cached`"
        );
        let (fp, label, back) = reply_result(&good).unwrap();
        assert_eq!(
            (fp, label.as_str(), back.cycles),
            (0xabc, "toy/baseline", 100)
        );

        let tampered = good.replace("\"cycles\":100", "\"cycles\":101");
        assert!(check_reply(&tampered, &good).is_err());
        let mut other = stats.clone();
        other.l1d.hits = 1;
        let wrong_units = ok_line(0xabc, "toy/baseline", false, &other);
        assert!(check_reply(&wrong_units, &good).is_err());
        assert!(reply_result("{\"ok\":false,\"kind\":\"shed\"}").is_err());
        assert!(reply_result("{\"ok\":true,\"fp\":\"zz\"}").is_err());
    }

    #[test]
    fn hot_samples_split_into_one_second_windows() {
        let sample = |done_s: f64, insts: Option<u64>| loadgen::Sample {
            done_s,
            ms: 0.02,
            insts,
        };
        let samples = [
            sample(0.1, Some(5)),
            sample(0.9, None),
            sample(1.5, Some(5)),
            sample(2.5, Some(5)),
            // Arrived after the loop's end: counted in the last window.
            sample(3.02, Some(5)),
        ];
        let w = hot_windows(samples.into_iter(), 3.01);
        assert_eq!(w.len(), 3);
        let counts: Vec<(u64, u64, usize)> = w
            .iter()
            .map(|j| (j.attempted, j.failed, j.ok_ms.len()))
            .collect();
        assert_eq!(counts, [(2, 1, 1), (1, 0, 1), (2, 0, 2)]);
        assert_eq!((w[0].elapsed_s, w[1].elapsed_s), (1.0, 1.0));
        assert!((w[2].elapsed_s - 1.01).abs() < 1e-9);
        let total = Jobs::total(&w);
        assert_eq!((total.attempted, total.insts), (5, 20));
        assert!((total.elapsed_s - 3.01).abs() < 1e-9);
    }
}
