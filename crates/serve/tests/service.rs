//! End-to-end tests for the job daemon: dedupe over the wire, in-flight
//! coalescing, admission control, graceful drain, chaos survival, and
//! journaled restart.
//!
//! TCP tests run a real listener on an ephemeral port with the same
//! connection handler as the `subwarp-serve` binary; the rest drive the
//! [`Server`] API directly so timing-sensitive assertions (coalescing,
//! shedding) can use deterministic injected delays instead of sleeps.

use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::{Duration, Instant};

use subwarp_core::{FaultKind, FaultPlan, RunStats};
use subwarp_serve::listen::{accept_loop, Conns};
use subwarp_serve::server::JobReply;
use subwarp_serve::wire::{ok_line, tcp_handler, WireLimits};
use subwarp_serve::{Client, JobSpec, Phase, Server, ServerConfig, Submitted};
use subwarp_sweep::json::parse;
use subwarp_sweep::{CompactPolicy, Journal};

/// A small config sized for single-core CI: tiny batches, generous
/// deadline, no retries unless a test opts in.
fn test_config() -> ServerConfig {
    ServerConfig {
        queue_cap: 16,
        client_quota: 8,
        workers: 2,
        deadline: Some(Duration::from_secs(30)),
        max_attempts: 1,
        batch_max: 4,
        drain_grace: Duration::from_secs(30),
        faults: None,
        jitter_seed: 7,
    }
}

fn spec(line: &str) -> JobSpec {
    JobSpec::from_request(&parse(line).unwrap()).unwrap()
}

/// Serves `server` on an ephemeral TCP port until it leaves `Running`.
fn spawn_listener(server: Arc<Server>) -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || {
        let conns = Arc::new(Conns::default());
        let handler = tcp_handler(Arc::clone(&server), WireLimits::default());
        let stop = || server.phase() != Phase::Running;
        accept_loop(&listener, &conns, None, stop, handler).unwrap();
    });
    (addr, handle)
}

/// Extracts the exact `"u":[...]` / `"ch":[...]` codec text from a raw
/// reply line — the byte-identity the restart guarantee is stated in.
fn codec_text(raw: &str) -> String {
    let u = raw.find("\"u\":[").expect("reply has u array");
    let end = raw[u..].find(']').unwrap() + u;
    let ch = raw.find("\"ch\":[").expect("reply has ch array");
    let chend = raw[ch..].find(']').unwrap() + ch;
    format!("{} {}", &raw[u..=end], &raw[ch..=chend])
}

fn recv_ok(rx: &Receiver<JobReply>) -> (RunStats, bool) {
    rx.recv_timeout(Duration::from_secs(120))
        .expect("job must reach a definite state")
        .expect("job must succeed")
}

#[test]
fn fresh_connections_are_accepted_on_arrival() {
    let server = Server::start(test_config(), Journal::in_memory());
    let (addr, listener) = spawn_listener(Arc::clone(&server));

    // A loop that slept between polls would make each new connection wait
    // for the next poll (~10 ms each, ~500 ms in total).
    let started = Instant::now();
    for _ in 0..50 {
        let mut client = Client::connect(&addr).unwrap();
        let pong = client.request(r#"{"cmd":"ping"}"#).unwrap();
        assert_eq!(pong.bool_field("pong"), Some(true));
    }
    let took = started.elapsed();
    assert!(
        took < Duration::from_millis(250),
        "50 round trips took {took:?}"
    );

    server.drain();
    server.join();
    listener.join().unwrap();
}

#[test]
fn tcp_resubmit_hits_the_memo_store_byte_identically() {
    let server = Server::start(test_config(), Journal::in_memory());
    let (addr, listener) = spawn_listener(Arc::clone(&server));

    let mut client = Client::connect(&addr).unwrap();
    let pong = client.request(r#"{"cmd":"ping"}"#).unwrap();
    assert_eq!(pong.bool_field("pong"), Some(true));

    let first = client
        .request_raw(r#"{"workload":"toy","si":"both"}"#)
        .unwrap();
    let second = client
        .request_raw(r#"{"workload":"toy","si":"both"}"#)
        .unwrap();
    let p1 = parse(&first).unwrap();
    let p2 = parse(&second).unwrap();
    assert_eq!(p1.bool_field("ok"), Some(true), "first: {first}");
    assert_eq!(p1.bool_field("cached"), Some(false), "first must simulate");
    assert_eq!(p2.bool_field("cached"), Some(true), "second must be served");
    assert_eq!(p1.str_field("fp"), p2.str_field("fp"));
    assert_eq!(codec_text(&first), codec_text(&second));

    let stats = client.request(r#"{"cmd":"stats"}"#).unwrap();
    assert_eq!(stats.str_field("phase"), Some("running"));
    assert_eq!(stats.u64_field("store_len"), Some(1));

    // Bad requests bounce without killing the connection or the daemon.
    let bad = client.request(r#"{"workload":"nope"}"#).unwrap();
    assert_eq!(bad.str_field("kind"), Some("bad-request"));
    assert!(client.request(r#"{"workload":"toy"}"#).is_ok());

    let bye = client.request(r#"{"cmd":"shutdown"}"#).unwrap();
    assert_eq!(bye.bool_field("draining"), Some(true));
    server.join();
    assert_eq!(server.phase(), Phase::Stopped);
    listener.join().unwrap();
}

#[test]
fn concurrent_duplicates_coalesce_into_one_simulation() {
    // The first submission sleeps 400 ms inside the simulator (injected
    // delay), guaranteeing the duplicates arrive while it is pending.
    let cfg = ServerConfig {
        workers: 1,
        batch_max: 1,
        faults: Some(FaultPlan::none(1).with_target("toy/baseline", FaultKind::Delay { ms: 400 })),
        ..test_config()
    };
    let server = Server::start(cfg, Journal::in_memory());

    let mut rxs = Vec::new();
    for client in ["a", "b", "c", "d", "e"] {
        match server.submit(client, spec(r#"{"workload":"toy"}"#)) {
            Submitted::Queued(rx) => rxs.push(rx),
            other => panic!(
                "submission for {client} must queue, got {}",
                match other {
                    Submitted::Cached(_) => "cached",
                    Submitted::Shed { reason, .. } => reason,
                    Submitted::Queued(_) => unreachable!(),
                }
            ),
        }
    }
    let replies: Vec<(RunStats, bool)> = rxs.iter().map(recv_ok).collect();
    for (stats, _) in &replies {
        assert_eq!(stats, &replies[0].0, "coalesced replies must be identical");
    }
    let c = server.counters();
    assert_eq!(
        c.simulated.load(std::sync::atomic::Ordering::Relaxed),
        1,
        "five identical submissions, one simulation"
    );
    assert_eq!(c.coalesced.load(std::sync::atomic::Ordering::Relaxed), 4);

    // The wire's store counters, as the benchmark reads them: every one of
    // the five submissions missed the store (one queued, four coalesced);
    // a later identical submission is a hit, counted as `cached` too.
    let store_counters = |server: &Server| {
        let stats = parse(&server.stats_json()).unwrap();
        ["cached", "store_hits", "store_misses"].map(|k| stats.u64_field(k).unwrap())
    };
    assert_eq!(store_counters(&server), [0, 0, 5]);
    match server.submit("f", spec(r#"{"workload":"toy"}"#)) {
        Submitted::Cached(stats) => assert_eq!(*stats, replies[0].0),
        _ => panic!("a completed fingerprint must be served from the store"),
    }
    assert_eq!(store_counters(&server), [1, 1, 5]);
    server.drain();
    server.join();
}

#[test]
fn a_bounded_in_memory_store_evicts_and_re_simulates_byte_identically() {
    let specs: Vec<JobSpec> = (0..24)
        .map(|k| {
            spec(&format!(
                r#"{{"workload":"micro:16@1","si":"both","latency":{}}}"#,
                300 + 10 * k
            ))
        })
        .collect();
    // Bound the store at six lines' worth, measured on the first result.
    let first = &specs[0];
    let stats = subwarp_core::Simulator::new(first.sm.clone(), first.si)
        .run(&first.wl)
        .unwrap();
    let probe = Journal::in_memory();
    probe.record(first.fp, &first.label, &stats);
    let line = probe
        .compact(&CompactPolicy::keep_all())
        .unwrap()
        .before_bytes;
    let store = Journal::in_memory().with_max_bytes(6 * line);
    let server = Server::start(test_config(), store);

    let run = |s: &JobSpec| match server.submit("t", s.clone()) {
        Submitted::Queued(rx) => {
            let (stats, cached) = recv_ok(&rx);
            ok_line(s.fp, &s.label, cached, &stats)
        }
        _ => panic!("{} must be simulated", s.label),
    };
    let replies: Vec<String> = specs
        .iter()
        .map(|s| {
            let reply = run(s);
            assert!(
                server.store().len() <= 6,
                "store holds {}",
                server.store().len()
            );
            reply
        })
        .collect();
    let stats = parse(&server.stats_json()).unwrap();
    assert!(stats.u64_field("compactions").unwrap() >= 3, "{stats:?}");
    assert_eq!(stats.u64_field("store_bytes"), Some(0));

    // The oldest spec was evicted: submitting it again simulates it again,
    // to the same reply bytes.
    let simulated = || {
        server
            .counters()
            .simulated
            .load(std::sync::atomic::Ordering::Relaxed)
    };
    assert_eq!(simulated(), 24);
    assert_eq!(run(first), replies[0]);
    assert_eq!(simulated(), 25);
    server.drain();
    server.join();
}

#[test]
fn full_queue_and_over_quota_submissions_are_shed() {
    let cfg = ServerConfig {
        queue_cap: 1,
        client_quota: 1,
        workers: 1,
        batch_max: 1,
        faults: Some(FaultPlan::none(2).with_target("toy/baseline", FaultKind::Delay { ms: 800 })),
        ..test_config()
    };
    let server = Server::start(cfg, Journal::in_memory());

    // Job 0 is claimed by the dispatcher and sleeps 800 ms...
    let rx0 = match server.submit("c0", spec(r#"{"workload":"toy"}"#)) {
        Submitted::Queued(rx) => rx,
        _ => panic!("job 0 must queue"),
    };
    std::thread::sleep(Duration::from_millis(200)); // let the dispatcher claim it
                                                    // ...so job 1 fills the queue (capacity 1)...
    let rx1 = match server.submit("c1", spec(r#"{"workload":"toy","si":"sos"}"#)) {
        Submitted::Queued(rx) => rx,
        _ => panic!("job 1 must queue"),
    };
    // ...job 2 is shed for queue depth, with a backpressure hint...
    match server.submit("c2", spec(r#"{"workload":"toy","si":"both"}"#)) {
        Submitted::Shed {
            reason,
            retry_after_ms,
        } => {
            assert_eq!(reason, "queue-full");
            assert!(retry_after_ms >= 100);
        }
        _ => panic!("job 2 must be shed"),
    }
    // ...and client 1's second job is shed for quota.
    match server.submit("c1", spec(r#"{"workload":"micro:8@2"}"#)) {
        Submitted::Shed { reason, .. } => assert_eq!(reason, "quota"),
        _ => panic!("over-quota job must be shed"),
    }

    recv_ok(&rx0);
    recv_ok(&rx1);
    let shed = server
        .counters()
        .shed
        .load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(shed, 2);
    server.drain();
    server.join();
}

#[test]
fn drain_answers_accepted_work_then_sheds_new_submissions() {
    let cfg = ServerConfig {
        workers: 1,
        batch_max: 2,
        faults: Some(FaultPlan::none(3).with_target("toy/baseline", FaultKind::Delay { ms: 200 })),
        ..test_config()
    };
    let server = Server::start(cfg, Journal::in_memory());

    let rxs: Vec<Receiver<JobReply>> = [
        r#"{"workload":"toy"}"#,
        r#"{"workload":"toy","si":"sos"}"#,
        r#"{"workload":"toy","si":"both"}"#,
    ]
    .iter()
    .map(|line| match server.submit("c", spec(line)) {
        Submitted::Queued(rx) => rx,
        _ => panic!("pre-drain submissions must queue"),
    })
    .collect();

    server.drain();
    assert_eq!(server.phase(), Phase::Draining);
    match server.submit("c", spec(r#"{"workload":"micro:8@2"}"#)) {
        Submitted::Shed { reason, .. } => assert_eq!(reason, "draining"),
        _ => panic!("post-drain submission must be shed"),
    }

    // Every accepted job still completes — drain never drops work.
    for rx in &rxs {
        recv_ok(rx);
    }
    server.join();
    assert_eq!(server.phase(), Phase::Stopped);
    assert_eq!(server.store().len(), 3, "drained work must be memoized");
}

#[test]
fn chaos_burst_terminates_every_job_and_daemon_survives() {
    // Aggressive deterministic faults, no retries: many jobs fail — but
    // every single one must reach a definite state and the daemon must
    // keep serving afterwards.
    let cfg = ServerConfig {
        workers: 2,
        batch_max: 4,
        max_attempts: 1,
        faults: Some(FaultPlan {
            seed: 42,
            panic_per_mille: 350,
            error_per_mille: 350,
            ..FaultPlan::default()
        }),
        ..test_config()
    };
    let server = Server::start(cfg, Journal::in_memory());

    let mut lines = vec![r#"{"workload":"toy"}"#.to_owned()];
    for size in [4, 8, 16] {
        for si in ["off", "sos", "both"] {
            lines.push(format!(r#"{{"workload":"micro:{size}@1","si":"{si}"}}"#));
        }
    }
    let mut rxs = Vec::new();
    for (k, line) in lines.iter().enumerate() {
        match server.submit(&format!("client-{}", k % 3), spec(line)) {
            Submitted::Queued(rx) => rxs.push(rx),
            Submitted::Cached(_) => {}
            Submitted::Shed { .. } => panic!("burst fits the queue, nothing sheds"),
        }
    }
    let mut ok = 0usize;
    let mut failed = 0usize;
    for rx in &rxs {
        match rx.recv_timeout(Duration::from_secs(120)) {
            Ok(Ok(_)) => ok += 1,
            Ok(Err(failure)) => {
                assert!(
                    ["panic", "error", "timeout", "cancelled"].contains(&failure.kind),
                    "unlabeled failure: {failure:?}"
                );
                failed += 1;
            }
            Err(_) => panic!("a job never reached a definite state"),
        }
    }
    assert_eq!(ok + failed, rxs.len(), "no job may vanish");
    assert!(failed > 0, "the chaos plan must actually bite");
    assert!(ok > 0, "some jobs must dodge the 35%+35% rates");

    // Still alive and serving: an unfaulted label round-trips.
    assert_eq!(server.phase(), Phase::Running);
    let c = server.counters();
    let answered = c.ok.load(std::sync::atomic::Ordering::Relaxed)
        + c.failed.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(
        answered,
        c.accepted.load(std::sync::atomic::Ordering::Relaxed)
    );
    server.drain();
    server.join();
}

#[test]
fn graceful_restart_serves_journaled_results_byte_identically() {
    let path = std::env::temp_dir().join(format!(
        "subwarp_serve_restart_{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let lines = [
        r#"{"workload":"toy"}"#,
        r#"{"workload":"toy","si":"both"}"#,
        r#"{"workload":"micro:8@2","si":"sos"}"#,
    ];

    let mut first_run: Vec<(u64, RunStats)> = Vec::new();
    {
        let server = Server::start(test_config(), Journal::open(&path).unwrap());
        for line in &lines {
            let s = spec(line);
            let fp = s.fp;
            match server.submit("c", s) {
                Submitted::Queued(rx) => first_run.push((fp, recv_ok(&rx).0)),
                _ => panic!("first-run submissions must queue"),
            }
        }
        server.drain();
        server.join();
    }

    // "Restart": reopen the store. The drain timer thread may hold the
    // journal for one last 25 ms tick, so the open retries briefly —
    // exactly what a supervised restart loop does.
    let store = {
        let mut attempt = 0;
        loop {
            match Journal::open(&path) {
                Ok(s) => break s,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock && attempt < 100 => {
                    attempt += 1;
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => panic!("reopen failed: {e}"),
            }
        }
    };
    assert_eq!(store.restored(), lines.len());
    let server = Server::start(test_config(), store);
    for (line, (fp, stats)) in lines.iter().zip(&first_run) {
        let s = spec(line);
        assert_eq!(s.fp, *fp, "fingerprints are stable across restarts");
        match server.submit("c", s) {
            Submitted::Cached(served) => {
                assert_eq!(&*served, stats, "restored result must be byte-identical");
            }
            _ => panic!("restored fingerprints must be served from the journal"),
        }
    }
    // New work still simulates fresh after a restart.
    match server.submit("c", spec(r#"{"workload":"micro:16@2"}"#)) {
        Submitted::Queued(rx) => {
            recv_ok(&rx);
        }
        _ => panic!("new work must queue"),
    }
    server.drain();
    server.join();
    drop(server);
    std::thread::sleep(Duration::from_millis(60)); // let the lock release
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(subwarp_sweep::lock_path_for(&path));
}

#[test]
fn tcp_connection_survives_garbage_and_client_disconnects() {
    let server = Server::start(test_config(), Journal::in_memory());
    let (addr, listener) = spawn_listener(Arc::clone(&server));

    // A client that sends garbage and hangs up mid-protocol.
    {
        let mut c = Client::connect(&addr).unwrap();
        let r = c.request("this is not json").unwrap();
        assert_eq!(r.str_field("kind"), Some("bad-request"));
        let r = c.request(r#"{"cmd":"dance"}"#).unwrap();
        assert_eq!(r.str_field("kind"), Some("bad-request"));
        // dropped here without a clean goodbye
    }
    {
        use std::io::Write;
        let mut raw = TcpStream::connect(&addr).unwrap();
        raw.write_all(b"{\"workload\":\"toy\"").unwrap(); // torn line, no \n
        drop(raw);
    }

    // The daemon shrugs and keeps serving.
    let mut c = Client::connect(&addr).unwrap();
    let r = c.request(r#"{"workload":"toy"}"#).unwrap();
    assert_eq!(r.bool_field("ok"), Some(true));

    c.request(r#"{"cmd":"shutdown"}"#).unwrap();
    server.join();
    listener.join().unwrap();
}
