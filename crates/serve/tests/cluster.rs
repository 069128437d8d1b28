//! End-to-end tests for the sharded cluster: failover when a shard dies,
//! bounded-time shedding when every owner is dead, retry-through-chaos,
//! hostile-client defenses (oversized lines, slowloris), and byte-identical
//! re-serves across a shard restart routed through the cluster front door.
//!
//! Shards are real [`Server`]s behind real TCP listeners (the same
//! connection handler as the `subwarp-serve` binary, including the
//! accept-path read deadlines); the router is the same [`Router`] core the
//! `subwarp-router` binary wraps.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use subwarp_pool::Backoff;
use subwarp_serve::chaos::{ChaosPlan, ChaosProxy};
use subwarp_serve::cluster::{Router, RouterConfig};
use subwarp_serve::listen::{accept_loop, Conns};
use subwarp_serve::wire::{tcp_handler, WireLimits};
use subwarp_serve::{JobSpec, Phase, Server, ServerConfig};
use subwarp_sweep::json::parse;
use subwarp_sweep::Journal;

fn shard_config() -> ServerConfig {
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

/// A live in-process shard: a [`Server`] behind a real TCP accept loop.
struct Shard {
    server: Arc<Server>,
    addr: String,
    conns: Arc<Conns>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl Shard {
    /// Binds `addr` (use `127.0.0.1:0` for ephemeral) and serves `store`
    /// with per-connection `io_timeout` and `limits`, mirroring the
    /// `subwarp-serve` accept path.
    fn spawn_at(
        addr: &str,
        store: Journal,
        io_timeout: Option<Duration>,
        limits: WireLimits,
    ) -> Shard {
        let listener = bind_with_retry(addr);
        let addr = listener.local_addr().unwrap().to_string();
        let server = Server::start(shard_config(), store);
        let conns = Arc::new(Conns::default());
        let accept = {
            let server = Arc::clone(&server);
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || {
                let handler = tcp_handler(Arc::clone(&server), limits);
                let stop = || server.phase() != Phase::Running;
                accept_loop(&listener, &conns, io_timeout, stop, handler).unwrap();
            })
        };
        Shard {
            server,
            addr,
            conns,
            accept: Some(accept),
        }
    }

    fn spawn(store: Journal) -> Shard {
        Shard::spawn_at(
            "127.0.0.1:0",
            store,
            Some(Duration::from_secs(30)),
            WireLimits::default(),
        )
    }

    /// Stops the shard like the daemon does: drains accepted work, waits
    /// for the accept loop to exit so the port is actually released, then
    /// cuts idle connections so their handlers let go of the store.
    fn stop(mut self) {
        self.server.drain();
        self.server.join();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.conns.cut(Duration::from_secs(5));
    }
}

/// A stopped shard's journal lock is released when the last handler
/// thread drops its `Arc<Server>`, which can trail `stop()` by a moment;
/// retry briefly so restart tests are not flaky.
fn open_store_with_retry(path: &std::path::Path) -> Journal {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match Journal::open(path) {
            Ok(s) => return s,
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => panic!("cannot reopen store: {e}"),
        }
    }
}

/// Port reuse right after a listener closed can transiently refuse; retry
/// briefly so "restart the shard on the same address" is not flaky.
fn bind_with_retry(addr: &str) -> TcpListener {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match TcpListener::bind(addr) {
            Ok(l) => return l,
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => panic!("cannot bind {addr}: {e}"),
        }
    }
}

/// A router tuned for tests: tight dial deadlines, fast backoff, manual
/// probing (the interval only matters when `start_health` runs).
fn test_router(shards: Vec<String>, replicas: usize, attempts: u32) -> Arc<Router> {
    Router::new(RouterConfig {
        shards,
        replicas,
        connect_timeout: Duration::from_millis(250),
        ping_timeout: Duration::from_millis(500),
        run_timeout: Duration::from_secs(30),
        attempts,
        backoff: Backoff {
            base: Duration::from_millis(10),
            max: Duration::from_millis(40),
            jitter_seed: 11,
        },
        health_interval: Duration::from_millis(100),
        shed_retry_after_ms: 200,
    })
}

fn fp_of(spec_line: &str) -> u64 {
    JobSpec::from_request(&parse(spec_line).unwrap())
        .unwrap()
        .fp
}

const SPEC: &str = r#"{"workload":"toy","si":"both"}"#;

#[test]
fn failover_survives_a_dead_primary() {
    let a = Shard::spawn(Journal::in_memory());
    let b = Shard::spawn(Journal::in_memory());
    let addrs = vec![a.addr.clone(), b.addr.clone()];
    let router = test_router(addrs, 1, 2);
    router.probe_all();

    let fp = fp_of(SPEC);
    let owners = router.owners(fp);
    assert_eq!(owners.len(), 2, "with replicas=1 every fp has 2 owners");

    // Healthy cluster: the request lands on the primary.
    let reply = router.route_run(SPEC, fp);
    assert!(
        reply.contains("\"ok\":true"),
        "healthy route failed: {reply}"
    );

    // Kill the primary owner; the same fingerprint must fail over to the
    // ring successor and still succeed.
    let shards = [a, b];
    let mut shards: Vec<Option<Shard>> = shards.into_iter().map(Some).collect();
    shards[owners[0]].take().unwrap().stop();
    let reply = router.route_run(SPEC, fp);
    assert!(
        reply.contains("\"ok\":true"),
        "failover route failed: {reply}"
    );
    let stats = router.stats_json();
    assert!(stats.contains("\"failovers\":"), "{stats}");

    for s in shards.into_iter().flatten() {
        s.stop();
    }
}

#[test]
fn all_owners_dead_sheds_in_bounded_time() {
    // Bind-and-drop two ports so nobody is listening on either.
    let dead = |_: usize| {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let router = test_router(vec![dead(0), dead(1)], 1, 2);
    router.probe_all();

    let fp = fp_of(SPEC);
    let started = Instant::now();
    let reply = router.route_run(SPEC, fp);
    let took = started.elapsed();
    assert!(reply.contains("\"kind\":\"shed\""), "{reply}");
    assert!(reply.contains("\"retry_after_ms\":200"), "{reply}");
    // Probed-down owners get a single quick dial each; well under the
    // full retry ladder and nowhere near a hang.
    assert!(took < Duration::from_secs(5), "shed took {took:?}");

    let pong = router.handle_line("{\"cmd\":\"ping\"}").0;
    assert!(pong.contains("\"shards_up\":0"), "{pong}");
}

#[test]
fn retries_ride_out_transient_chaos() {
    let shard = Shard::spawn(Journal::in_memory());
    // The first few dials are refused, then the network heals: with
    // retries the job must still come back ok, and deterministically so.
    let plan = ChaosPlan {
        refuse_per_mille: 1000,
        clears_after: Some(2),
        ..ChaosPlan::none(99)
    };
    let proxy = ChaosProxy::spawn(&shard.addr, plan).unwrap();
    let router = test_router(vec![proxy.addr().to_owned()], 0, 4);

    let fp = fp_of(SPEC);
    let reply = router.route_run(SPEC, fp);
    assert!(reply.contains("\"ok\":true"), "chaos route failed: {reply}");
    assert!(
        proxy.accepted() >= 3,
        "proxy saw {} conns",
        proxy.accepted()
    );

    drop(proxy);
    shard.stop();
}

#[test]
fn garbage_replies_are_retried_not_propagated() {
    let shard = Shard::spawn(Journal::in_memory());
    // Every connection gets a garbage line prepended to the reply stream
    // until the plan clears; the router must never forward garbage to its
    // client.
    let plan = ChaosPlan {
        garbage_per_mille: 1000,
        clears_after: Some(1),
        ..ChaosPlan::none(5)
    };
    let proxy = ChaosProxy::spawn(&shard.addr, plan).unwrap();
    let router = test_router(vec![proxy.addr().to_owned()], 0, 3);

    let fp = fp_of(SPEC);
    let reply = router.route_run(SPEC, fp);
    assert!(reply.contains("\"ok\":true"), "reply: {reply}");
    assert!(parse(&reply).is_ok(), "router forwarded garbage: {reply}");

    drop(proxy);
    shard.stop();
}

#[test]
fn oversized_request_line_gets_typed_error_and_close() {
    let shard = Shard::spawn_at(
        "127.0.0.1:0",
        Journal::in_memory(),
        Some(Duration::from_secs(30)),
        WireLimits { max_line: 256 },
    );

    let mut conn = TcpStream::connect(&shard.addr).unwrap();
    let huge = format!("{{\"workload\":\"{}\"}}\n", "x".repeat(4096));
    conn.write_all(huge.as_bytes()).unwrap();
    conn.flush().unwrap();

    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.contains("\"kind\":\"too-long\""), "{reply}");
    // The connection is closed after the reply: next read is EOF.
    let mut rest = String::new();
    reader.read_to_string(&mut rest).unwrap();
    assert!(rest.is_empty(), "expected close, got {rest:?}");

    let stats = shard.server.stats_json();
    assert!(stats.contains("\"oversized\":1"), "{stats}");
    shard.stop();
}

#[test]
fn slowloris_connection_is_cut_and_counted() {
    let shard = Shard::spawn_at(
        "127.0.0.1:0",
        Journal::in_memory(),
        Some(Duration::from_millis(200)),
        WireLimits::default(),
    );

    // Send half a request line and stall; the accept-path read deadline
    // must cut us off rather than pin the handler thread.
    let mut conn = TcpStream::connect(&shard.addr).unwrap();
    conn.write_all(b"{\"workload\":").unwrap();
    conn.flush().unwrap();

    let mut buf = Vec::new();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let n = conn.read_to_end(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "server should close without replying, got {buf:?}");

    // The cut is accounted for.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let stats = shard.server.stats_json();
        if stats.contains("\"conn_timeouts\":1") {
            break;
        }
        assert!(Instant::now() < deadline, "timeout never counted: {stats}");
        std::thread::sleep(Duration::from_millis(20));
    }
    shard.stop();
}

#[test]
fn restarted_shard_re_serves_byte_identically_through_the_router() {
    let dir = std::env::temp_dir();
    let store_path = dir.join(format!(
        "subwarp_cluster_store_{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&store_path);
    let _ = std::fs::remove_file(subwarp_sweep::lock_path_for(&store_path));

    let shard = Shard::spawn(Journal::open(&store_path).unwrap());
    let addr = shard.addr.clone();
    let router = test_router(vec![addr.clone()], 0, 3);

    let fp = fp_of(SPEC);
    let first = router.route_run(SPEC, fp);
    assert!(first.contains("\"ok\":true"), "{first}");
    assert!(first.contains("\"cached\":false"), "{first}");

    // Stop the shard (drains + journals), restart on the same address with
    // the same store, and re-route the identical request.
    shard.stop();
    let shard = Shard::spawn_at(
        &addr,
        open_store_with_retry(&store_path),
        Some(Duration::from_secs(30)),
        WireLimits::default(),
    );
    let second = router.route_run(SPEC, fp);
    assert!(second.contains("\"cached\":true"), "{second}");

    // The exact integer codec must survive the restart and the extra hop.
    let codec = |raw: &str| {
        let u = raw.find("\"u\":[").unwrap();
        raw[u..].to_owned()
    };
    assert_eq!(codec(&first), codec(&second));

    shard.stop();
    let _ = std::fs::remove_file(&store_path);
    let _ = std::fs::remove_file(subwarp_sweep::lock_path_for(&store_path));
}
