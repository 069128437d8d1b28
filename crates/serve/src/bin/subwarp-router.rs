//! `subwarp-router`: the cluster front door.
//!
//! ```text
//! subwarp-router --shard ADDR [--shard ADDR]... [--listen ADDR]
//!                [--replicas N] [--max-line BYTES] [--io-timeout-ms N]
//! ```
//!
//! Speaks the same NDJSON protocol as `subwarp-serve` and forwards each
//! `run` to the shard that owns its content fingerprint (primary `fp % n`
//! plus `--replicas` ring successors as failover owners). Transient shard
//! failures are retried with capped seeded-jitter backoff; a dead primary
//! fails over to its successors; when every owner of a range is down the
//! request is shed with `retry_after_ms` — the client always gets an
//! answer in bounded time. A background prober health-checks every shard
//! with a hard deadline. `ping` and `stats` are answered locally. Dial,
//! ping and forward deadlines, retries and the probe interval are
//! [`RouterConfig`]'s defaults, which the cluster tests set and no flag
//! does.

use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use subwarp_serve::cluster::{route_connection, Router, RouterConfig};
use subwarp_serve::listen::{accept_loop, install_signal_handlers, terminated, Conns};
use subwarp_serve::wire::WireLimits;

struct Args {
    listen: String,
    cfg: RouterConfig,
    max_line: usize,
    io_timeout: Option<Duration>,
}

fn parse_args() -> Result<Args, String> {
    let mut listen = "127.0.0.1:7070".to_owned();
    let mut cfg = RouterConfig::default();
    let mut max_line = WireLimits::default().max_line;
    let mut io_timeout_ms: u64 = 120_000;

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let next = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        let flag = argv[i].as_str();
        match flag {
            "--listen" => listen = next(&mut i, flag)?,
            "--shard" => cfg.shards.push(next(&mut i, flag)?),
            "--replicas" => cfg.replicas = parse(&next(&mut i, flag)?, flag)?,
            "--max-line" => max_line = parse(&next(&mut i, flag)?, flag)?,
            "--io-timeout-ms" => io_timeout_ms = parse(&next(&mut i, flag)?, flag)?,
            "--help" | "-h" => {
                println!("{HELP}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
        i += 1;
    }
    if cfg.shards.is_empty() {
        return Err("at least one --shard ADDR is required".to_owned());
    }
    Ok(Args {
        listen,
        cfg,
        max_line,
        io_timeout: (io_timeout_ms > 0).then(|| Duration::from_millis(io_timeout_ms)),
    })
}

fn parse<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad value `{s}` for {flag}"))
}

const HELP: &str = "subwarp-router: fingerprint-sharded front door for subwarp-serve

  --shard ADDR            shard daemon address, repeatable (required)
  --listen ADDR           bind address (default 127.0.0.1:7070)
  --replicas N            failover owners after the primary (default 1)
  --max-line BYTES        max client request line (default 65536)
  --io-timeout-ms N       client connection deadline, 0 = none
                          (default 120000)

Each run routes to owner shards of its content fingerprint; transient
failures retry with backoff, dead primaries fail over, and a range with no
live owner sheds with retry_after_ms instead of hanging.";

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("subwarp-router: {e}");
            std::process::exit(2);
        }
    };
    install_signal_handlers();

    let router = Router::new(args.cfg);
    let prober = router.start_health();

    let listener = match TcpListener::bind(&args.listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("subwarp-router: cannot bind `{}`: {e}", args.listen);
            std::process::exit(1);
        }
    };
    let local = listener
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| args.listen.clone());
    // Readiness line (CI and scripts wait for this exact prefix).
    println!(
        "subwarp-router listening on {local} (shards: {}, replicas follow the ring)",
        router.shard_addrs().join(",")
    );

    let conns = Arc::new(Conns::default());
    let handler = {
        let router = Arc::clone(&router);
        let limits = WireLimits {
            max_line: args.max_line,
        };
        move |_, stream: TcpStream, _| {
            if let Ok(reader) = stream.try_clone() {
                let _ = route_connection(&router, BufReader::new(reader), &stream, limits);
            }
        }
    };
    let stop = || terminated() || router.stopping();
    accept_loop(&listener, &conns, args.io_timeout, stop, handler).expect("non-blocking listener");

    eprintln!("subwarp-router: stopping...");
    router.shutdown();
    let _ = prober.join();
    // The router holds no durable state; cutting idle reads loses nothing.
    conns.cut(Duration::ZERO);
    println!("subwarp-router stopped: {}", router.stats_json());
    std::process::exit(0);
}
