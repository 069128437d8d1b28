//! `subwarp-serve`: the simulation-as-a-service daemon.
//!
//! ```text
//! subwarp-serve [--listen ADDR] [--store PATH] [--workers N]
//!               [--max-line BYTES] [--io-timeout-ms N] [--compact-at BYTES]
//! subwarp-serve compact --store PATH [--max-bytes N]
//! ```
//!
//! Listens for NDJSON job requests, executes them under supervision, and
//! memoizes results in a crash-safe journal (`--store`). SIGTERM or SIGINT
//! triggers a graceful drain: stop accepting, finish and journal accepted
//! work, exit 0. Queue and quota sizes, deadlines, retries, batch size and
//! drain grace are [`ServerConfig`]'s defaults; the robustness tests set
//! them, and inject deterministic chaos and seed the retry backoff
//! (`faults`, `jitter_seed`), through that struct, which no flag sets.
//!
//! `--compact-at BYTES` bounds the memo store, on disk or in memory
//! ([`Journal::with_max_bytes`]): a record that takes it past the
//! threshold evicts the least-recently-used entries down to half of it,
//! on disk through the crash-consistent compaction pass. The `compact`
//! subcommand runs the same pass offline against a stopped daemon's store,
//! and honors `SUBWARP_COMPACT_CRASH=<step>` (`begin`, `tmp-written`,
//! `tmp-synced`, `renamed`, `dir-synced`): the process aborts at that
//! step, which is how CI proves a `kill -9` at any instant leaves the
//! journal intact. The online pass does not read it.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use subwarp_serve::listen::{accept_loop, install_signal_handlers, terminated, Conns};
use subwarp_serve::server::Phase;
use subwarp_serve::wire::{tcp_handler, WireLimits};
use subwarp_serve::{Server, ServerConfig};
use subwarp_sweep::{CompactPolicy, CompactStep, Journal};

struct Args {
    listen: String,
    store: Option<String>,
    cfg: ServerConfig,
    max_line: usize,
    io_timeout: Option<Duration>,
    compact_at: Option<u64>,
}

fn parse_args(argv: Vec<String>) -> Result<Args, String> {
    let mut listen = "127.0.0.1:7077".to_owned();
    let mut store = None;
    let mut cfg = ServerConfig::default();
    let mut max_line = WireLimits::default().max_line;
    // Generous by default: the deadline only fires while *waiting* for the
    // next request line (a stalled or vanished peer), never while a
    // submitted job simulates.
    let mut io_timeout_ms: u64 = 120_000;
    let mut compact_at = None;

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
            "--store" => store = Some(next(&mut i, flag)?),
            "--workers" => cfg.workers = parse(&next(&mut i, flag)?, flag)?,
            "--max-line" => max_line = parse(&next(&mut i, flag)?, flag)?,
            "--io-timeout-ms" => io_timeout_ms = parse(&next(&mut i, flag)?, flag)?,
            "--compact-at" => compact_at = Some(parse(&next(&mut i, flag)?, flag)?),
            "--help" | "-h" => {
                println!("{}", HELP);
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
        i += 1;
    }
    Ok(Args {
        listen,
        store,
        cfg,
        max_line,
        io_timeout: (io_timeout_ms > 0).then(|| Duration::from_millis(io_timeout_ms)),
        compact_at,
    })
}

fn parse<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad value `{s}` for {flag}"))
}

const HELP: &str = "subwarp-serve: crash-safe simulation job daemon (NDJSON over TCP)

  --listen ADDR          bind address (default 127.0.0.1:7077)
  --store PATH           persistent memo journal (default: in-memory only)
  --workers N            worker threads per batch (default: SUBWARP_JOBS/cores)
  --max-line BYTES       max request line length (default 65536)
  --io-timeout-ms N      per-connection read/write deadline, 0 = none
                         (default 120000)
  --compact-at BYTES     bound the memo store, on disk or in memory: past
                         this, evict the least-recently-used entries down
                         to half of it (default: unbounded)

subcommand `compact`: offline journal compaction against a stopped store:
  subwarp-serve compact --store PATH [--max-bytes N]

SIGTERM/SIGINT drain gracefully: accepted work finishes and is journaled,
then the process exits 0.";

/// A [`CompactStep`] hook honoring `SUBWARP_COMPACT_CRASH=<step>`: aborts
/// the process (a true `kill -9`-equivalent, no destructors) at the named
/// step so CI can prove crash consistency at every instant.
fn compact_crash_hook() -> impl FnMut(CompactStep) {
    let target = std::env::var("SUBWARP_COMPACT_CRASH")
        .ok()
        .and_then(|s| CompactStep::from_name(&s));
    move |step: CompactStep| {
        if Some(step) == target {
            eprintln!(
                "subwarp-serve: SUBWARP_COMPACT_CRASH aborting at `{}`",
                step.name()
            );
            std::process::abort();
        }
    }
}

/// `subwarp-serve compact`: compact a stopped daemon's journal in place.
/// Takes the store's exclusive lock, so it refuses to race a live daemon.
fn compact_main(argv: Vec<String>) -> ! {
    let fail = |code: i32, e: String| -> ! {
        eprintln!("subwarp-serve compact: {e}");
        std::process::exit(code);
    };
    let mut store = None;
    let mut policy = CompactPolicy::keep_all();
    let mut args = argv.iter();
    while let Some(flag) = args.next() {
        let mut value = || {
            let v = args.next().cloned();
            v.unwrap_or_else(|| fail(2, format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--store" => store = Some(value()),
            "--max-bytes" => {
                policy.max_bytes = Some(parse(&value(), flag).unwrap_or_else(|e| fail(2, e)))
            }
            other => fail(2, format!("unknown flag `{other}`")),
        }
    }
    let Some(path) = store else {
        fail(2, "--store PATH is required".to_owned());
    };
    let store = Journal::open(&path)
        .unwrap_or_else(|e| fail(1, format!("cannot open store `{path}`: {e}")));
    let stats = store
        .compact_with_hook(&policy, &mut compact_crash_hook())
        .unwrap_or_else(|e| fail(1, e.to_string()));
    println!(
        "compacted `{path}`: {} -> {} bytes, kept {}, evicted {}",
        stats.before_bytes, stats.after_bytes, stats.kept, stats.evicted
    );
    std::process::exit(0);
}

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compact") {
        argv.remove(0);
        compact_main(argv);
    }
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("subwarp-serve: {e}");
            std::process::exit(2);
        }
    };
    install_signal_handlers();

    let store = match &args.store {
        Some(path) => match Journal::open(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("subwarp-serve: cannot open store `{path}`: {e}");
                std::process::exit(1);
            }
        },
        None => Journal::in_memory(),
    };
    let store = match args.compact_at {
        Some(threshold) => store.with_max_bytes(threshold),
        None => store,
    };
    let restored = store.restored();
    let server = Server::start(args.cfg, store);

    let listener = match TcpListener::bind(&args.listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("subwarp-serve: cannot bind `{}`: {e}", args.listen);
            std::process::exit(1);
        }
    };
    let local = listener
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| args.listen.clone());
    // Readiness line (CI and scripts wait for this exact prefix).
    println!(
        "subwarp-serve listening on {local} (store: {}, restored: {restored})",
        args.store.as_deref().unwrap_or("in-memory")
    );

    // Slowloris defense: a peer that stalls mid-line (or never reads its
    // replies) is cut after `--io-timeout-ms` and counted in
    // `conn_timeouts`.
    let conns = Arc::new(Conns::default());
    let limits = WireLimits {
        max_line: args.max_line,
    };
    let handler = tcp_handler(Arc::clone(&server), limits);
    let stop = || terminated() || server.phase() != Phase::Running;
    accept_loop(&listener, &conns, args.io_timeout, stop, handler).expect("non-blocking listener");

    // Graceful drain: stop admitting, answer every accepted job (journaled
    // before the reply), then stop the dispatcher.
    eprintln!("subwarp-serve: draining...");
    server.drain();
    server.join();

    // Wake connection threads idling in read: accepted work has already
    // been answered, so cutting the read side loses nothing. Reply writers
    // get a bounded window to finish flushing.
    conns.cut(Duration::from_secs(5));

    println!("subwarp-serve drained: {}", server.stats_json());
    std::process::exit(0);
}
