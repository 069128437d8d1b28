//! `subwarp-serve`: the simulation-as-a-service daemon.
//!
//! ```text
//! subwarp-serve [--listen ADDR] [--store PATH] [--queue-cap N] [--quota N]
//!               [--workers N] [--deadline-ms N] [--attempts N] [--batch N]
//!               [--drain-grace-ms N] [--max-line BYTES]
//!               [--io-timeout-ms N] [--compact-at BYTES]
//! subwarp-serve compact --store PATH [--max-bytes N] [--max-entries N]
//! ```
//!
//! Listens for NDJSON job requests, executes them under supervision, and
//! memoizes results in a crash-safe journal (`--store`). SIGTERM or SIGINT
//! triggers a graceful drain: stop accepting, finish and journal accepted
//! work, exit 0. The robustness tests inject deterministic chaos and seed
//! the retry backoff through [`ServerConfig`] (`faults`, `jitter_seed`),
//! which no flag sets.
//!
//! `--compact-at BYTES` bounds the journal: when it grows past the
//! threshold, a background pass rewrites it crash-consistently keeping the
//! most-recently-used half. It needs `--store` (exit 2 without one). The `compact` subcommand runs the same pass
//! offline against a stopped daemon's store. Both honor
//! `SUBWARP_COMPACT_CRASH=<step>` (`begin`, `tmp-written`, `tmp-synced`,
//! `renamed`, `dir-synced`): the process aborts at that step, which is how
//! CI proves a `kill -9` at any instant leaves the journal intact.

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
            "--queue-cap" => cfg.queue_cap = parse(&next(&mut i, flag)?, flag)?,
            "--quota" => cfg.client_quota = parse(&next(&mut i, flag)?, flag)?,
            "--workers" => cfg.workers = parse(&next(&mut i, flag)?, flag)?,
            "--deadline-ms" => {
                let ms: u64 = parse(&next(&mut i, flag)?, flag)?;
                cfg.deadline = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--attempts" => cfg.max_attempts = parse(&next(&mut i, flag)?, flag)?,
            "--batch" => cfg.batch_max = parse(&next(&mut i, flag)?, flag)?,
            "--drain-grace-ms" => {
                cfg.drain_grace = Duration::from_millis(parse(&next(&mut i, flag)?, flag)?)
            }
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
    if compact_at.is_some() && store.is_none() {
        // The in-memory store has no file: a compactor would poll a
        // journal that never grows on disk, forever.
        return Err(
            "--compact-at needs --store (an in-memory store has no file to compact)".into(),
        );
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
  --queue-cap N          max queued jobs before shedding (default 64)
  --quota N              max outstanding jobs per client (default 16)
  --workers N            worker threads per batch (default: SUBWARP_JOBS/cores)
  --deadline-ms N        per-job soft deadline, 0 = none (default 30000)
  --attempts N           attempts per job, >1 retries faults (default 2)
  --batch N              max jobs per supervised batch (default 8)
  --drain-grace-ms N     drain grace before cancelling (default 30000)
  --max-line BYTES       max request line length (default 65536)
  --io-timeout-ms N      per-connection read/write deadline, 0 = none
                         (default 120000)
  --compact-at BYTES     compact the journal when it grows past this,
                         keeping the most-recently-used half (default: off;
                         needs --store)

subcommand `compact`: offline journal compaction against a stopped store:
  subwarp-serve compact --store PATH [--max-bytes N] [--max-entries N]

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
    let mut store = None;
    let mut policy = CompactPolicy::keep_all();
    let mut i = 0;
    let fail = |e: String| -> ! {
        eprintln!("subwarp-serve compact: {e}");
        std::process::exit(2);
    };
    while i < argv.len() {
        let flag = argv[i].as_str();
        let next = |i: &mut usize| -> String {
            *i += 1;
            argv.get(*i)
                .cloned()
                .unwrap_or_else(|| fail(format!("{flag} needs a value")))
        };
        match flag {
            "--store" => store = Some(next(&mut i)),
            "--max-bytes" => {
                policy.max_bytes = Some(parse(&next(&mut i), flag).unwrap_or_else(|e| fail(e)))
            }
            "--max-entries" => {
                policy.max_entries = Some(parse(&next(&mut i), flag).unwrap_or_else(|e| fail(e)))
            }
            other => fail(format!("unknown flag `{other}`")),
        }
        i += 1;
    }
    let Some(path) = store else {
        fail("--store PATH is required".to_owned());
    };
    let store = match Journal::open(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("subwarp-serve compact: cannot open store `{path}`: {e}");
            std::process::exit(1);
        }
    };
    let mut hook = compact_crash_hook();
    match store.compact_with_hook(&policy, &mut hook) {
        Ok(stats) => {
            println!(
                "compacted `{path}`: {} -> {} bytes, kept {}, evicted {}",
                stats.before_bytes, stats.after_bytes, stats.kept, stats.evicted
            );
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("subwarp-serve compact: {e}");
            std::process::exit(1);
        }
    }
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
    let restored = store.restored();
    let server = Server::start(args.cfg, store);

    // Background compactor: keeps the journal bounded without stopping the
    // daemon. Compaction holds the journal's file mutex, so concurrent
    // `record` flushes simply queue behind the rewrite.
    if let Some(threshold) = args.compact_at {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            let policy = CompactPolicy {
                // Target half the trigger so passes amortize instead of
                // firing on every record once the store fills.
                max_bytes: Some(threshold / 2),
                max_entries: None,
            };
            let mut hook = compact_crash_hook();
            while server.phase() == Phase::Running {
                if server.store().disk_bytes() > threshold {
                    match server.store().compact_with_hook(&policy, &mut hook) {
                        Ok(s) => eprintln!(
                            "subwarp-serve: compacted store {} -> {} bytes (kept {}, evicted {})",
                            s.before_bytes, s.after_bytes, s.kept, s.evicted
                        ),
                        Err(e) => eprintln!("subwarp-serve: compaction failed: {e}"),
                    }
                }
                std::thread::sleep(Duration::from_millis(500));
            }
        });
    }

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

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn compact_at_needs_a_store() {
        let err = parse_args(argv(&["--compact-at", "4096"])).err();
        assert!(err.is_some_and(|e| e.contains("--compact-at needs --store")));
        let args = parse_args(argv(&["--compact-at", "4096", "--store", "s.jsonl"]))
            .expect("a store makes --compact-at valid");
        assert_eq!(args.compact_at, Some(4096));
        assert!(parse_args(argv(&["--store", "s.jsonl"])).is_ok());
    }
}
