//! `loadgen`: a burst client for `subwarp-serve` reporting latency
//! percentiles, cache hit rate, and shed counts.
//!
//! ```text
//! loadgen [--connect ADDR] [--jobs N] [--conns C] [--spec JSON]...
//!         [--dump FILE] [--record FILE] [--replay FILE]
//!         [--shutdown] [--stats]
//! ```
//!
//! Cycles `--jobs` submissions across `--conns` connections over the spec
//! list (repeatable `--spec`; a built-in mixed set by default, chosen so a
//! burst contains duplicates and exercises both the memo store and
//! in-flight coalescing). Prints one machine-greppable summary line:
//!
//! ```text
//! loadgen: submitted=48 ok=48 cached=42 shed=0 failed=0 io_errors=0 \
//!          hit_rate=0.875 p50_ms=0.41 p99_ms=212.50
//! ```
//!
//! `--dump FILE` writes one `fp=... u=[...] ch=[...]` line per distinct
//! successful fingerprint, sorted — two dumps from equivalent bursts must
//! be byte-identical, which is how CI proves a restarted daemon re-serves
//! journaled results exactly.
//!
//! `--record FILE` captures the burst (request bytes + inter-arrival
//! timings) as a [`Recording`]; `--replay FILE` re-sends a recording on
//! its original schedule instead of generating a burst, so the same
//! traffic shape can be thrown at a cluster before and after a restart,
//! a compaction, or under chaos — and the dumps diffed.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use subwarp_serve::traffic::RecordedCall;
use subwarp_serve::{Client, Recording};
use subwarp_sweep::json::Value;

const DEFAULT_SPECS: &[&str] = &[
    r#"{"workload":"toy"}"#,
    r#"{"workload":"toy","si":"sos"}"#,
    r#"{"workload":"toy","si":"both"}"#,
    r#"{"workload":"micro:8@2"}"#,
    r#"{"workload":"micro:8@2","si":"both"}"#,
    r#"{"workload":"micro:16@2","si":"both","policy":"any"}"#,
];

struct Args {
    connect: String,
    jobs: usize,
    conns: usize,
    specs: Vec<String>,
    dump: Option<String>,
    record: Option<String>,
    replay: Option<String>,
    shutdown: bool,
    stats: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        connect: "127.0.0.1:7077".to_owned(),
        jobs: 32,
        conns: 4,
        specs: Vec::new(),
        dump: None,
        record: None,
        replay: None,
        shutdown: false,
        stats: false,
    };
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
            "--connect" => a.connect = next(&mut i, flag)?,
            "--jobs" => {
                a.jobs = next(&mut i, flag)?
                    .parse()
                    .map_err(|_| "bad --jobs".to_owned())?
            }
            "--conns" => {
                a.conns = next(&mut i, flag)?
                    .parse()
                    .map_err(|_| "bad --conns".to_owned())?
            }
            "--spec" => a.specs.push(next(&mut i, flag)?),
            "--dump" => a.dump = Some(next(&mut i, flag)?),
            "--record" => a.record = Some(next(&mut i, flag)?),
            "--replay" => a.replay = Some(next(&mut i, flag)?),
            "--shutdown" => a.shutdown = true,
            "--stats" => a.stats = true,
            "--help" | "-h" => {
                println!(
                    "loadgen: burst client for subwarp-serve\n\n  --connect ADDR  \
                     daemon address (default 127.0.0.1:7077)\n  --jobs N        total \
                     submissions (default 32)\n  --conns C       parallel connections \
                     (default 4)\n  --spec JSON     request spec, repeatable (default: \
                     built-in mix)\n  --dump FILE     write sorted fp/u/ch lines for \
                     byte-identity diffs\n  --record FILE   capture request bytes + \
                     inter-arrival timings\n  --replay FILE   re-send a recording on its \
                     original schedule\n  --shutdown      send {{\"cmd\":\"shutdown\"}} \
                     after the burst\n  --stats         print the server stats line \
                     after the burst"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
        i += 1;
    }
    if a.specs.is_empty() {
        a.specs = DEFAULT_SPECS.iter().map(|s| (*s).to_owned()).collect();
    }
    if a.conns == 0 {
        a.conns = 1;
    }
    Ok(a)
}

enum Outcome {
    /// (`fp` hex, dump line, cached, latency µs)
    Ok(String, String, bool, u128),
    Shed(u128),
    Failed(String, u128),
    Io(String),
}

fn run_one(client: &mut Client, spec: &str) -> Outcome {
    let start = Instant::now();
    let reply = match client.request(spec) {
        Ok(v) => v,
        Err(e) => return Outcome::Io(e.to_string()),
    };
    let us = start.elapsed().as_micros();
    if reply.bool_field("ok") == Some(true) {
        let fp = reply.str_field("fp").unwrap_or("?").to_owned();
        let cached = reply.bool_field("cached").unwrap_or(false);
        let arr = |k: &str| -> String {
            match reply.get(k) {
                Some(Value::Arr(xs)) => xs
                    .iter()
                    .map(|x| x.as_u64().map_or("?".into(), |u| u.to_string()))
                    .collect::<Vec<_>>()
                    .join(","),
                _ => String::new(),
            }
        };
        let dump = format!("fp={fp} u=[{}] ch=[{}]", arr("u"), arr("ch"));
        Outcome::Ok(fp, dump, cached, us)
    } else {
        match reply.str_field("kind") {
            Some("shed") => Outcome::Shed(us),
            kind => Outcome::Failed(kind.unwrap_or("?").to_owned(), us),
        }
    }
}

fn percentile(sorted_us: &[u128], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)] as f64 / 1000.0
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loadgen: {e}");
            std::process::exit(2);
        }
    };

    // Replay mode swaps the generated burst for a recorded schedule: the
    // job list and pacing both come from the file, `--jobs`/`--spec` are
    // ignored.
    let replay: Option<Arc<Vec<RecordedCall>>> = match &args.replay {
        Some(path) => match Recording::load(path) {
            Ok(rec) => Some(Arc::new(rec.calls)),
            Err(e) => {
                eprintln!("loadgen: cannot load recording `{path}`: {e}");
                std::process::exit(2);
            }
        },
        None => None,
    };
    let total = replay.as_ref().map_or(args.jobs, |calls| calls.len());
    let recorder: Option<Arc<Mutex<Recording>>> = args
        .record
        .as_ref()
        .map(|_| Arc::new(Mutex::new(Recording::default())));
    let epoch = Instant::now();

    let next_job = Arc::new(AtomicUsize::new(0));
    let (tx, rx) = mpsc::channel::<Outcome>();
    let specs = Arc::new(args.specs.clone());
    let mut handles = Vec::new();
    for _ in 0..args.conns {
        let next_job = Arc::clone(&next_job);
        let specs = Arc::clone(&specs);
        let replay = replay.clone();
        let recorder = recorder.clone();
        let tx = tx.clone();
        let addr = args.connect.clone();
        handles.push(std::thread::spawn(move || {
            let mut client = match Client::connect(&addr) {
                Ok(c) => c,
                Err(e) => {
                    let _ = tx.send(Outcome::Io(format!("connect: {e}")));
                    return;
                }
            };
            loop {
                let k = next_job.fetch_add(1, Ordering::SeqCst);
                if k >= total {
                    return;
                }
                let spec: &str = match &replay {
                    Some(calls) => {
                        // Honor the recorded inter-arrival gap (relative to
                        // burst start; already elapsed time counts).
                        let due = epoch + Duration::from_millis(calls[k].at_ms);
                        let wait = due.saturating_duration_since(Instant::now());
                        if !wait.is_zero() {
                            std::thread::sleep(wait);
                        }
                        &calls[k].spec
                    }
                    None => &specs[k % specs.len()],
                };
                if let Some(rec) = &recorder {
                    rec.lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push(epoch.elapsed().as_millis() as u64, spec);
                }
                let outcome = run_one(&mut client, spec);
                let fatal = matches!(outcome, Outcome::Io(_));
                let _ = tx.send(outcome);
                if fatal {
                    return;
                }
            }
        }));
    }
    drop(tx);

    let mut ok_fresh = 0usize;
    let mut cached = 0usize;
    let mut shed = 0usize;
    let mut failed = 0usize;
    let mut io_errors = 0usize;
    let mut latencies: Vec<u128> = Vec::new();
    let mut dump_lines: BTreeMap<String, String> = BTreeMap::new();
    let mut fail_kinds: BTreeMap<String, usize> = BTreeMap::new();
    for outcome in rx {
        match outcome {
            Outcome::Ok(fp, dump, was_cached, us) => {
                if was_cached {
                    cached += 1;
                } else {
                    ok_fresh += 1;
                }
                latencies.push(us);
                dump_lines.insert(fp, dump);
            }
            Outcome::Shed(us) => {
                shed += 1;
                latencies.push(us);
            }
            Outcome::Failed(kind, us) => {
                failed += 1;
                latencies.push(us);
                *fail_kinds.entry(kind).or_insert(0) += 1;
            }
            Outcome::Io(e) => {
                io_errors += 1;
                eprintln!("loadgen: io error: {e}");
            }
        }
    }
    for h in handles {
        let _ = h.join();
    }

    latencies.sort_unstable();
    let ok_total = ok_fresh + cached;
    let hit_rate = if ok_total > 0 {
        cached as f64 / ok_total as f64
    } else {
        0.0
    };
    let submitted = ok_total + shed + failed;
    println!(
        "loadgen: submitted={submitted} ok={ok_total} cached={cached} shed={shed} \
         failed={failed} io_errors={io_errors} hit_rate={hit_rate:.3} \
         p50_ms={:.2} p99_ms={:.2}",
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.99),
    );
    if !fail_kinds.is_empty() {
        let kinds: Vec<String> = fail_kinds.iter().map(|(k, n)| format!("{k}={n}")).collect();
        println!("loadgen: failure kinds: {}", kinds.join(" "));
    }

    if let (Some(path), Some(rec)) = (&args.record, &recorder) {
        let mut rec = rec.lock().unwrap_or_else(|e| e.into_inner());
        rec.finish();
        if let Err(e) = rec.save(path) {
            eprintln!("loadgen: cannot write recording `{path}`: {e}");
            std::process::exit(1);
        }
        println!("loadgen: recorded {} calls to {path}", rec.calls.len());
    }

    if let Some(path) = &args.dump {
        let mut out = String::new();
        for line in dump_lines.values() {
            out.push_str(line);
            out.push('\n');
        }
        if let Err(e) = std::fs::write(path, out) {
            eprintln!("loadgen: cannot write dump `{path}`: {e}");
            std::process::exit(1);
        }
    }

    if args.stats || args.shutdown {
        match Client::connect(&args.connect) {
            Ok(mut c) => {
                if args.stats {
                    match c.request_raw(r#"{"cmd":"stats"}"#) {
                        Ok(line) => println!("server: {line}"),
                        Err(e) => eprintln!("loadgen: stats failed: {e}"),
                    }
                }
                if args.shutdown {
                    match c.request_raw(r#"{"cmd":"shutdown"}"#) {
                        Ok(line) => println!("server: {line}"),
                        Err(e) => eprintln!("loadgen: shutdown failed: {e}"),
                    }
                }
            }
            Err(e) => eprintln!("loadgen: cannot reconnect for stats/shutdown: {e}"),
        }
    }

    std::process::exit(if io_errors > 0 { 1 } else { 0 });
}
