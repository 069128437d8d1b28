//! `subwarp-benchmark`: the repository's end-to-end and per-layer
//! benchmark. See `benchmark/README.md`.
//!
//! ```text
//! subwarp-benchmark [run] [--workload NAME]... [--seed N] [--seconds S]
//!                   [--trace [0|1]] [--bless]
//! subwarp-benchmark compare A.json|DIR... -- B.json|DIR...
//! ```
//!
//! `run` with one `--workload` runs it in this process; otherwise each
//! workload runs in its own child process, so set-up time and peak memory
//! are per workload. Every metric is printed by name with its unit, a
//! result file goes to `benchmark/out/`, and the last line of standard
//! output is the JSON result. The exit code is 1 when any output was
//! wrong, 2 on a usage error.

mod golden;
mod layers;
mod loadgen;
mod metrics;
mod report;
mod run;
mod serve_load;
mod service;
mod sim;
mod span;
mod stats;

use std::path::PathBuf;
use std::process::{Command, Stdio};

use metrics::WORKLOADS;
use report::{num, RunResult};
use run::Ctx;
use subwarp_serve::json::{parse, Value};

/// Default measured window, s (the `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "usage: subwarp-benchmark [run] [--workload NAME]... [--seed N] [--seconds S] [--trace [0|1]] [--bless]
       subwarp-benchmark compare A.json|DIR... -- B.json|DIR...
workloads: paper-grid chip-hier serve-hot serve-cold";

fn usage(msg: &str) -> ! {
    eprintln!("subwarp-benchmark: {msg}\n{USAGE}");
    std::process::exit(2);
}

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
}

fn parse_run(argv: &[String]) -> Args {
    let mut a = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        bless: false,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> String {
        *i += 1;
        argv.get(*i)
            .cloned()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => {
                let w = value(&mut i, "--workload");
                if !WORKLOADS.contains(&w.as_str()) {
                    usage(&format!("unknown workload `{w}`"));
                }
                a.workloads.push(w);
            }
            "--seed" => {
                a.seed = value(&mut i, "--seed")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --seed"))
            }
            "--seconds" => {
                a.seconds = value(&mut i, "--seconds")
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .unwrap_or_else(|| usage("bad --seconds"))
            }
            "--trace" => match argv.get(i + 1).map(String::as_str) {
                Some("0") => {
                    a.trace = false;
                    i += 1;
                }
                Some("1") => {
                    a.trace = true;
                    i += 1;
                }
                _ => a.trace = true,
            },
            "--bless" => a.bless = true,
            other => usage(&format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    if a.workloads.is_empty() {
        a.workloads = WORKLOADS.iter().map(|w| w.to_string()).collect();
    }
    a
}

fn print_result(res: &RunResult) {
    for n in &res.notes {
        println!("  {n}");
    }
    for e in &res.errors {
        println!("  ERROR {e}");
    }
    for (name, v, unit) in &res.metrics {
        println!("{:<11} {name:<34} {:>16} {unit}", res.workload, num(*v));
    }
}

/// Runs one workload in a child process, forwards its report lines, and
/// reads back its result line.
fn run_child(a: &Args, workload: &str) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &a.seed.to_string()])
        .args([
            "--seconds",
            &num(a.seconds),
            "--trace",
            if a.trace { "1" } else { "0" },
        ]);
    if a.bless {
        cmd.arg("--bless");
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run the {workload} child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop().unwrap_or("");
    for l in lines {
        println!("{l}");
    }
    let v = parse(last).map_err(|e| format!("{workload}: no result line ({e})"))?;
    let mut res = RunResult {
        workload: workload.to_owned(),
        correct: v.bool_field("correct") == Some(true),
        attempted: v.u64_field("attempted").unwrap_or(0),
        failed: v.u64_field("failed").unwrap_or(0),
        ..RunResult::default()
    };
    if let Some(Value::Obj(ms)) = v.get("metrics") {
        for def in metrics::END_TO_END.iter().chain(metrics::PER_LAYER.iter()) {
            let x = match ms
                .iter()
                .find(|(k, _)| k == def.name)
                .and_then(|(_, m)| m.get("value"))
            {
                Some(Value::Float(x)) => *x,
                Some(Value::Int(x)) => *x as f64,
                _ => continue,
            };
            res.metrics.push((def.name.to_owned(), x, def.unit));
        }
    }
    Ok(res)
}

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("compare") => {
            let rest = &argv[1..];
            let Some(sep) = rest.iter().position(|a| a == "--") else {
                usage("compare needs `A... -- B...`");
            };
            match report::compare(&rest[..sep], &rest[sep + 1..]) {
                Ok(true) => std::process::exit(0),
                Ok(false) => std::process::exit(1),
                Err(e) => usage(&e),
            }
        }
        Some("run") => {
            argv.remove(0);
        }
        Some("--help" | "-h") => {
            println!("{USAGE}");
            return;
        }
        _ => {}
    }
    let a = parse_run(&argv);
    let bench = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let ctx = Ctx {
        root: bench
            .parent()
            .expect("the benchmark sits in the repository")
            .to_path_buf(),
        bench,
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        bless: a.bless,
    };

    if let [w] = a.workloads.as_slice() {
        let res = run::run_workload(&ctx, w);
        print_result(&res);
        println!("{}", res.result_line());
        std::process::exit(if res.correct { 0 } else { 1 });
    }

    // Several workloads: one child each; the last line combines them with
    // metric names prefixed by workload.
    let mut all = RunResult {
        workload: "all".into(),
        correct: true,
        ..RunResult::default()
    };
    for w in &a.workloads {
        println!("== {w}");
        // The child's own report lines are forwarded as they are.
        match run_child(&a, w) {
            Ok(res) => {
                all.correct &= res.correct;
                all.attempted += res.attempted;
                all.failed += res.failed;
                for (name, v, unit) in res.metrics {
                    all.metrics.push((format!("{w}/{name}"), v, unit));
                }
            }
            Err(e) => {
                println!("  ERROR {e}");
                all.correct = false;
            }
        }
    }
    println!("{}", all.result_line());
    std::process::exit(if all.correct { 0 } else { 1 });
}
