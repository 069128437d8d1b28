//! Differential-fuzzer CLI.
//!
//! ```text
//! subwarp-fuzz [--seed N] [--iters M]
//! ```
//!
//! Generates `M` random structured kernels starting from seed `N` and runs
//! each under the baseline and every SI policy/order configuration,
//! checking that the executed instruction count and the final data-memory
//! image agree bit for bit. The campaign runs every seed under supervision:
//! a divergence, panic or overrun seed is recorded and the campaign goes
//! on, ending with a failure digest (each entry names its seed and replay
//! command) and a non-zero exit if any seed failed.
//!
//! `--dump` prints the generated program for `--seed` instead of fuzzing,
//! for inspecting a reproduced divergence.
//!
//! `--trace-parity` switches the oracle: instead of comparing SI
//! configurations against the baseline, each generated kernel is exported
//! to the binary trace format (`subwarp-trace`), decoded back, and the
//! replayed workload's stats and memory image are checked bit-identical to
//! the direct run under every grid configuration. The campaign driver,
//! failure digest, journal and `--deadline` are the same; journal lines
//! name their oracle, so one journal can hold both campaigns and each
//! restores only its own seeds. A parity divergence replays with
//! `--trace-parity` added to its replay command.
//!
//! Campaign flags:
//!
//! * `--journal PATH` — checkpoint per-seed outcomes to a JSONL journal.
//! * `--resume` — skip seeds already present in the journal (default
//!   path `results/fuzz_journal.jsonl` unless `--journal` is given).
//! * `--deadline SECS` — per-seed wall-clock budget; a seed exceeding it
//!   is abandoned and reported as a `<supervisor>` failure.

use std::sync::Arc;
use std::time::Duration;
use subwarp_fuzz::{config_grid, random_workload, run_fuzz_resilient, FuzzJournal, Oracle};

const DEFAULT_JOURNAL: &str = "results/fuzz_journal.jsonl";

fn usage() -> ! {
    eprintln!(
        "usage: subwarp-fuzz [--seed N] [--iters M] [--dump] [--trace-parity] \
         [--resume] [--journal PATH] [--deadline SECS]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed = 0u64;
    let mut iters = 100u64;
    let mut dump = false;
    let mut trace_parity = false;
    let mut resume = false;
    let mut journal_path: Option<String> = None;
    let mut deadline: Option<Duration> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut next = |flag: &str| -> u64 {
            it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("{flag} needs a numeric value");
                usage()
            })
        };
        match a.as_str() {
            "--seed" => seed = next("--seed"),
            "--iters" => iters = next("--iters"),
            "--deadline" => match next("--deadline") {
                0 => {
                    eprintln!("--deadline needs a positive number of seconds");
                    usage()
                }
                secs => deadline = Some(Duration::from_secs(secs)),
            },
            "--dump" => dump = true,
            "--trace-parity" => trace_parity = true,
            "--resume" => resume = true,
            "--journal" => {
                journal_path = Some(it.next().cloned().unwrap_or_else(|| {
                    eprintln!("--journal needs a path");
                    usage()
                }))
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }

    if dump {
        let wl = random_workload(seed);
        println!(
            "# seed {seed}: workload `{}`, {} warps",
            wl.name, wl.n_warps
        );
        print!("{}", wl.program);
        return;
    }

    let n_configs = config_grid().len();
    let jobs = subwarp_pool::default_jobs();
    let oracle = if trace_parity {
        eprintln!(
            "# trace-parity: {iters} programs from seed {seed}, export/replay across \
             {n_configs} configurations ({jobs} jobs)"
        );
        Oracle::TraceParity
    } else {
        eprintln!(
            "# fuzzing {iters} programs from seed {seed} across {n_configs} configurations ({jobs} jobs)"
        );
        Oracle::Baseline
    };
    let t0 = std::time::Instant::now();

    let journal = if resume || journal_path.is_some() {
        let path = journal_path.as_deref().unwrap_or(DEFAULT_JOURNAL);
        let j = FuzzJournal::open(path).unwrap_or_else(|e| {
            eprintln!("cannot open journal `{path}`: {e}");
            std::process::exit(2);
        });
        eprintln!("# journal: {path} ({} outcomes on file)", j.restored());
        Some(Arc::new(j))
    } else {
        None
    };
    // A journal without --resume still checkpoints, but starts fresh
    // semantically only when the file is new; restored seeds are always
    // honoured so repeated runs converge.
    let c = run_fuzz_resilient(oracle, seed, iters, jobs, deadline, journal);
    let dt = t0.elapsed().as_secs_f64();
    let per_config = if trace_parity {
        " x 2 (direct + replay)"
    } else {
        ""
    };
    println!(
        "checked: {} programs x {} configurations{per_config} = {} runs, {} instructions ({} restored from journal)",
        c.report.programs, n_configs, c.report.runs, c.report.instructions, c.restored
    );
    println!(
        "{} programs in {:.3}s ({:.1} programs/s)",
        c.report.programs,
        dt,
        c.report.programs as f64 / dt.max(1e-9)
    );
    if c.failures.is_empty() {
        println!("all identical, no failures");
    } else {
        println!(
            "FAILURES: {} of {} seeds",
            c.failures.len(),
            c.report.programs
        );
        for d in &c.failures {
            println!("  {d}");
        }
        std::process::exit(1);
    }
}
