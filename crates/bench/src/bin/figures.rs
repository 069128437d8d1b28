//! Regenerates every table and figure of *GPU Subwarp Interleaving*
//! (HPCA 2022) and prints them as aligned tables and ASCII bar charts.
//!
//! ```text
//! figures [fig3|table3|fig10|fig12a|fig12b|fig13|fig14|fig15|icache|order|all|mem-sweep|chip-sweep|chaos]
//!         [--csv DIR] [--resume] [--journal PATH] [--deadline SECS] [--attempts N]
//!         [--max-holes N] [--trace FILE]...
//! ```
//!
//! `--trace FILE` (repeatable) loads serialized `subwarp-trace` workloads
//! and renders the Figure 12a-style speedup report over *those* files
//! instead of the built-in suite (selected as the `trace` figure, which is
//! the default when only `--trace` flags are given). Cells are journaled
//! under the workload's key (for a canonical file, the file's trace
//! fingerprint), so `--resume` works across processes as long as the
//! decoded workload is unchanged.
//!
//! `mem-sweep` (the hierarchical-memory-backend sensitivity study) and
//! `chip-sweep` (SI gain vs SM count on shared L2/DRAM partitions, the
//! paper's Sec. VI limiter) go beyond the paper and are not part of `all`,
//! which regenerates exactly the paper's figures on the paper's
//! fixed-latency model.
//!
//! ## Fault tolerance
//!
//! A failing figure no longer aborts the run: it prints a
//! `FAILED(<figure>): <error>` marker, the remaining figures still render,
//! and the process exits nonzero at the end. `--resume` (optionally with
//! `--journal PATH`, default `results/figures_journal.jsonl`) checkpoints
//! every completed sweep cell to a JSONL journal so an interrupted run can
//! be relaunched and finish byte-identically without re-simulating
//! completed cells. `--deadline SECS` bounds each sweep cell's wall-clock
//! time and `--attempts N` retries failed cells. `chaos` runs a small
//! sweep with deterministically injected panics, errors, delays, and
//! dropped memory fills to smoke-test exactly this machinery.
//!
//! `--max-holes N` draws the line between degraded and broken: figure
//! failures that are fully accounted for by labeled sweep holes are
//! tolerated up to a budget of N holes total (exit 0); any failure *not*
//! backed by holes — a logic error rather than a faulted cell — or a hole
//! count above the budget still exits nonzero.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;
use subwarp_bench as x;
use subwarp_core::SimError;
use subwarp_serve::spec::resolve_workload;
use subwarp_stats::{mean, BarChart, Table};
use subwarp_sweep::{
    chaos_sweep, holes_observed, install_global_policy, job_error_to_sim, Journal, SweepPolicy,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Vec<&str> = Vec::new();
    let mut csv_dir: Option<String> = None;
    let mut resume = false;
    let mut journal_path: Option<String> = None;
    let mut deadline_secs: Option<u64> = None;
    let mut attempts: u32 = 1;
    let mut max_holes: Option<usize> = None;
    let mut trace_files: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--csv" => csv_dir = it.next().cloned().or(Some("results".into())),
            "--trace" => match it.next() {
                Some(f) => trace_files.push(f.clone()),
                None => {
                    eprintln!("--trace needs a file path");
                    std::process::exit(2);
                }
            },
            "--resume" => resume = true,
            "--journal" => journal_path = it.next().cloned(),
            "--max-holes" => {
                max_holes = it.next().and_then(|s| s.parse().ok()).or_else(|| {
                    eprintln!("--max-holes needs a non-negative integer");
                    std::process::exit(2);
                })
            }
            "--deadline" => {
                deadline_secs = it.next().and_then(|s| s.parse().ok()).or_else(|| {
                    eprintln!("--deadline needs a positive integer of seconds");
                    std::process::exit(2);
                })
            }
            "--attempts" => {
                attempts = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("--attempts needs a positive integer");
                        std::process::exit(2);
                    })
            }
            other => which.push(other),
        }
    }
    if resume || journal_path.is_some() || deadline_secs.is_some() || attempts > 1 {
        let mut policy = SweepPolicy {
            deadline: deadline_secs.map(Duration::from_secs),
            max_attempts: attempts,
            ..SweepPolicy::default()
        };
        if resume || journal_path.is_some() {
            let path = journal_path
                .clone()
                .unwrap_or_else(|| "results/figures_journal.jsonl".into());
            match Journal::open(&path) {
                Ok(j) => {
                    eprintln!("journal: {path} ({} cells restored)", j.restored());
                    policy.journal = Some(Arc::new(j));
                }
                Err(e) => {
                    eprintln!("cannot open journal {path}: {e}");
                    std::process::exit(2);
                }
            }
        }
        install_global_policy(policy);
    }
    if which.is_empty() && !trace_files.is_empty() {
        which = vec!["trace"];
    } else if which.is_empty() || which.contains(&"all") {
        which = vec![
            "fig3", "table3", "fig10", "fig12a", "fig12b", "fig13", "fig14", "fig15", "icache",
            "order", "dws", "compute",
        ];
    }
    if which.contains(&"trace") && trace_files.is_empty() {
        eprintln!("the `trace` figure needs at least one --trace FILE");
        std::process::exit(2);
    }
    let mut csvs: Vec<(String, String)> = Vec::new();
    let mut failed: Vec<(String, usize)> = Vec::new();
    for w in which {
        let holes_before = holes_observed();
        let result = match w {
            "fig3" => fig3(&mut csvs),
            "table3" => table3(&mut csvs),
            "fig10" => fig10(),
            "fig12a" => fig12a(&mut csvs),
            "fig12b" => fig12b(&mut csvs),
            "fig13" => fig13(&mut csvs),
            "fig14" => fig14(&mut csvs),
            "fig15" => fig15(&mut csvs),
            "icache" => icache(&mut csvs),
            "order" => order(&mut csvs),
            "dws" => dws(&mut csvs),
            "compute" => compute(&mut csvs),
            "mem-sweep" => mem_sweep(&mut csvs),
            "chip-sweep" => chip_sweep(&mut csvs),
            "chaos" => chaos(),
            "trace" => trace_figure(&trace_files, &mut csvs),
            other => {
                eprintln!("unknown figure `{other}`");
                std::process::exit(2);
            }
        };
        if let Err(e) = result {
            println!("FAILED({w}): {e}");
            failed.push((w.to_string(), holes_observed() - holes_before));
        }
        println!();
    }
    if let Some(dir) = csv_dir {
        std::fs::create_dir_all(&dir).expect("create csv dir");
        for (name, content) in csvs {
            let path = format!("{dir}/{name}.csv");
            std::fs::write(&path, content).expect("write csv");
            eprintln!("wrote {path}");
        }
    }
    if !failed.is_empty() {
        let names: Vec<&str> = failed.iter().map(|(w, _)| w.as_str()).collect();
        eprintln!("{} figure(s) failed: {}", failed.len(), names.join(", "));
        let Some(budget) = max_holes else {
            std::process::exit(1);
        };
        // Graceful degradation has a precise meaning: a failure is
        // tolerable only when it is fully explained by labeled sweep holes
        // (faulted/timed-out cells), and only within the hole budget. A
        // failure with *zero* new holes is a logic error wearing a fault's
        // clothes — never tolerated.
        let unbacked: Vec<&str> = failed
            .iter()
            .filter(|(_, holes)| *holes == 0)
            .map(|(w, _)| w.as_str())
            .collect();
        if !unbacked.is_empty() {
            eprintln!(
                "failure(s) not backed by sweep holes ({}): refusing to tolerate",
                unbacked.join(", ")
            );
            std::process::exit(1);
        }
        let total = holes_observed();
        if total > budget {
            eprintln!("{total} sweep hole(s) exceed --max-holes {budget}");
            std::process::exit(1);
        }
        eprintln!("tolerating {total} sweep hole(s) within --max-holes {budget}; exiting 0");
    }
}

fn banner(s: &str) {
    println!("==== {s} ====");
}

/// Figure 12a-style speedup report over `--trace` files.
fn trace_figure(files: &[String], csvs: &mut Vec<(String, String)>) -> Result<(), SimError> {
    banner("Trace files: speedup over baseline at 600-cycle miss latency");
    let mut loaded = Vec::new();
    for path in files {
        let (wl, fp) = resolve_workload(&format!("file:{path}")).map_err(|what| {
            SimError::InvalidWorkload {
                workload: path.clone(),
                what,
            }
        })?;
        // The row name is the file stem: `tests/corpus/toy.swt` is `toy`.
        let name = std::path::Path::new(path)
            .file_stem()
            .map_or_else(|| path.clone(), |s| s.to_string_lossy().into_owned());
        eprintln!(
            "# {name}: `{}`, {} instructions, {} warps, fingerprint {fp:#018x}",
            wl.name,
            wl.program.len(),
            wl.n_warps
        );
        loaded.push((name, wl));
    }
    let rows = x::trace_report(&loaded)?;
    let labels: Vec<String> = rows[0].speedups.iter().map(|(l, _)| l.clone()).collect();
    let mut header = vec!["trace".to_string()];
    header.extend(labels.iter().cloned());
    header.push("BestOf".into());
    let mut t = Table::new(header);
    for r in &rows {
        let mut cells = vec![r.name.clone()];
        for (_, g) in &r.speedups {
            cells.push(format!("{g:.1}%"));
        }
        cells.push(format!("{:.1}%", r.best_of));
        t.row(cells);
    }
    println!("{t}");
    csvs.push(("trace_report".into(), t.to_csv()));
    Ok(())
}

/// Runs the chaos-smoke sweep: deterministically injected panics, errors,
/// over-deadline delays, and dropped memory fills, each surfacing as a
/// labeled `FAILED(<cell>)` hole while healthy cells complete. Fails (so
/// the process exits nonzero) whenever the grid has holes — which, with
/// these injected faults, is always.
fn chaos() -> Result<(), SimError> {
    banner("Chaos smoke: supervised sweep under injected faults");
    let (sweep, policy) = chaos_sweep();
    // The injected panics are expected: silence their backtraces so the
    // smoke output stays readable. catch_unwind still captures payloads.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let grid = sweep.run_resilient(&policy);
    std::panic::set_hook(default_hook);
    let first_line = |s: String| s.lines().next().unwrap_or_default().to_owned();
    let workloads: Vec<&str> = sweep.workload_names().collect();
    let configs: Vec<&str> = sweep.config_labels().collect();
    let mut t = Table::new(vec!["cell".into(), "outcome".into()]);
    for (w, wname) in workloads.iter().enumerate() {
        for (c, cname) in configs.iter().enumerate() {
            let outcome = match grid.cell(w, c) {
                Ok(stats) => format!("ok ({} cycles)", stats.cycles),
                Err(e) => {
                    let cause = first_line(e.cause.to_string());
                    println!("FAILED({wname}/{cname}): {cause}");
                    format!("FAILED: {cause}")
                }
            };
            t.row(vec![format!("{wname}/{cname}"), outcome]);
        }
    }
    println!("{t}");
    let holes = grid.holes();
    println!(
        "{} of {} cells completed; {} labeled holes",
        grid.completed(),
        sweep.len(),
        holes.len()
    );
    match holes.into_iter().next() {
        None => Ok(()),
        Some(first) => Err(job_error_to_sim(first.clone())),
    }
}

fn fig3(csvs: &mut Vec<(String, String)>) -> Result<(), SimError> {
    banner("Figure 3: exposed load-to-use stalls, normalized to kernel time (baseline)");
    let rows = x::fig3()?;
    let mut t = Table::new(vec!["trace".into(), "total".into(), "divergent".into()]);
    let mut chart = BarChart::new(
        "stalls / kernel time",
        vec![
            "total exposed load-to-use".into(),
            "in divergent code blocks".into(),
        ],
    )
    .unit("%");
    let (mut tot, mut div) = (Vec::new(), Vec::new());
    for r in &rows {
        t.row(vec![r.name.clone(), pct(r.total), pct(r.divergent)]);
        chart.group(r.name.clone(), vec![r.total * 100.0, r.divergent * 100.0]);
        tot.push(r.total);
        div.push(r.divergent);
    }
    t.row(vec!["mean".into(), pct(mean(&tot)), pct(mean(&div))]);
    println!("{t}\n{chart}");
    csvs.push(("fig3".into(), t.to_csv()));
    Ok(())
}

fn table3(csvs: &mut Vec<(String, String)>) -> Result<(), SimError> {
    banner("Table III: microbenchmark speedup vs divergence factor (600-cycle miss)");
    let rows = x::table3(16)?;
    let mut t = Table::new(vec![
        "SUBWARP_SIZE".into(),
        "divergence factor".into(),
        "speedup (x)".into(),
        "SI fetch-stall %".into(),
    ]);
    for r in &rows {
        t.row(vec![
            r.subwarp_size.to_string(),
            r.divergence_factor.to_string(),
            format!("{:.2}", r.speedup),
            pct(r.si_fetch_ratio),
        ]);
    }
    println!("{t}");
    println!("(paper: 1.98 / 3.95 / 7.84 / 15.22 / 12.66 — near-linear, tapering at 32-way)");
    csvs.push(("table3".into(), t.to_csv()));
    Ok(())
}

fn fig10() -> Result<(), SimError> {
    banner("Figure 10: TST operation on the Figure 9 toy (two 1-thread subwarps)");
    let ((sa, ra), (sb, rb)) = x::fig10()?;
    for (tag, stats, rec) in [
        ("10a (without yield)", sa, ra),
        ("10b (with yield)", sb, rb),
    ] {
        println!("--- {tag}: {} cycles ---", stats.cycles);
        let mut t = Table::new(vec![
            "cycle".into(),
            "event".into(),
            "mask".into(),
            "pc".into(),
        ]);
        for e in rec.events() {
            t.row(vec![
                e.cycle.to_string(),
                format!("{:?}", e.kind),
                format!("{:#04b}", e.mask),
                e.pc.to_string(),
            ]);
        }
        println!("{t}");
    }
    Ok(())
}

fn fig12a(csvs: &mut Vec<(String, String)>) -> Result<(), SimError> {
    banner("Figure 12a: speedup over baseline at 600-cycle miss latency");
    let rows = x::fig12a()?;
    let labels: Vec<String> = rows[0].speedups.iter().map(|(l, _)| l.clone()).collect();
    let mut header = vec!["trace".to_string()];
    header.extend(labels.iter().cloned());
    header.push("BestOf".into());
    let mut t = Table::new(header);
    let mut means = vec![Vec::new(); labels.len()];
    let mut best = Vec::new();
    for r in &rows {
        let mut cells = vec![r.name.clone()];
        for (i, (_, g)) in r.speedups.iter().enumerate() {
            cells.push(format!("{g:.1}%"));
            means[i].push(*g);
        }
        cells.push(format!("{:.1}%", r.best_of));
        best.push(r.best_of);
        t.row(cells);
    }
    let mut mean_cells = vec!["mean".to_string()];
    for m in &means {
        mean_cells.push(format!("{:.1}%", mean(m)));
    }
    mean_cells.push(format!("{:.1}%", mean(&best)));
    t.row(mean_cells);
    println!("{t}");
    let mut chart = BarChart::new(
        "speedup % (Both,N>=0.5 vs BestOf)",
        vec!["Both,N>=0.5".into(), "BestOf".into()],
    )
    .unit("%");
    for r in &rows {
        let both_half = r
            .speedups
            .iter()
            .find(|(l, _)| l == "Both,N>=0.5")
            .map(|(_, g)| *g)
            .unwrap_or(0.0);
        chart.group(r.name.clone(), vec![both_half, r.best_of]);
    }
    println!("{chart}");
    println!("(paper: best single setting Both,N>=0.5 averages 6.3%; BestOf mean 6.6%)");
    csvs.push(("fig12a".into(), t.to_csv()));
    Ok(())
}

fn fig12b(csvs: &mut Vec<(String, String)>) -> Result<(), SimError> {
    banner("Figure 12b: reduction in exposed load-to-use stalls (Both,N>=0.5)");
    let rows = x::fig12b()?;
    let mut t = Table::new(vec![
        "trace".into(),
        "total reduction".into(),
        "divergent reduction".into(),
    ]);
    let (mut tot, mut div) = (Vec::new(), Vec::new());
    for r in &rows {
        t.row(vec![
            r.name.clone(),
            pct(r.total_reduction),
            pct(r.divergent_reduction),
        ]);
        tot.push(r.total_reduction);
        div.push(r.divergent_reduction);
    }
    t.row(vec!["mean".into(), pct(mean(&tot)), pct(mean(&div))]);
    println!("{t}");
    println!("(paper: divergent stalls drop 26.5% on average; total ~10.5%)");
    csvs.push(("fig12b".into(), t.to_csv()));
    Ok(())
}

fn fig13(csvs: &mut Vec<(String, String)>) -> Result<(), SimError> {
    banner("Figure 13: average speedup vs L1 miss latency");
    let rows = x::fig13()?;
    let labels: Vec<String> = rows[0].means.iter().map(|(l, _)| l.clone()).collect();
    let mut header = vec!["latency".to_string()];
    header.extend(labels.iter().cloned());
    header.push("BestOf".into());
    let mut t = Table::new(header);
    for r in &rows {
        let mut cells = vec![format!("lat{}", r.latency)];
        for (_, m) in &r.means {
            cells.push(format!("{m:.1}%"));
        }
        cells.push(format!("{:.1}%", r.best_of));
        t.row(cells);
    }
    println!("{t}");
    println!("(paper BestOf: 4.2% / 6.6% / 7.6% at 300/600/900 cycles)");
    csvs.push(("fig13".into(), t.to_csv()));
    Ok(())
}

fn fig14(csvs: &mut Vec<(String, String)>) -> Result<(), SimError> {
    banner("Figure 14: sensitivity to warp slots (vs equally-throttled baselines)");
    let rows = x::fig14()?;
    let mut header = vec!["trace".to_string()];
    for r in &rows {
        header.push(format!("{} warps", r.warp_slots));
    }
    let mut t = Table::new(header);
    let names: Vec<String> = rows[0].gains.iter().map(|(n, _)| n.clone()).collect();
    for (i, name) in names.iter().enumerate() {
        let mut cells = vec![name.clone()];
        for r in &rows {
            cells.push(format!("{:.1}%", r.gains[i].1));
        }
        t.row(cells);
    }
    let mut mean_cells = vec!["mean".to_string()];
    for r in &rows {
        mean_cells.push(format!("{:.1}%", r.mean));
    }
    t.row(mean_cells);
    println!("{t}");
    println!("(paper means: 5.1% / 5.7% / 6.3% at 8/16/32 warp slots)");
    csvs.push(("fig14".into(), t.to_csv()));
    Ok(())
}

fn fig15(csvs: &mut Vec<(String, String)>) -> Result<(), SimError> {
    banner("Figure 15: sensitivity to subwarps per warp (32 peak warps)");
    let rows = x::fig15()?;
    let mut header = vec!["trace".to_string()];
    for r in &rows {
        header.push(if r.max_subwarps == 32 {
            "unlimited".into()
        } else {
            format!("{} subwarps", r.max_subwarps)
        });
    }
    let mut t = Table::new(header);
    let names: Vec<String> = rows[0].gains.iter().map(|(n, _)| n.clone()).collect();
    for (i, name) in names.iter().enumerate() {
        let mut cells = vec![name.clone()];
        for r in &rows {
            cells.push(format!("{:.1}%", r.gains[i].1));
        }
        t.row(cells);
    }
    let mut mean_cells = vec!["mean".to_string()];
    for r in &rows {
        mean_cells.push(format!("{:.1}%", r.mean));
    }
    t.row(mean_cells);
    println!("{t}");
    println!("(paper: 2 subwarps capture 4.2%; 4 subwarps 5.2% = 82% of unlimited's 6.3%)");
    csvs.push(("fig15".into(), t.to_csv()));
    Ok(())
}

fn icache(csvs: &mut Vec<(String, String)>) -> Result<(), SimError> {
    banner("Section V-C-4: instruction cache sizing");
    let r = x::icache()?;
    let mut t = Table::new(vec!["configuration".into(), "mean speedup".into()]);
    t.row(vec![
        "16KB L0I / 64KB L1I (paper baseline)".into(),
        format!("{:.1}%", r.big_mean),
    ]);
    t.row(vec![
        "4KB L0I / 16KB L1I (4x smaller)".into(),
        format!("{:.1}%", r.small_mean),
    ]);
    println!("{t}");
    println!(
        "(paper: 4x smaller caches keep ~70% of the upside: 4.5% vs 6.3%; here {:.0}%)",
        if r.big_mean.abs() > 1e-9 {
            r.small_mean / r.big_mean * 100.0
        } else {
            0.0
        }
    );
    csvs.push(("icache".into(), {
        let mut s = String::new();
        let _ = writeln!(s, "config,mean_speedup_pct");
        let _ = writeln!(s, "big,{:.3}", r.big_mean);
        let _ = writeln!(s, "small,{:.3}", r.small_mean);
        s
    }));
    Ok(())
}

fn order(csvs: &mut Vec<(String, String)>) -> Result<(), SimError> {
    banner("Ablation (paper §VI limiter #3): divergent-path execution order");
    let r = x::ablation_diverge_order()?;
    let mut t = Table::new(vec!["order".into(), "mean speedup".into()]);
    for (label, m) in &r.means {
        t.row(vec![label.clone(), format!("{m:.1}%")]);
    }
    println!("{t}");
    println!("(paper: execution order gates SI; randomization improves the odds of a");
    println!(" profitable dynamic subwarp schedule)");
    csvs.push(("order".into(), t.to_csv()));
    Ok(())
}

fn dws(csvs: &mut Vec<(String, String)>) -> Result<(), SimError> {
    banner("Comparison (paper SVII-B): SI vs Dynamic-Warp-Subdivision-like forking");
    let rows = x::dws_comparison()?;
    let mut t = Table::new(vec![
        "warps resident (of 32 slots)".into(),
        "SI gain".into(),
        "DWS-like gain".into(),
    ]);
    for r in &rows {
        t.row(vec![
            r.n_warps.to_string(),
            format!("{:.1}%", r.si_gain),
            format!("{:.1}%", r.dws_gain),
        ]);
    }
    println!("{t}");
    println!("(paper SVII-B: DWS forks subwarps into unused warp slots, so it degrades");
    println!(" as occupancy rises; SI hosts subwarps in the TST and keeps working)");
    csvs.push(("dws".into(), t.to_csv()));
    Ok(())
}

fn compute(csvs: &mut Vec<(String, String)>) -> Result<(), SimError> {
    banner("Negative result (paper SVI): SI on non-raytracing compute kernels");
    let rows = x::compute_negative_result()?;
    let mut t = Table::new(vec![
        "kernel".into(),
        "SI gain".into(),
        "baseline l2u%".into(),
        "divergent%".into(),
    ]);
    for r in &rows {
        t.row(vec![
            r.name.clone(),
            format!("{:+.1}%", r.gain),
            pct(r.exposed),
            pct(r.divergent),
        ]);
    }
    println!("{t}");
    println!("(paper SVI: of 400+ compute kernels, only 11 had long stalls in divergent");
    println!(" code, and none benefited beyond the margin of noise from SI)");
    csvs.push(("compute".into(), t.to_csv()));
    Ok(())
}

fn mem_sweep(csvs: &mut Vec<(String, String)>) -> Result<(), SimError> {
    banner("Memory-hierarchy sweep: SI gain vs measured miss latency and DRAM bandwidth");
    let r = x::mem_sweep()?;
    let mut csv = String::new();
    let _ = writeln!(
        csv,
        "axis,label,mean_fill_latency,mean_gain_pct,l2_hit_rate,channel_utilization"
    );
    for (axis, rows) in [("latency", &r.latency), ("bandwidth", &r.bandwidth)] {
        let mut t = Table::new(vec![
            "variant".into(),
            "mean fill latency".into(),
            "SI gain".into(),
            "L2 hit rate".into(),
            "chan util".into(),
        ]);
        for row in rows {
            t.row(vec![
                row.label.clone(),
                format!("{:.0} cy", row.mean_fill_latency),
                format!("{:.1}%", row.mean_gain_pct),
                pct(row.l2_hit_rate),
                pct(row.channel_utilization),
            ]);
            let _ = writeln!(
                csv,
                "{axis},{},{:.1},{:.3},{:.4},{:.4}",
                row.label,
                row.mean_fill_latency,
                row.mean_gain_pct,
                row.l2_hit_rate,
                row.channel_utilization
            );
        }
        println!("--- {axis} axis ---\n{t}");
    }
    println!("(Figure 13's trend, re-asked with load-dependent latency: SI's upside");
    println!(" grows with the fill latency it hides; shrinking channel bandwidth");
    println!(" converts latency tolerance into bandwidth contention)");
    csvs.push(("mem_sweep".into(), csv));
    Ok(())
}

fn chip_sweep(csvs: &mut Vec<(String, String)>) -> Result<(), SimError> {
    banner("Chip sweep: SI gain vs SM count on shared L2/DRAM partitions (Sec. VI)");
    let rows = x::chip_sweep()?;
    let mut csv = String::new();
    let _ = writeln!(
        csv,
        "n_sms,base_cycles,gain_pct,l2_hit_rate,channel_utilization,mean_fill_latency"
    );
    let mut t = Table::new(vec![
        "SMs".into(),
        "base cycles".into(),
        "SI gain".into(),
        "L2 hit rate".into(),
        "chan util".into(),
        "mean fill".into(),
    ]);
    for row in &rows {
        t.row(vec![
            row.n_sms.to_string(),
            row.base_cycles.to_string(),
            format!("{:.1}%", row.gain_pct),
            pct(row.l2_hit_rate),
            pct(row.channel_utilization),
            format!("{:.0} cy", row.mean_fill_latency),
        ]);
        let _ = writeln!(
            csv,
            "{},{},{:.3},{:.4},{:.4},{:.1}",
            row.n_sms,
            row.base_cycles,
            row.gain_pct,
            row.l2_hit_rate,
            row.channel_utilization,
            row.mean_fill_latency
        );
    }
    println!("{t}");
    println!("(weak scaling: every SM runs the same per-SM slice of the divergent");
    println!(" microbenchmark against one fixed TU102-like set of partitions — as");
    println!(" the shared channels saturate, SI's extra MLP has nowhere to go and");
    println!(" its gain erodes: the paper's Sec. VI limiter at chip scale)");
    csvs.push(("chip_sweep".into(), csv));
    Ok(())
}

fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}
