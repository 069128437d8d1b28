//! Profile one workload: emit a Chrome trace-event / Perfetto JSON timeline
//! and print a Figure-5-style cycle-attribution breakdown.
//!
//! ```text
//! profile [options] <workload>
//!
//! workloads (the `simulate` binary's):
//!   trace:<NAME>          a suite trace (AV1, BFV1, Coll1, ...)
//!   micro:<SIZE>[@ITERS]  the Figure 11 microbenchmark [default: 16 iterations]
//!   toy                   the Figure 9 two-subwarp toy
//!   file:<PATH>           a serialized subwarp-trace file
//!
//! options:
//!   every knob of `simulate` (--si, --policy, --latency, --mem, --slots,
//!   --sms, --private-mem, --subwarps, --order, --small-icache, --trace),
//!   parsed by `subwarp_serve::spec` with the same defaults, plus:
//!   --out <path>              trace output file          [default: subwarp_profile.json]
//!   --compare                 also profile-free run the baseline and
//!                             print its breakdown column
//! ```
//!
//! Load the emitted JSON in <https://ui.perfetto.dev> (or `chrome://tracing`):
//! each SM is a process with per-warp subwarp-activity tracks, cycle
//! attribution tracks (SM-level and per processing block), and counter
//! tracks for LSU/TEX/RT occupancy and cache hit rates. With `--mem hier`
//! the trace gains L2-hit-rate, MSHR-occupancy, and DRAM-busy-channel
//! tracks, and the breakdown is followed by the memory-hierarchy counters.
//! Time is encoded as 1 cycle = 1 µs.

use subwarp_core::{ChromeTraceProfiler, CycleCause, RunStats, SiConfig, Simulator};
use subwarp_serve::spec::{request_from_argv, JobSpec};
use subwarp_stats::Table;

fn usage(error: &str) -> ! {
    eprintln!(
        "profile: {error}\n\
         usage: profile [simulate's options] [--out PATH] [--compare] \
         <trace:NAME|micro:SIZE[@ITERS]|toy|file:PATH|--trace FILE>"
    );
    std::process::exit(2);
}

fn main() {
    let mut out = String::from("subwarp_profile.json");
    let mut compare = false;
    let job = request_from_argv(std::env::args().skip(1), |arg, rest| {
        match arg {
            "--out" => out = rest.next().unwrap_or_else(|| usage("--out needs a value")),
            "--compare" => compare = true,
            _ => return false,
        }
        true
    })
    .and_then(|req| JobSpec::from_request(&req))
    .unwrap_or_else(|e| usage(&e));
    let JobSpec { wl, sm, si, .. } = &job;

    let fail = |e: subwarp_core::SimError| -> ! {
        eprintln!("simulation failed: {e}");
        std::process::exit(1);
    };
    eprintln!(
        "# profiling job {} (fp {:016x}): `{}` (miss latency {})",
        job.label, job.fp, wl.name, sm.miss_latency
    );
    let mut profiler = ChromeTraceProfiler::new();
    let stats = Simulator::new(sm.clone(), *si)
        .run_profiled(wl, &mut profiler)
        .unwrap_or_else(|e| fail(e));
    let json = profiler.to_json();
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    }
    eprintln!(
        "# wrote {out} ({} events, {} bytes) - load it at https://ui.perfetto.dev",
        profiler.event_count(),
        json.len()
    );

    let base = compare.then(|| {
        Simulator::new(sm.clone(), SiConfig::disabled())
            .run(wl)
            .unwrap_or_else(|e| fail(e))
    });

    // Figure-5-style breakdown: cycles per cause and share of kernel time.
    let mut header = vec![
        "cause".to_owned(),
        format!("cycles ({})", si.label()),
        "share".to_owned(),
    ];
    if base.is_some() {
        header.push("cycles (baseline)".to_owned());
        header.push("share".to_owned());
    }
    let mut table = Table::new(header);
    let share = |r: &RunStats, c: CycleCause| {
        let denom = r.causes_total().max(1);
        format!("{:5.1}%", r.cause(c) as f64 * 100.0 / denom as f64)
    };
    for cause in CycleCause::ALL {
        let mut row = vec![
            cause.label().to_owned(),
            stats.cause(cause).to_string(),
            share(&stats, cause),
        ];
        if let Some(b) = &base {
            row.push(b.cause(cause).to_string());
            row.push(share(b, cause));
        }
        table.row(row);
    }
    let mut total_row = vec![
        "total".to_owned(),
        stats.causes_total().to_string(),
        "100.0%".to_owned(),
    ];
    if let Some(b) = &base {
        total_row.push(b.causes_total().to_string());
        total_row.push("100.0%".to_owned());
    }
    table.row(total_row);
    println!("{table}");
    print_mem_stats(&stats);
    if let Some(b) = &base {
        println!(
            "speedup vs baseline: {:+.1}%  (cycles {} -> {})",
            (stats.speedup_vs(b) - 1.0) * 100.0,
            b.cycles,
            stats.cycles
        );
    }
}

/// Appends the memory-backend counters to the breakdown: one summary line
/// for the fixed stub, the full hierarchy picture for `--mem hier`.
fn print_mem_stats(stats: &RunStats) {
    let mem = &stats.mem;
    if mem.requests == 0 {
        return;
    }
    if mem.channel_busy_cycles.is_empty() {
        println!(
            "memory backend: fixed stub — {} fills at {:.0} cycles each",
            mem.fills,
            mem.mean_fill_latency()
        );
        return;
    }
    println!("memory backend: L2+MSHR+DRAM hierarchy");
    println!(
        "  fills {} (merges {}), mean fill latency {:.0} cycles",
        mem.fills,
        mem.mshr_merges,
        mem.mean_fill_latency()
    );
    println!(
        "  L2 hit rate {:.1}% ({} hits / {} accesses)",
        (1.0 - mem.l2.miss_ratio()) * 100.0,
        mem.l2.hits,
        mem.l2.accesses()
    );
    println!("  MSHR high-water {} entries", mem.mshr_high_water);
    println!(
        "  DRAM row hits {:.1}% ({} / {})",
        if mem.row_hits + mem.row_misses == 0 {
            0.0
        } else {
            mem.row_hits as f64 * 100.0 / (mem.row_hits + mem.row_misses) as f64
        },
        mem.row_hits,
        mem.row_hits + mem.row_misses
    );
    let util: Vec<String> = mem
        .channel_utilization(stats.sm_cycles_total.max(1))
        .iter()
        .map(|u| format!("{:.1}%", u * 100.0))
        .collect();
    println!("  DRAM channel utilization [{}]", util.join(", "));
}
