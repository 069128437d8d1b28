//! Run a single workload under a configurable SM/SI setup and print its
//! statistics — the day-to-day exploration tool.
//!
//! ```text
//! simulate [options] <workload>
//!
//! workloads:
//!   trace:<NAME>          a suite trace (AV1, BFV1, Coll1, ...)
//!   micro:<SIZE>[@ITERS]  the Figure 11 microbenchmark [default: 16 iterations]
//!   toy                   the Figure 9 two-subwarp toy
//!   file:<PATH>           a serialized subwarp-trace file
//!
//! options:
//!   --trace <FILE>            same as the workload `file:<FILE>`
//!   --si <off|sos|both|dws>   interleaving mode          [default: off]
//!   --policy <any|half|all>   stall trigger (N>0/≥0.5/1) [default: half]
//!   --latency <cycles>        L1 miss latency            [default: 600]
//!   --mem <fixed|hier>        memory backend             [default: fixed]
//!   --slots <per-pb>          warp slots per PB          [default: 8]
//!   --sms <n>                 streaming multiprocessors  [default: 1]
//!   --private-mem             per-SM private partitions (no chip sharing)
//!   --subwarps <n>            TST entries per warp       [default: 32]
//!   --order <ft|taken|random|hinted>  divergence order   [default: ft]
//!   --small-icache            4x smaller L0/L1I
//!   --compare                 also run the baseline and report speedup
//!   --events                  dump the subwarp-scheduler event trace
//! ```
//!
//! The workload keys and every option but `--compare` and `--events` are
//! the daemon's job vocabulary, parsed by `subwarp_serve::spec`: a command
//! line resolves to the same job, label and fingerprint as its JSON form.

use subwarp_core::{EventKind, EventRecorder, SiConfig, Simulator};
use subwarp_serve::spec::{request_from_argv, JobSpec};

fn usage(error: &str) -> ! {
    eprintln!(
        "simulate: {error}\n\
         usage: simulate [--si off|sos|both|dws] [--policy any|half|all] \
         [--latency N] [--mem fixed|hier] [--slots N] [--sms N] [--private-mem] \
         [--subwarps N] [--order ft|taken|random|hinted] [--small-icache] \
         [--compare] [--events] <trace:NAME|micro:SIZE[@ITERS]|toy|file:PATH|--trace FILE>"
    );
    std::process::exit(2);
}

fn main() {
    let mut compare = false;
    let mut events = false;
    let job = request_from_argv(std::env::args().skip(1), |arg, _| {
        match arg {
            "--compare" => compare = true,
            "--events" => events = true,
            _ => return false,
        }
        true
    })
    .and_then(|req| JobSpec::from_request(&req))
    .unwrap_or_else(|e| usage(&e));
    let JobSpec { wl, sm, si, .. } = &job;

    eprintln!(
        "# job {} (fp {:016x}): `{}`, {} instructions, {} warps, latency {}, slots {}x{}",
        job.label,
        job.fp,
        wl.name,
        wl.program.len(),
        wl.n_warps,
        sm.miss_latency,
        sm.n_pbs,
        sm.warp_slots_per_pb
    );

    let sim = Simulator::new(sm.clone(), *si);
    let fail = |e: subwarp_core::SimError| -> ! {
        eprintln!("simulation failed: {e}");
        std::process::exit(1);
    };
    let (stats, recorder) = if events {
        let mut r = EventRecorder::new();
        let s = sim.run_profiled(wl, &mut r).unwrap_or_else(|e| fail(e));
        (s, Some(r))
    } else {
        (sim.run(wl).unwrap_or_else(|e| fail(e)), None)
    };

    println!("cycles                    {:>12}", stats.cycles);
    println!(
        "instructions              {:>12}  (ipc {:.2})",
        stats.instructions,
        stats.ipc()
    );
    println!(
        "exposed load-to-use       {:>12}  ({:.1}% of time; divergent {:.1}%)",
        stats.exposed_load_stalls(),
        stats.exposed_ratio() * 100.0,
        stats.exposed_divergent_ratio() * 100.0
    );
    println!(
        "exposed traversal stalls  {:>12}",
        stats.exposed_traversal_stalls()
    );
    println!(
        "exposed fetch stalls      {:>12}",
        stats.exposed_fetch_stalls()
    );
    println!(
        "divergences/reconverges   {:>12}  / {}",
        stats.divergences, stats.reconvergences
    );
    println!(
        "subwarp stall/switch/yield{:>12}  / {} / {}",
        stats.subwarp_stalls, stats.subwarp_switches, stats.subwarp_yields
    );
    println!(
        "L0I/L1I/L1D miss ratios   {:>11.1}% / {:.1}% / {:.1}%",
        stats.l0i.miss_ratio() * 100.0,
        stats.l1i.miss_ratio() * 100.0,
        stats.l1d.miss_ratio() * 100.0
    );
    println!("RT traversals             {:>12}", stats.rt_traversals);
    if !stats.mem.channel_busy_cycles.is_empty() {
        let mem = &stats.mem;
        println!(
            "L2 hit rate               {:>11.1}%  ({} hits / {} accesses)",
            (1.0 - mem.l2.miss_ratio()) * 100.0,
            mem.l2.hits,
            mem.l2.accesses()
        );
        println!(
            "mem fills / MSHR merges   {:>12}  / {}  (mean fill {:.0} cycles, high-water {})",
            mem.fills,
            mem.mshr_merges,
            mem.mean_fill_latency(),
            mem.mshr_high_water
        );
        let util: Vec<String> = mem
            .channel_utilization(stats.sm_cycles_total.max(1))
            .iter()
            .map(|u| format!("{:.0}%", u * 100.0))
            .collect();
        println!(
            "DRAM row hits / misses    {:>12}  / {}  chan util [{}]",
            mem.row_hits,
            mem.row_misses,
            util.join(" ")
        );
    }

    if !stats.per_sm.is_empty() {
        println!("\nper-SM breakdown:");
        for (i, s) in stats.per_sm.iter().enumerate() {
            println!(
                "  SM {i:>2}  cycles {:>10}  instructions {:>10}  ipc {:>5.2}  mem reqs {:>8}",
                s.cycles,
                s.instructions,
                s.ipc(),
                s.mem.requests
            );
        }
    }

    if compare {
        let base = Simulator::new(sm.clone(), SiConfig::disabled())
            .run(wl)
            .unwrap_or_else(|e| fail(e));
        println!(
            "\nbaseline: {} cycles -> speedup {:+.1}%",
            base.cycles,
            (stats.speedup_vs(&base) - 1.0) * 100.0
        );
    }
    if let Some(rec) = recorder {
        println!("\nevents ({}):", rec.events().len());
        for e in rec.events().iter().take(200) {
            let k = match e.kind {
                EventKind::Diverge => "diverge",
                EventKind::Stall => "stall",
                EventKind::Wakeup => "wakeup",
                EventKind::Select => "select",
                EventKind::Yield => "yield",
                EventKind::Block => "block",
                EventKind::Reconverge => "reconverge",
                EventKind::Exit => "exit",
            };
            println!(
                "  {:>8}  warp {:>2}  {:<10} mask {:#010x} pc {}",
                e.cycle, e.warp, k, e.mask, e.pc
            );
        }
        if rec.events().len() > 200 {
            println!("  ... ({} more)", rec.events().len() - 200);
        }
    }
}
