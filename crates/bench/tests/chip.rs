//! Chip-mode determinism: multi-SM runs against the *shared* L2/DRAM
//! partitions must be exactly reproducible, independent of host-thread
//! parallelism (`SUBWARP_JOBS`), and must aggregate per-SM statistics
//! consistently. A run's SMs may step on several threads, but the shared
//! partition resolves their misses in a fixed global order, so none of
//! this may depend on the stepping threads or the worker-pool width the
//! surrounding sweep uses.

use subwarp_core::{HierarchyConfig, MemBackendConfig, SiConfig, Simulator, SmConfig};
use subwarp_pool::{run_supervised, Supervisor};
use subwarp_workloads::{microbenchmark_with, MicroConfig};

fn chip_sm(n_sms: usize) -> SmConfig {
    let mut sm = SmConfig::turing_like().with_mem_backend(MemBackendConfig::Hierarchical(
        HierarchyConfig::turing_like(),
    ));
    sm.n_sms = n_sms;
    sm
}

fn chip_workload() -> subwarp_core::Workload {
    microbenchmark_with(MicroConfig {
        n_warps: 16,
        ..MicroConfig::default()
    })
}

#[test]
fn chip_run_is_deterministic_across_job_counts() {
    let wl = std::sync::Arc::new(chip_workload());
    let reference = Simulator::new(chip_sm(4), SiConfig::best())
        .run_with_memory(&wl)
        .expect("chip run");
    let labels: Vec<String> = (0..4).map(|i| format!("chip{i}")).collect();
    for jobs in [1, 8] {
        let sup = Supervisor {
            workers: jobs,
            ..Supervisor::default()
        };
        let wl = std::sync::Arc::clone(&wl);
        let out = run_supervised(&sup, &labels, move |_, _| {
            Simulator::new(chip_sm(4), SiConfig::best()).run_with_memory(&wl)
        });
        for result in out {
            let (stats, image) = result.expect("chip run");
            assert_eq!(stats, reference.0, "chip stats diverged at jobs={jobs}");
            assert_eq!(image, reference.1, "chip image diverged at jobs={jobs}");
        }
    }
}

#[test]
fn chip_memory_image_matches_single_sm_oracle() {
    // Architectural state is schedule-invariant: distributing the warps
    // over 4 contending SMs must finalize the exact store image a single
    // SM produces.
    let wl = chip_workload();
    let (_, base) = Simulator::new(chip_sm(1), SiConfig::best())
        .run_with_memory(&wl)
        .expect("single-SM run");
    let (_, chip) = Simulator::new(chip_sm(4), SiConfig::best())
        .run_with_memory(&wl)
        .expect("chip run");
    assert_eq!(base, chip);
}

#[test]
fn chip_aggregates_per_sm_stats_consistently() {
    let wl = chip_workload();
    let stats = Simulator::new(chip_sm(4), SiConfig::best())
        .run(&wl)
        .expect("chip run");
    assert_eq!(stats.per_sm.len(), 4);
    let insts: u64 = stats.per_sm.iter().map(|s| s.instructions).sum();
    let cycles_max = stats.per_sm.iter().map(|s| s.cycles).max().unwrap();
    let cycles_sum: u64 = stats.per_sm.iter().map(|s| s.cycles).sum();
    assert_eq!(insts, stats.instructions);
    assert_eq!(cycles_max, stats.cycles);
    assert_eq!(cycles_sum, stats.sm_cycles_total);
    assert!(stats.per_sm.iter().all(|s| s.instructions > 0));
    // Every SM issued real traffic into the shared partitions, and the
    // chip aggregate accounts each SM's requests exactly once.
    let reqs: u64 = stats.per_sm.iter().map(|s| s.mem.requests).sum();
    assert_eq!(reqs, stats.mem.requests);
    assert!(stats.per_sm.iter().all(|s| s.mem.requests > 0));
}

/// The Sec.-VI acceptance trend. The simulator is deterministic, so the
/// monotonicity assertions are exact, not statistical. Release-only: the
/// 36-SM points are minutes in debug but subsecond optimized.
#[cfg(not(debug_assertions))]
#[test]
fn chip_sweep_gain_erodes_as_shared_partitions_saturate() {
    let rows = subwarp_bench::chip_sweep().expect("chip sweep");
    assert_eq!(rows.first().map(|r| r.n_sms), Some(1));
    assert_eq!(rows.last().map(|r| r.n_sms), Some(36));
    for w in rows.windows(2) {
        assert!(
            // Half-a-point tolerance: the trend is flat before contention
            // bites (tiny chips barely touch the shared channels).
            w[1].gain_pct <= w[0].gain_pct + 0.5,
            "SI gain must erode with chip size: {} SMs {:.1}% -> {} SMs {:.1}%",
            w[0].n_sms,
            w[0].gain_pct,
            w[1].n_sms,
            w[1].gain_pct
        );
        assert!(
            w[1].channel_utilization >= w[0].channel_utilization,
            "shared-channel pressure must grow with chip size"
        );
    }
    let (first, last) = (rows.first().unwrap(), rows.last().unwrap());
    assert!(
        last.gain_pct < 0.7 * first.gain_pct,
        "the 36-SM chip must show substantial erosion: {:.1}% vs {:.1}%",
        last.gain_pct,
        first.gain_pct
    );
}

#[test]
fn private_partitions_opt_out_is_honored() {
    // `with_shared_partitions(false)` restores one private hierarchy per
    // SM (the pre-chip model); the run must still be deterministic and
    // produce the same architectural image.
    let wl = chip_workload();
    let sm = chip_sm(4).with_shared_partitions(false);
    let a = Simulator::new(sm.clone(), SiConfig::best())
        .run_with_memory(&wl)
        .expect("private-partition run");
    let b = Simulator::new(sm, SiConfig::best())
        .run_with_memory(&wl)
        .expect("private-partition run");
    assert_eq!(a, b);
    let (_, base) = Simulator::new(chip_sm(1), SiConfig::best())
        .run_with_memory(&wl)
        .expect("single-SM run");
    assert_eq!(a.1, base);
}

/// Pins the multi-SM shapes whose SMs share nothing — the fixed-latency
/// stub, and private hierarchies (`shared_partitions = false`) — to the
/// figures they produced when each SM ran to completion on its own before
/// the next started. Every shape now steps through the one `(cycle, sm_id)`
/// heap; SMs without shared state cannot observe that interleaving, so
/// every per-SM figure must stay exactly as recorded.
#[test]
fn shareless_chips_keep_their_serial_figures() {
    let wl = chip_workload();
    let mut fixed = SmConfig::turing_like();
    fixed.n_sms = 4;
    let private = chip_sm(4).with_shared_partitions(false);
    // (label, config, cycles, sm_cycles_total, mem.requests,
    //  every SM's (cycles, cycle_causes))
    let pins = [
        (
            "fixed",
            fixed,
            20309,
            81236,
            1024,
            (20309, [1114, 18984, 0, 184, 21, 6, 0, 0]),
        ),
        (
            "private",
            private,
            22873,
            91492,
            1024,
            (22873, [1696, 21012, 0, 157, 3, 5, 0, 0]),
        ),
    ];
    for (label, sm, cycles, total, requests, per_sm) in pins {
        let s = Simulator::new(sm, SiConfig::best())
            .run(&wl)
            .expect("chip run");
        assert_eq!(s.cycles, cycles, "{label}: cycles");
        assert_eq!(s.sm_cycles_total, total, "{label}: sm_cycles_total");
        assert_eq!(s.mem.requests, requests, "{label}: mem.requests");
        assert_eq!(s.per_sm.len(), 4, "{label}: per_sm");
        for (i, p) in s.per_sm.iter().enumerate() {
            assert_eq!((p.cycles, p.cycle_causes), per_sm, "{label}: SM {i}");
        }
    }
}
