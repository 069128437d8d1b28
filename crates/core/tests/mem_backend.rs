//! SM-level tests for the pluggable memory-hierarchy backend: architectural
//! invariance (timing models never change values), stats plumbing, and the
//! load-dependence that distinguishes the hierarchical model from the stub.

use subwarp_core::{
    HierarchyConfig, InitValue, MemBackendConfig, SiConfig, Simulator, SmConfig, Workload,
};
use subwarp_isa::{Operand, ProgramBuilder, Reg, Scoreboard};

/// A streaming kernel: every warp issues strided loads, accumulates, and
/// stores its result — enough traffic to exercise L2, MSHRs, and DRAM.
/// Addresses are `GlobalTid` bytes, so 8 lanes share each stored word.
fn streaming_kernel(n_warps: usize) -> Workload {
    streaming(n_warps, None)
}

/// [`streaming_kernel`], or with `Some(base)` the same sums stored one
/// word per lane, at `base + 8 * tid`.
fn streaming(n_warps: usize, per_lane_base: Option<i64>) -> Workload {
    let mut b = ProgramBuilder::new();
    for i in 0..8i64 {
        b.ldg(Reg(2), Reg(4), i * 128).wr_sb(Scoreboard(0));
        b.iadd(Reg(3), Reg(3), Operand::reg(2))
            .req_sb(Scoreboard(0));
    }
    match per_lane_base {
        None => b.stg(Reg(3), Reg(4), 0),
        Some(base) => {
            b.shl(Reg(5), Reg(4), Operand::imm(3));
            b.stg(Reg(3), Reg(5), base)
        }
    };
    b.exit();
    Workload::new("streaming", b.build().unwrap(), n_warps).with_init(Reg(4), InitValue::GlobalTid)
}

fn hier() -> MemBackendConfig {
    MemBackendConfig::Hierarchical(HierarchyConfig::turing_like())
}

#[test]
fn backends_agree_on_architectural_state() {
    // Timing-only contract: the hierarchical backend may change *when*
    // things happen, never *what* is computed.
    let wl = streaming_kernel(12);
    for si in [SiConfig::disabled(), SiConfig::best()] {
        let run = |backend: MemBackendConfig| {
            let sm = SmConfig::turing_like().with_mem_backend(backend);
            Simulator::new(sm, si).run_with_memory(&wl).unwrap()
        };
        let (fixed_stats, fixed_image) = run(MemBackendConfig::Fixed);
        let (hier_stats, hier_image) = run(hier());
        assert_eq!(fixed_image, hier_image, "memory images diverged");
        assert_eq!(
            fixed_stats.instructions, hier_stats.instructions,
            "instruction count is schedule-invariant"
        );
    }
}

#[test]
fn image_is_keyed_by_word_and_holds_the_last_lane() {
    // 4 warps store words 0..16 and no warp loads another warp's stored
    // words, so each lane's sum does not depend on where the sums go.
    const BASE: i64 = 1 << 20;
    let n_threads = 4 * 32;
    let sim = Simulator::new(SmConfig::turing_like(), SiConfig::best());
    let (_, image) = sim.run_with_memory(&streaming_kernel(4)).unwrap();
    let (_, per_lane) = sim.run_with_memory(&streaming(4, Some(BASE))).unwrap();
    assert_eq!(image.len(), n_threads / 8);
    for (addr, value) in image.iter() {
        assert_eq!(addr % 8, 0, "image address {addr:#x} is not a word address");
        // Threads `addr..addr + 8` of one warp wrote this word in lane
        // order; the highest lane's store is the one a load sees.
        let last_lane = addr + 7;
        assert_eq!(per_lane.get(BASE as u64 + 8 * last_lane), Some(value));
    }
}

#[test]
fn explicit_fixed_backend_is_the_default() {
    let wl = streaming_kernel(8);
    let default_run = Simulator::new(SmConfig::turing_like(), SiConfig::best())
        .run(&wl)
        .unwrap();
    let explicit = SmConfig::turing_like().with_mem_backend(MemBackendConfig::Fixed);
    let explicit_run = Simulator::new(explicit, SiConfig::best()).run(&wl).unwrap();
    assert_eq!(default_run, explicit_run);
}

#[test]
fn hierarchical_stats_are_plumbed_into_run_stats() {
    let wl = streaming_kernel(16);
    let sm = SmConfig::turing_like().with_mem_backend(hier());
    let stats = Simulator::new(sm, SiConfig::disabled()).run(&wl).unwrap();
    let mem = &stats.mem;
    assert!(mem.requests > 0, "L1 misses must reach the backend");
    assert_eq!(
        mem.fills + mem.mshr_merges,
        mem.requests,
        "request conservation: every miss is exactly one fill or merge"
    );
    assert!(mem.l2.accesses() > 0, "L2 counters plumbed");
    assert!(mem.mshr_high_water > 0, "MSHR high-water plumbed");
    assert_eq!(
        mem.channel_busy_cycles.len(),
        HierarchyConfig::turing_like().dram.channels,
        "per-channel busy cycles plumbed"
    );
    assert!(mem.mean_fill_latency() > 0.0);
    // The fixed stub reports its own request counters but no hierarchy.
    let fixed = Simulator::new(SmConfig::turing_like(), SiConfig::disabled())
        .run(&wl)
        .unwrap();
    assert!(fixed.mem.requests > 0);
    assert_eq!(fixed.mem.l2.accesses(), 0);
    assert!(fixed.mem.channel_busy_cycles.is_empty());
    assert!((fixed.mem.mean_fill_latency() - 600.0).abs() < 1e-9);
}

#[test]
fn miss_latency_becomes_load_dependent() {
    // More concurrent warps -> more bank/channel contention -> higher mean
    // fill latency. The stub, by contrast, is load-invariant by definition.
    let run = |n_warps| {
        let sm = SmConfig::turing_like().with_mem_backend(hier());
        Simulator::new(sm, SiConfig::disabled())
            .run(&streaming_kernel(n_warps))
            .unwrap()
            .mem
            .mean_fill_latency()
    };
    let light = run(2);
    let heavy = run(32);
    assert!(
        heavy > light,
        "contention must raise mean fill latency (light {light:.1}, heavy {heavy:.1})"
    );
}

#[test]
fn multi_sm_runs_merge_backend_stats() {
    let wl = streaming_kernel(16);
    let sm = SmConfig::turing_like()
        .with_n_sms(2)
        .with_mem_backend(hier());
    let stats = Simulator::new(sm, SiConfig::disabled()).run(&wl).unwrap();
    assert!(stats.mem.requests > 0);
    assert_eq!(stats.mem.fills + stats.mem.mshr_merges, stats.mem.requests);
}
