//! Property-style tests over the substrates and the simulator's global
//! invariants. Each test draws many random cases from a seeded
//! `subwarp_prng::SmallRng` stream, so the suite is deterministic and
//! fully offline (no external property-testing framework); a failing case
//! prints the iteration index so it can be replayed.

use subwarp_interleaving::core::{
    InitValue, SelectPolicy, SiConfig, Simulator, SmConfig, Workload,
};
use subwarp_interleaving::isa::{CmpOp, Operand, ProgramBuilder, Reg, SbMask, Scoreboard};
use subwarp_interleaving::mem::{AccessKind, Cache, CacheConfig, ServiceUnit};
use subwarp_interleaving::rt::{Bvh, Ray, Scene, Vec3};
use subwarp_interleaving::workloads::{microbenchmark_with, MicroConfig};
use subwarp_prng::SmallRng;

// ---------------------------------------------------------------- caches

/// A trivially correct fully-explicit LRU reference model.
struct RefCache {
    line: u64,
    sets: usize,
    ways: usize,
    // Per set: lines in LRU order (front = most recent).
    state: Vec<Vec<u64>>,
}

impl RefCache {
    fn new(cfg: CacheConfig) -> RefCache {
        RefCache {
            line: cfg.line_bytes,
            sets: cfg.sets(),
            ways: cfg.ways,
            state: vec![Vec::new(); cfg.sets()],
        }
    }

    fn access(&mut self, addr: u64) -> AccessKind {
        let tag = addr / self.line;
        let set = (tag as usize) % self.sets;
        let lines = &mut self.state[set];
        if let Some(pos) = lines.iter().position(|&t| t == tag) {
            let t = lines.remove(pos);
            lines.insert(0, t);
            AccessKind::Hit
        } else {
            lines.insert(0, tag);
            lines.truncate(self.ways);
            AccessKind::Miss
        }
    }
}

#[test]
fn cache_matches_lru_reference() {
    let mut rng = SmallRng::seed_from_u64(0xCAC4E);
    for case in 0..64 {
        let ways = rng.gen_range(1..4usize);
        let n = rng.gen_range(1..400usize);
        let cfg = CacheConfig {
            size_bytes: (ways as u64) * 4 * 64,
            line_bytes: 64,
            ways,
        };
        let mut dut = Cache::new(cfg);
        let mut reference = RefCache::new(cfg);
        for _ in 0..n {
            let a = rng.gen_range(0u64..(1 << 14));
            assert_eq!(
                dut.access(a),
                reference.access(a),
                "case {case}, address {a:#x}"
            );
        }
    }
}

#[test]
fn cache_stats_add_up() {
    let mut rng = SmallRng::seed_from_u64(0x57A75);
    for case in 0..64 {
        let n = rng.gen_range(1..300usize);
        let mut c = Cache::new(CacheConfig::l1_data());
        for _ in 0..n {
            c.access(rng.gen_range(0u64..(1 << 16)));
        }
        let s = c.stats();
        assert_eq!(s.accesses(), n as u64, "case {case}");
        assert!((0.0..=1.0).contains(&s.miss_ratio()), "case {case}");
    }
}

// ---------------------------------------------------------- service unit

#[test]
fn service_unit_completes_everything_in_order() {
    let mut rng = SmallRng::seed_from_u64(0x5EFF1CE);
    for case in 0..64 {
        let reqs: Vec<(u64, u32)> = (0..rng.gen_range(1..200usize))
            .map(|_| (rng.gen_range(0u64..1000), rng.gen_range(0u32..100)))
            .collect();
        let mut u = ServiceUnit::new();
        for &(ready, payload) in &reqs {
            u.push(ready, payload);
        }
        let done = u.pop_ready(2000);
        assert_eq!(done.len(), reqs.len(), "case {case}");
        assert!(u.is_empty(), "case {case}");
        // Completion cycles are monotone.
        for w in done.windows(2) {
            assert!(w[0].at_cycle <= w[1].at_cycle, "case {case}");
        }
        // Nothing completes before its ready cycle.
        let mut u = ServiceUnit::new();
        for &(ready, payload) in &reqs {
            u.push(ready, payload);
        }
        let min_ready = reqs.iter().map(|&(r, _)| r).min().unwrap();
        if min_ready > 0 {
            assert!(u.pop_ready(min_ready - 1).is_empty(), "case {case}");
        }
    }
}

// ------------------------------------------------------------------ BVH

#[test]
fn bvh_traversal_matches_brute_force() {
    let mut rng = SmallRng::seed_from_u64(0xB5);
    for case in 0..48 {
        let n_tris = rng.gen_range(1..120usize);
        let seed = rng.gen_range(0u64..1000);
        let (ox, oy) = (rng.gen_range(-3.0..3.0f32), rng.gen_range(-3.0..3.0f32));
        let (dx, dy) = (rng.gen_range(-1.0..1.0f32), rng.gen_range(-1.0..1.0f32));
        let scene = Scene::random_soup(n_tris, seed);
        let bvh = Bvh::build(scene.clone());
        let ray = Ray::new(Vec3::new(ox, oy, -10.0), Vec3::new(dx, dy, 1.0));
        let got = bvh.traverse(&ray).hit;
        let mut want: Option<(u32, f32)> = None;
        for (i, t) in scene.triangles().iter().enumerate() {
            if let Some(d) = t.intersect(&ray) {
                if want.is_none_or(|(_, bd)| d < bd) {
                    want = Some((i as u32, d));
                }
            }
        }
        match (got, want) {
            (None, None) => {}
            (Some(h), Some((i, d))) => {
                assert_eq!(h.triangle, i, "case {case}");
                assert!((h.t - d).abs() < 1e-4, "case {case}");
            }
            (g, w) => panic!("case {case}: bvh {g:?} vs brute {w:?}"),
        }
    }
}

// ------------------------------------------------------------------ ISA

#[test]
fn sbmask_set_semantics() {
    let mut rng = SmallRng::seed_from_u64(0x5B);
    for case in 0..64 {
        let ids: Vec<u8> = (0..rng.gen_range(0..16usize))
            .map(|_| rng.gen_range(0u8..8))
            .collect();
        let mask: SbMask = ids.iter().map(|&i| Scoreboard(i)).collect();
        for i in 0..8u8 {
            assert_eq!(
                mask.contains(Scoreboard(i)),
                ids.contains(&i),
                "case {case}"
            );
        }
        assert_eq!(mask.is_empty(), ids.is_empty(), "case {case}");
    }
}

#[test]
fn builder_rejects_dangling_scoreboards() {
    let mut rng = SmallRng::seed_from_u64(0xDA);
    for _ in 0..32 {
        let sb = rng.gen_range(8u8..255);
        let mut b = ProgramBuilder::new();
        b.ldg(Reg(0), Reg(1), 0).wr_sb(Scoreboard(sb));
        b.exit();
        assert!(
            b.build().is_err(),
            "sb{sb} is out of range and must be rejected"
        );
    }
}

// -------------------------------------------------------- simulator laws

#[test]
fn simulator_is_deterministic_on_random_micro_configs() {
    let mut rng = SmallRng::seed_from_u64(0xDE7);
    for case in 0..12 {
        let cfg = MicroConfig {
            subwarp_size: 1 << rng.gen_range(0u32..6),
            iterations: rng.gen_range(1u32..3),
            loads_per_iter: rng.gen_range(1..4usize),
            body_pad: rng.gen_range(0..16usize),
            n_warps: 2,
        };
        let wl = microbenchmark_with(cfg);
        let sim = Simulator::new(SmConfig::turing_like(), SiConfig::best());
        assert_eq!(sim.run(&wl).unwrap(), sim.run(&wl).unwrap(), "case {case}");
    }
}

#[test]
fn si_preserves_instruction_count_and_never_collapses() {
    let mut rng = SmallRng::seed_from_u64(0x1C);
    for case in 0..10 {
        let cfg = MicroConfig {
            subwarp_size: 1 << rng.gen_range(0u32..6),
            iterations: 1,
            loads_per_iter: rng.gen_range(1..4usize),
            body_pad: 4,
            n_warps: 2,
        };
        let wl = microbenchmark_with(cfg);
        let base = Simulator::new(SmConfig::turing_like(), SiConfig::disabled())
            .run(&wl)
            .unwrap();
        for si in [
            SiConfig::sos(SelectPolicy::AnyStalled),
            SiConfig::sos(SelectPolicy::AllStalled),
            SiConfig::best(),
            SiConfig::best().with_max_subwarps(2),
        ] {
            let s = Simulator::new(SmConfig::turing_like(), si)
                .run(&wl)
                .unwrap();
            // SIMT semantics are schedule-independent: the same instructions
            // execute regardless of interleaving.
            assert_eq!(s.instructions, base.instructions, "case {case}");
            // SI can only help or mildly hurt — never deadlock or blow up.
            assert!(s.cycles <= base.cycles * 2, "case {case}");
            assert!(
                s.cycles * 64 >= base.cycles,
                "case {case}: implausible speedup"
            );
        }
    }
}

#[test]
fn predicated_branch_kernels_terminate_under_all_policies() {
    let mut rng = SmallRng::seed_from_u64(0xB7A);
    for case in 0..10 {
        let threshold = rng.gen_range(0i64..33);
        let n_warps = rng.gen_range(1..3usize);
        // A data-dependent two-way divergence at an arbitrary lane split.
        let mut b = ProgramBuilder::new();
        let else_ = b.label("else");
        let sync = b.label("sync");
        b.isetp(
            subwarp_interleaving::isa::Pred(0),
            Reg(0),
            Operand::imm(threshold),
            CmpOp::Lt,
        );
        b.bssy(subwarp_interleaving::isa::Barrier(0), sync);
        b.bra(else_).pred(subwarp_interleaving::isa::Pred(0), false);
        b.ldg(Reg(2), Reg(1), 0).wr_sb(Scoreboard(0));
        b.fadd(Reg(3), Reg(2), Operand::fimm(1.0))
            .req_sb(Scoreboard(0));
        b.bra(sync);
        b.place(else_);
        b.ldg(Reg(2), Reg(1), 0x40_000).wr_sb(Scoreboard(1));
        b.fadd(Reg(3), Reg(2), Operand::fimm(2.0))
            .req_sb(Scoreboard(1));
        b.bra(sync);
        b.place(sync);
        b.bsync(subwarp_interleaving::isa::Barrier(0));
        b.exit();
        let wl = Workload::new("prop-kernel", b.build().expect("valid"), n_warps)
            .with_init(Reg(0), InitValue::LaneId)
            .with_init(Reg(1), InitValue::GlobalTid);
        for si in [
            SiConfig::disabled(),
            SiConfig::best(),
            SiConfig::sos(SelectPolicy::AllStalled),
        ] {
            let s = Simulator::new(SmConfig::turing_like(), si)
                .run(&wl)
                .unwrap();
            assert!(s.cycles > 0, "case {case}");
            assert_eq!(s.instructions % n_warps as u64, 0, "case {case}");
        }
    }
}

// ------------------------------------------------- cycle attribution

/// Tentpole invariant, checked from the outside: every simulated cycle is
/// attributed to exactly one `CycleCause`, so the per-cause counts must sum
/// to the total simulated SM-cycles (`== cycles` on one SM, summed per-SM
/// clocks on a chip) for *every* suite workload under the baseline and the
/// fuzzer SI configurations (every `SelectPolicy` × `DivergeOrder` combo in
/// switch-on-stall and yield flavours, a capacity-limited TST, and the
/// DWS-like scheme). The simulator also self-checks this conservation at the
/// end of every run — this test pins it on the returned stats.
#[test]
fn cycle_attribution_conserves_over_suite_and_fuzzer_grid() {
    use subwarp_interleaving::core::CycleCause;

    let grid = subwarp_fuzz::config_grid();
    assert!(grid.len() >= 27, "fuzzer grid shrank to {}", grid.len());
    let mut sweep = subwarp_sweep::Sweep::over_suite();
    for (label, sm, si) in &grid {
        sweep = sweep.config(label.clone(), sm.clone(), *si);
    }
    let results = sweep.run().expect("suite x fuzzer-grid simulates cleanly");
    let suite = subwarp_sweep::Sweep::over_suite();
    let names: Vec<String> = suite.workload_names().map(str::to_owned).collect();
    for (w, row) in results.iter().enumerate() {
        for (c, stats) in row.iter().enumerate() {
            let ctx = format!("{} / {}", names[w], grid[c].0);
            let total: u64 = CycleCause::ALL.iter().map(|&x| stats.cause(x)).sum();
            assert_eq!(total, stats.causes_total(), "{ctx}");
            // Conservation is per SM clock: on a multi-SM chip the causes
            // sum over every SM's cycles, while `cycles` is the slowest
            // SM's clock. Single-SM runs have sm_cycles_total == cycles.
            assert_eq!(total, stats.sm_cycles_total, "{ctx}: attribution leak");
            for (i, per) in stats.per_sm.iter().enumerate() {
                assert_eq!(
                    per.causes_total(),
                    per.cycles,
                    "{ctx}: SM {i} attribution leak"
                );
            }
            // Productive work exists and is correctly tagged on every trace.
            assert!(stats.cause(CycleCause::Issued) > 0, "{ctx}");
            assert!(
                stats.cause(CycleCause::Issued) <= stats.sm_cycles_total,
                "{ctx}"
            );
        }
    }
}
