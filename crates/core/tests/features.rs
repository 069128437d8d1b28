//! Feature-level tests for simulator paths not covered by the main
//! end-to-end suite: scheduler policies, explicit yields, yield thresholds,
//! predicated memory, MUFU/LDS timing, DWS slot budgets, hinted divergence,
//! and the cycle-cap guard.

use subwarp_core::{
    DivergeOrder, EventKind, EventRecorder, InitValue, Profiler, SchedulerPolicy, SelectPolicy,
    SiConfig, SimError, Simulator, SmConfig, TraceEvent, Workload,
};
use subwarp_isa::{
    Barrier, CmpOp, MufuFunc, Operand, Pred, Program, ProgramBuilder, Reg, Scoreboard, StallHint,
};

fn divergent_two_path(taken_lanes: i64, hint: Option<StallHint>) -> Program {
    // Taken side: cold TEX + use (stalls). Fall-through: pure math.
    let mut b = ProgramBuilder::new();
    let else_ = b.label("else");
    let sync = b.label("sync");
    b.isetp(Pred(0), Reg(0), Operand::imm(taken_lanes), CmpOp::Lt);
    b.bssy(Barrier(0), sync);
    let br = b.bra(else_).pred(Pred(0), false);
    if let Some(h) = hint {
        br.hint(h);
    }
    // Fall-through: math only.
    for _ in 0..20 {
        b.ffma(
            Reg(10),
            Reg(10),
            Operand::fimm(1.000001),
            Operand::fimm(0.5),
        );
    }
    b.bra(sync);
    b.place(else_);
    // Taken: a stalling load.
    b.tld(Reg(2), Reg(4)).wr_sb(Scoreboard(2));
    b.fadd(Reg(3), Reg(2), Operand::fimm(1.0))
        .req_sb(Scoreboard(2));
    b.bra(sync);
    b.place(sync);
    b.bsync(Barrier(0));
    b.exit();
    b.build().unwrap()
}

fn wl(program: Program) -> Workload {
    Workload::new("feature", program, 1)
        .with_threads_per_warp(2)
        .with_init(Reg(0), InitValue::LaneId)
        .with_init(Reg(4), InitValue::Const(0x77_000))
}

#[test]
fn lrr_scheduler_runs_the_suite_kernel_shapes() {
    let mut sm = SmConfig::turing_like();
    sm.scheduler = SchedulerPolicy::Lrr;
    let w = wl(divergent_two_path(1, None));
    let gto = Simulator::new(SmConfig::turing_like(), SiConfig::disabled())
        .run(&w)
        .unwrap();
    let lrr = Simulator::new(sm, SiConfig::disabled()).run(&w).unwrap();
    // Same work either way; timing may differ slightly.
    assert_eq!(gto.instructions, lrr.instructions);
    assert!(lrr.cycles > 0);
}

#[test]
fn explicit_yield_op_is_inert_on_baseline_and_switches_under_si() {
    // Two divergent paths that both stall; the taken path yields right
    // after issuing its load.
    let build = || {
        let mut b = ProgramBuilder::new();
        let else_ = b.label("else");
        let sync = b.label("sync");
        b.isetp(Pred(0), Reg(0), Operand::imm(1), CmpOp::Lt);
        b.bssy(Barrier(0), sync);
        b.bra(else_).pred(Pred(0), false);
        // Fall-through path runs first (FallthroughFirst): it issues its
        // load and explicitly yields while the taken side is still READY.
        b.ldg(Reg(2), Reg(4), 0).wr_sb(Scoreboard(0));
        b.yield_hint(); // explicit software subwarp-yield
        b.fadd(Reg(3), Reg(2), Operand::fimm(1.0))
            .req_sb(Scoreboard(0));
        b.bra(sync);
        b.place(else_);
        b.tld(Reg(5), Reg(4)).wr_sb(Scoreboard(1));
        b.fadd(Reg(6), Reg(5), Operand::fimm(1.0))
            .req_sb(Scoreboard(1));
        b.bra(sync);
        b.place(sync);
        b.bsync(Barrier(0));
        b.exit();
        b.build().unwrap()
    };
    let w = wl(build());
    let base = Simulator::new(SmConfig::turing_like(), SiConfig::disabled())
        .run(&w)
        .unwrap();
    let mut rec = EventRecorder::new();
    let si = Simulator::new(
        SmConfig::turing_like(),
        SiConfig::sos(SelectPolicy::AnyStalled),
    )
    .run_profiled(&w, &mut rec)
    .unwrap();
    // Baseline treats YIELD as a hint no-op (it must not demote anything).
    assert_eq!(base.subwarp_yields, 0);
    // SI honours it even in SOS mode (it's an explicit instruction).
    assert!(
        si.subwarp_yields >= 1,
        "explicit yield should fire under SI"
    );
    assert!(rec.kinds().contains(&EventKind::Yield));
    assert!(si.cycles < base.cycles);
}

#[test]
fn yield_threshold_gates_hardware_yields() {
    // A divergent kernel where each path issues two back-to-back loads;
    // threshold 1 yields after the first, threshold 3 never yields.
    let build = || {
        let mut b = ProgramBuilder::new();
        let else_ = b.label("else");
        let sync = b.label("sync");
        b.isetp(Pred(0), Reg(0), Operand::imm(1), CmpOp::Lt);
        b.bssy(Barrier(0), sync);
        b.bra(else_).pred(Pred(0), false);
        b.ldg(Reg(2), Reg(4), 0).wr_sb(Scoreboard(0));
        b.ldg(Reg(3), Reg(4), 0x8000).wr_sb(Scoreboard(1));
        b.fadd(Reg(5), Reg(2), Operand::fimm(1.0))
            .req_sb(Scoreboard(0));
        b.fadd(Reg(5), Reg(3), Operand::reg(5))
            .req_sb(Scoreboard(1));
        b.bra(sync);
        b.place(else_);
        b.tld(Reg(6), Reg(4)).wr_sb(Scoreboard(2));
        b.fadd(Reg(7), Reg(6), Operand::fimm(1.0))
            .req_sb(Scoreboard(2));
        b.bra(sync);
        b.place(sync);
        b.bsync(Barrier(0));
        b.exit();
        b.build().unwrap()
    };
    let w = wl(build());
    let mut eager = SiConfig::both(SelectPolicy::AnyStalled);
    eager.yield_threshold = 1;
    let mut lazy = SiConfig::both(SelectPolicy::AnyStalled);
    lazy.yield_threshold = 10;
    let e = Simulator::new(SmConfig::turing_like(), eager)
        .run(&w)
        .unwrap();
    let l = Simulator::new(SmConfig::turing_like(), lazy)
        .run(&w)
        .unwrap();
    assert!(e.subwarp_yields > l.subwarp_yields);
    assert_eq!(l.subwarp_yields, 0, "threshold 10 never reached");
}

#[test]
fn predicated_memory_ops_only_touch_passing_lanes() {
    // Lane 0 loads; lane 1's guard fails. Both advance; only one request.
    let mut b = ProgramBuilder::new();
    b.isetp(Pred(0), Reg(0), Operand::imm(1), CmpOp::Lt);
    b.ldg(Reg(2), Reg(4), 0)
        .pred(Pred(0), false)
        .wr_sb(Scoreboard(0));
    b.fadd(Reg(3), Reg(2), Operand::fimm(1.0))
        .pred(Pred(0), false)
        .req_sb(Scoreboard(0));
    b.exit();
    let w = wl(b.build().unwrap());
    let stats = Simulator::new(SmConfig::turing_like(), SiConfig::disabled())
        .run(&w)
        .unwrap();
    assert_eq!(stats.l1d.accesses(), 1, "one line from one passing lane");
    assert!(stats.cycles > 600, "the passing lane still pays its miss");
}

#[test]
fn mufu_is_slower_than_alu_but_not_a_memory_stall() {
    let build = |use_mufu: bool| {
        let mut b = ProgramBuilder::new();
        b.mov(Reg(1), Operand::fimm(2.0));
        for _ in 0..32 {
            if use_mufu {
                b.mufu(Reg(1), Reg(1), MufuFunc::Rcp);
            } else {
                b.fadd(Reg(1), Reg(1), Operand::fimm(1.0));
            }
        }
        b.exit();
        wl(b.build().unwrap())
    };
    let sim = Simulator::new(SmConfig::turing_like(), SiConfig::disabled());
    let mufu = sim.run(&build(true)).unwrap();
    let alu = sim.run(&build(false)).unwrap();
    assert!(
        mufu.cycles > alu.cycles + 32 * 8,
        "MUFU chain must be slower"
    );
    assert_eq!(mufu.exposed_load_stalls(), 0);
}

#[test]
fn lds_is_fast_and_uncached() {
    let mut b = ProgramBuilder::new();
    b.lds(Reg(2), Reg(0), 0);
    b.iadd(Reg(3), Reg(2), Operand::imm(1));
    b.exit();
    let w = wl(b.build().unwrap());
    let stats = Simulator::new(SmConfig::turing_like(), SiConfig::disabled())
        .run(&w)
        .unwrap();
    assert_eq!(stats.l1d.accesses(), 0, "shared memory bypasses the L1D");
    assert!(stats.cycles < 300, "LDS latency is short: {}", stats.cycles);
}

#[test]
fn hinted_order_prefers_the_stalling_side() {
    // Taken side stalls. With TakenStalls the stalling side goes first and
    // SI overlaps its miss with the math side; without the hint the
    // fall-through math side runs first, finishes, and the miss is exposed.
    let mut sm = SmConfig::turing_like();
    sm.diverge_order = DivergeOrder::Hinted;
    let si = SiConfig::sos(SelectPolicy::AnyStalled);
    let hinted = Simulator::new(sm.clone(), si)
        .run(&wl(divergent_two_path(1, Some(StallHint::TakenStalls))))
        .unwrap();
    let unhinted = Simulator::new(sm, si)
        .run(&wl(divergent_two_path(1, None)))
        .unwrap();
    assert!(
        hinted.cycles < unhinted.cycles,
        "hint should overlap the miss: {} vs {}",
        hinted.cycles,
        unhinted.cycles
    );
}

/// Both divergent paths stall on distinct loads, so the first side's stall
/// always has a READY partner to interleave with.
fn two_stall_paths() -> Program {
    let mut b = ProgramBuilder::new();
    let else_ = b.label("else");
    let sync = b.label("sync");
    b.isetp(Pred(0), Reg(0), Operand::imm(16), CmpOp::Lt);
    b.bssy(Barrier(0), sync);
    b.bra(else_).pred(Pred(0), false);
    b.ldg(Reg(2), Reg(4), 0).wr_sb(Scoreboard(0));
    b.fadd(Reg(3), Reg(2), Operand::fimm(1.0))
        .req_sb(Scoreboard(0));
    b.bra(sync);
    b.place(else_);
    b.tld(Reg(5), Reg(4)).wr_sb(Scoreboard(1));
    b.fadd(Reg(6), Reg(5), Operand::fimm(1.0))
        .req_sb(Scoreboard(1));
    b.bra(sync);
    b.place(sync);
    b.bsync(Barrier(0));
    b.exit();
    b.build().unwrap()
}

#[test]
fn dws_mode_cannot_demote_when_slots_are_full() {
    // 32 warps fill every slot: the DWS-like scheme has nowhere to fork.
    let program = two_stall_paths();
    let w = Workload::new("full", program, 32)
        .with_init(Reg(0), InitValue::LaneId)
        .with_init(Reg(4), InitValue::GlobalTid);
    let si = Simulator::new(
        SmConfig::turing_like(),
        SiConfig::sos(SelectPolicy::HalfStalled),
    )
    .run(&w)
    .unwrap();
    let dws = Simulator::new(SmConfig::turing_like(), SiConfig::dws_like())
        .run(&w)
        .unwrap();
    // Slots only free up as warps retire, so a few late forks are possible,
    // but DWS must be starved relative to SI while the SM is full.
    assert!(
        dws.subwarp_stalls * 2 < si.subwarp_stalls.max(1),
        "DWS {} vs SI {} demotions",
        dws.subwarp_stalls,
        si.subwarp_stalls
    );
    // Half-full SM: forks become possible.
    let w16 = Workload::new("half", two_stall_paths(), 16)
        .with_init(Reg(0), InitValue::LaneId)
        .with_init(Reg(4), InitValue::GlobalTid);
    let dws16 = Simulator::new(SmConfig::turing_like(), SiConfig::dws_like())
        .run(&w16)
        .unwrap();
    assert!(dws16.subwarp_stalls > 0, "free slots allow DWS forks");
}

#[test]
fn cycle_cap_guard_fires() {
    let mut b = ProgramBuilder::new();
    let spin = b.label("spin");
    b.place(spin);
    b.iadd(Reg(1), Reg(1), Operand::imm(1));
    b.bra(spin); // infinite loop
    b.exit();
    let w = wl(b.build().unwrap());
    let mut sm = SmConfig::turing_like();
    sm.max_cycles = 10_000;
    let err = Simulator::new(sm, SiConfig::disabled())
        .run(&w)
        .unwrap_err();
    match err {
        SimError::CycleCapExceeded {
            ref workload,
            cap,
            ref snapshot,
        } => {
            assert_eq!(workload, "feature");
            assert_eq!(cap, 10_000);
            assert_eq!(snapshot.cycle, 10_000);
            assert!(
                !snapshot.warps.is_empty(),
                "snapshot must capture the spinning warp"
            );
        }
        other => panic!("expected CycleCapExceeded, got {other}"),
    }
    assert!(
        err.to_string().contains("cycle cap"),
        "message names the cap: {err}"
    );
}

#[test]
fn store_load_forwarding_through_data_memory() {
    // Store a computed value, reload it, store the reloaded copy; both
    // stores must agree (checked via determinism of the data memory path
    // and the load value actually reaching the dependent add).
    let mut b = ProgramBuilder::new();
    b.mov(Reg(1), Operand::imm(0x9000));
    b.mov(Reg(2), Operand::imm(777));
    b.stg(Reg(2), Reg(1), 0);
    b.ldg(Reg(3), Reg(1), 0).wr_sb(Scoreboard(0));
    b.iadd(Reg(4), Reg(3), Operand::imm(1))
        .req_sb(Scoreboard(0));
    b.isetp(Pred(0), Reg(4), Operand::imm(778), CmpOp::Eq);
    // Diverge on the comparison: if the loaded value was wrong, lanes fall
    // through to an extra (observable) block of instructions.
    let done = b.label("done");
    b.bra(done).pred(Pred(0), false);
    for _ in 0..50 {
        b.nop();
    }
    b.place(done);
    b.exit();
    let w = wl(b.build().unwrap());
    let stats = Simulator::new(SmConfig::turing_like(), SiConfig::disabled())
        .run(&w)
        .unwrap();
    // Both lanes took the branch: 8 real instructions, no nop block.
    assert_eq!(stats.instructions, 8, "round-tripped value must be 777");
}

#[test]
fn baseline_warp_wide_scoreboards_alias_across_subwarps() {
    // Two subwarps use the SAME scoreboard id. Under baseline warp-wide
    // semantics the second subwarp's consumer also waits on the first
    // subwarp's outstanding count if they overlap; under SI the counters
    // are per-lane so there is no aliasing. Here both paths load to sb0;
    // the run must still complete correctly under both models.
    let mut b = ProgramBuilder::new();
    let else_ = b.label("else");
    let sync = b.label("sync");
    b.isetp(Pred(0), Reg(0), Operand::imm(1), CmpOp::Lt);
    b.bssy(Barrier(0), sync);
    b.bra(else_).pred(Pred(0), false);
    b.ldg(Reg(2), Reg(4), 0).wr_sb(Scoreboard(0));
    b.fadd(Reg(3), Reg(2), Operand::fimm(1.0))
        .req_sb(Scoreboard(0));
    b.bra(sync);
    b.place(else_);
    b.ldg(Reg(2), Reg(4), 0x40_000).wr_sb(Scoreboard(0));
    b.fadd(Reg(3), Reg(2), Operand::fimm(2.0))
        .req_sb(Scoreboard(0));
    b.bra(sync);
    b.place(sync);
    b.bsync(Barrier(0));
    b.exit();
    let w = wl(b.build().unwrap());
    let base = Simulator::new(SmConfig::turing_like(), SiConfig::disabled())
        .run(&w)
        .unwrap();
    let si = Simulator::new(
        SmConfig::turing_like(),
        SiConfig::sos(SelectPolicy::AnyStalled),
    )
    .run(&w)
    .unwrap();
    assert_eq!(base.instructions, si.instructions);
    assert!(
        si.cycles < base.cycles,
        "per-lane counters overlap the two misses"
    );
}

#[test]
fn multi_way_divergence_produces_one_subwarp_per_case() {
    // Four-way switch on lane/8 → 4 subwarps of 8 lanes each.
    let mut b = ProgramBuilder::new();
    let sync = b.label("sync");
    let cases: Vec<_> = (0..3).map(|k| b.label(&format!("c{k}"))).collect();
    b.shr(Reg(1), Reg(0), Operand::imm(3));
    b.bssy(Barrier(0), sync);
    for (k, label) in cases.iter().enumerate() {
        b.isetp(Pred(0), Reg(1), Operand::imm(k as i64), CmpOp::Eq);
        b.bra(*label).pred(Pred(0), false);
    }
    for case in std::iter::once(None).chain(cases.iter().map(Some)) {
        if let Some(label) = case {
            b.place(*label);
        }
        b.ffma(Reg(9), Reg(9), Operand::fimm(1.5), Operand::fimm(0.5));
        b.bra(sync);
    }
    b.place(sync);
    b.bsync(Barrier(0));
    b.exit();
    let w = Workload::new("switch4", b.build().unwrap(), 1).with_init(Reg(0), InitValue::LaneId);
    let mut rec = EventRecorder::new();
    let stats = Simulator::new(SmConfig::turing_like(), SiConfig::disabled())
        .run_profiled(&w, &mut rec)
        .unwrap();
    assert_eq!(stats.divergences, 3, "three splits for four subwarps");
    assert_eq!(rec.of_kind(EventKind::Reconverge).count(), 1);
    // Every diverge event carries an 8-lane mask.
    for e in rec.of_kind(EventKind::Diverge) {
        assert_eq!(e.mask.count_ones(), 8);
    }
}

#[test]
fn two_sms_split_the_work_and_scale() {
    // Table I simulates 2 SMs. With twice the warps, two SMs should finish
    // in about the time one SM takes for half the load.
    // Issue-bound kernel: a compute loop keeps every issue port busy, so
    // doubling the SMs halves the wall-clock.
    let mut b = ProgramBuilder::new();
    let loop_ = b.label("loop");
    b.mov(Reg(9), Operand::imm(16));
    b.place(loop_);
    for i in 0..48 {
        b.ffma(
            Reg(10 + i % 16),
            Reg(2),
            Operand::fimm(1.5),
            Operand::fimm(0.5),
        );
    }
    b.iadd(Reg(9), Reg(9), Operand::imm(-1));
    b.isetp(Pred(1), Reg(9), Operand::imm(0), CmpOp::Gt);
    b.bra(loop_).pred(Pred(1), false);
    b.exit();
    let program = b.build().unwrap();
    let mk = |n| {
        Workload::new("scale", program.clone(), n)
            .with_init(Reg(0), InitValue::LaneId)
            .with_init(Reg(1), InitValue::GlobalTid)
    };
    let one_sm = Simulator::new(SmConfig::turing_like(), SiConfig::disabled())
        .run(&mk(64))
        .unwrap();
    let two_sm = Simulator::new(SmConfig::turing_like().with_n_sms(2), SiConfig::disabled())
        .run(&mk(64))
        .unwrap();
    assert_eq!(one_sm.instructions, two_sm.instructions, "same total work");
    assert!(
        two_sm.cycles < one_sm.cycles * 2 / 3,
        "two SMs should be materially faster: {} vs {}",
        two_sm.cycles,
        one_sm.cycles
    );
    assert!(two_sm.sm_cycles_total > two_sm.cycles);
    assert_eq!(two_sm.peak_resident_warps, 64, "32 slots per SM, both full");
}

#[test]
fn multi_sm_event_recording_merges_in_cycle_order() {
    let wl = Workload::new("ev", divergent_two_path(1, None), 4)
        .with_threads_per_warp(2)
        .with_init(Reg(0), InitValue::LaneId)
        .with_init(Reg(4), InitValue::Const(0x9000));
    let sim = Simulator::new(SmConfig::turing_like().with_n_sms(2), SiConfig::best());
    let mut rec = EventRecorder::new();
    sim.run_profiled(&wl, &mut rec).unwrap();
    let keys: Vec<(u64, usize)> = rec.events().iter().map(|e| (e.cycle, e.warp)).collect();
    assert!(
        keys.windows(2).all(|w| w[0] <= w[1]),
        "events sorted by (cycle, warp)"
    );
    assert!(!keys.is_empty());
    // Events name warps, not the slots that repeat across the two SMs.
    let warps: std::collections::BTreeSet<usize> = keys.iter().map(|&(_, w)| w).collect();
    assert_eq!(warps.into_iter().collect::<Vec<_>>(), [0, 1, 2, 3]);

    // The tape keeps every transition the run reports, no more, no less.
    #[derive(Default)]
    struct CountEvents(usize);
    impl Profiler for CountEvents {
        fn event(&mut self, _ev: &TraceEvent) {
            self.0 += 1;
        }
    }
    let mut count = CountEvents::default();
    sim.run_profiled(&wl, &mut count).unwrap();
    assert_eq!(rec.events().len(), count.0);
}
