//! Structured-program fuzzing: generate random *well-formed* kernels
//! (nested if/else with convergence barriers, uniform loops, loads on all
//! three latency classes) via the `subwarp-fuzz` generator and check the
//! simulator's global invariants under every scheduling mode.
//!
//! The invariants:
//! 1. Termination — no deadlock, no watchdog error, under baseline and
//!    every SI configuration.
//! 2. Schedule independence — SIMT functional semantics don't depend on
//!    the interleaving, so the executed warp-instruction count and the
//!    per-thread architectural results are identical across configs.
//! 3. Determinism — identical runs produce identical statistics.
//!
//! Cases are drawn from a fixed seed range so the suite is deterministic;
//! a failing case prints the seed, replayable with
//! `cargo run -p subwarp-fuzz -- --seed <N> --iters 1`.

use subwarp_core::{SiConfig, Simulator, SmConfig};
use subwarp_fuzz::{build_workload, Block, LoadClass, Oracle};

#[test]
fn structured_kernels_terminate_and_are_schedule_independent() {
    // The full differential oracle over a deterministic seed range: each
    // seed's program runs under the whole baseline + SelectPolicy ×
    // DivergeOrder grid with instruction counts and memory images compared
    // bit for bit.
    let mut instructions = 0;
    for seed in 1000..1024u64 {
        let o = Oracle::Baseline.check(seed);
        if let Some(d) = o.failure {
            panic!("schedule divergence: {d}");
        }
        instructions += o.instructions;
    }
    assert!(instructions > 0);
}

#[test]
fn repeated_runs_are_deterministic() {
    let wl = subwarp_fuzz::random_workload(7);
    for si in [SiConfig::disabled(), SiConfig::best(), SiConfig::dws_like()] {
        let sim = Simulator::new(SmConfig::turing_like(), si);
        assert_eq!(sim.run(&wl).unwrap(), sim.run(&wl).unwrap());
    }
}

/// A fixed deep-nesting smoke case (3 levels of divergence with loops and
/// both memory paths) that exercises convergence-barrier handling without
/// any randomness at all.
#[test]
fn deep_nesting_smoke() {
    let block = Block::IfElse {
        split: 11,
        then_b: Box::new(Block::Loop {
            trips: 2,
            body: Box::new(Block::IfElse {
                split: 5,
                then_b: Box::new(Block::Load {
                    class: LoadClass::Global,
                    stride: 1,
                }),
                else_b: Box::new(Block::Seq(
                    Box::new(Block::Math { pad: 3 }),
                    Box::new(Block::Load {
                        class: LoadClass::Texture,
                        stride: 2,
                    }),
                )),
            }),
        }),
        else_b: Box::new(Block::IfElse {
            split: 23,
            then_b: Box::new(Block::Load {
                class: LoadClass::Texture,
                stride: 3,
            }),
            else_b: Box::new(Block::Loop {
                trips: 3,
                body: Box::new(Block::Math { pad: 5 }),
            }),
        }),
    };
    let wl = build_workload(&block, 2);
    let base = Simulator::new(SmConfig::turing_like(), SiConfig::disabled())
        .run(&wl)
        .unwrap();
    let si = Simulator::new(SmConfig::turing_like(), SiConfig::best())
        .run(&wl)
        .unwrap();
    assert_eq!(base.instructions, si.instructions);
    assert!(
        si.cycles <= base.cycles,
        "SI should help nested divergent loads"
    );
    assert!(base.divergences >= 2, "nesting must actually diverge");
}
