//! Quickstart: author the paper's Figure 9 kernel by hand, run it on the
//! baseline SM and on a Subwarp-Interleaving SM, and watch the two divergent
//! load-to-use stalls overlap.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use subwarp_interleaving::core::{
    EventKind, EventRecorder, InitValue, SelectPolicy, SiConfig, Simulator, SmConfig, Workload,
};
use subwarp_interleaving::isa::{Barrier, CmpOp, Operand, Pred, ProgramBuilder, Reg, Scoreboard};

fn main() {
    // --- 1. Author a divergent kernel (the paper's Figure 9) -------------
    // Lane 0 takes the TEX path, lane 1 the TLD path; each path suffers a
    // load-to-use stall on a compulsory L1D miss.
    let mut b = ProgramBuilder::new();
    let else_ = b.label("Else");
    let sync = b.label("syncPoint");
    b.isetp(Pred(0), Reg(0), Operand::imm(1), CmpOp::Lt); // P0 = (lane == 0)
    b.bssy(Barrier(0), sync);
    b.bra(else_).pred(Pred(0), false);
    b.tld(Reg(2), Reg(4)).wr_sb(Scoreboard(5)); //   TLD R2 … &wr=sb5
    b.fmul(Reg(10), Reg(5), Operand::cbank(1, 16));
    b.fmul(Reg(2), Reg(2), Operand::reg(10))
        .req_sb(Scoreboard(5)); // stall
    b.bra(sync);
    b.place(else_);
    b.tex(Reg(1), Reg(6)).wr_sb(Scoreboard(2)); //   TEX R1 … &wr=sb2
    b.fadd(Reg(1), Reg(1), Operand::reg(3))
        .req_sb(Scoreboard(2)); // stall
    b.bra(sync);
    b.place(sync);
    b.bsync(Barrier(0));
    b.exit();
    let program = b.build().expect("figure 9 is a valid program");
    println!("megakernel fragment:\n{program}");

    // --- 2. Wrap it in a workload ----------------------------------------
    let wl = Workload::new("quickstart", program, 1)
        .with_threads_per_warp(2)
        .with_init(Reg(0), InitValue::LaneId)
        .with_init(Reg(4), InitValue::Const(0x10_000))
        .with_init(Reg(6), InitValue::Const(0x20_000));

    // --- 3. Run baseline vs Subwarp Interleaving --------------------------
    let base = Simulator::new(SmConfig::turing_like(), SiConfig::disabled())
        .run(&wl)
        .unwrap();
    let mut events = EventRecorder::new();
    let si = Simulator::new(
        SmConfig::turing_like(),
        SiConfig::sos(SelectPolicy::AnyStalled),
    )
    .run_profiled(&wl, &mut events)
    .unwrap();

    println!(
        "baseline            : {:>6} cycles ({} exposed stall cycles)",
        base.cycles,
        base.exposed_load_stalls()
    );
    println!(
        "subwarp interleaving: {:>6} cycles ({} exposed stall cycles)",
        si.cycles,
        si.exposed_load_stalls()
    );
    println!(
        "speedup             : {:.2}x  (the two ~600-cycle misses overlap)",
        si.speedup_vs(&base)
    );

    // --- 4. Replay the thread-status transitions (paper Figure 10a) ------
    println!("\nsubwarp scheduler events:");
    for e in events.events() {
        let what = match e.kind {
            EventKind::Diverge => "warp splinters into subwarps",
            EventKind::Stall => "subwarp-stall: demoted on load-to-use stall",
            EventKind::Wakeup => "subwarp-wakeup: scoreboards cleared",
            EventKind::Select => "subwarp-select: READY subwarp activated",
            EventKind::Yield => "subwarp-yield",
            EventKind::Block => "blocked at BSYNC",
            EventKind::Reconverge => "barrier release: reconverged",
            EventKind::Exit => "threads exited",
        };
        println!(
            "  cycle {:>5}  mask {:#04b}  pc {:>2}  {what}",
            e.cycle, e.mask, e.pc
        );
    }
}
