//! Property tests: the mask-vectorized ALU executor ([`step_alu_masked`]),
//! the ISA's only definition of ALU/MUFU semantics, must be bit-identical
//! to an independent per-lane reference ([`reference_step`], below) for
//! every operation it claims, over adversarial values (NaNs, denormals,
//! infinities, signed-overflow integers) and adversarial masks (full,
//! empty, single-lane, sparse, dense).
//!
//! The reference resolves every operand per lane, constant banks included,
//! and dispatches the opcode once per lane; the executor hoists
//! lane-invariant sources and dispatches once per warp. Agreement between
//! the two formulations is what pins the arithmetic: the simulator runs
//! only the executor, so `figures all` rests on this property.

use subwarp_isa::{
    step_alu_masked, Barrier, CmpOp, ConstMem, Instruction, MufuFunc, Op, Operand, Pred, Reg,
    RegFile, N_PRED,
};

const N_LANES: usize = 32;
const N_REGS: usize = 16;

fn operand(rf: &RegFile, lane: usize, o: &Operand, consts: &ConstMem) -> u64 {
    match *o {
        Operand::Reg(r) => rf.reg(lane, r),
        Operand::Imm(v) => v as u64,
        Operand::FImm(v) => v.to_bits() as u64,
        Operand::CBank { bank, offset } => consts.get(bank, offset),
    }
}

fn operand_f32(rf: &RegFile, lane: usize, o: &Operand, consts: &ConstMem) -> f32 {
    f32::from_bits(operand(rf, lane, o, consts) as u32)
}

fn reg_f32(rf: &RegFile, lane: usize, r: Reg) -> f32 {
    f32::from_bits(rf.reg(lane, r) as u32)
}

fn compare_i64(a: i64, b: i64, cmp: CmpOp) -> bool {
    match cmp {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    }
}

fn compare_f32(a: f32, b: f32, cmp: CmpOp) -> bool {
    match cmp {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    }
}

/// The per-lane reference: applies one ALU/MUFU instruction's value
/// semantics to `lane` alone, resolving every operand for that lane.
fn reference_step(rf: &mut RegFile, lane: usize, inst: &Instruction, consts: &ConstMem) {
    match &inst.op {
        Op::Mov { dst, src } => {
            let v = operand(rf, lane, src, consts);
            rf.write_reg(lane, *dst, v);
        }
        Op::IAdd { dst, a, b } => {
            let v = rf.reg(lane, *a).wrapping_add(operand(rf, lane, b, consts));
            rf.write_reg(lane, *dst, v);
        }
        Op::IMad { dst, a, b, c } => {
            let v = rf
                .reg(lane, *a)
                .wrapping_mul(operand(rf, lane, b, consts))
                .wrapping_add(operand(rf, lane, c, consts));
            rf.write_reg(lane, *dst, v);
        }
        Op::Shl { dst, a, b } => {
            let sh = operand(rf, lane, b, consts) & 63;
            let v = rf.reg(lane, *a) << sh;
            rf.write_reg(lane, *dst, v);
        }
        Op::Shr { dst, a, b } => {
            let sh = operand(rf, lane, b, consts) & 63;
            let v = rf.reg(lane, *a) >> sh;
            rf.write_reg(lane, *dst, v);
        }
        Op::And { dst, a, b } => {
            let v = rf.reg(lane, *a) & operand(rf, lane, b, consts);
            rf.write_reg(lane, *dst, v);
        }
        Op::Xor { dst, a, b } => {
            let v = rf.reg(lane, *a) ^ operand(rf, lane, b, consts);
            rf.write_reg(lane, *dst, v);
        }
        Op::FAdd { dst, a, b } => {
            let v = reg_f32(rf, lane, *a) + operand_f32(rf, lane, b, consts);
            rf.write_reg(lane, *dst, v.to_bits() as u64);
        }
        Op::FMul { dst, a, b } => {
            let v = reg_f32(rf, lane, *a) * operand_f32(rf, lane, b, consts);
            rf.write_reg(lane, *dst, v.to_bits() as u64);
        }
        Op::FFma { dst, a, b, c } => {
            let v = reg_f32(rf, lane, *a).mul_add(
                operand_f32(rf, lane, b, consts),
                operand_f32(rf, lane, c, consts),
            );
            rf.write_reg(lane, *dst, v.to_bits() as u64);
        }
        Op::ISetp { dst, a, b, cmp } => {
            let a = rf.reg(lane, *a) as i64;
            let b = operand(rf, lane, b, consts) as i64;
            rf.write_pred(lane, *dst, compare_i64(a, b, *cmp));
        }
        Op::FSetp { dst, a, b, cmp } => {
            let a = reg_f32(rf, lane, *a);
            let b = operand_f32(rf, lane, b, consts);
            rf.write_pred(lane, *dst, compare_f32(a, b, *cmp));
        }
        Op::Mufu { dst, a, func } => {
            let x = reg_f32(rf, lane, *a);
            let v = match func {
                MufuFunc::Rcp => 1.0 / x,
                MufuFunc::Rsq => 1.0 / x.sqrt(),
                MufuFunc::Lg2 => x.log2(),
                MufuFunc::Ex2 => x.exp2(),
                MufuFunc::Sin => x.sin(),
                MufuFunc::Cos => x.cos(),
            };
            rf.write_reg(lane, *dst, v.to_bits() as u64);
        }
        _ => panic!("reference_step: {inst} is not an ALU/MUFU op"),
    }
}

fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Adversarial 64-bit values: float edge cases live in the low 32 bits,
/// where the f32 ALU ops read them.
fn pick_value(s: &mut u64) -> u64 {
    const POOL: &[u64] = &[
        0,
        1,
        u64::MAX,
        i64::MIN as u64,
        i64::MAX as u64,
        (-7i64) as u64,
        0x7fc0_0000,           // quiet NaN
        0x7f80_0001,           // signaling NaN
        0xffc0_0001,           // negative NaN with payload
        0x7f80_0000,           // +inf
        0xff80_0000,           // -inf
        0x0000_0001,           // smallest positive denormal
        0x007f_ffff,           // largest denormal
        0x8000_0001,           // smallest negative denormal
        0x8000_0000,           // -0.0
        0x3f80_0000,           // 1.0
        0x3400_0000,           // tiny normal (underflows when multiplied)
        0x7f7f_ffff,           // f32::MAX (overflows to inf when doubled)
        0xdead_beef_cafe_f00d, // garbage in the high half
    ];
    let r = splitmix64(s);
    if r & 1 == 0 {
        POOL[(r >> 1) as usize % POOL.len()]
    } else {
        splitmix64(s)
    }
}

fn pick_reg(s: &mut u64) -> Reg {
    // Mostly real registers, occasionally RZ (reads 0, writes discarded).
    if splitmix64(s).is_multiple_of(8) {
        Reg::RZ
    } else {
        Reg((splitmix64(s) % N_REGS as u64) as u8)
    }
}

fn pick_operand(s: &mut u64) -> Operand {
    match splitmix64(s) % 4 {
        0 => Operand::Reg(pick_reg(s)),
        1 => Operand::Imm(pick_value(s) as i64),
        2 => Operand::FImm(f32::from_bits(pick_value(s) as u32)),
        _ => Operand::CBank {
            bank: (splitmix64(s) % 2) as u8,
            offset: (splitmix64(s) % 8) as u16,
        },
    }
}

fn pick_cmp(s: &mut u64) -> CmpOp {
    [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ][(splitmix64(s) % 6) as usize]
}

/// One random operation from the family `step_alu_masked` claims.
fn pick_alu_op(s: &mut u64) -> Op {
    let dst = pick_reg(s);
    let a = pick_reg(s);
    let b = pick_operand(s);
    match splitmix64(s) % 13 {
        0 => Op::Mov {
            dst,
            src: pick_operand(s),
        },
        1 => Op::IAdd { dst, a, b },
        2 => Op::IMad {
            dst,
            a,
            b,
            c: pick_operand(s),
        },
        3 => Op::Shl { dst, a, b },
        4 => Op::Shr { dst, a, b },
        5 => Op::And { dst, a, b },
        6 => Op::Xor { dst, a, b },
        7 => Op::FAdd { dst, a, b },
        8 => Op::FMul { dst, a, b },
        9 => Op::FFma {
            dst,
            a,
            b,
            c: pick_operand(s),
        },
        10 => Op::ISetp {
            dst: Pred((splitmix64(s) % N_PRED as u64) as u8),
            a,
            b,
            cmp: pick_cmp(s),
        },
        11 => Op::FSetp {
            dst: Pred((splitmix64(s) % N_PRED as u64) as u8),
            a,
            b,
            cmp: pick_cmp(s),
        },
        _ => Op::Mufu {
            dst,
            a,
            func: [
                MufuFunc::Rcp,
                MufuFunc::Rsq,
                MufuFunc::Lg2,
                MufuFunc::Ex2,
                MufuFunc::Sin,
                MufuFunc::Cos,
            ][(splitmix64(s) % 6) as usize],
        },
    }
}

fn pick_mask(s: &mut u64) -> u32 {
    match splitmix64(s) % 6 {
        0 => u32::MAX,
        1 => 0,
        2 => 1 << (splitmix64(s) % 32),            // single lane
        3 => (splitmix64(s) as u32) & 0x1111_1111, // sparse
        4 => (splitmix64(s) as u32) | (splitmix64(s) as u32), // dense
        _ => splitmix64(s) as u32,
    }
}

fn random_regfile(s: &mut u64) -> RegFile {
    let mut rf = RegFile::new(N_LANES, N_REGS);
    for lane in 0..N_LANES {
        for r in 0..N_REGS as u8 {
            rf.write_reg(lane, Reg(r), pick_value(s));
        }
        for p in 0..N_PRED as u8 {
            rf.write_pred(lane, Pred(p), splitmix64(s) & 1 == 1);
        }
    }
    rf
}

fn test_consts() -> ConstMem {
    let mut c = ConstMem::new();
    c.set(0, 0, 0x7fc0_0000); // NaN in a constant bank
    c.set(0, 3, (-1i64) as u64);
    c.set(1, 2, 0x0000_0001); // denormal
    c.set(1, 5, 0x4049_0fdb); // pi-ish
    c
}

fn lanes(mask: u32) -> impl Iterator<Item = usize> {
    (0..32).filter(move |l| mask & (1 << l) != 0)
}

/// The core property: for every claimed op and any mask, the vectorized
/// path leaves the register file bit-identical to per-lane reference stepping,
/// and lanes outside the mask are untouched.
#[test]
fn vectorized_matches_scalar_reference() {
    let consts = test_consts();
    let mut s = 0x5eed_0001u64;
    for trial in 0..4000 {
        let inst = Instruction::new(pick_alu_op(&mut s));
        let mask = pick_mask(&mut s);
        let start = random_regfile(&mut s);

        let mut vectorized = start.clone();
        let claimed = step_alu_masked(&mut vectorized, mask, &inst, &consts);
        assert!(
            claimed,
            "trial {trial}: step_alu_masked refused ALU-family op {inst}"
        );

        let mut scalar = start.clone();
        for lane in lanes(mask) {
            reference_step(&mut scalar, lane, &inst, &consts);
        }
        assert_eq!(
            vectorized, scalar,
            "trial {trial}: vectorized and scalar register files diverge \
             after {inst} under mask {mask:#010x}"
        );

        if mask == 0 {
            assert_eq!(
                vectorized, start,
                "trial {trial}: empty mask must not change any state ({inst})"
            );
        }
    }
}

/// Full-mask and single-lane runs of the same op from the same state agree
/// lane-by-lane: vectorization must not introduce cross-lane coupling.
#[test]
fn full_mask_equals_lane_by_lane_composition() {
    let consts = test_consts();
    let mut s = 0xfeed_0002u64;
    for _ in 0..1000 {
        let inst = Instruction::new(pick_alu_op(&mut s));
        let start = random_regfile(&mut s);

        let mut all_at_once = start.clone();
        assert!(step_alu_masked(&mut all_at_once, u32::MAX, &inst, &consts));

        let mut one_by_one = start.clone();
        for lane in 0..N_LANES {
            assert!(step_alu_masked(&mut one_by_one, 1 << lane, &inst, &consts));
        }
        assert_eq!(all_at_once, one_by_one);
    }
}

/// Ops outside the ALU family are refused without touching state, so the
/// caller's per-lane memory path sees pristine inputs.
#[test]
fn non_alu_ops_are_refused_untouched() {
    let consts = test_consts();
    let mut s = 0xabcd_0003u64;
    let start = random_regfile(&mut s);
    let non_alu = [
        Op::Nop,
        Op::Exit,
        Op::Yield,
        Op::Bra { target: 3 },
        Op::Ldg {
            dst: Reg(1),
            addr: Reg(0),
            offset: 8,
        },
        Op::Stg {
            src: Reg(2),
            addr: Reg(0),
            offset: 0,
        },
        Op::Lds {
            dst: Reg(1),
            addr: Reg(0),
            offset: 0,
        },
        Op::Tld {
            dst: Reg(1),
            addr: Reg(0),
            offset: 0,
        },
        Op::Tex {
            dst: Reg(1),
            coord: Reg(0),
        },
        Op::TraceRay {
            dst: Reg(1),
            ray: Reg(0),
        },
        Op::Bssy {
            barrier: Barrier(0),
            target: 3,
        },
        Op::Bsync {
            barrier: Barrier(0),
        },
    ];
    for op in non_alu {
        let inst = Instruction::new(op);
        let mut rf = start.clone();
        assert!(
            !step_alu_masked(&mut rf, u32::MAX, &inst, &consts),
            "non-ALU op {inst} must be refused"
        );
        assert_eq!(rf, start, "refused op {inst} must not touch the file");
    }
}

/// NaN propagation specifically: quiet/signaling NaN inputs through the
/// float ops produce bit-identical results on both paths (the property
/// would fail if vectorization ever canonicalized NaNs differently).
#[test]
fn nan_and_denormal_floats_bit_identical() {
    let consts = test_consts();
    let specials: [u32; 8] = [
        0x7fc0_0000, // qNaN
        0x7f80_0001, // sNaN
        0xffc0_0001, // -NaN payload
        0x7f80_0000, // +inf
        0xff80_0000, // -inf
        0x0000_0001, // denormal
        0x8000_0000, // -0.0
        0x007f_ffff, // largest denormal
    ];
    let float_ops: Vec<Op> = vec![
        Op::FAdd {
            dst: Reg(2),
            a: Reg(0),
            b: Operand::reg(1),
        },
        Op::FMul {
            dst: Reg(2),
            a: Reg(0),
            b: Operand::reg(1),
        },
        Op::FFma {
            dst: Reg(2),
            a: Reg(0),
            b: Operand::reg(1),
            c: Operand::reg(3),
        },
        Op::FSetp {
            dst: Pred(0),
            a: Reg(0),
            b: Operand::reg(1),
            cmp: CmpOp::Lt,
        },
        Op::Mufu {
            dst: Reg(2),
            a: Reg(0),
            func: MufuFunc::Rsq,
        },
    ];
    for op in float_ops {
        let inst = Instruction::new(op);
        let mut rf = RegFile::new(N_LANES, N_REGS);
        // Each lane gets a different pairing of special values.
        for lane in 0..N_LANES {
            rf.write_reg(lane, Reg(0), specials[lane % specials.len()] as u64);
            rf.write_reg(lane, Reg(1), specials[(lane / 8) % specials.len()] as u64);
            rf.write_reg(lane, Reg(3), specials[(lane + 3) % specials.len()] as u64);
        }
        let mut vectorized = rf.clone();
        assert!(step_alu_masked(&mut vectorized, u32::MAX, &inst, &consts));
        let mut scalar = rf.clone();
        for lane in 0..N_LANES {
            reference_step(&mut scalar, lane, &inst, &consts);
        }
        assert_eq!(
            vectorized, scalar,
            "float special values diverged on {inst}"
        );
    }
}
