//! Functional (value) semantics of the ISA, evaluated per thread.
//!
//! The timing simulator in `subwarp-core` owns *when* an instruction issues;
//! this module owns *what it computes*: register updates, predicate updates,
//! branch decisions, and effective addresses. Long-latency destinations
//! (loads, texture fetches, traversal results) are written later by the
//! simulator at writeback time via [`RegFile::write_reg`].

use crate::inst::Instruction;
use crate::op::{CmpOp, MufuFunc, Op, Operand};
use crate::reg::{Barrier, Pred, Reg};

/// Architectural registers per thread (the encodable maximum; actual register
/// files are sized to what the program uses — see [`RegFile`]).
pub const N_REG: usize = 256;

/// Predicate registers per thread.
pub const N_PRED: usize = 8;

/// The side effect an instruction hands to the timing model after its
/// value-semantics have been applied to a thread.
/// Fields name the obvious datum: `dst` the destination register, `addr`
/// the effective byte address, `barrier` the convergence barrier involved.
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// No interaction with the pipeline beyond the issue slot.
    None,
    /// A direct branch; `taken` is always true here (a guard that fails
    /// suppresses the instruction entirely).
    Branch { target: usize },
    /// A load from data memory at `addr` into `dst` (written at writeback).
    Load { dst: Reg, addr: u64 },
    /// A store to data memory.
    Store { addr: u64, value: u64 },
    /// A texture fetch keyed by `addr` into `dst` (TEX writeback path).
    TexFetch { dst: Reg, addr: u64 },
    /// An RT-core traversal for ray `ray_id` into `dst`.
    TraceRay { dst: Reg, ray_id: u64 },
    /// Convergence-barrier registration (warp-level logic handles it).
    Bssy { barrier: Barrier, reconverge: usize },
    /// Convergence-barrier wait (warp-level logic handles it).
    Bsync { barrier: Barrier },
    /// Thread exit.
    Exit,
    /// Subwarp-yield scheduling hint.
    Yield,
}

/// A warp's architectural register state in register-major (SoA) layout.
///
/// One register's values across all lanes are contiguous
/// (`regs[reg * n_lanes + lane]`), so executing one instruction over a warp
/// streams through a handful of adjacent cache lines — one short row per
/// operand — instead of gathering a word from each lane's private context.
/// The file is also sized to the registers the workload can actually touch
/// (`n_regs`), not the architectural maximum [`N_REG`]: a program that names
/// 12 registers carries a 3 KiB file instead of 64 KiB, which keeps warp
/// reset and the per-instruction operand walk cache-resident.
///
/// Register values are 64-bit so that generated workloads can hold full
/// addresses; float operations use the low 32 bits (`f32`) as on real
/// hardware. `RZ` reads as 0 and discards writes; `PT` reads as true and
/// discards writes. Reading or writing a (non-`RZ`) register at or beyond
/// `n_regs` panics — by construction the timing model only passes registers
/// named by the program or its init directives, which bound `n_regs`.
#[derive(Debug, Clone, PartialEq)]
pub struct RegFile {
    n_lanes: usize,
    n_regs: usize,
    /// `[reg * n_lanes + lane]`, register-major.
    regs: Vec<u64>,
    /// `[pred * n_lanes + lane]`, predicate-major.
    preds: Vec<bool>,
}

impl RegFile {
    /// A zero-initialized register file for `n_lanes` lanes and `n_regs`
    /// registers (predicates are always [`N_PRED`] deep).
    pub fn new(n_lanes: usize, n_regs: usize) -> RegFile {
        RegFile {
            n_lanes,
            n_regs,
            regs: vec![0; n_regs * n_lanes],
            preds: vec![false; N_PRED * n_lanes],
        }
    }

    /// Lanes in this file.
    #[inline]
    pub fn n_lanes(&self) -> usize {
        self.n_lanes
    }

    /// Registers per lane in this file.
    #[inline]
    pub fn n_regs(&self) -> usize {
        self.n_regs
    }

    /// Resets every register and predicate to the launch state (zero),
    /// resizing to `n_regs` registers. Reuses the existing allocations when
    /// capacity suffices — the warp-pool relaunch path.
    pub fn reset(&mut self, n_regs: usize) {
        self.n_regs = n_regs;
        self.regs.clear();
        self.regs.resize(n_regs * self.n_lanes, 0);
        self.preds.clear();
        self.preds.resize(N_PRED * self.n_lanes, false);
    }

    /// Reads a register for `lane` (`RZ` reads as 0).
    #[inline]
    pub fn reg(&self, lane: usize, r: Reg) -> u64 {
        if r.is_zero() {
            0
        } else {
            self.regs[r.0 as usize * self.n_lanes + lane]
        }
    }

    /// Writes a register for `lane` (writes to `RZ` are discarded).
    #[inline]
    pub fn write_reg(&mut self, lane: usize, r: Reg, v: u64) {
        if !r.is_zero() {
            self.regs[r.0 as usize * self.n_lanes + lane] = v;
        }
    }

    /// Reads a predicate for `lane` (`PT` reads as true).
    #[inline]
    pub fn pred(&self, lane: usize, p: Pred) -> bool {
        if p.is_true() {
            true
        } else {
            self.preds[p.0 as usize * self.n_lanes + lane]
        }
    }

    /// Writes a predicate for `lane` (writes to `PT` are discarded).
    #[inline]
    pub fn write_pred(&mut self, lane: usize, p: Pred, v: bool) {
        if !p.is_true() {
            self.preds[p.0 as usize * self.n_lanes + lane] = v;
        }
    }

    /// Evaluates an instruction's guard for `lane`.
    #[inline]
    pub fn guard_passes(&self, lane: usize, inst: &Instruction) -> bool {
        match inst.guard {
            None => true,
            Some((p, negated)) => self.pred(lane, p) != negated,
        }
    }

    #[inline]
    fn operand(&self, lane: usize, o: &Operand, consts: &ConstMem) -> u64 {
        match *o {
            Operand::Reg(r) => self.reg(lane, r),
            Operand::Imm(v) => v as u64,
            Operand::FImm(v) => v.to_bits() as u64,
            Operand::CBank { bank, offset } => consts.get(bank, offset),
        }
    }

    #[inline]
    fn operand_f32(&self, lane: usize, o: &Operand, consts: &ConstMem) -> f32 {
        f32::from_bits(self.operand(lane, o, consts) as u32)
    }

    #[inline]
    fn reg_f32(&self, lane: usize, r: Reg) -> f32 {
        f32::from_bits(self.reg(lane, r) as u32)
    }

    /// Applies one instruction's value semantics to `lane`, assuming the
    /// guard already passed, and returns the pipeline-visible [`Effect`].
    ///
    /// ALU and MUFU results are written immediately (the timing model
    /// separately enforces their latency); long-latency destinations are left
    /// untouched until the simulator performs writeback.
    pub fn step(&mut self, lane: usize, inst: &Instruction, consts: &ConstMem) -> Effect {
        debug_assert!(self.guard_passes(lane, inst));
        match &inst.op {
            Op::Bssy { barrier, target } => Effect::Bssy {
                barrier: *barrier,
                reconverge: *target,
            },
            Op::Bsync { barrier } => Effect::Bsync { barrier: *barrier },
            Op::Bra { target } => Effect::Branch { target: *target },
            Op::Exit => Effect::Exit,
            Op::Yield => Effect::Yield,
            Op::Nop => Effect::None,
            Op::Mov { dst, src } => {
                let v = self.operand(lane, src, consts);
                self.write_reg(lane, *dst, v);
                Effect::None
            }
            Op::IAdd { dst, a, b } => {
                let v = self
                    .reg(lane, *a)
                    .wrapping_add(self.operand(lane, b, consts));
                self.write_reg(lane, *dst, v);
                Effect::None
            }
            Op::IMad { dst, a, b, c } => {
                let v = self
                    .reg(lane, *a)
                    .wrapping_mul(self.operand(lane, b, consts))
                    .wrapping_add(self.operand(lane, c, consts));
                self.write_reg(lane, *dst, v);
                Effect::None
            }
            Op::Shl { dst, a, b } => {
                let sh = self.operand(lane, b, consts) & 63;
                let v = self.reg(lane, *a) << sh;
                self.write_reg(lane, *dst, v);
                Effect::None
            }
            Op::Shr { dst, a, b } => {
                let sh = self.operand(lane, b, consts) & 63;
                let v = self.reg(lane, *a) >> sh;
                self.write_reg(lane, *dst, v);
                Effect::None
            }
            Op::And { dst, a, b } => {
                let v = self.reg(lane, *a) & self.operand(lane, b, consts);
                self.write_reg(lane, *dst, v);
                Effect::None
            }
            Op::Xor { dst, a, b } => {
                let v = self.reg(lane, *a) ^ self.operand(lane, b, consts);
                self.write_reg(lane, *dst, v);
                Effect::None
            }
            Op::FAdd { dst, a, b } => {
                let v = self.reg_f32(lane, *a) + self.operand_f32(lane, b, consts);
                self.write_reg(lane, *dst, v.to_bits() as u64);
                Effect::None
            }
            Op::FMul { dst, a, b } => {
                let v = self.reg_f32(lane, *a) * self.operand_f32(lane, b, consts);
                self.write_reg(lane, *dst, v.to_bits() as u64);
                Effect::None
            }
            Op::FFma { dst, a, b, c } => {
                let v = self.reg_f32(lane, *a).mul_add(
                    self.operand_f32(lane, b, consts),
                    self.operand_f32(lane, c, consts),
                );
                self.write_reg(lane, *dst, v.to_bits() as u64);
                Effect::None
            }
            Op::ISetp { dst, a, b, cmp } => {
                let a = self.reg(lane, *a) as i64;
                let b = self.operand(lane, b, consts) as i64;
                self.write_pred(lane, *dst, compare_i64(a, b, *cmp));
                Effect::None
            }
            Op::FSetp { dst, a, b, cmp } => {
                let a = self.reg_f32(lane, *a);
                let b = self.operand_f32(lane, b, consts);
                self.write_pred(lane, *dst, compare_f32(a, b, *cmp));
                Effect::None
            }
            Op::Mufu { dst, a, func } => {
                let x = self.reg_f32(lane, *a);
                let v = match func {
                    MufuFunc::Rcp => 1.0 / x,
                    MufuFunc::Rsq => 1.0 / x.sqrt(),
                    MufuFunc::Lg2 => x.log2(),
                    MufuFunc::Ex2 => x.exp2(),
                    MufuFunc::Sin => x.sin(),
                    MufuFunc::Cos => x.cos(),
                };
                self.write_reg(lane, *dst, v.to_bits() as u64);
                Effect::None
            }
            Op::Ldg { dst, addr, offset } | Op::Lds { dst, addr, offset } => {
                let a = self.reg(lane, *addr).wrapping_add(*offset as u64);
                Effect::Load { dst: *dst, addr: a }
            }
            Op::Stg { src, addr, offset } => {
                let a = self.reg(lane, *addr).wrapping_add(*offset as u64);
                Effect::Store {
                    addr: a,
                    value: self.reg(lane, *src),
                }
            }
            Op::Tld { dst, addr, offset } => {
                let a = self.reg(lane, *addr).wrapping_add(*offset as u64);
                Effect::TexFetch { dst: *dst, addr: a }
            }
            Op::Tex { dst, coord } => Effect::TexFetch {
                dst: *dst,
                addr: self.reg(lane, *coord),
            },
            Op::TraceRay { dst, ray } => Effect::TraceRay {
                dst: *dst,
                ray_id: self.reg(lane, *ray),
            },
        }
    }
}

/// A source operand resolved once per instruction rather than once per lane.
///
/// Immediates and constant-bank reads are lane-invariant, so the vectorized
/// execution path hoists them out of the lane loop; only register sources pay
/// a per-lane read.
#[derive(Clone, Copy)]
enum HoistedSrc {
    Scalar(u64),
    Reg(Reg),
}

impl HoistedSrc {
    #[inline]
    fn hoist(o: &Operand, consts: &ConstMem) -> HoistedSrc {
        match *o {
            Operand::Reg(r) => HoistedSrc::Reg(r),
            Operand::Imm(v) => HoistedSrc::Scalar(v as u64),
            Operand::FImm(v) => HoistedSrc::Scalar(v.to_bits() as u64),
            Operand::CBank { bank, offset } => HoistedSrc::Scalar(consts.get(bank, offset)),
        }
    }

    #[inline(always)]
    fn read(self, rf: &RegFile, lane: usize) -> u64 {
        match self {
            HoistedSrc::Scalar(v) => v,
            HoistedSrc::Reg(r) => rf.reg(lane, r),
        }
    }

    #[inline(always)]
    fn read_f32(self, rf: &RegFile, lane: usize) -> f32 {
        f32::from_bits(self.read(rf, lane) as u32)
    }
}

/// Applies one ALU-family instruction to every lane set in `mask` with a
/// single opcode dispatch, instead of re-matching the opcode per lane.
///
/// `mask` must already account for lane activity *and* the instruction guard:
/// it is exactly the set of lanes whose value semantics should run. Returns
/// `true` when the op was handled. Returns `false` — without touching any
/// state — for ops outside the vectorizable family (control flow, memory,
/// texture, RT traversal), which the caller must execute through the scalar
/// [`RegFile::step`] path; those ops produce per-lane [`Effect`]s that the
/// timing model consumes individually, so there is nothing to vectorize.
///
/// Results are bit-identical to calling [`RegFile::step`] on each masked
/// lane: every kernel below is the same arithmetic expression as the matching
/// `step` arm, with only the resolution of lane-invariant sources
/// (immediates, constant banks) hoisted out of the lane loop. With the
/// register-major [`RegFile`] layout, each operand's per-lane reads walk one
/// contiguous row. The parity property tests in `tests/alu_parity.rs` enforce
/// bit-for-bit agreement over randomized masks and operands.
pub fn step_alu_masked(rf: &mut RegFile, mask: u32, inst: &Instruction, consts: &ConstMem) -> bool {
    // Tight trailing_zeros iteration over the packed mask; `$lane` binds the
    // lane index inside each kernel.
    macro_rules! for_lanes {
        (|$lane:ident| $body:expr) => {{
            let mut m = mask;
            while m != 0 {
                let $lane = m.trailing_zeros() as usize;
                m &= m - 1;
                $body
            }
        }};
    }

    match &inst.op {
        Op::Mov { dst, src } => {
            let s = HoistedSrc::hoist(src, consts);
            for_lanes!(|lane| {
                let v = s.read(rf, lane);
                rf.write_reg(lane, *dst, v);
            });
        }
        Op::IAdd { dst, a, b } => {
            let b = HoistedSrc::hoist(b, consts);
            for_lanes!(|lane| {
                let v = rf.reg(lane, *a).wrapping_add(b.read(rf, lane));
                rf.write_reg(lane, *dst, v);
            });
        }
        Op::IMad { dst, a, b, c } => {
            let b = HoistedSrc::hoist(b, consts);
            let c = HoistedSrc::hoist(c, consts);
            for_lanes!(|lane| {
                let v = rf
                    .reg(lane, *a)
                    .wrapping_mul(b.read(rf, lane))
                    .wrapping_add(c.read(rf, lane));
                rf.write_reg(lane, *dst, v);
            });
        }
        Op::Shl { dst, a, b } => {
            let b = HoistedSrc::hoist(b, consts);
            for_lanes!(|lane| {
                let sh = b.read(rf, lane) & 63;
                let v = rf.reg(lane, *a) << sh;
                rf.write_reg(lane, *dst, v);
            });
        }
        Op::Shr { dst, a, b } => {
            let b = HoistedSrc::hoist(b, consts);
            for_lanes!(|lane| {
                let sh = b.read(rf, lane) & 63;
                let v = rf.reg(lane, *a) >> sh;
                rf.write_reg(lane, *dst, v);
            });
        }
        Op::And { dst, a, b } => {
            let b = HoistedSrc::hoist(b, consts);
            for_lanes!(|lane| {
                let v = rf.reg(lane, *a) & b.read(rf, lane);
                rf.write_reg(lane, *dst, v);
            });
        }
        Op::Xor { dst, a, b } => {
            let b = HoistedSrc::hoist(b, consts);
            for_lanes!(|lane| {
                let v = rf.reg(lane, *a) ^ b.read(rf, lane);
                rf.write_reg(lane, *dst, v);
            });
        }
        Op::FAdd { dst, a, b } => {
            let b = HoistedSrc::hoist(b, consts);
            for_lanes!(|lane| {
                let v = rf.reg_f32(lane, *a) + b.read_f32(rf, lane);
                rf.write_reg(lane, *dst, v.to_bits() as u64);
            });
        }
        Op::FMul { dst, a, b } => {
            let b = HoistedSrc::hoist(b, consts);
            for_lanes!(|lane| {
                let v = rf.reg_f32(lane, *a) * b.read_f32(rf, lane);
                rf.write_reg(lane, *dst, v.to_bits() as u64);
            });
        }
        Op::FFma { dst, a, b, c } => {
            let b = HoistedSrc::hoist(b, consts);
            let c = HoistedSrc::hoist(c, consts);
            for_lanes!(|lane| {
                let v = rf
                    .reg_f32(lane, *a)
                    .mul_add(b.read_f32(rf, lane), c.read_f32(rf, lane));
                rf.write_reg(lane, *dst, v.to_bits() as u64);
            });
        }
        Op::ISetp { dst, a, b, cmp } => {
            let b = HoistedSrc::hoist(b, consts);
            for_lanes!(|lane| {
                let av = rf.reg(lane, *a) as i64;
                let bv = b.read(rf, lane) as i64;
                rf.write_pred(lane, *dst, compare_i64(av, bv, *cmp));
            });
        }
        Op::FSetp { dst, a, b, cmp } => {
            let b = HoistedSrc::hoist(b, consts);
            for_lanes!(|lane| {
                let av = rf.reg_f32(lane, *a);
                let bv = b.read_f32(rf, lane);
                rf.write_pred(lane, *dst, compare_f32(av, bv, *cmp));
            });
        }
        Op::Mufu { dst, a, func } => {
            for_lanes!(|lane| {
                let x = rf.reg_f32(lane, *a);
                let v = match func {
                    MufuFunc::Rcp => 1.0 / x,
                    MufuFunc::Rsq => 1.0 / x.sqrt(),
                    MufuFunc::Lg2 => x.log2(),
                    MufuFunc::Ex2 => x.exp2(),
                    MufuFunc::Sin => x.sin(),
                    MufuFunc::Cos => x.cos(),
                };
                rf.write_reg(lane, *dst, v.to_bits() as u64);
            });
        }
        _ => return false,
    }
    true
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

/// Constant-bank memory (`c[bank][offset]` operands).
///
/// Unset slots read as the bit pattern of `1.0f32`, which keeps generated
/// float pipelines numerically tame without requiring every workload to
/// populate constants.
///
/// Banks are stored as dense per-bank arrays grown on demand and pre-filled
/// with the default pattern, so `get` — on the functional-execution hot path
/// of every constant operand — is two bounds-checked indexes instead of a
/// hash lookup. Equality compares *read semantics* (every slot observes the
/// same value), not representation.
#[derive(Debug, Clone, Default)]
pub struct ConstMem {
    banks: Vec<Vec<u64>>,
}

/// What unset constant slots read as: the bit pattern of `1.0f32`.
const CONST_DEFAULT: u64 = 0x3f80_0000;

impl ConstMem {
    /// An empty constant memory.
    pub fn new() -> ConstMem {
        ConstMem::default()
    }

    /// Sets `c[bank][offset]`.
    pub fn set(&mut self, bank: u8, offset: u16, value: u64) {
        let bank = bank as usize;
        if bank >= self.banks.len() {
            self.banks.resize(bank + 1, Vec::new());
        }
        let slots = &mut self.banks[bank];
        if offset as usize >= slots.len() {
            slots.resize(offset as usize + 1, CONST_DEFAULT);
        }
        slots[offset as usize] = value;
    }

    /// Reads `c[bank][offset]`; unset slots read as `1.0f32`'s bits.
    #[inline]
    pub fn get(&self, bank: u8, offset: u16) -> u64 {
        match self.banks.get(bank as usize) {
            Some(slots) => slots.get(offset as usize).copied().unwrap_or(CONST_DEFAULT),
            None => CONST_DEFAULT,
        }
    }

    /// Iterates every slot whose value differs from the unset default, as
    /// `(bank, offset, value)` in (bank, offset) order. Replaying these
    /// through [`ConstMem::set`] reconstructs a constant memory equal to
    /// this one (slots explicitly set *to* the default read identically
    /// either way) — the serialization contract the trace format relies on.
    pub fn entries(&self) -> impl Iterator<Item = (u8, u16, u64)> + '_ {
        self.banks.iter().enumerate().flat_map(|(bank, slots)| {
            slots
                .iter()
                .enumerate()
                .filter(|&(_, &v)| v != CONST_DEFAULT)
                .map(move |(offset, &v)| (bank as u8, offset as u16, v))
        })
    }
}

impl PartialEq for ConstMem {
    fn eq(&self, other: &Self) -> bool {
        let n_banks = self.banks.len().max(other.banks.len());
        for b in 0..n_banks {
            let empty: &[u64] = &[];
            let a = self.banks.get(b).map(|v| v.as_slice()).unwrap_or(empty);
            let c = other.banks.get(b).map(|v| v.as_slice()).unwrap_or(empty);
            let n = a.len().max(c.len());
            for o in 0..n {
                let av = a.get(o).copied().unwrap_or(CONST_DEFAULT);
                let cv = c.get(o).copied().unwrap_or(CONST_DEFAULT);
                if av != cv {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::Scoreboard;

    /// The lane every single-lane test runs on: not lane 0, so the
    /// register-major indexing is exercised too.
    const L: usize = 5;

    /// A warp-wide file at the architectural register count, plus empty
    /// constant banks.
    fn ctx() -> (RegFile, ConstMem) {
        (RegFile::new(32, N_REG), ConstMem::new())
    }

    #[test]
    fn rz_reads_zero_and_discards_writes() {
        let (mut t, _) = ctx();
        t.write_reg(L, Reg::RZ, 42);
        assert_eq!(t.reg(L, Reg::RZ), 0);
    }

    #[test]
    fn pt_reads_true_and_discards_writes() {
        let (mut t, _) = ctx();
        t.write_pred(L, Pred::PT, false);
        assert!(t.pred(L, Pred::PT));
    }

    #[test]
    fn regfile_rows_are_independent_per_lane() {
        let mut rf = RegFile::new(4, 8);
        for lane in 0..4 {
            rf.write_reg(lane, Reg(3), 100 + lane as u64);
        }
        for lane in 0..4 {
            assert_eq!(rf.reg(lane, Reg(3)), 100 + lane as u64);
            assert_eq!(rf.reg(lane, Reg(4)), 0);
        }
        rf.write_reg(2, Reg::RZ, 7);
        assert_eq!(rf.reg(2, Reg::RZ), 0);
        rf.reset(8);
        for lane in 0..4 {
            assert_eq!(rf.reg(lane, Reg(3)), 0);
        }
    }

    #[test]
    fn integer_math() {
        let (mut t, c) = ctx();
        t.write_reg(L, Reg(1), 10);
        t.step(
            L,
            &Op::IAdd {
                dst: Reg(0),
                a: Reg(1),
                b: Operand::imm(5),
            }
            .into(),
            &c,
        );
        assert_eq!(t.reg(L, Reg(0)), 15);
        t.step(
            L,
            &Op::IMad {
                dst: Reg(2),
                a: Reg(1),
                b: Operand::imm(3),
                c: Operand::imm(7),
            }
            .into(),
            &c,
        );
        assert_eq!(t.reg(L, Reg(2)), 37);
        t.step(
            L,
            &Op::Shl {
                dst: Reg(3),
                a: Reg(1),
                b: Operand::imm(2),
            }
            .into(),
            &c,
        );
        assert_eq!(t.reg(L, Reg(3)), 40);
    }

    #[test]
    fn float_math_uses_low_32_bits() {
        let (mut t, c) = ctx();
        t.write_reg(L, Reg(1), 2.5f32.to_bits() as u64);
        t.step(
            L,
            &Op::FMul {
                dst: Reg(0),
                a: Reg(1),
                b: Operand::fimm(4.0),
            }
            .into(),
            &c,
        );
        assert_eq!(f32::from_bits(t.reg(L, Reg(0)) as u32), 10.0);
        t.step(
            L,
            &Op::FFma {
                dst: Reg(2),
                a: Reg(1),
                b: Operand::fimm(2.0),
                c: Operand::fimm(1.0),
            }
            .into(),
            &c,
        );
        assert_eq!(f32::from_bits(t.reg(L, Reg(2)) as u32), 6.0);
    }

    #[test]
    fn isetp_sets_predicates() {
        let (mut t, c) = ctx();
        t.write_reg(L, Reg(1), 7);
        t.step(
            L,
            &Op::ISetp {
                dst: Pred(0),
                a: Reg(1),
                b: Operand::imm(7),
                cmp: CmpOp::Eq,
            }
            .into(),
            &c,
        );
        assert!(t.pred(L, Pred(0)));
        t.step(
            L,
            &Op::ISetp {
                dst: Pred(1),
                a: Reg(1),
                b: Operand::imm(3),
                cmp: CmpOp::Lt,
            }
            .into(),
            &c,
        );
        assert!(!t.pred(L, Pred(1)));
    }

    #[test]
    fn guard_evaluation() {
        let (mut t, _) = ctx();
        t.write_pred(L, Pred(0), true);
        let i = Instruction::new(Op::Nop).with_guard(Pred(0), false);
        assert!(t.guard_passes(L, &i));
        let i = Instruction::new(Op::Nop).with_guard(Pred(0), true);
        assert!(!t.guard_passes(L, &i));
        let i = Instruction::new(Op::Nop);
        assert!(t.guard_passes(L, &i));
    }

    #[test]
    fn load_computes_effective_address_without_writing_dst() {
        let (mut t, c) = ctx();
        t.write_reg(L, Reg(1), 0x1000);
        t.write_reg(L, Reg(2), 0xdead);
        let e = t.step(
            L,
            &Instruction::new(Op::Ldg {
                dst: Reg(2),
                addr: Reg(1),
                offset: 0x20,
            })
            .with_wr_sb(Scoreboard(0)),
            &c,
        );
        assert_eq!(
            e,
            Effect::Load {
                dst: Reg(2),
                addr: 0x1020
            }
        );
        // dst untouched until writeback.
        assert_eq!(t.reg(L, Reg(2)), 0xdead);
    }

    #[test]
    fn control_effects() {
        let (mut t, c) = ctx();
        assert_eq!(
            t.step(
                L,
                &Op::Bssy {
                    barrier: Barrier(0),
                    target: 9
                }
                .into(),
                &c
            ),
            Effect::Bssy {
                barrier: Barrier(0),
                reconverge: 9
            }
        );
        assert_eq!(
            t.step(
                L,
                &Op::Bsync {
                    barrier: Barrier(0)
                }
                .into(),
                &c
            ),
            Effect::Bsync {
                barrier: Barrier(0)
            }
        );
        assert_eq!(
            t.step(L, &Op::Bra { target: 3 }.into(), &c),
            Effect::Branch { target: 3 }
        );
        assert_eq!(t.step(L, &Op::Exit.into(), &c), Effect::Exit);
        assert_eq!(t.step(L, &Op::Yield.into(), &c), Effect::Yield);
    }

    #[test]
    fn trace_ray_carries_ray_id() {
        let (mut t, c) = ctx();
        t.write_reg(L, Reg(4), 1234);
        let e = t.step(
            L,
            &Op::TraceRay {
                dst: Reg(5),
                ray: Reg(4),
            }
            .into(),
            &c,
        );
        assert_eq!(
            e,
            Effect::TraceRay {
                dst: Reg(5),
                ray_id: 1234
            }
        );
    }

    #[test]
    fn const_bank_defaults_to_one() {
        let (mut t, mut c) = ctx();
        t.write_reg(L, Reg(5), 3.0f32.to_bits() as u64);
        t.step(
            L,
            &Op::FMul {
                dst: Reg(10),
                a: Reg(5),
                b: Operand::cbank(1, 16),
            }
            .into(),
            &c,
        );
        assert_eq!(f32::from_bits(t.reg(L, Reg(10)) as u32), 3.0);
        c.set(1, 16, 2.0f32.to_bits() as u64);
        t.step(
            L,
            &Op::FMul {
                dst: Reg(10),
                a: Reg(5),
                b: Operand::cbank(1, 16),
            }
            .into(),
            &c,
        );
        assert_eq!(f32::from_bits(t.reg(L, Reg(10)) as u32), 6.0);
    }

    #[test]
    fn mufu_rcp() {
        let (mut t, c) = ctx();
        t.write_reg(L, Reg(1), 4.0f32.to_bits() as u64);
        t.step(
            L,
            &Op::Mufu {
                dst: Reg(0),
                a: Reg(1),
                func: MufuFunc::Rcp,
            }
            .into(),
            &c,
        );
        assert_eq!(f32::from_bits(t.reg(L, Reg(0)) as u32), 0.25);
    }
}
