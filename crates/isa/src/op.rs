//! Operation definitions and static classification.

use crate::reg::{Barrier, Pred, Reg};
use std::fmt;

/// A source operand: a register, an immediate, or a constant-bank slot
/// (`c[bank][offset]`, as in the paper's Figure 9 `FMUL R10, R5, c[1][16]`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Operand {
    /// A vector register.
    Reg(Reg),
    /// A 32-bit immediate, stored sign-extended.
    Imm(i64),
    /// A 32-bit float immediate.
    FImm(f32),
    /// A constant-bank slot `c[bank][offset]`.
    CBank {
        /// Constant bank index.
        bank: u8,
        /// Byte offset within the bank.
        offset: u16,
    },
}

impl Operand {
    /// Shorthand for a register operand.
    pub fn reg(r: u8) -> Operand {
        Operand::Reg(Reg(r))
    }

    /// Shorthand for an integer immediate operand.
    pub fn imm(v: i64) -> Operand {
        Operand::Imm(v)
    }

    /// Shorthand for a float immediate operand.
    pub fn fimm(v: f32) -> Operand {
        Operand::FImm(v)
    }

    /// Shorthand for a constant-bank operand.
    pub fn cbank(bank: u8, offset: u16) -> Operand {
        Operand::CBank { bank, offset }
    }

    /// The register read by this operand, if any.
    pub fn src_reg(&self) -> Option<Reg> {
        match *self {
            Operand::Reg(r) => Some(r),
            _ => None,
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Operand {
        Operand::Reg(r)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "{v:#x}"),
            Operand::FImm(v) => write!(f, "{v}"),
            Operand::CBank { bank, offset } => write!(f, "c[{bank}][{offset}]"),
        }
    }
}

/// Integer/float comparison operators for `ISETP`/`FSETP`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "EQ",
            CmpOp::Ne => "NE",
            CmpOp::Lt => "LT",
            CmpOp::Le => "LE",
            CmpOp::Gt => "GT",
            CmpOp::Ge => "GE",
        };
        f.write_str(s)
    }
}

/// Multi-function (transcendental) unit operations for `MUFU`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MufuFunc {
    /// Reciprocal.
    Rcp,
    /// Reciprocal square root.
    Rsq,
    /// Base-2 logarithm.
    Lg2,
    /// Base-2 exponential.
    Ex2,
    /// Sine.
    Sin,
    /// Cosine.
    Cos,
}

impl fmt::Display for MufuFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MufuFunc::Rcp => "RCP",
            MufuFunc::Rsq => "RSQ",
            MufuFunc::Lg2 => "LG2",
            MufuFunc::Ex2 => "EX2",
            MufuFunc::Sin => "SIN",
            MufuFunc::Cos => "COS",
        };
        f.write_str(s)
    }
}

/// The execution unit an operation issues to. Determines latency class and
/// writeback path (the paper's Figure 8b distinguishes LSU and TEX writeback
/// broadcasts; `TraceRay` goes to the RT core).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecUnit {
    /// Integer/float ALU (fixed short latency).
    Alu,
    /// Multi-function unit for transcendentals (shared, longer latency).
    Mufu,
    /// Load/store unit — global and shared memory.
    Lsu,
    /// Texture unit.
    Tex,
    /// RT core (BVH traversal accelerator).
    RtCore,
    /// Control (branches, barriers, exit); consumes an issue slot only.
    Control,
}

/// An operation with its operands.
///
/// This is the SASS-like subset required by the paper's workloads: Figure 9's
/// listing (`BSSY`/`BSYNC`/`BRA`/`TLD`/`TEX`/`FMUL`/`FADD` with scoreboard
/// annotations), the Figure 11 microbenchmark (integer address math, `LDG`,
/// loops), and the raytracing megakernel (`TraceRay`, switch dispatch).
/// Operand fields follow SASS conventions throughout: `dst` is the written
/// register, `a` the first (register) source, `b`/`c` further operands,
/// `addr`+`offset` an effective address, and `target` a resolved pc.
#[allow(missing_docs)]
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    // --- control ---
    /// `BSSY Bx, target`: all active threads register in convergence barrier
    /// `Bx`; `target` is the reconvergence point.
    Bssy { barrier: Barrier, target: usize },
    /// `BSYNC Bx`: wait until every thread participating in `Bx` is blocked
    /// here or has exited, then reconverge.
    Bsync { barrier: Barrier },
    /// Direct branch (possibly predicated via the instruction's guard).
    Bra { target: usize },
    /// Thread exit.
    Exit,
    /// Subwarp-yield scheduling hint (paper §III-B: "an explicit software
    /// instruction, encoded as a scheduling hint"). A no-op on baseline
    /// hardware.
    Yield,
    /// No operation.
    Nop,

    // --- ALU ---
    /// Register/immediate move.
    Mov { dst: Reg, src: Operand },
    /// Integer add: `dst = a + b`.
    IAdd { dst: Reg, a: Reg, b: Operand },
    /// Integer multiply-add: `dst = a * b + c`.
    IMad {
        dst: Reg,
        a: Reg,
        b: Operand,
        c: Operand,
    },
    /// Logical shift left: `dst = a << b`.
    Shl { dst: Reg, a: Reg, b: Operand },
    /// Logical shift right: `dst = a >> b`.
    Shr { dst: Reg, a: Reg, b: Operand },
    /// Bitwise and: `dst = a & b`.
    And { dst: Reg, a: Reg, b: Operand },
    /// Bitwise xor: `dst = a ^ b`.
    Xor { dst: Reg, a: Reg, b: Operand },
    /// Float add: `dst = a + b`.
    FAdd { dst: Reg, a: Reg, b: Operand },
    /// Float multiply: `dst = a * b`.
    FMul { dst: Reg, a: Reg, b: Operand },
    /// Fused multiply-add: `dst = a * b + c`.
    FFma {
        dst: Reg,
        a: Reg,
        b: Operand,
        c: Operand,
    },
    /// Integer compare, setting a predicate.
    ISetp {
        dst: Pred,
        a: Reg,
        b: Operand,
        cmp: CmpOp,
    },
    /// Float compare, setting a predicate.
    FSetp {
        dst: Pred,
        a: Reg,
        b: Operand,
        cmp: CmpOp,
    },

    // --- MUFU ---
    /// Transcendental: `dst = func(a)`.
    Mufu { dst: Reg, a: Reg, func: MufuFunc },

    // --- memory (long latency; must carry scoreboard annotations) ---
    /// Global load: `dst = mem[a + offset]` via the LSU.
    Ldg { dst: Reg, addr: Reg, offset: i64 },
    /// Global store: `mem[a + offset] = src` (fire and forget).
    Stg { src: Reg, addr: Reg, offset: i64 },
    /// Shared-memory load (short fixed latency, LSU path).
    Lds { dst: Reg, addr: Reg, offset: i64 },
    /// Texture load by address (the paper's `TLD`), TEX writeback path.
    Tld { dst: Reg, addr: Reg, offset: i64 },
    /// Texture fetch by coordinate (the paper's `TEX`), TEX writeback path.
    Tex { dst: Reg, coord: Reg },

    // --- RT core ---
    /// Asynchronous BVH traversal: `dst` receives the hit record (shader id)
    /// for the ray identified by the value in `ray`.
    TraceRay { dst: Reg, ray: Reg },
}

impl Op {
    /// The unit this operation executes on.
    pub fn unit(&self) -> ExecUnit {
        match self {
            Op::Bssy { .. }
            | Op::Bsync { .. }
            | Op::Bra { .. }
            | Op::Exit
            | Op::Yield
            | Op::Nop => ExecUnit::Control,
            Op::Mov { .. }
            | Op::IAdd { .. }
            | Op::IMad { .. }
            | Op::Shl { .. }
            | Op::Shr { .. }
            | Op::And { .. }
            | Op::Xor { .. }
            | Op::FAdd { .. }
            | Op::FMul { .. }
            | Op::FFma { .. }
            | Op::ISetp { .. }
            | Op::FSetp { .. } => ExecUnit::Alu,
            Op::Mufu { .. } => ExecUnit::Mufu,
            Op::Ldg { .. } | Op::Stg { .. } | Op::Lds { .. } => ExecUnit::Lsu,
            Op::Tld { .. } | Op::Tex { .. } => ExecUnit::Tex,
            Op::TraceRay { .. } => ExecUnit::RtCore,
        }
    }

    /// True for operations with variable long latency that must be guarded
    /// by a counted scoreboard (`LDG`, `TLD`, `TEX`, `TraceRay`).
    pub fn is_long_latency(&self) -> bool {
        matches!(
            self,
            Op::Ldg { .. } | Op::Tld { .. } | Op::Tex { .. } | Op::TraceRay { .. }
        )
    }

    /// True for operations that access data memory (loads/stores, not TEX
    /// coordinate fetches or RT traversals).
    pub fn is_memory(&self) -> bool {
        matches!(
            self,
            Op::Ldg { .. } | Op::Stg { .. } | Op::Lds { .. } | Op::Tld { .. } | Op::Tex { .. }
        )
    }

    /// The destination register written by this operation, if any.
    pub fn dst_reg(&self) -> Option<Reg> {
        match *self {
            Op::Mov { dst, .. }
            | Op::IAdd { dst, .. }
            | Op::IMad { dst, .. }
            | Op::Shl { dst, .. }
            | Op::Shr { dst, .. }
            | Op::And { dst, .. }
            | Op::Xor { dst, .. }
            | Op::FAdd { dst, .. }
            | Op::FMul { dst, .. }
            | Op::FFma { dst, .. }
            | Op::Mufu { dst, .. }
            | Op::Ldg { dst, .. }
            | Op::Lds { dst, .. }
            | Op::Tld { dst, .. }
            | Op::Tex { dst, .. }
            | Op::TraceRay { dst, .. } => {
                if dst.is_zero() {
                    None
                } else {
                    Some(dst)
                }
            }
            _ => None,
        }
    }

    /// The destination predicate written by this operation, if any.
    pub fn dst_pred(&self) -> Option<Pred> {
        match *self {
            Op::ISetp { dst, .. } | Op::FSetp { dst, .. } => Some(dst),
            _ => None,
        }
    }

    /// Source registers read by this operation (for short-latency
    /// dependency tracking in the issue stage), allocation-free: the
    /// non-`RZ` sources in a fixed buffer plus a count. The simulator's
    /// per-cycle issue-readiness check reads this (an op reads at most 3
    /// registers).
    #[inline]
    pub fn src_regs_fixed(&self) -> ([Reg; 3], usize) {
        let mut buf = [Reg::RZ; 3];
        let mut n = 0;
        let mut push = |r: Reg| {
            if !r.is_zero() {
                buf[n] = r;
                n += 1;
            }
        };
        fn op_reg(o: &Operand) -> Reg {
            o.src_reg().unwrap_or(Reg::RZ)
        }
        match self {
            Op::Mov { src, .. } => push(op_reg(src)),
            Op::IAdd { a, b, .. }
            | Op::Shl { a, b, .. }
            | Op::Shr { a, b, .. }
            | Op::And { a, b, .. }
            | Op::Xor { a, b, .. }
            | Op::FAdd { a, b, .. }
            | Op::FMul { a, b, .. }
            | Op::ISetp { a, b, .. }
            | Op::FSetp { a, b, .. } => {
                push(*a);
                push(op_reg(b));
            }
            Op::IMad { a, b, c, .. } | Op::FFma { a, b, c, .. } => {
                push(*a);
                push(op_reg(b));
                push(op_reg(c));
            }
            Op::Mufu { a, .. } => push(*a),
            Op::Ldg { addr, .. } | Op::Lds { addr, .. } | Op::Tld { addr, .. } => push(*addr),
            Op::Stg { src, addr, .. } => {
                push(*src);
                push(*addr);
            }
            Op::Tex { coord, .. } => push(*coord),
            Op::TraceRay { ray, .. } => push(*ray),
            _ => {}
        }
        (buf, n)
    }

    /// Branch target, for control-flow validation.
    pub fn branch_target(&self) -> Option<usize> {
        match *self {
            Op::Bra { target } => Some(target),
            Op::Bssy { target, .. } => Some(target),
            _ => None,
        }
    }

    /// Mnemonic used in disassembly.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Op::Bssy { .. } => "BSSY",
            Op::Bsync { .. } => "BSYNC",
            Op::Bra { .. } => "BRA",
            Op::Exit => "EXIT",
            Op::Yield => "YIELD",
            Op::Nop => "NOP",
            Op::Mov { .. } => "MOV",
            Op::IAdd { .. } => "IADD",
            Op::IMad { .. } => "IMAD",
            Op::Shl { .. } => "SHL",
            Op::Shr { .. } => "SHR",
            Op::And { .. } => "AND",
            Op::Xor { .. } => "XOR",
            Op::FAdd { .. } => "FADD",
            Op::FMul { .. } => "FMUL",
            Op::FFma { .. } => "FFMA",
            Op::ISetp { .. } => "ISETP",
            Op::FSetp { .. } => "FSETP",
            Op::Mufu { .. } => "MUFU",
            Op::Ldg { .. } => "LDG",
            Op::Stg { .. } => "STG",
            Op::Lds { .. } => "LDS",
            Op::Tld { .. } => "TLD",
            Op::Tex { .. } => "TEX",
            Op::TraceRay { .. } => "TRACERAY",
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Bssy { barrier, target } => write!(f, "BSSY {barrier}, {target}"),
            Op::Bsync { barrier } => write!(f, "BSYNC {barrier}"),
            Op::Bra { target } => write!(f, "BRA {target}"),
            Op::Exit => write!(f, "EXIT"),
            Op::Yield => write!(f, "YIELD"),
            Op::Nop => write!(f, "NOP"),
            Op::Mov { dst, src } => write!(f, "MOV {dst}, {src}"),
            Op::IAdd { dst, a, b } => write!(f, "IADD {dst}, {a}, {b}"),
            Op::IMad { dst, a, b, c } => write!(f, "IMAD {dst}, {a}, {b}, {c}"),
            Op::Shl { dst, a, b } => write!(f, "SHL {dst}, {a}, {b}"),
            Op::Shr { dst, a, b } => write!(f, "SHR {dst}, {a}, {b}"),
            Op::And { dst, a, b } => write!(f, "AND {dst}, {a}, {b}"),
            Op::Xor { dst, a, b } => write!(f, "XOR {dst}, {a}, {b}"),
            Op::FAdd { dst, a, b } => write!(f, "FADD {dst}, {a}, {b}"),
            Op::FMul { dst, a, b } => write!(f, "FMUL {dst}, {a}, {b}"),
            Op::FFma { dst, a, b, c } => write!(f, "FFMA {dst}, {a}, {b}, {c}"),
            Op::ISetp { dst, a, b, cmp } => write!(f, "ISETP.{cmp} {dst}, {a}, {b}"),
            Op::FSetp { dst, a, b, cmp } => write!(f, "FSETP.{cmp} {dst}, {a}, {b}"),
            Op::Mufu { dst, a, func } => write!(f, "MUFU.{func} {dst}, {a}"),
            Op::Ldg { dst, addr, offset } => write!(f, "LDG {dst}, [{addr}+{offset:#x}]"),
            Op::Stg { src, addr, offset } => write!(f, "STG [{addr}+{offset:#x}], {src}"),
            Op::Lds { dst, addr, offset } => write!(f, "LDS {dst}, [{addr}+{offset:#x}]"),
            Op::Tld { dst, addr, offset } => write!(f, "TLD {dst}, [{addr}+{offset:#x}]"),
            Op::Tex { dst, coord } => write!(f, "TEX {dst}, {coord}"),
            Op::TraceRay { dst, ray } => write!(f, "TRACERAY {dst}, {ray}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_classification() {
        assert_eq!(
            Op::FMul {
                dst: Reg(0),
                a: Reg(1),
                b: Operand::reg(2)
            }
            .unit(),
            ExecUnit::Alu
        );
        assert_eq!(
            Op::Ldg {
                dst: Reg(0),
                addr: Reg(1),
                offset: 0
            }
            .unit(),
            ExecUnit::Lsu
        );
        assert_eq!(
            Op::Tex {
                dst: Reg(0),
                coord: Reg(1)
            }
            .unit(),
            ExecUnit::Tex
        );
        assert_eq!(
            Op::Tld {
                dst: Reg(0),
                addr: Reg(1),
                offset: 0
            }
            .unit(),
            ExecUnit::Tex
        );
        assert_eq!(
            Op::TraceRay {
                dst: Reg(0),
                ray: Reg(1)
            }
            .unit(),
            ExecUnit::RtCore
        );
        assert_eq!(Op::Exit.unit(), ExecUnit::Control);
        assert_eq!(
            Op::Mufu {
                dst: Reg(0),
                a: Reg(1),
                func: MufuFunc::Rcp
            }
            .unit(),
            ExecUnit::Mufu
        );
    }

    #[test]
    fn long_latency_classification() {
        assert!(Op::Ldg {
            dst: Reg(0),
            addr: Reg(1),
            offset: 0
        }
        .is_long_latency());
        assert!(Op::Tex {
            dst: Reg(0),
            coord: Reg(1)
        }
        .is_long_latency());
        assert!(Op::TraceRay {
            dst: Reg(0),
            ray: Reg(1)
        }
        .is_long_latency());
        assert!(!Op::Lds {
            dst: Reg(0),
            addr: Reg(1),
            offset: 0
        }
        .is_long_latency());
        assert!(!Op::FAdd {
            dst: Reg(0),
            a: Reg(1),
            b: Operand::reg(2)
        }
        .is_long_latency());
    }

    #[test]
    fn dst_reg_ignores_rz() {
        assert_eq!(
            Op::Ldg {
                dst: Reg::RZ,
                addr: Reg(1),
                offset: 0
            }
            .dst_reg(),
            None
        );
        assert_eq!(
            Op::Ldg {
                dst: Reg(3),
                addr: Reg(1),
                offset: 0
            }
            .dst_reg(),
            Some(Reg(3))
        );
    }

    #[test]
    fn src_regs_collects_operands() {
        let op = Op::FFma {
            dst: Reg(0),
            a: Reg(1),
            b: Operand::reg(2),
            c: Operand::imm(5),
        };
        let (buf, n) = op.src_regs_fixed();
        assert_eq!(buf[..n], [Reg(1), Reg(2)]);
        let op = Op::IMad {
            dst: Reg(0),
            a: Reg::RZ,
            b: Operand::reg(2),
            c: Operand::reg(3),
        };
        let (buf, n) = op.src_regs_fixed();
        assert_eq!(buf[..n], [Reg(2), Reg(3)]);
    }

    #[test]
    fn display_forms() {
        let op = Op::FMul {
            dst: Reg(2),
            a: Reg(2),
            b: Operand::reg(10),
        };
        assert_eq!(op.to_string(), "FMUL R2, R2, R10");
        let op = Op::FMul {
            dst: Reg(10),
            a: Reg(5),
            b: Operand::cbank(1, 16),
        };
        assert_eq!(op.to_string(), "FMUL R10, R5, c[1][16]");
        let op = Op::ISetp {
            dst: Pred(0),
            a: Reg(1),
            b: Operand::imm(3),
            cmp: CmpOp::Eq,
        };
        assert_eq!(op.to_string(), "ISETP.EQ P0, R1, 0x3");
    }
}
