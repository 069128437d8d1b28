#![warn(missing_docs)]

//! # subwarp-isa — a SASS-like GPU instruction set
//!
//! This crate defines the instruction set executed by the Turing-like SM
//! simulator in `subwarp-core`. It mirrors the subset of NVIDIA SASS that
//! the paper *GPU Subwarp Interleaving* (HPCA 2022) depends on:
//!
//! - **Convergence barriers** (`BSSY`/`BSYNC`) — the Volta/Turing divergence
//!   handling primitive that Subwarp Interleaving builds on (paper §III-A).
//! - **Counted-scoreboard annotations** — long-latency producers carry
//!   `&wr=sbN` and consumers carry `&req=sbN`, exactly as in the paper's
//!   Figure 9 listing.
//! - **Long-latency memory operations** (`LDG`, `TLD`, `TEX`) with two
//!   distinct writeback paths (LSU and TEX), plus an RT-core `TraceRay`
//!   operation.
//! - Ordinary math, predicate-setting, and control-flow operations.
//!
//! Programs are built with [`ProgramBuilder`], which resolves labels and
//! validates scoreboard usage. Functional semantics (register updates,
//! branch decisions, address generation) live in [`RegFile::step`].
//!
//! ```
//! use subwarp_isa::{ProgramBuilder, Reg, Pred, Barrier, Scoreboard, Operand};
//!
//! // The divergent if-then-else from the paper's Figure 9.
//! let mut b = ProgramBuilder::new();
//! let else_ = b.label("Else");
//! let sync = b.label("syncPoint");
//! b.bssy(Barrier(0), sync);
//! b.bra(else_).pred(Pred(0), false);
//! b.tld(Reg(2), Reg(0)).wr_sb(Scoreboard(5));
//! b.fmul(Reg(10), Reg(5), Operand::cbank(1, 16));
//! b.fmul(Reg(2), Reg(2), Operand::reg(10)).req_sb(Scoreboard(5));
//! b.bra(sync);
//! b.place(else_);
//! b.tex(Reg(1), Reg(8)).wr_sb(Scoreboard(2));
//! b.fadd(Reg(1), Reg(1), Operand::reg(3)).req_sb(Scoreboard(2));
//! b.bra(sync);
//! b.place(sync);
//! b.bsync(Barrier(0));
//! b.exit();
//! let program = b.build().expect("valid program");
//! assert_eq!(program.len(), 11);
//! ```

mod exec;
mod inst;
mod op;
mod program;
mod reg;

pub use exec::{step_alu_masked, ConstMem, Effect, RegFile, N_PRED, N_REG};
pub use inst::{Instruction, StallHint};
pub use op::{CmpOp, ExecUnit, MufuFunc, Op, Operand};
pub use program::{InstRef, Label, Program, ProgramBuilder, ProgramError};
pub use reg::{Barrier, Pred, Reg, SbMask, Scoreboard, N_BARRIER, N_SB};

/// Bytes occupied by one instruction in the simulated instruction memory.
///
/// Turing-class SASS encodes each instruction in 16 bytes; instruction-cache
/// behaviour (the paper's L0/L1 I-cache thrashing limiter, §V-A and §VI)
/// depends on this footprint.
pub const INSTRUCTION_BYTES: u64 = 16;
