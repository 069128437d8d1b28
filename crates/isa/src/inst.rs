//! A complete instruction: operation + predicate guard + scoreboard
//! annotations.

use crate::op::Op;
use crate::reg::{Pred, SbMask, Scoreboard};
use std::fmt;

/// A compiler hint on a (potentially divergent) branch: which side is
/// likelier to suffer load-to-use stalls.
///
/// The paper's §VI proposes this as future work: "explore the use of
/// software hints to convey load stall probabilities in each divergent
/// path so that hardware can prefer the higher load stall probability path
/// first and use the other path for latency tolerance." The simulator's
/// `DivergeOrder::Hinted` mode consumes these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallHint {
    /// The taken path is likelier to stall on memory.
    TakenStalls,
    /// The fall-through path is likelier to stall on memory.
    FallthroughStalls,
}

/// One instruction slot in a [`crate::Program`].
///
/// Mirrors the paper's Figure 9 listing: an operation, an optional predicate
/// guard (`@P0` / `@!P0`), an optional write-scoreboard (`&wr=sb5`), and a
/// set of required scoreboards that must count down to zero before issue
/// (`&req=sb5`).
#[derive(Debug, Clone, PartialEq)]
pub struct Instruction {
    /// The operation and its operands.
    pub op: Op,
    /// Predicate guard: `Some((p, negated))` executes the instruction only in
    /// threads where `p == !negated`. `None` is unconditional.
    pub guard: Option<(Pred, bool)>,
    /// Scoreboard incremented at issue and decremented at writeback
    /// (`&wr=sbN`). Only meaningful for long-latency operations.
    pub wr_sb: Option<Scoreboard>,
    /// Scoreboards that must be zero before this instruction can issue
    /// (`&req=sbN`). A non-empty set on an instruction whose producer is
    /// still outstanding is exactly a *load-to-use stall* (paper §I).
    pub req_sb: SbMask,
    /// Optional stall-probability hint on branches (paper §VI future work).
    pub hint: Option<StallHint>,
}

impl Instruction {
    /// Wraps an operation with no guard and no scoreboard annotations.
    pub fn new(op: Op) -> Instruction {
        Instruction {
            op,
            guard: None,
            wr_sb: None,
            req_sb: SbMask::EMPTY,
            hint: None,
        }
    }

    /// Sets the predicate guard (`@P0` when `negated` is false, `@!P0`
    /// otherwise) and returns `self` for chaining.
    pub fn with_guard(mut self, p: Pred, negated: bool) -> Instruction {
        self.guard = Some((p, negated));
        self
    }

    /// Sets the write-scoreboard annotation and returns `self`.
    pub fn with_wr_sb(mut self, sb: Scoreboard) -> Instruction {
        self.wr_sb = Some(sb);
        self
    }

    /// Adds a required scoreboard and returns `self`.
    pub fn with_req_sb(mut self, sb: Scoreboard) -> Instruction {
        self.req_sb.insert(sb);
        self
    }
}

impl From<Op> for Instruction {
    fn from(op: Op) -> Instruction {
        Instruction::new(op)
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some((p, neg)) = self.guard {
            write!(f, "@{}{} ", if neg { "!" } else { "" }, p)?;
        }
        write!(f, "{}", self.op)?;
        if let Some(sb) = self.wr_sb {
            write!(f, " &wr={sb}")?;
        }
        if !self.req_sb.is_empty() {
            write!(f, " &req={}", self.req_sb)?;
        }
        if let Some(h) = self.hint {
            write!(
                f,
                " &hint={}",
                match h {
                    StallHint::TakenStalls => "taken-stalls",
                    StallHint::FallthroughStalls => "fallthrough-stalls",
                }
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Operand;
    use crate::reg::Reg;

    #[test]
    fn display_matches_figure_9_style() {
        let i = Instruction::new(Op::Tld {
            dst: Reg(2),
            addr: Reg(0),
            offset: 0,
        })
        .with_wr_sb(Scoreboard(5));
        assert_eq!(i.to_string(), "TLD R2, [R0+0x0] &wr=sb5");

        let i = Instruction::new(Op::FMul {
            dst: Reg(2),
            a: Reg(2),
            b: Operand::reg(10),
        })
        .with_req_sb(Scoreboard(5));
        assert_eq!(i.to_string(), "FMUL R2, R2, R10 &req=sb5");

        let i = Instruction::new(Op::Bra { target: 7 }).with_guard(Pred(0), false);
        assert_eq!(i.to_string(), "@P0 BRA 7");

        let i = Instruction::new(Op::Bra { target: 7 }).with_guard(Pred(0), true);
        assert_eq!(i.to_string(), "@!P0 BRA 7");
    }

    #[test]
    fn from_op_has_no_annotations() {
        let i: Instruction = Op::Nop.into();
        assert!(i.guard.is_none());
        assert!(i.wr_sb.is_none());
        assert!(i.req_sb.is_empty());
    }
}
