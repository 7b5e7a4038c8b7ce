//! Opcodes, functional-unit classes, and static latencies.
//!
//! The opcode set is deliberately compact but covers every behaviour the
//! paper's evaluation exercises: single-cycle ALU work, multi-cycle integer
//! multiply/divide (the "other stalls" of Figure 6), floating-point
//! arithmetic, loads and stores with base+displacement addressing,
//! predicate-writing compares, predicated branches, and the multipass
//! `RESTART` marker (paper §3.3).

use std::fmt;

use crate::program::BlockId;

/// Functional-unit class an instruction issues to.
///
/// The distribution mirrors the Itanium 2 issue ports used in the paper's
/// Table 2 ("6-issue, Itanium 2 FU distribution"): memory ports also execute
/// simple ALU operations (Itanium "A-type" instructions), the F ports
/// execute floating-point work and integer multiply/divide, and branches use
/// dedicated B ports.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FuClass {
    /// Memory port (loads/stores; can also execute A-type ALU operations).
    Mem,
    /// Integer ALU port.
    Int,
    /// Floating-point port (also integer multiply/divide).
    Fp,
    /// Branch port.
    Branch,
}

/// Operation performed by an [`crate::Inst`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    // ---- integer ALU (A-type: issue on M or I ports) ----
    /// `dst = src0 + src1`
    Add,
    /// `dst = src0 - src1`
    Sub,
    /// `dst = src0 & src1`
    And,
    /// `dst = src0 | src1`
    Or,
    /// `dst = src0 ^ src1`
    Xor,
    /// `dst = src0 << (imm & 63)`
    Shl,
    /// `dst = src0 >> (imm & 63)` (logical)
    Shr,
    /// `dst = src0 + imm`
    AddImm,
    /// `dst = imm`
    MovImm,
    // ---- predicate-writing compares (I ports) ----
    /// `dst(pred) = (src0 == src1)`
    CmpEq,
    /// `dst(pred) = (src0 < src1)` signed
    CmpLt,
    /// `dst(pred) = (src0 != src1)`
    CmpNe,
    // ---- multi-cycle integer (F ports, like Itanium xma) ----
    /// `dst = src0 * src1`, multi-cycle
    Mul,
    /// `dst = src0 / src1` (0 if divisor 0), long latency, unpipelined
    Div,
    // ---- floating point (F ports) ----
    /// `dst = src0 +. src1`
    FAdd,
    /// `dst = src0 *. src1`
    FMul,
    /// `dst = src0 /. src1`, long latency, unpipelined
    FDiv,
    /// `dst(int) = src0(fp) as i64` — fp-to-int move/convert
    FCvt,
    // ---- memory (M ports) ----
    /// `dst = mem[src0 + imm]` (8-byte word)
    Load,
    /// `dst(fp) = mem[src0 + imm]` (8-byte word, into fp file)
    LoadFp,
    /// `mem[src0 + imm] = src1`
    Store,
    // ---- control (B ports) ----
    /// Branch to `target` if the qualifying predicate is true; fall through
    /// otherwise. Unconditional when qualified by `p0`.
    Br {
        /// Destination basic block.
        target: BlockId,
    },
    /// Terminates the program.
    Halt,
    // ---- multipass support ----
    /// Compiler-inserted advance-restart marker (paper §3.3). Consumes
    /// `src0`; when its operand is unready during advance execution the
    /// multipass pipeline restarts the advance pass. Architecturally a no-op.
    Restart,
    /// No operation (scheduling filler).
    Nop,
}

impl Op {
    /// The functional-unit class this operation issues to.
    #[inline]
    pub fn fu_class(&self) -> FuClass {
        match self {
            Op::Add
            | Op::Sub
            | Op::And
            | Op::Or
            | Op::Xor
            | Op::Shl
            | Op::Shr
            | Op::AddImm
            | Op::MovImm
            | Op::CmpEq
            | Op::CmpLt
            | Op::CmpNe
            | Op::Nop
            | Op::Restart => FuClass::Int,
            Op::Mul | Op::Div | Op::FAdd | Op::FMul | Op::FDiv | Op::FCvt => FuClass::Fp,
            Op::Load | Op::LoadFp | Op::Store => FuClass::Mem,
            Op::Br { .. } | Op::Halt => FuClass::Branch,
        }
    }

    /// Whether the op is "A-type": an ALU operation that may issue on either
    /// an M or an I port (Itanium 2 convention).
    #[inline]
    pub fn is_a_type(&self) -> bool {
        matches!(
            self,
            Op::Add
                | Op::Sub
                | Op::And
                | Op::Or
                | Op::Xor
                | Op::AddImm
                | Op::MovImm
                | Op::Nop
                | Op::Restart
        )
    }

    /// Static execution latency in cycles, *excluding* memory-hierarchy time
    /// for loads (a load's total latency is this value for an L1 hit; misses
    /// add hierarchy latency from `ff-mem`).
    #[inline]
    pub fn latency(&self) -> u32 {
        match self {
            Op::Mul => 5,
            Op::Div | Op::FDiv => 20,
            Op::FAdd | Op::FMul => 4,
            Op::FCvt => 2,
            _ => 1,
        }
    }

    /// Whether the op occupies its functional unit for its whole latency
    /// (unpipelined). True only for divides, mirroring iterative dividers.
    #[inline]
    pub fn is_unpipelined(&self) -> bool {
        matches!(self, Op::Div | Op::FDiv)
    }

    /// Whether this op reads memory.
    #[inline]
    pub fn is_load(&self) -> bool {
        matches!(self, Op::Load | Op::LoadFp)
    }

    /// Whether this op writes memory.
    #[inline]
    pub fn is_store(&self) -> bool {
        matches!(self, Op::Store)
    }

    /// Whether this op is a control transfer (branch or halt).
    #[inline]
    pub fn is_branch(&self) -> bool {
        matches!(self, Op::Br { .. } | Op::Halt)
    }

    /// Whether the op has non-unit latency (a "multi-cycle" op for the
    /// purposes of Figure 6's *other* stall category).
    #[inline]
    pub fn is_multicycle(&self) -> bool {
        self.latency() > 1
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Br { target } => write!(f, "br B{}", target.0),
            other => {
                let s = format!("{other:?}").to_lowercase();
                write!(f, "{s}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fu_classes() {
        assert_eq!(Op::Add.fu_class(), FuClass::Int);
        assert_eq!(Op::Mul.fu_class(), FuClass::Fp);
        assert_eq!(Op::Load.fu_class(), FuClass::Mem);
        assert_eq!(Op::Br { target: BlockId(0) }.fu_class(), FuClass::Branch);
    }

    #[test]
    fn latencies_follow_table() {
        assert_eq!(Op::Add.latency(), 1);
        assert_eq!(Op::Load.latency(), 1); // L1 hit per Table 2
        assert_eq!(Op::Mul.latency(), 5);
        assert_eq!(Op::Div.latency(), 20);
        assert_eq!(Op::FAdd.latency(), 4);
    }

    #[test]
    fn a_type_issues_on_mem_or_int() {
        assert!(Op::Add.is_a_type());
        assert!(!Op::CmpEq.is_a_type());
        assert!(!Op::Load.is_a_type());
        assert!(!Op::Mul.is_a_type());
    }

    #[test]
    fn classification_predicates() {
        assert!(Op::Load.is_load());
        assert!(Op::LoadFp.is_load());
        assert!(!Op::Store.is_load());
        assert!(Op::Store.is_store());
        assert!(Op::Br { target: BlockId(3) }.is_branch());
        assert!(Op::Halt.is_branch());
        assert!(Op::Div.is_unpipelined());
        assert!(!Op::Mul.is_unpipelined());
        assert!(Op::Mul.is_multicycle());
        assert!(!Op::Add.is_multicycle());
    }

    #[test]
    fn display_is_lowercase() {
        assert_eq!(Op::AddImm.to_string(), "addimm");
        assert_eq!(Op::Br { target: BlockId(7) }.to_string(), "br B7");
    }
}
