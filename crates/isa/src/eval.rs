//! Functional evaluation of operations.
//!
//! These helpers are the single authoritative definition of operand
//! semantics. Whole non-speculative instructions go through
//! [`crate::interp::execute`], which is built on them; the speculative
//! executors (runahead pre-execution, multipass advance), which read
//! poisoned or deferred operands, call them directly. Either way no timing
//! model can drift from the golden interpreter.

use crate::op::Op;

/// Evaluates a non-memory, non-branch operation over raw 64-bit operands.
///
/// `a` and `b` are the first and second register sources (0 when absent) and
/// `imm` is the immediate. Predicate-writing compares return 0/1.
/// Floating-point operands are interpreted as `f64` bit patterns. Integer
/// division by zero yields 0 (the simulated ISA is non-trapping, like
/// Itanium's NaT-based deferral for speculative ops).
///
/// # Panics
///
/// Panics if called with a load, store, branch, halt, restart, or nop — those
/// have no ALU result and must be handled by the caller.
#[inline]
pub fn alu(op: &Op, a: u64, b: u64, imm: i64) -> u64 {
    match op {
        Op::Add => a.wrapping_add(b),
        Op::Sub => a.wrapping_sub(b),
        Op::And => a & b,
        Op::Or => a | b,
        Op::Xor => a ^ b,
        Op::Shl => a.wrapping_shl((imm & 63) as u32),
        Op::Shr => a.wrapping_shr((imm & 63) as u32),
        Op::AddImm => a.wrapping_add(imm as u64),
        Op::MovImm => imm as u64,
        Op::CmpEq => (a == b) as u64,
        Op::CmpNe => (a != b) as u64,
        Op::CmpLt => ((a as i64) < (b as i64)) as u64,
        Op::Mul => a.wrapping_mul(b),
        Op::Div => {
            let d = b as i64;
            if d == 0 {
                0
            } else {
                ((a as i64).wrapping_div(d)) as u64
            }
        }
        Op::FAdd => (f64::from_bits(a) + f64::from_bits(b)).to_bits(),
        Op::FMul => (f64::from_bits(a) * f64::from_bits(b)).to_bits(),
        Op::FDiv => {
            let d = f64::from_bits(b);
            if d == 0.0 {
                0f64.to_bits()
            } else {
                (f64::from_bits(a) / d).to_bits()
            }
        }
        Op::FCvt => f64::from_bits(a) as i64 as u64,
        Op::Load | Op::LoadFp | Op::Store | Op::Br { .. } | Op::Halt | Op::Restart | Op::Nop => {
            panic!("alu() called on non-ALU op {op:?}")
        }
    }
}

/// Effective byte address of a load or store: `base + imm`.
#[inline]
pub fn effective_address(base: u64, imm: i64) -> u64 {
    base.wrapping_add(imm as u64)
}

/// Whether a branch with qualifying-predicate value `qp` is taken.
/// (Branches in this ISA are pure predicated jumps: taken iff qualified.)
#[inline]
pub fn branch_taken(qp: bool) -> bool {
    qp
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_ops() {
        assert_eq!(alu(&Op::Add, 2, 3, 0), 5);
        assert_eq!(alu(&Op::Sub, 2, 3, 0), u64::MAX); // wrapping
        assert_eq!(alu(&Op::And, 0b1100, 0b1010, 0), 0b1000);
        assert_eq!(alu(&Op::Or, 0b1100, 0b1010, 0), 0b1110);
        assert_eq!(alu(&Op::Xor, 0b1100, 0b1010, 0), 0b0110);
        assert_eq!(alu(&Op::Shl, 1, 0, 4), 16);
        assert_eq!(alu(&Op::Shr, 16, 0, 4), 1);
        assert_eq!(alu(&Op::AddImm, 10, 0, -3), 7);
        assert_eq!(alu(&Op::MovImm, 0, 0, -1), u64::MAX);
        assert_eq!(alu(&Op::Mul, 6, 7, 0), 42);
    }

    #[test]
    fn compares_are_boolean() {
        assert_eq!(alu(&Op::CmpEq, 4, 4, 0), 1);
        assert_eq!(alu(&Op::CmpEq, 4, 5, 0), 0);
        assert_eq!(alu(&Op::CmpNe, 4, 5, 0), 1);
        // signed comparison
        assert_eq!(alu(&Op::CmpLt, (-1i64) as u64, 1, 0), 1);
        assert_eq!(alu(&Op::CmpLt, 1, (-1i64) as u64, 0), 0);
    }

    #[test]
    fn division_by_zero_is_zero() {
        assert_eq!(alu(&Op::Div, 42, 0, 0), 0);
        assert_eq!(alu(&Op::FDiv, 1.0f64.to_bits(), 0.0f64.to_bits(), 0), 0f64.to_bits());
    }

    #[test]
    fn signed_division() {
        assert_eq!(alu(&Op::Div, (-9i64) as u64, 2, 0) as i64, -4);
    }

    #[test]
    fn fp_ops_use_bit_patterns() {
        let a = 1.5f64.to_bits();
        let b = 2.0f64.to_bits();
        assert_eq!(f64::from_bits(alu(&Op::FAdd, a, b, 0)), 3.5);
        assert_eq!(f64::from_bits(alu(&Op::FMul, a, b, 0)), 3.0);
        assert_eq!(alu(&Op::FCvt, 3.9f64.to_bits(), 0, 0), 3);
    }

    #[test]
    fn effective_address_wraps() {
        assert_eq!(effective_address(0x1000, 8), 0x1008);
        assert_eq!(effective_address(8, -8), 0);
    }

    #[test]
    #[should_panic(expected = "non-ALU op")]
    fn alu_rejects_loads() {
        let _ = alu(&Op::Load, 0, 0, 0);
    }
}
