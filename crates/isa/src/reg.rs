//! Register identifiers and register classes.
//!
//! The simulated architecture exposes 128 integer registers, 128
//! floating-point registers and 64 predicate registers to the instruction
//! set, matching the machine evaluated in the paper (§4). Integer register
//! `r0` reads as zero and predicate register `p0` reads as true, mirroring
//! the Itanium convention; writes to either are ignored.

use std::fmt;

/// Number of architecturally visible integer registers.
pub const NUM_INT_REGS: usize = 128;
/// Number of architecturally visible floating-point registers.
pub const NUM_FP_REGS: usize = 128;
/// Number of architecturally visible predicate registers.
pub const NUM_PRED_REGS: usize = 64;

/// Register class: which of the three architectural files a register lives in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RegClass {
    /// General-purpose integer register file (`r0..r127`).
    Int,
    /// Floating-point register file (`f0..f127`).
    Fp,
    /// Single-bit predicate register file (`p0..p63`).
    Pred,
}

impl fmt::Display for RegClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegClass::Int => write!(f, "int"),
            RegClass::Fp => write!(f, "fp"),
            RegClass::Pred => write!(f, "pred"),
        }
    }
}

/// An architectural register identifier: a class plus an index within the
/// class's file.
///
/// # Examples
///
/// ```
/// use ff_isa::{Reg, RegClass};
/// let r = Reg::int(17);
/// assert_eq!(r.class(), RegClass::Int);
/// assert_eq!(r.index(), 17);
/// assert!(!r.is_hardwired());
/// assert!(Reg::int(0).is_hardwired());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg {
    class: RegClass,
    index: u8,
}

impl Reg {
    /// Creates an integer register identifier.
    ///
    /// # Panics
    ///
    /// Panics if `index >= NUM_INT_REGS`.
    #[inline]
    pub fn int(index: u8) -> Self {
        assert!((index as usize) < NUM_INT_REGS, "integer register index {index} out of range");
        Reg { class: RegClass::Int, index }
    }

    /// Creates a floating-point register identifier.
    ///
    /// # Panics
    ///
    /// Panics if `index >= NUM_FP_REGS`.
    #[inline]
    pub fn fp(index: u8) -> Self {
        assert!((index as usize) < NUM_FP_REGS, "fp register index {index} out of range");
        Reg { class: RegClass::Fp, index }
    }

    /// Creates a predicate register identifier.
    ///
    /// # Panics
    ///
    /// Panics if `index >= NUM_PRED_REGS`.
    #[inline]
    pub fn pred(index: u8) -> Self {
        assert!((index as usize) < NUM_PRED_REGS, "predicate register index {index} out of range");
        Reg { class: RegClass::Pred, index }
    }

    /// The register's class.
    #[inline]
    pub fn class(&self) -> RegClass {
        self.class
    }

    /// The register's index within its class's file.
    #[inline]
    pub fn index(&self) -> u8 {
        self.index
    }

    /// Whether this register is a hardwired constant (`r0` = 0, `p0` = true).
    /// Writes to hardwired registers are ignored by all models.
    #[inline]
    pub fn is_hardwired(&self) -> bool {
        self.index == 0 && matches!(self.class, RegClass::Int | RegClass::Pred)
    }

    /// A dense index over all three register files, useful for flat
    /// scoreboard / A-bit vectors: integer registers occupy `0..128`,
    /// floating-point `128..256`, predicates `256..320`.
    #[inline]
    pub fn flat_index(&self) -> usize {
        match self.class {
            RegClass::Int => self.index as usize,
            RegClass::Fp => NUM_INT_REGS + self.index as usize,
            RegClass::Pred => NUM_INT_REGS + NUM_FP_REGS + self.index as usize,
        }
    }

    /// Total number of flat register slots (see [`Reg::flat_index`]).
    pub const FLAT_COUNT: usize = NUM_INT_REGS + NUM_FP_REGS + NUM_PRED_REGS;

    /// Reconstructs a register from its [`Reg::flat_index`].
    ///
    /// # Panics
    ///
    /// Panics if `flat >= Reg::FLAT_COUNT`.
    #[inline]
    pub fn from_flat_index(flat: usize) -> Self {
        if flat < NUM_INT_REGS {
            Reg::int(flat as u8)
        } else if flat < NUM_INT_REGS + NUM_FP_REGS {
            Reg::fp((flat - NUM_INT_REGS) as u8)
        } else if flat < Self::FLAT_COUNT {
            Reg::pred((flat - NUM_INT_REGS - NUM_FP_REGS) as u8)
        } else {
            panic!("flat register index {flat} out of range");
        }
    }
}

impl fmt::Debug for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.class {
            RegClass::Int => write!(f, "r{}", self.index),
            RegClass::Fp => write!(f, "f{}", self.index),
            RegClass::Pred => write!(f, "p{}", self.index),
        }
    }
}

/// The always-true qualifying predicate `p0`.
pub const P0: Reg = Reg { class: RegClass::Pred, index: 0 };

/// The always-zero integer register `r0`.
pub const R0: Reg = Reg { class: RegClass::Int, index: 0 };

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_index_round_trips() {
        for flat in 0..Reg::FLAT_COUNT {
            let r = Reg::from_flat_index(flat);
            assert_eq!(r.flat_index(), flat);
        }
    }

    #[test]
    fn hardwired_registers() {
        assert!(Reg::int(0).is_hardwired());
        assert!(Reg::pred(0).is_hardwired());
        assert!(!Reg::fp(0).is_hardwired());
        assert!(!Reg::int(1).is_hardwired());
        assert!(!Reg::pred(63).is_hardwired());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Reg::int(5).to_string(), "r5");
        assert_eq!(Reg::fp(12).to_string(), "f12");
        assert_eq!(Reg::pred(3).to_string(), "p3");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn pred_index_out_of_range_panics() {
        let _ = Reg::pred(64);
    }

    #[test]
    fn constants_match_constructors() {
        assert_eq!(P0, Reg::pred(0));
        assert_eq!(R0, Reg::int(0));
    }

    #[test]
    fn flat_classes_are_disjoint() {
        assert_eq!(Reg::int(127).flat_index(), 127);
        assert_eq!(Reg::fp(0).flat_index(), 128);
        assert_eq!(Reg::fp(127).flat_index(), 255);
        assert_eq!(Reg::pred(0).flat_index(), 256);
        assert_eq!(Reg::pred(63).flat_index(), 319);
        assert_eq!(Reg::FLAT_COUNT, 320);
    }
}
