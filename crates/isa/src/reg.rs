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

/// An architectural register identifier, held as its dense slot over all
/// three register files ([`Reg::flat_index`]). Indexing a per-register
/// table and the hardwired test never dispatch on the class;
/// [`Reg::class`] and [`Reg::index`] are derived from the slot. Slots
/// order registers by class, then index.
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
    flat: u16,
}

/// First flat slot of the floating-point file.
const FP_BASE: usize = NUM_INT_REGS;
/// First flat slot of the predicate file.
const PRED_BASE: usize = NUM_INT_REGS + NUM_FP_REGS;

impl Reg {
    /// Creates an integer register identifier.
    ///
    /// # Panics
    ///
    /// Panics if `index >= NUM_INT_REGS`.
    #[inline]
    pub fn int(index: u8) -> Self {
        assert!((index as usize) < NUM_INT_REGS, "integer register index {index} out of range");
        Reg { flat: index as u16 }
    }

    /// Creates a floating-point register identifier.
    ///
    /// # Panics
    ///
    /// Panics if `index >= NUM_FP_REGS`.
    #[inline]
    pub fn fp(index: u8) -> Self {
        assert!((index as usize) < NUM_FP_REGS, "fp register index {index} out of range");
        Reg { flat: (FP_BASE + index as usize) as u16 }
    }

    /// Creates a predicate register identifier.
    ///
    /// # Panics
    ///
    /// Panics if `index >= NUM_PRED_REGS`.
    #[inline]
    pub fn pred(index: u8) -> Self {
        assert!((index as usize) < NUM_PRED_REGS, "predicate register index {index} out of range");
        Reg { flat: (PRED_BASE + index as usize) as u16 }
    }

    /// The register's class.
    #[inline]
    pub fn class(&self) -> RegClass {
        match self.flat as usize {
            f if f < FP_BASE => RegClass::Int,
            f if f < PRED_BASE => RegClass::Fp,
            _ => RegClass::Pred,
        }
    }

    /// The register's index within its class's file.
    #[inline]
    pub fn index(&self) -> u8 {
        let base = match self.class() {
            RegClass::Int => 0,
            RegClass::Fp => FP_BASE,
            RegClass::Pred => PRED_BASE,
        };
        (self.flat as usize - base) as u8
    }

    /// Whether this register is a hardwired constant (`r0` = 0, `p0` = true).
    /// Writes to hardwired registers are ignored by all models.
    #[inline]
    pub fn is_hardwired(&self) -> bool {
        self.flat == R0.flat || self.flat == P0.flat
    }

    /// The register's dense slot over all three register files, for flat
    /// per-register tables: integer registers occupy `0..128`,
    /// floating-point `128..256`, predicates `256..320`.
    #[inline]
    pub fn flat_index(&self) -> usize {
        self.flat as usize
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
        assert!(flat < Self::FLAT_COUNT, "flat register index {flat} out of range");
        Reg { flat: flat as u16 }
    }
}

impl fmt::Debug for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let prefix = match self.class() {
            RegClass::Int => 'r',
            RegClass::Fp => 'f',
            RegClass::Pred => 'p',
        };
        write!(f, "{prefix}{}", self.index())
    }
}

/// The always-true qualifying predicate `p0`.
pub const P0: Reg = Reg { flat: PRED_BASE as u16 };

/// The always-zero integer register `r0`.
pub const R0: Reg = Reg { flat: 0 };

#[cfg(test)]
mod tests {
    use super::*;

    fn all() -> impl Iterator<Item = Reg> {
        (0..Reg::FLAT_COUNT).map(Reg::from_flat_index)
    }

    #[test]
    fn flat_index_round_trips() {
        for flat in 0..Reg::FLAT_COUNT {
            let r = Reg::from_flat_index(flat);
            assert_eq!(r.flat_index(), flat);
        }
    }

    #[test]
    fn every_slot_round_trips_through_its_class_constructor() {
        for r in all() {
            let rebuilt = match r.class() {
                RegClass::Int => Reg::int(r.index()),
                RegClass::Fp => Reg::fp(r.index()),
                RegClass::Pred => Reg::pred(r.index()),
            };
            assert_eq!(rebuilt, r);
            assert_eq!(rebuilt.flat_index(), r.flat_index());
        }
        assert_eq!(all().filter(|r| r.class() == RegClass::Int).count(), NUM_INT_REGS);
        assert_eq!(all().filter(|r| r.class() == RegClass::Fp).count(), NUM_FP_REGS);
        assert_eq!(all().filter(|r| r.class() == RegClass::Pred).count(), NUM_PRED_REGS);
    }

    #[test]
    fn hardwired_is_exactly_r0_and_p0() {
        let hardwired: Vec<Reg> = all().filter(Reg::is_hardwired).collect();
        assert_eq!(hardwired, [R0, P0]);
    }

    #[test]
    fn display_and_debug_are_class_prefix_and_index() {
        for (flat, r) in all().enumerate() {
            let want = match flat {
                f if f < 128 => format!("r{f}"),
                f if f < 256 => format!("f{}", f - 128),
                f => format!("p{}", f - 256),
            };
            assert_eq!(r.to_string(), want);
            assert_eq!(format!("{r:?}"), want);
        }
    }

    #[test]
    fn slot_order_is_class_then_index() {
        for a in all() {
            for b in all() {
                assert_eq!(
                    a.cmp(&b),
                    (a.class(), a.index()).cmp(&(b.class(), b.index())),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn flat_index_out_of_range_panics() {
        let _ = Reg::from_flat_index(Reg::FLAT_COUNT);
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
