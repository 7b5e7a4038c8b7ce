//! Architectural register and memory state.

use crate::memimg::MemoryImage;
use crate::reg::{Reg, RegClass, NUM_FP_REGS, NUM_INT_REGS, NUM_PRED_REGS};

/// Complete architectural state: the three register files plus data memory.
///
/// All register values are carried as raw 64-bit words; floating-point
/// registers hold `f64` bit patterns and predicate registers hold 0 or 1.
/// Reads of `r0` always return 0 and reads of `p0` always return 1; writes
/// to either are ignored ([`Reg::is_hardwired`]).
///
/// # Examples
///
/// ```
/// use ff_isa::{ArchState, Reg};
/// let mut s = ArchState::new();
/// s.write(Reg::int(3), 99);
/// assert_eq!(s.read(Reg::int(3)), 99);
/// s.write(Reg::int(0), 7); // dropped: r0 is hardwired
/// assert_eq!(s.read(Reg::int(0)), 0);
/// assert_eq!(s.read(Reg::pred(0)), 1);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct ArchState {
    int: Vec<u64>,
    fp: Vec<u64>,
    pred: Vec<bool>,
    /// Data memory.
    pub mem: MemoryImage,
}

impl Default for ArchState {
    fn default() -> Self {
        Self::new()
    }
}

impl ArchState {
    /// Creates a zeroed state (with `p0` reading as true by construction).
    pub fn new() -> Self {
        ArchState {
            int: vec![0; NUM_INT_REGS],
            fp: vec![0; NUM_FP_REGS],
            pred: vec![false; NUM_PRED_REGS],
            mem: MemoryImage::new(),
        }
    }

    /// Reads a register as a raw 64-bit value (predicates read as 0/1).
    #[inline]
    pub fn read(&self, r: Reg) -> u64 {
        if r.is_hardwired() {
            return match r.class() {
                RegClass::Pred => 1,
                _ => 0,
            };
        }
        match r.class() {
            RegClass::Int => self.int[r.index() as usize],
            RegClass::Fp => self.fp[r.index() as usize],
            RegClass::Pred => self.pred[r.index() as usize] as u64,
        }
    }

    /// Writes a register (predicates store `value != 0`). Writes to
    /// hardwired registers are silently dropped.
    #[inline]
    pub fn write(&mut self, r: Reg, value: u64) {
        if r.is_hardwired() {
            return;
        }
        match r.class() {
            RegClass::Int => self.int[r.index() as usize] = value,
            RegClass::Fp => self.fp[r.index() as usize] = value,
            RegClass::Pred => self.pred[r.index() as usize] = value != 0,
        }
    }

    /// Convenience: reads integer register `i`.
    #[inline]
    pub fn int(&self, i: u8) -> u64 {
        self.read(Reg::int(i))
    }

    /// Convenience: reads floating-point register `i` as an `f64`.
    #[inline]
    pub fn fp(&self, i: u8) -> f64 {
        f64::from_bits(self.read(Reg::fp(i)))
    }

    /// Convenience: reads predicate register `i` as a bool.
    #[inline]
    pub fn pred(&self, i: u8) -> bool {
        self.read(Reg::pred(i)) != 0
    }

    /// Whether two states have identical register files and semantically
    /// equal memories. This is the cross-model equivalence check used by the
    /// integration tests: every timing model must finish in the same
    /// architectural state as the golden interpreter.
    pub fn semantically_eq(&self, other: &ArchState) -> bool {
        self.int == other.int
            && self.fp == other.fp
            && self.pred == other.pred
            && self.mem.semantically_eq(&other.mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_start_zeroed() {
        let s = ArchState::new();
        assert_eq!(s.int(5), 0);
        assert_eq!(s.fp(5), 0.0);
        assert!(!s.pred(5));
    }

    #[test]
    fn predicate_stores_nonzero_as_true() {
        let mut s = ArchState::new();
        s.write(Reg::pred(3), 42);
        assert_eq!(s.read(Reg::pred(3)), 1);
        s.write(Reg::pred(3), 0);
        assert_eq!(s.read(Reg::pred(3)), 0);
    }

    #[test]
    fn fp_round_trips_bit_patterns() {
        let mut s = ArchState::new();
        s.write(Reg::fp(7), (-1.5f64).to_bits());
        assert_eq!(s.fp(7), -1.5);
    }

    #[test]
    fn hardwired_reads() {
        let s = ArchState::new();
        assert_eq!(s.read(Reg::int(0)), 0);
        assert_eq!(s.read(Reg::pred(0)), 1);
    }

    #[test]
    fn semantic_equality_covers_memory() {
        let mut a = ArchState::new();
        let b = ArchState::new();
        assert!(a.semantically_eq(&b));
        a.mem.store(16, 3);
        assert!(!a.semantically_eq(&b));
    }
}
