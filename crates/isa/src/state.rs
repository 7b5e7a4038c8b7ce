//! Architectural register and memory state.

use crate::memimg::MemoryImage;
use crate::reg::{Reg, P0};

/// Complete architectural state: the three register files plus data memory.
///
/// All register values are carried as raw 64-bit words in one array
/// indexed by [`Reg::flat_index`]; floating-point registers hold `f64` bit
/// patterns and predicate registers hold 0 or 1. Reads of `r0` always
/// return 0 and reads of `p0` always return 1; writes to either are
/// ignored ([`Reg::is_hardwired`]).
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
    regs: Vec<u64>,
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
        let mut regs = vec![0; Reg::FLAT_COUNT];
        regs[P0.flat_index()] = 1;
        ArchState { regs, mem: MemoryImage::new() }
    }

    /// Reads a register as a raw 64-bit value (predicates read as 0/1).
    #[inline]
    pub fn read(&self, r: Reg) -> u64 {
        self.regs[r.flat_index()]
    }

    /// Writes a register (predicates store `value != 0`). Writes to
    /// hardwired registers are silently dropped.
    #[inline]
    pub fn write(&mut self, r: Reg, value: u64) {
        if r.is_hardwired() {
            return;
        }
        // Predicates hold the top slots, from `p0` up.
        self.regs[r.flat_index()] = if r >= P0 { (value != 0) as u64 } else { value };
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
        self.regs == other.regs && self.mem.semantically_eq(&other.mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::{RegClass, NUM_PRED_REGS};

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
    fn hardwired_writes_are_dropped() {
        let mut s = ArchState::new();
        s.write(Reg::int(0), 7);
        s.write(Reg::pred(0), 0);
        assert_eq!(s.read(Reg::int(0)), 0);
        assert_eq!(s.read(Reg::pred(0)), 1);
        assert!(s.pred(0));
        assert_eq!(s, ArchState::new());
    }

    #[test]
    fn every_register_reads_back_its_write() {
        let mut s = ArchState::new();
        for flat in 0..Reg::FLAT_COUNT {
            let r = Reg::from_flat_index(flat);
            let v = 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(flat as u64 + 1);
            s.write(r, v);
            let want = match r.class() {
                _ if r.is_hardwired() => (r == Reg::pred(0)) as u64,
                RegClass::Pred => (v != 0) as u64,
                RegClass::Int | RegClass::Fp => v,
            };
            assert_eq!(s.read(r), want, "{r}");
        }
        // Writes to one register never reach another.
        for flat in 0..Reg::FLAT_COUNT {
            let r = Reg::from_flat_index(flat);
            let mut t = s.clone();
            t.write(r, 0);
            for other in (0..Reg::FLAT_COUNT).map(Reg::from_flat_index).filter(|&o| o != r) {
                assert_eq!(t.read(other), s.read(other), "writing {r} changed {other}");
            }
        }
    }

    #[test]
    fn predicate_writes_normalize_to_zero_or_one() {
        let mut s = ArchState::new();
        for i in 1..NUM_PRED_REGS as u8 {
            for v in [0, 1, 2, u64::MAX, 1 << 63] {
                s.write(Reg::pred(i), v);
                assert_eq!(s.read(Reg::pred(i)), (v != 0) as u64);
                assert_eq!(s.pred(i), v != 0);
            }
        }
    }

    #[test]
    fn semantic_equality_covers_every_register_file() {
        for r in [Reg::int(1), Reg::fp(0), Reg::pred(1)] {
            let mut a = ArchState::new();
            a.write(r, 1);
            assert!(!a.semantically_eq(&ArchState::new()), "{r}");
        }
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
