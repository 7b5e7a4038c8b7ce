//! The speculative register file (SRF) with A-bits and I-bits (paper §3.1),
//! shared by the two speculative passes: multipass advance mode and
//! runahead pre-execution.
//!
//! During advance mode, each instruction that produces a result writes it
//! to the SRF and sets the *A-bit* of its destination, redirecting later
//! consumers from the architectural file to the speculative one. Suppressed
//! (deferred) instructions instead set the *I-bit*, poisoning their
//! consumers. The whole structure is cleared — "all A-bits are cleared,
//! effectively clearing the SRF" — on advance restart and on rally entry.
//! Runahead is the same overlay without result preservation (§5.4): it
//! writes only untainted [`SrfVal::Valid`] values and [`SrfVal::Invalid`],
//! reads through the non-counting [`Srf::probe`], and clears the file on
//! every episode entry.

use ff_isa::Reg;

/// A speculative register value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SrfVal {
    /// Valid result, bypassable at `ready_at`.
    Valid {
        /// The speculative value.
        value: u64,
        /// Cycle at which the value is available.
        ready_at: u64,
        /// Derived (transitively) from a data-speculative load.
        tainted: bool,
    },
    /// I-bit with a known arrival: the producer is an outstanding load whose
    /// result will be deposited in the result store at `arrives_at` (§3.5
    /// WAW policy). Consumers defer this pass, but a `RESTART` finding this
    /// state can wait for the arrival instead of churning empty passes.
    Pending {
        /// Cycle at which the producer's RS entry becomes available.
        arrives_at: u64,
    },
    /// I-bit: the producer was deferred with no known arrival; consumers
    /// must defer too.
    Invalid,
}

/// One SRF slot: the value and the pass epoch that wrote it. The slot's
/// A-bit is set exactly when `epoch` equals the SRF's current epoch.
#[derive(Clone, Copy, Debug)]
struct Slot {
    epoch: u32,
    val: SrfVal,
}

/// The epoch no pass ever runs in: a slot tagged with it is clear.
const CLEAR_EPOCH: u32 = 0;

/// The SRF: one optional speculative value per architectural register.
/// `None` means the A-bit is clear and consumers read the architectural
/// file.
///
/// The hardware clears every A-bit at once; the model does the same in
/// O(1) by tagging each slot with the pass epoch that wrote it and having
/// [`Srf::clear`] start a new epoch. Only a wrap of the epoch counter
/// touches every slot.
#[derive(Clone, Debug)]
pub struct Srf {
    slots: Vec<Slot>,
    epoch: u32,
    abits: usize,
    writes: u64,
    reads: u64,
}

impl Default for Srf {
    fn default() -> Self {
        Self::new()
    }
}

impl Srf {
    /// Creates an SRF with all A-bits clear.
    pub fn new() -> Self {
        Self::starting_at_epoch(CLEAR_EPOCH + 1)
    }

    fn starting_at_epoch(epoch: u32) -> Self {
        debug_assert_ne!(epoch, CLEAR_EPOCH);
        Srf {
            slots: vec![Slot { epoch: CLEAR_EPOCH, val: SrfVal::Invalid }; Reg::FLAT_COUNT],
            epoch,
            abits: 0,
            writes: 0,
            reads: 0,
        }
    }

    fn live(&self, flat: usize) -> Option<SrfVal> {
        let slot = self.slots[flat];
        (slot.epoch == self.epoch).then_some(slot.val)
    }

    /// Writes a speculative value, setting the A-bit. Writes to hardwired
    /// registers are dropped.
    pub fn write(&mut self, r: Reg, v: SrfVal) {
        if r.is_hardwired() {
            return;
        }
        let slot = &mut self.slots[r.flat_index()];
        if slot.epoch != self.epoch {
            slot.epoch = self.epoch;
            self.abits += 1;
        }
        slot.val = v;
        self.writes += 1;
    }

    /// Reads the speculative slot for `r`: `None` when the A-bit is clear
    /// (consumer should read the architectural file).
    pub fn read(&mut self, r: Reg) -> Option<SrfVal> {
        if r.is_hardwired() {
            return None;
        }
        self.reads += 1;
        self.live(r.flat_index())
    }

    /// Non-counting probe (for trigger checks and tests).
    pub fn probe(&self, r: Reg) -> Option<SrfVal> {
        if r.is_hardwired() {
            None
        } else {
            self.live(r.flat_index())
        }
    }

    /// Clears every A-bit (advance restart / rally entry) by starting a
    /// new epoch; when the epoch counter wraps, the slots are retagged
    /// for real so no stale slot can come back to life.
    pub fn clear(&mut self) {
        self.abits = 0;
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == CLEAR_EPOCH {
            for slot in &mut self.slots {
                slot.epoch = CLEAR_EPOCH;
            }
            self.epoch = CLEAR_EPOCH + 1;
        }
    }

    /// Number of slots with their A-bit set. Outside advance mode this must
    /// be zero ("all A-bits are cleared") — audited by the SRF sentinel.
    pub fn abit_count(&self) -> usize {
        self.abits
    }

    /// Total SRF writes (activity for the power model).
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    /// Total SRF reads (activity for the power model).
    pub fn read_count(&self) -> u64 {
        self.reads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xorshift as next;

    #[test]
    fn abit_redirects_consumers() {
        let mut srf = Srf::new();
        assert_eq!(srf.read(Reg::int(4)), None);
        srf.write(Reg::int(4), SrfVal::Valid { value: 9, ready_at: 3, tainted: false });
        assert!(matches!(srf.read(Reg::int(4)), Some(SrfVal::Valid { value: 9, .. })));
    }

    #[test]
    fn ibit_marks_deferred() {
        let mut srf = Srf::new();
        srf.write(Reg::fp(2), SrfVal::Invalid);
        assert_eq!(srf.read(Reg::fp(2)), Some(SrfVal::Invalid));
    }

    #[test]
    fn hardwired_registers_stay_architectural() {
        let mut srf = Srf::new();
        srf.write(Reg::int(0), SrfVal::Invalid);
        assert_eq!(srf.read(Reg::int(0)), None);
        srf.write(Reg::pred(0), SrfVal::Invalid);
        assert_eq!(srf.read(Reg::pred(0)), None);
    }

    #[test]
    fn clear_drops_all_abits() {
        let mut srf = Srf::new();
        srf.write(Reg::int(1), SrfVal::Invalid);
        srf.write(Reg::pred(5), SrfVal::Valid { value: 1, ready_at: 0, tainted: true });
        srf.clear();
        assert_eq!(srf.probe(Reg::int(1)), None);
        assert_eq!(srf.probe(Reg::pred(5)), None);
    }

    /// The element-by-element SRF the epoch tags replaced: the reference
    /// the epoch structure must match observably.
    struct ReferenceSrf {
        slots: Vec<Option<SrfVal>>,
    }

    impl ReferenceSrf {
        fn write(&mut self, r: Reg, v: SrfVal) {
            if !r.is_hardwired() {
                self.slots[r.flat_index()] = Some(v);
            }
        }

        fn read(&self, r: Reg) -> Option<SrfVal> {
            if r.is_hardwired() {
                None
            } else {
                self.slots[r.flat_index()]
            }
        }

        fn clear(&mut self) {
            self.slots.fill(None);
        }

        fn abit_count(&self) -> usize {
            self.slots.iter().filter(|s| s.is_some()).count()
        }
    }

    fn random_val(rng: &mut u64) -> SrfVal {
        match next(rng) % 3 {
            0 => SrfVal::Valid {
                value: next(rng),
                ready_at: next(rng) % 64,
                tainted: next(rng) & 1 == 1,
            },
            1 => SrfVal::Pending { arrives_at: next(rng) % 64 },
            _ => SrfVal::Invalid,
        }
    }

    /// Random write/read/clear streams agree with the reference, with
    /// exact A-bit counts after every clear, starting both at the first
    /// epoch and a few clears short of the counter wrapping.
    #[test]
    fn epoch_clear_matches_element_by_element_clear() {
        for (seed, start) in [(1u64, CLEAR_EPOCH + 1), (7, u32::MAX - 5), (99, u32::MAX)] {
            let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let mut srf = Srf::starting_at_epoch(start);
            let mut reference = ReferenceSrf { slots: vec![None; Reg::FLAT_COUNT] };
            let mut clears = 0;
            for _ in 0..20_000 {
                // A small register subset so clears land on populated SRFs.
                let r = Reg::from_flat_index((next(&mut rng) % 24 * 13) as usize % Reg::FLAT_COUNT);
                match next(&mut rng) % 8 {
                    0..=3 => {
                        let v = random_val(&mut rng);
                        srf.write(r, v);
                        reference.write(r, v);
                    }
                    4..=6 => {
                        assert_eq!(srf.read(r), reference.read(r), "read {r}");
                        assert_eq!(srf.probe(r), reference.read(r), "probe {r}");
                    }
                    _ => {
                        srf.clear();
                        reference.clear();
                        clears += 1;
                        assert_eq!(srf.abit_count(), 0);
                    }
                }
                assert_eq!(srf.abit_count(), reference.abit_count());
            }
            assert!(clears > 10, "the stream must cross the epoch wrap");
            for flat in 0..Reg::FLAT_COUNT {
                let r = Reg::from_flat_index(flat);
                assert_eq!(srf.probe(r), reference.read(r), "final {r}");
            }
        }
    }

    /// A slot written just before the epoch counter wraps stays clear
    /// after the wrap, even once the counter returns to its old value.
    #[test]
    fn epoch_wrap_never_resurrects_a_stale_slot() {
        let mut srf = Srf::starting_at_epoch(u32::MAX);
        srf.write(Reg::int(3), SrfVal::Invalid);
        srf.clear();
        assert_eq!(srf.probe(Reg::int(3)), None);
        assert_eq!(srf.abit_count(), 0);
        // Run the counter all the way back to the epoch that wrote it.
        srf.epoch = u32::MAX;
        assert_eq!(srf.probe(Reg::int(3)), None);
    }

    #[test]
    fn activity_counters_accumulate() {
        let mut srf = Srf::new();
        srf.write(Reg::int(1), SrfVal::Invalid);
        let _ = srf.read(Reg::int(1));
        let _ = srf.read(Reg::int(2));
        assert_eq!(srf.write_count(), 1);
        assert_eq!(srf.read_count(), 2);
    }
}
