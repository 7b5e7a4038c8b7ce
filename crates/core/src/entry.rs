//! Per-instruction-queue-entry multipass state: the result store (RS) with
//! E-bits and S-bits, and the SMAQ address (paper §3.1, §3.6), kept in a
//! fixed ring that shadows the fetch buffer.

/// The preserved result of a successfully preexecuted instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RsResult {
    /// A register result.
    Value(u64),
    /// The instruction was a (qualified-off or result-less) no-op.
    Nop,
    /// A preexecuted store: the resolved address and data operand, to be
    /// performed architecturally in rally mode without re-reading operands.
    Store {
        /// Effective address from the SMAQ.
        addr: u64,
        /// Data operand preserved in the RS.
        data: u64,
    },
}

/// Multipass state attached to one instruction-queue entry.
///
/// An entry is claimed in the core's `EntryRing` when advance mode first
/// touches its sequence number and is freed when the instruction retires
/// or is squashed, so live entries never outnumber the fetch buffer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MpEntry {
    /// E-bit: a preserved result exists (available from `rs_ready_at`).
    pub e_bit: bool,
    /// The preserved result.
    pub result: Option<RsResult>,
    /// Cycle at which the preserved result is available (loads deposit
    /// their value when the miss returns — §3.5).
    pub rs_ready_at: u64,
    /// S-bit: the (load) result is data speculative and must be verified
    /// value-wise in rally mode (§3.6).
    pub s_bit: bool,
    /// The result was derived from a data-speculative value; advance-mode
    /// side effects (fetch redirects, predictor training) are suppressed.
    pub tainted: bool,
    /// SMAQ entry: effective address resolved during advance execution.
    pub smaq_addr: Option<u64>,
    /// An advance-resolved branch already redirected fetch; records the
    /// corrected successor so rally does not re-flush.
    pub resolved_next: Option<Option<ff_isa::Pc>>,
    /// The predictor was already trained for this branch by advance
    /// execution.
    pub branch_trained: bool,
}

impl MpEntry {
    /// Whether the preserved result is available at cycle `now`.
    pub fn rs_available(&self, now: u64) -> bool {
        self.e_bit && self.rs_ready_at <= now
    }
}

/// The tag of a slot no live seq holds.
const FREE: u64 = u64::MAX;

/// The multipass core's per-instruction state, keyed by sequence number: a
/// fixed ring of `(seq, entry)` slots indexed by `seq & mask`.
///
/// Every live seq is an instruction in the fetch buffer, so sized from the
/// buffer the ring never sees two live seqs in one slot. A claim that finds
/// one is a bug, and panics; the ring is never resized, so the core
/// performs no allocation after construction.
pub(crate) struct EntryRing {
    slots: Box<[(u64, MpEntry)]>,
    mask: u64,
    /// One past the highest seq claimed; a squash clamps it.
    tail: u64,
}

impl EntryRing {
    /// A ring for live seqs spanning at most `span` (rounded up to a power
    /// of two).
    pub(crate) fn new(span: usize) -> Self {
        let cap = span.max(2).next_power_of_two();
        EntryRing {
            slots: vec![(FREE, MpEntry::default()); cap].into_boxed_slice(),
            mask: cap as u64 - 1,
            tail: 0,
        }
    }

    #[inline]
    fn slot(&self, seq: u64) -> usize {
        (seq & self.mask) as usize
    }

    /// The entry for `seq`, or the default entry when `seq` holds none.
    #[inline]
    pub(crate) fn get(&self, seq: u64) -> MpEntry {
        match self.slots[self.slot(seq)] {
            (s, e) if s == seq => e,
            _ => MpEntry::default(),
        }
    }

    /// The entry for `seq`, claiming a free slot for a default entry when
    /// `seq` holds none.
    ///
    /// # Panics
    /// If another live seq holds the slot: the live span outgrew the ring.
    #[inline]
    pub(crate) fn get_mut(&mut self, seq: u64) -> &mut MpEntry {
        let i = self.slot(seq);
        let slot = &mut self.slots[i];
        if slot.0 != seq {
            assert!(slot.0 == FREE, "entry ring: seq {seq} claims the slot of live seq {}", slot.0);
            *slot = (seq, MpEntry::default());
            self.tail = self.tail.max(seq + 1);
        }
        &mut slot.1
    }

    /// Frees `seq`'s entry and returns it, if it held one.
    #[inline]
    pub(crate) fn remove(&mut self, seq: u64) -> Option<MpEntry> {
        let i = self.slot(seq);
        let slot = &mut self.slots[i];
        if slot.0 != seq {
            return None;
        }
        slot.0 = FREE;
        Some(slot.1)
    }

    /// Frees every entry with seq `>= from`, passing each to `f` (in no
    /// promised order).
    pub(crate) fn squash_from(&mut self, from: u64, mut f: impl FnMut(MpEntry)) {
        for seq in from..self.tail {
            if let Some(e) = self.remove(seq) {
                f(e);
            }
        }
        self.tail = self.tail.min(from);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn availability_respects_ready_cycle() {
        let e = MpEntry {
            e_bit: true,
            result: Some(RsResult::Value(5)),
            rs_ready_at: 10,
            ..MpEntry::default()
        };
        assert!(!e.rs_available(9));
        assert!(e.rs_available(10));
    }

    #[test]
    fn default_entry_has_no_result() {
        let e = MpEntry::default();
        assert!(!e.e_bit);
        assert!(!e.rs_available(u64::MAX));
        assert!(e.result.is_none());
    }

    /// A seeded stream of claims, writes, reads, head removals and
    /// squashes, with the live span kept within the ring, reads exactly
    /// like a `BTreeMap` that defaults absent seqs.
    #[test]
    fn ring_matches_a_btreemap_under_a_seeded_op_stream() {
        const SPAN: u64 = 16;
        let mut ring = EntryRing::new(SPAN as usize);
        let mut model: BTreeMap<u64, MpEntry> = BTreeMap::new();
        // `head..next` is the fetch buffer: retirement pops `head`, fetch
        // and refetch advance `next`.
        let (mut head, mut next) = (0u64, 0u64);
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..20_000 {
            let r = crate::xorshift(&mut rng);
            match r % 5 {
                0 if next - head < SPAN => next += 1,
                1 if head < next => {
                    let seq = head + (r >> 8) % (next - head);
                    // Each write sets some fields, so a claim that kept a
                    // freed entry's fields would show.
                    let write = |e: &mut MpEntry| {
                        if r & 32 != 0 {
                            e.e_bit = true;
                            e.rs_ready_at = r >> 16;
                        } else {
                            e.smaq_addr = Some(r >> 20);
                        }
                    };
                    write(ring.get_mut(seq));
                    write(model.entry(seq).or_default());
                }
                2 if head < next => {
                    assert_eq!(ring.remove(head), model.remove(&head));
                    head += 1;
                }
                3 if head < next => {
                    let from = head + (r >> 8) % (next - head + 1);
                    let mut squashed = 0;
                    ring.squash_from(from, |_| squashed += 1);
                    let dropped = model.split_off(&from);
                    assert_eq!(squashed, dropped.len());
                    next = from;
                }
                _ => {}
            }
            for seq in head.saturating_sub(2)..next + SPAN {
                let want = model.get(&seq).copied().unwrap_or_default();
                assert_eq!(ring.get(seq), want, "seq {seq} (live {head}..{next})");
            }
        }
        assert!(head > 1_000, "the stream retired only {head} seqs");
    }

    #[test]
    fn a_squashed_and_refetched_seq_starts_from_the_default() {
        let mut ring = EntryRing::new(8);
        ring.get_mut(5).e_bit = true;
        ring.squash_from(3, |_| {});
        assert_eq!(ring.get(5), MpEntry::default());
        assert_eq!(*ring.get_mut(5), MpEntry::default());
    }

    #[test]
    #[should_panic(expected = "claims the slot of live seq 1")]
    fn two_live_seqs_in_one_slot_panic() {
        let mut ring = EntryRing::new(8);
        ring.get_mut(1);
        ring.get_mut(9);
    }
}
