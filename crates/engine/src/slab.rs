//! Allocation-free in-flight state.
//!
//! [`InFlightIndex`] backs the "zero heap allocation per instruction in
//! steady state" invariant (DESIGN.md §7e): an ordered map over
//! *monotonically allocated* sequence numbers, as produced by the fetch
//! stream. Because live seqs always span a bounded window (the fetch
//! buffer bounds how far the newest live entry can run ahead of the
//! oldest), a power-of-two ring indexed by `seq & mask` gives O(1)
//! insert/lookup/remove and ascending iteration identical to a
//! `BTreeMap<u64, T>` range walk — with zero allocation once the ring has
//! reached the window size. It counts its growth events
//! ([`InFlightIndex::alloc_events`]) so models can surface an
//! `alloc_count` that provably stays flat after warm-up.

/// An ordered map over monotonically allocated sequence numbers, backed by
/// a power-of-two ring indexed `seq & mask`.
///
/// The container exploits the shape of a pipeline's in-flight window: seqs
/// are allocated in increasing order, and the set of live seqs always fits
/// in a bounded span (retirement trails fetch by at most the instruction
/// buffer). Under that span bound, distinct live seqs can never collide in
/// the ring; should the span ever exceed the ring (a mis-sized capacity),
/// the ring transparently doubles and re-seats its entries — counted in
/// [`InFlightIndex::alloc_events`] — so behaviour stays identical to a
/// `BTreeMap<u64, T>` and only the counter betrays the misconfiguration.
///
/// Ascending iteration between two seqs matches `BTreeMap::range`
/// semantics, which is what keeps squash walks order-identical to the old
/// implementation.
#[derive(Clone, Debug)]
pub struct InFlightIndex<T> {
    slots: Vec<Option<(u64, T)>>,
    mask: u64,
    /// One past the highest seq ever inserted (clamped down on squash).
    tail: u64,
    /// Lower bound on live seqs: everything below has been removed.
    floor: u64,
    len: usize,
    alloc_events: u64,
}

impl<T> InFlightIndex<T> {
    /// An index sized for a live span of `span` seqs (rounded up to a power
    /// of two). Choose the pipeline's instruction-buffer capacity; the
    /// structure then never reallocates.
    pub fn with_span(span: usize) -> Self {
        let cap = span.max(2).next_power_of_two();
        InFlightIndex {
            slots: (0..cap).map(|_| None).collect(),
            mask: (cap - 1) as u64,
            tail: 0,
            floor: 0,
            len: 0,
            alloc_events: 1,
        }
    }

    /// Number of live entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entry is live.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// One past the highest live seq ever inserted (squash clamps it).
    #[inline]
    pub fn tail(&self) -> u64 {
        self.tail
    }

    /// Seq below which no live entry exists.
    #[inline]
    pub fn floor(&self) -> u64 {
        self.floor
    }

    /// Times the ring grew, including its initial allocation. Flat in
    /// steady state; growth past warm-up means the span was under-sized.
    pub fn alloc_events(&self) -> u64 {
        self.alloc_events
    }

    #[inline]
    fn idx(&self, seq: u64) -> usize {
        (seq & self.mask) as usize
    }

    /// The entry for `seq`, if live.
    #[inline]
    pub fn get(&self, seq: u64) -> Option<&T> {
        match &self.slots[self.idx(seq)] {
            Some((s, v)) if *s == seq => Some(v),
            _ => None,
        }
    }

    /// Mutable access to the entry for `seq`, if live.
    #[inline]
    pub fn get_mut(&mut self, seq: u64) -> Option<&mut T> {
        let i = self.idx(seq);
        match &mut self.slots[i] {
            Some((s, v)) if *s == seq => Some(v),
            _ => None,
        }
    }

    /// Doubles the ring until no two live seqs collide, re-seating every
    /// live entry at its new home slot.
    fn grow(&mut self) {
        loop {
            let cap = (self.mask as usize + 1) * 2;
            let mut next: Vec<Option<(u64, T)>> = (0..cap).map(|_| None).collect();
            let mask = (cap - 1) as u64;
            let mut collided = false;
            for (s, v) in self.slots.drain(..).flatten() {
                let i = (s & mask) as usize;
                if next[i].is_some() {
                    collided = true;
                }
                next[i] = Some((s, v));
            }
            self.alloc_events += 1;
            self.slots = next;
            self.mask = mask;
            if !collided {
                return;
            }
        }
    }

    /// The entry for `seq`, inserted as `T::default()` when absent.
    #[inline]
    pub fn get_or_default(&mut self, seq: u64) -> &mut T
    where
        T: Default,
    {
        debug_assert!(seq >= self.floor, "seq {seq} below floor {}", self.floor);
        loop {
            let i = self.idx(seq);
            match &self.slots[i] {
                Some((s, _)) if *s == seq => break,
                None => break,
                // A different live seq occupies this slot: the live span
                // exceeded the ring; grow and retry.
                Some(_) => self.grow(),
            }
        }
        let i = self.idx(seq);
        let slot = &mut self.slots[i];
        if slot.is_none() {
            *slot = Some((seq, T::default()));
            self.len += 1;
            self.tail = self.tail.max(seq + 1);
        }
        match slot {
            Some((_, v)) => v,
            None => unreachable!("slot was just filled"),
        }
    }

    /// Removes and returns the entry for `seq`.
    ///
    /// Calling this with `seq == floor` (whether or not an entry exists)
    /// commits that no entry below `seq + 1` will ever be inserted again
    /// and advances the floor — the multipass DEQ retires the head seq in
    /// strictly ascending order, so retirement naturally drives the floor.
    /// Empty slots above the floor are *not* skipped: a sparse seq with no
    /// entry today may still gain one (advance-mode passes revisit older
    /// seqs), so only an explicit head removal may raise the bound.
    #[inline]
    pub fn remove(&mut self, seq: u64) -> Option<T> {
        let i = self.idx(seq);
        let out = match &self.slots[i] {
            Some((s, _)) if *s == seq => {
                let (_, v) = self.slots[i].take().expect("checked above");
                self.len -= 1;
                Some(v)
            }
            _ => None,
        };
        if seq == self.floor {
            self.floor = seq + 1;
            self.tail = self.tail.max(self.floor);
        }
        out
    }

    /// Removes every entry with seq >= `from`, invoking `f` on each in
    /// ascending seq order — the exact order a `BTreeMap` range walk
    /// produced. O(span), allocation-free.
    pub fn squash_from(&mut self, from: u64, mut f: impl FnMut(u64, T)) {
        for seq in from.max(self.floor)..self.tail {
            let i = self.idx(seq);
            if matches!(&self.slots[i], Some((s, _)) if *s == seq) {
                let (_, v) = self.slots[i].take().expect("checked above");
                self.len -= 1;
                f(seq, v);
            }
        }
        self.tail = self.tail.min(from).max(self.floor);
    }

    /// Visits every live entry in ascending seq order.
    pub fn for_each(&self, mut f: impl FnMut(u64, &T)) {
        for seq in self.floor..self.tail {
            if let Some(v) = self.get(seq) {
                f(seq, v);
            }
        }
    }

    /// Drops every entry and resets the seq bounds (end-of-run reuse).
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            *slot = None;
        }
        self.tail = 0;
        self.floor = 0;
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn index_matches_btreemap_on_mixed_ops() {
        let mut index: InFlightIndex<u64> = InFlightIndex::with_span(16);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut seq = 0u64;
        // Interleave inserts, removes-at-floor (retire), and squashes.
        for round in 0..50u64 {
            for _ in 0..3 {
                *index.get_or_default(seq) += seq;
                *model.entry(seq).or_default() += seq;
                seq += 1;
            }
            if round % 4 == 3 {
                let from = seq - 2;
                let mut squashed = Vec::new();
                index.squash_from(from, |s, v| squashed.push((s, v)));
                let keys: Vec<u64> = model.range(from..).map(|(&s, _)| s).collect();
                let expect: Vec<(u64, u64)> =
                    keys.iter().map(|k| (*k, model.remove(k).unwrap())).collect();
                assert_eq!(squashed, expect, "squash order/content diverges");
                seq = from;
            }
            if round % 3 == 2 {
                if let Some((&oldest, _)) = model.iter().next() {
                    assert_eq!(index.remove(oldest), model.remove(&oldest));
                }
            }
            let mut got = Vec::new();
            index.for_each(|s, v| got.push((s, *v)));
            let expect: Vec<(u64, u64)> = model.iter().map(|(&s, &v)| (s, v)).collect();
            assert_eq!(got, expect, "iteration diverges after round {round}");
        }
    }

    #[test]
    fn index_grows_when_span_is_undersized_and_counts_it() {
        let mut index: InFlightIndex<u64> = InFlightIndex::with_span(2);
        let before = index.alloc_events();
        for seq in 0..32 {
            *index.get_or_default(seq) = seq;
        }
        assert!(index.alloc_events() > before, "collisions must grow the ring");
        for seq in 0..32 {
            assert_eq!(index.get(seq), Some(&seq));
        }
    }

    #[test]
    fn index_sized_to_span_never_allocates_after_construction() {
        let mut index: InFlightIndex<u64> = InFlightIndex::with_span(64);
        assert_eq!(index.alloc_events(), 1);
        let mut floor = 0u64;
        for seq in 0..10_000u64 {
            *index.get_or_default(seq) = seq;
            // Keep the live span under 64, retiring from the floor.
            if seq >= 63 {
                assert_eq!(index.remove(floor), Some(floor));
                floor += 1;
            }
        }
        assert_eq!(index.alloc_events(), 1, "steady state is allocation-free");
    }

    #[test]
    fn squash_clamps_tail_so_seqs_can_be_reissued() {
        let mut index: InFlightIndex<u64> = InFlightIndex::with_span(8);
        for seq in 0..6 {
            *index.get_or_default(seq) = seq;
        }
        index.squash_from(3, |_, _| {});
        assert_eq!(index.tail(), 3);
        // Refetched seqs land in the now-empty slots.
        *index.get_or_default(3) = 99;
        assert_eq!(index.get(3), Some(&99));
        let mut seqs = Vec::new();
        index.for_each(|s, _| seqs.push(s));
        assert_eq!(seqs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn clear_resets_bounds() {
        let mut index: InFlightIndex<u64> = InFlightIndex::with_span(8);
        for seq in 0..5 {
            *index.get_or_default(seq) = seq;
        }
        index.clear();
        assert!(index.is_empty());
        assert_eq!(index.tail(), 0);
        *index.get_or_default(0) = 7;
        assert_eq!(index.get(0), Some(&7));
    }
}
