//! Allocation-free in-flight state containers.
//!
//! Two structures back the "zero heap allocation per instruction in steady
//! state" invariant (DESIGN.md §7e):
//!
//! * [`Slab`] — a generational arena. Freed slots go on a free list and are
//!   reused; every slot carries a generation counter bumped on free, so a
//!   stale [`SlotId`] held across a reuse can never silently read the new
//!   occupant ([`Slab::get`] returns `None` on a generation mismatch, and
//!   debug builds additionally assert).
//! * [`InFlightIndex`] — an ordered map over *monotonically allocated*
//!   sequence numbers, as produced by the fetch stream. Because live seqs
//!   always span a bounded window (the fetch buffer bounds how far the
//!   newest live entry can run ahead of the oldest), a power-of-two ring
//!   indexed by `seq & mask` gives O(1) insert/lookup/remove and ascending
//!   iteration identical to a `BTreeMap<u64, T>` range walk — with zero
//!   allocation once the ring has reached the window size.
//!
//! Both structures count their growth events ([`Slab::alloc_events`],
//! [`InFlightIndex::alloc_events`]) so models can surface an `alloc_count`
//! that provably stays flat after warm-up.

/// Handle to a [`Slab`] slot: the slot index plus the generation observed at
/// insertion. A handle outliving its value (freed, possibly reused) fails
/// the generation check instead of aliasing the new occupant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SlotId {
    index: u32,
    gen: u32,
}

impl SlotId {
    /// The raw slot index (stable for the lifetime of the value).
    pub fn index(self) -> usize {
        self.index as usize
    }

    /// The generation this handle was issued under.
    pub fn generation(self) -> u32 {
        self.gen
    }
}

#[derive(Clone, Debug)]
struct Slot<T> {
    gen: u32,
    value: Option<T>,
}

/// A generational slab allocator: stable handles, free-list reuse, and
/// generation-checked access.
///
/// # Examples
///
/// ```
/// use ff_engine::slab::Slab;
///
/// let mut slab = Slab::with_capacity(8);
/// let a = slab.insert("alpha");
/// let b = slab.insert("beta");
/// assert_eq!(slab.get(a), Some(&"alpha"));
/// assert_eq!(slab.remove(a), Some("alpha"));
/// // The freed slot is reused, but the stale handle is caught.
/// let c = slab.insert("gamma");
/// assert_eq!(c.index(), a.index());
/// assert_eq!(slab.get(a), None);
/// assert_eq!(slab.get(c), Some(&"gamma"));
/// assert_eq!(slab.get(b), Some(&"beta"));
/// ```
#[derive(Clone, Debug)]
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    len: usize,
    alloc_events: u64,
}

impl<T> Slab<T> {
    /// An empty slab that will allocate on first insert.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty slab with room for `capacity` values before any growth.
    pub fn with_capacity(capacity: usize) -> Self {
        Slab {
            slots: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            len: 0,
            alloc_events: if capacity > 0 { 1 } else { 0 },
        }
    }

    /// Number of live values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no value is live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Times the slab's backing storage grew (including the initial
    /// allocation). Flat in steady state.
    pub fn alloc_events(&self) -> u64 {
        self.alloc_events
    }

    /// Inserts `value`, reusing a freed slot when one exists.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` slots would be required.
    pub fn insert(&mut self, value: T) -> SlotId {
        self.len += 1;
        if let Some(index) = self.free.pop() {
            let slot = &mut self.slots[index as usize];
            debug_assert!(slot.value.is_none(), "free list pointed at a live slot");
            slot.value = Some(value);
            return SlotId { index, gen: slot.gen };
        }
        let index = u32::try_from(self.slots.len()).expect("slab exceeds u32 slots");
        if self.slots.len() == self.slots.capacity() {
            self.alloc_events += 1;
        }
        self.slots.push(Slot { gen: 0, value: Some(value) });
        SlotId { index, gen: 0 }
    }

    fn slot(&self, id: SlotId) -> Option<&Slot<T>> {
        let slot = self.slots.get(id.index as usize)?;
        if slot.gen != id.gen {
            debug_assert!(
                slot.value.is_none() || slot.gen != id.gen,
                "generation bookkeeping corrupted"
            );
            return None;
        }
        slot.value.as_ref()?;
        Some(slot)
    }

    /// The value behind `id`, or `None` when the slot was freed (and
    /// possibly reused) since the handle was issued.
    pub fn get(&self, id: SlotId) -> Option<&T> {
        self.slot(id).and_then(|s| s.value.as_ref())
    }

    /// Mutable access behind `id`, generation-checked like [`Slab::get`].
    pub fn get_mut(&mut self, id: SlotId) -> Option<&mut T> {
        let slot = self.slots.get_mut(id.index as usize)?;
        if slot.gen != id.gen {
            return None;
        }
        slot.value.as_mut()
    }

    /// Removes and returns the value behind `id`; the slot's generation is
    /// bumped so every outstanding handle to it becomes stale.
    pub fn remove(&mut self, id: SlotId) -> Option<T> {
        let slot = self.slots.get_mut(id.index as usize)?;
        if slot.gen != id.gen {
            return None;
        }
        let value = slot.value.take()?;
        slot.gen = slot.gen.wrapping_add(1);
        if self.free.len() == self.free.capacity() {
            self.alloc_events += 1;
        }
        self.free.push(id.index);
        self.len -= 1;
        Some(value)
    }
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

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
    fn slab_reuses_freed_slots_and_catches_stale_handles() {
        let mut slab = Slab::with_capacity(4);
        let a = slab.insert(10);
        let b = slab.insert(20);
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.remove(a), Some(10));
        assert_eq!(slab.remove(a), None, "double free is caught");
        let c = slab.insert(30);
        assert_eq!(c.index(), a.index(), "slot is reused");
        assert_ne!(c.generation(), a.generation());
        assert_eq!(slab.get(a), None, "stale handle cannot read the reuse");
        assert_eq!(slab.get_mut(a), None);
        assert_eq!(slab.get(b), Some(&20));
        assert_eq!(slab.get(c), Some(&30));
    }

    #[test]
    fn slab_with_capacity_never_grows_within_capacity() {
        let mut slab = Slab::with_capacity(8);
        let start = slab.alloc_events();
        let ids: Vec<SlotId> = (0..8).map(|i| slab.insert(i)).collect();
        for id in &ids {
            slab.remove(*id);
        }
        for i in 0..8 {
            slab.insert(i + 100);
        }
        assert_eq!(slab.alloc_events(), start, "churn within capacity is allocation-free");
    }

    #[test]
    fn slab_growth_is_counted() {
        let mut slab = Slab::new();
        assert_eq!(slab.alloc_events(), 0);
        for i in 0..100 {
            slab.insert(i);
        }
        assert!(slab.alloc_events() > 0);
    }

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
