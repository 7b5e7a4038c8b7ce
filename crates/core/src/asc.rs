//! The advance store cache (ASC) of paper §3.6.
//!
//! A small, low-associativity cache that forwards advance-store data to
//! subsequent advance loads within one pass. Unlike an out-of-order
//! processor's content-addressable store queue, the ASC tolerates a very
//! large window of in-flight memory instructions by *allowing information
//! loss*: when a set replaces an entry, later loads that miss in that set
//! can no longer be proven consistent and become **data speculative**. The
//! ASC is cleared at the start of every advance pass.

/// A value forwarded by the ASC.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AscData {
    /// The forwarded store data (with its data-speculation taint).
    Valid {
        /// Store data.
        value: u64,
        /// Whether the store's data was derived from a data-speculative
        /// load (taint propagates to the forwarded value).
        tainted: bool,
        /// Sequence number of the inserting store. A hit only proves
        /// consistency back to this point: an intervening *deferred*
        /// store (unknown address) younger than `seq` may alias the
        /// word, so such hits must be treated as data speculative.
        seq: u64,
    },
    /// The store producing this address had an invalid (deferred) data
    /// operand — any load reading it is itself invalid this pass.
    Invalid,
}

/// Result of an ASC lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AscLookup {
    /// An advance store to this word is present.
    Hit(AscData),
    /// No entry; no replacement has occurred in this set, so the ordinary
    /// cache hierarchy value is trustworthy.
    Miss,
    /// No entry, but this set has replaced entries this pass — the load
    /// must be marked data speculative (S-bit).
    MissAfterReplacement,
}

/// One ASC set, tagged with the pass epoch that last wrote it. A set
/// whose tag is not the cache's current epoch is empty and has seen no
/// replacement, whatever its stale `ways` still hold.
#[derive(Clone, Debug)]
struct AscSet {
    epoch: u32,
    replaced: bool,
    ways: Vec<(u64, AscData)>,
}

/// The epoch no pass ever runs in: a set tagged with it is clear.
const CLEAR_EPOCH: u32 = 0;

/// The advance store cache: word-granular, set-associative, FIFO
/// replacement within a set, with per-set replacement tracking.
///
/// [`AdvanceStoreCache::clear`] is a flash clear, O(1): it starts a new
/// pass epoch, and a set from an older epoch is emptied lazily the next
/// time a store touches it. Only a wrap of the epoch counter touches
/// every set.
#[derive(Clone, Debug)]
pub struct AdvanceStoreCache {
    assoc: usize,
    sets: Vec<AscSet>,
    epoch: u32,
    live: usize,
    inserts: u64,
    replacements: u64,
}

impl AdvanceStoreCache {
    /// Creates an ASC with `entries` total capacity and `assoc` ways.
    ///
    /// # Panics
    ///
    /// Panics unless `assoc >= 1` and `entries` is a positive multiple of
    /// `assoc`.
    pub fn new(entries: usize, assoc: usize) -> Self {
        Self::starting_at_epoch(entries, assoc, CLEAR_EPOCH + 1)
    }

    fn starting_at_epoch(entries: usize, assoc: usize, epoch: u32) -> Self {
        assert!(assoc >= 1 && entries > 0 && entries.is_multiple_of(assoc));
        debug_assert_ne!(epoch, CLEAR_EPOCH);
        let num_sets = entries / assoc;
        AdvanceStoreCache {
            assoc,
            sets: vec![AscSet { epoch: CLEAR_EPOCH, replaced: false, ways: Vec::new() }; num_sets],
            epoch,
            live: 0,
            inserts: 0,
            replacements: 0,
        }
    }

    fn set_index(&self, word_addr: u64) -> usize {
        ((word_addr >> 3) % self.sets.len() as u64) as usize
    }

    /// Records an advance store to the word containing `addr`.
    pub fn insert(&mut self, addr: u64, data: AscData) {
        let word = ff_isa::MemoryImage::word_addr(addr);
        let set_idx = self.set_index(word);
        self.inserts += 1;
        let set = &mut self.sets[set_idx];
        if set.epoch != self.epoch {
            set.epoch = self.epoch;
            set.replaced = false;
            set.ways.clear();
        }
        if let Some(e) = set.ways.iter_mut().find(|(w, _)| *w == word) {
            e.1 = data; // newer store to the same word wins
            return;
        }
        set.ways.push((word, data));
        if set.ways.len() > self.assoc {
            set.ways.remove(0); // FIFO within the set
            set.replaced = true;
            self.replacements += 1;
        } else {
            self.live += 1;
        }
    }

    /// Looks up the word containing `addr`.
    pub fn lookup(&self, addr: u64) -> AscLookup {
        let word = ff_isa::MemoryImage::word_addr(addr);
        let set = &self.sets[self.set_index(word)];
        if set.epoch != self.epoch {
            AscLookup::Miss
        } else if let Some((_, d)) = set.ways.iter().find(|(w, _)| *w == word) {
            AscLookup::Hit(*d)
        } else if set.replaced {
            AscLookup::MissAfterReplacement
        } else {
            AscLookup::Miss
        }
    }

    /// Clears all entries and replacement flags (start of an advance pass)
    /// by starting a new epoch; when the epoch counter wraps, the sets are
    /// retagged for real so no stale set can come back to life.
    pub fn clear(&mut self) {
        self.live = 0;
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == CLEAR_EPOCH {
            for set in &mut self.sets {
                set.epoch = CLEAR_EPOCH;
            }
            self.epoch = CLEAR_EPOCH + 1;
        }
    }

    /// Live entries across all sets.
    pub fn live_entries(&self) -> usize {
        self.live
    }

    /// Total capacity in entries.
    pub fn capacity(&self) -> usize {
        self.sets.len() * self.assoc
    }

    /// Whether every set holds at most `assoc` entries — the structural
    /// capacity invariant audited by the ASC sentinel.
    pub fn assoc_ok(&self) -> bool {
        self.sets.iter().all(|s| s.epoch != self.epoch || s.ways.len() <= self.assoc)
    }

    /// Total inserts over the run.
    pub fn inserts(&self) -> u64 {
        self.inserts
    }

    /// Total replacements (information-loss events) over the run.
    pub fn replacements(&self) -> u64 {
        self.replacements
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xorshift as next;

    fn valid(v: u64) -> AscData {
        AscData::Valid { value: v, tainted: false, seq: 0 }
    }

    #[test]
    fn forwards_store_data() {
        let mut asc = AdvanceStoreCache::new(64, 2);
        asc.insert(0x100, valid(7));
        assert_eq!(asc.lookup(0x100), AscLookup::Hit(valid(7)));
        assert_eq!(asc.lookup(0x104), AscLookup::Hit(valid(7)), "same word");
        assert_eq!(asc.lookup(0x108), AscLookup::Miss);
    }

    #[test]
    fn newer_store_overwrites() {
        let mut asc = AdvanceStoreCache::new(64, 2);
        asc.insert(0x100, valid(1));
        asc.insert(0x100, valid(2));
        assert_eq!(asc.lookup(0x100), AscLookup::Hit(valid(2)));
    }

    #[test]
    fn invalid_store_data_poisons_loads() {
        let mut asc = AdvanceStoreCache::new(64, 2);
        asc.insert(0x200, AscData::Invalid);
        assert_eq!(asc.lookup(0x200), AscLookup::Hit(AscData::Invalid));
    }

    #[test]
    fn replacement_marks_set_speculative() {
        let mut asc = AdvanceStoreCache::new(4, 2); // 2 sets of 2 ways
                                                    // Three distinct words in the same set (stride = 2 words).
        asc.insert(0x00, valid(1));
        asc.insert(0x10, valid(2));
        assert_eq!(asc.lookup(0x20), AscLookup::Miss);
        asc.insert(0x20, valid(3)); // evicts 0x00 (FIFO)
        assert_eq!(asc.lookup(0x00), AscLookup::MissAfterReplacement);
        assert_eq!(asc.lookup(0x10), AscLookup::Hit(valid(2)));
        // The *other* set is unaffected.
        assert_eq!(asc.lookup(0x08), AscLookup::Miss);
        assert_eq!(asc.replacements(), 1);
    }

    #[test]
    fn clear_resets_everything() {
        let mut asc = AdvanceStoreCache::new(4, 2);
        asc.insert(0x00, valid(1));
        asc.insert(0x10, valid(2));
        asc.insert(0x20, valid(3));
        asc.clear();
        assert_eq!(asc.lookup(0x00), AscLookup::Miss);
        assert_eq!(asc.lookup(0x10), AscLookup::Miss);
    }

    /// The element-by-element ASC the epoch tags replaced: the reference
    /// the epoch structure must match observably.
    struct ReferenceAsc {
        assoc: usize,
        sets: Vec<Vec<(u64, AscData)>>,
        replaced: Vec<bool>,
    }

    impl ReferenceAsc {
        fn new(entries: usize, assoc: usize) -> Self {
            let num_sets = entries / assoc;
            ReferenceAsc {
                assoc,
                sets: vec![Vec::new(); num_sets],
                replaced: vec![false; num_sets],
            }
        }

        fn set_index(&self, word: u64) -> usize {
            ((word >> 3) % self.sets.len() as u64) as usize
        }

        fn insert(&mut self, addr: u64, data: AscData) {
            let word = ff_isa::MemoryImage::word_addr(addr);
            let set = self.set_index(word);
            let ways = &mut self.sets[set];
            if let Some(e) = ways.iter_mut().find(|(w, _)| *w == word) {
                e.1 = data;
                return;
            }
            ways.push((word, data));
            if ways.len() > self.assoc {
                ways.remove(0);
                self.replaced[set] = true;
            }
        }

        fn lookup(&self, addr: u64) -> AscLookup {
            let word = ff_isa::MemoryImage::word_addr(addr);
            let set = self.set_index(word);
            if let Some((_, d)) = self.sets[set].iter().find(|(w, _)| *w == word) {
                AscLookup::Hit(*d)
            } else if self.replaced[set] {
                AscLookup::MissAfterReplacement
            } else {
                AscLookup::Miss
            }
        }

        fn clear(&mut self) {
            for s in &mut self.sets {
                s.clear();
            }
            self.replaced.fill(false);
        }

        fn live_entries(&self) -> usize {
            self.sets.iter().map(Vec::len).sum()
        }

        fn assoc_ok(&self) -> bool {
            self.sets.iter().all(|s| s.len() <= self.assoc)
        }
    }

    /// Random insert/lookup/clear streams agree with the reference, with
    /// exact `live_entries` and `assoc_ok` after every operation, starting
    /// both at the first epoch and a few clears short of the counter
    /// wrapping.
    #[test]
    fn epoch_clear_matches_element_by_element_clear() {
        let configs = [(64, 2, CLEAR_EPOCH + 1), (8, 2, u32::MAX - 5), (16, 4, u32::MAX)];
        for (seed, (entries, assoc, start)) in configs.into_iter().enumerate() {
            let mut rng = (seed as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let mut asc = AdvanceStoreCache::starting_at_epoch(entries, assoc, start);
            let mut reference = ReferenceAsc::new(entries, assoc);
            let mut clears = 0;
            for _ in 0..20_000 {
                // Sub-word addresses over a footprint a few times the
                // capacity, so sets both overflow and get reused.
                let addr = next(&mut rng) % (entries as u64 * 8 * 3);
                match next(&mut rng) % 10 {
                    0..=4 => {
                        let data = if next(&mut rng).is_multiple_of(4) {
                            AscData::Invalid
                        } else {
                            let r = next(&mut rng);
                            AscData::Valid { value: r, tainted: r & 1 == 1, seq: r >> 40 }
                        };
                        asc.insert(addr, data);
                        reference.insert(addr, data);
                    }
                    5..=8 => assert_eq!(asc.lookup(addr), reference.lookup(addr), "{addr:#x}"),
                    _ => {
                        asc.clear();
                        reference.clear();
                        clears += 1;
                        assert_eq!(asc.live_entries(), 0);
                    }
                }
                assert_eq!(asc.live_entries(), reference.live_entries());
                assert_eq!(asc.assoc_ok(), reference.assoc_ok());
            }
            assert!(clears > 10, "the stream must cross the epoch wrap");
            for word in 0..entries as u64 * 3 {
                assert_eq!(asc.lookup(word * 8), reference.lookup(word * 8), "final {word}");
            }
        }
    }

    /// A set written just before the epoch counter wraps stays empty after
    /// the wrap, even once the counter returns to its old value.
    #[test]
    fn epoch_wrap_never_resurrects_a_stale_set() {
        let mut asc = AdvanceStoreCache::starting_at_epoch(4, 2, u32::MAX);
        asc.insert(0x00, valid(1));
        asc.insert(0x10, valid(2));
        asc.insert(0x20, valid(3));
        asc.clear();
        asc.epoch = u32::MAX;
        assert_eq!(asc.lookup(0x10), AscLookup::Miss);
        assert_eq!(asc.lookup(0x00), AscLookup::Miss, "replacement flag must not survive");
    }

    #[test]
    fn taint_travels_with_data() {
        let mut asc = AdvanceStoreCache::new(64, 2);
        asc.insert(0x300, AscData::Valid { value: 9, tainted: true, seq: 42 });
        match asc.lookup(0x300) {
            AscLookup::Hit(AscData::Valid { value, tainted, seq }) => {
                assert_eq!(value, 9);
                assert!(tainted);
                assert_eq!(seq, 42);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
