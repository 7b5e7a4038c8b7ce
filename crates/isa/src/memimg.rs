//! Functional data memory.
//!
//! [`MemoryImage`] is the *functional* half of the memory system: a sparse,
//! word-addressed store of 64-bit values. The *timing* half (caches, MSHRs,
//! latencies) lives in `ff-mem`; pipeline models consult both. Addresses are
//! byte addresses; accesses are 8-byte-aligned words (the compiler stand-in
//! only emits aligned word accesses, matching the ILP32-on-64-bit-words
//! simplification documented in DESIGN.md).
//!
//! Words live in 4 KiB pages (512 words) held in a map keyed by page
//! number, so a load or store is one fixed-hasher probe plus an array
//! index, and an image costs one page per touched 4 KiB of address space
//! rather than a hash-table slot per word. Each page carries a written-bit
//! mask, which keeps [`MemoryImage::written_words`], `==` and
//! [`MemoryImage::iter`] exact: an explicit zero store is a written word.
//!
//! Pages are reference-counted and copied on write: cloning an image bumps
//! one count per page, and a store copies its page only while another
//! image still shares it. A workload's input image, the `SimCase` built
//! from it and the run's architectural state therefore hold one copy of
//! every page the run never writes.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Word size of every memory access, in bytes.
pub const WORD_BYTES: u64 = 8;

/// Words per page (4 KiB pages).
const PAGE_WORDS: usize = 512;
/// `log2` of the page size in bytes.
const PAGE_SHIFT: u32 = 12;

/// One 4 KiB page: its words plus a bit per word recording whether it was
/// ever stored to. Unwritten words are zero.
#[derive(Clone, PartialEq, Eq)]
struct Page {
    words: [u64; PAGE_WORDS],
    written: [u64; PAGE_WORDS / 64],
}

impl Page {
    fn zeroed() -> Arc<Page> {
        Arc::new(Page { words: [0; PAGE_WORDS], written: [0; PAGE_WORDS / 64] })
    }

    fn is_written(&self, slot: usize) -> bool {
        (self.written[slot / 64] >> (slot % 64)) & 1 == 1
    }
}

/// A fixed (unseeded) multiplicative hasher for page numbers: iteration
/// order and probe sequences are the same in every process, and a probe
/// costs one multiply instead of a SipHash round. The keys are simulated
/// addresses, so a program whose pages collide slows only its own run.
#[derive(Clone, Copy, Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Sparse functional memory, word-granular, zero-initialized.
///
/// # Examples
///
/// ```
/// use ff_isa::MemoryImage;
/// let mut m = MemoryImage::new();
/// assert_eq!(m.load(0x1000), 0);
/// m.store(0x1000, 42);
/// assert_eq!(m.load(0x1000), 42);
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct MemoryImage {
    pages: HashMap<u64, Arc<Page>, BuildHasherDefault<PageHasher>>,
}

/// Splits a byte address into its page number and word slot in the page.
#[inline]
fn locate(addr: u64) -> (u64, usize) {
    (addr >> PAGE_SHIFT, (addr / WORD_BYTES) as usize % PAGE_WORDS)
}

impl MemoryImage {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rounds a byte address down to its containing word address.
    #[inline]
    pub fn word_addr(addr: u64) -> u64 {
        addr & !(WORD_BYTES - 1)
    }

    /// Loads the 64-bit word containing byte address `addr`. Unwritten
    /// locations read as zero.
    #[inline]
    pub fn load(&self, addr: u64) -> u64 {
        let (page, slot) = locate(addr);
        self.pages.get(&page).map_or(0, |p| p.words[slot])
    }

    /// Stores a 64-bit word at the word containing byte address `addr`,
    /// returning the previous value. A page shared with a clone is copied
    /// first, so the store is never seen through another image.
    #[inline]
    pub fn store(&mut self, addr: u64, value: u64) -> u64 {
        let (page, slot) = locate(addr);
        let p = Arc::make_mut(self.pages.entry(page).or_insert_with(Page::zeroed));
        p.written[slot / 64] |= 1 << (slot % 64);
        std::mem::replace(&mut p.words[slot], value)
    }

    /// Stores `f(i)` at word `i` of the `words` consecutive words from the
    /// word containing byte address `base`, in order: the same image as
    /// `store(base + 8 * i, f(i))` for each `i`, but with one page lookup
    /// and one copy-on-write check per page rather than per word.
    pub fn fill(&mut self, base: u64, words: u64, mut f: impl FnMut(u64) -> u64) {
        let mut addr = Self::word_addr(base);
        let mut i = 0;
        while i < words {
            let (page, first) = locate(addr);
            let n = (PAGE_WORDS - first).min(usize::try_from(words - i).unwrap_or(usize::MAX));
            let p = Arc::make_mut(self.pages.entry(page).or_insert_with(Page::zeroed));
            for slot in first..first + n {
                p.words[slot] = f(i);
                p.written[slot / 64] |= 1 << (slot % 64);
                i += 1;
            }
            addr += n as u64 * WORD_BYTES;
        }
    }

    /// Number of words that have been written (footprint proxy).
    pub fn written_words(&self) -> usize {
        self.pages.values().flat_map(|p| p.written).map(|m| m.count_ones() as usize).sum()
    }

    /// Iterates over `(word_address, value)` pairs of written words in an
    /// unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.pages.iter().flat_map(|(&page, p)| {
            (0..PAGE_WORDS)
                .filter(|&slot| p.is_written(slot))
                .map(move |slot| ((page << PAGE_SHIFT) + slot as u64 * WORD_BYTES, p.words[slot]))
        })
    }

    /// Compares two images as mathematical functions (treating absent words
    /// as zero), so an explicit zero store equals an untouched word.
    pub fn semantically_eq(&self, other: &MemoryImage) -> bool {
        // Unwritten words are zero, so whole pages compare directly, and a
        // page the two images share needs no compare at all.
        let covers = |a: &MemoryImage, b: &MemoryImage| {
            a.pages.iter().all(|(page, p)| match b.pages.get(page) {
                Some(q) => Arc::ptr_eq(p, q) || p.words == q.words,
                None => p.words.iter().all(|&w| w == 0),
            })
        };
        covers(self, other) && covers(other, self)
    }
}

impl fmt::Debug for MemoryImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut words: Vec<(u64, u64)> = self.iter().collect();
        words.sort_unstable();
        f.debug_map().entries(words).finish()
    }
}

impl FromIterator<(u64, u64)> for MemoryImage {
    fn from_iter<T: IntoIterator<Item = (u64, u64)>>(iter: T) -> Self {
        let mut m = MemoryImage::new();
        m.extend(iter);
        m
    }
}

impl Extend<(u64, u64)> for MemoryImage {
    fn extend<T: IntoIterator<Item = (u64, u64)>>(&mut self, iter: T) {
        for (addr, v) in iter {
            self.store(addr, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialized() {
        let m = MemoryImage::new();
        assert_eq!(m.load(0), 0);
        assert_eq!(m.load(0xdead_beef), 0);
        assert_eq!(m.written_words(), 0);
    }

    #[test]
    fn store_load_round_trip() {
        let mut m = MemoryImage::new();
        m.store(64, 7);
        assert_eq!(m.load(64), 7);
        assert_eq!(m.store(64, 9), 7);
        assert_eq!(m.load(64), 9);
    }

    #[test]
    fn subword_addresses_alias_their_word() {
        let mut m = MemoryImage::new();
        m.store(0x100, 5);
        for off in 0..8 {
            assert_eq!(m.load(0x100 + off), 5, "offset {off} should alias");
        }
        assert_eq!(m.load(0x108), 0);
    }

    #[test]
    fn semantic_equality_ignores_explicit_zeros() {
        let mut a = MemoryImage::new();
        a.store(8, 0);
        let b = MemoryImage::new();
        assert!(a.semantically_eq(&b));
        assert_ne!(a, b, "an explicit zero store is a written word");
        a.store(8, 1);
        assert!(!a.semantically_eq(&b));
    }

    /// A seeded run of clones, stores and loads over four pages, checked
    /// after every step against a reference map per live image: a clone
    /// shares every page, a store unshares its own page only (and copies
    /// nothing when the page is not shared), and `==`, `semantically_eq`,
    /// `written_words` and `iter` agree with the references.
    #[test]
    fn copy_on_write_matches_reference_maps() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeMap;

        type Reference = BTreeMap<u64, u64>;
        let pages_of = |m: &MemoryImage| -> BTreeMap<u64, *const Page> {
            m.pages.iter().map(|(&n, p)| (n, Arc::as_ptr(p))).collect()
        };
        // Written words with a zero value read like unwritten ones.
        let nonzero = |r: &Reference| -> Reference {
            r.iter().filter(|(_, &v)| v != 0).map(|(&a, &v)| (a, v)).collect()
        };
        let check = |m: &MemoryImage, r: &Reference| {
            assert_eq!(m.written_words(), r.len());
            let mut listed: Vec<(u64, u64)> = m.iter().collect();
            listed.sort_unstable();
            assert_eq!(listed, r.iter().map(|(&a, &v)| (a, v)).collect::<Vec<_>>());
            let rebuilt: MemoryImage = r.iter().map(|(&a, &v)| (a, v)).collect();
            assert!(*m == rebuilt && m.semantically_eq(&rebuilt));
        };

        let mut rng = StdRng::seed_from_u64(0xc0u64);
        let mut live: Vec<(MemoryImage, Reference)> = vec![(MemoryImage::new(), Reference::new())];
        let mut unshared = 0;
        for _ in 0..3000 {
            let i = rng.gen_range(0..live.len());
            match rng.gen_range(0..10u32) {
                0..=1 if live.len() < 6 => {
                    let copy = live[i].clone();
                    assert_eq!(
                        pages_of(&copy.0),
                        pages_of(&live[i].0),
                        "a clone shares every page"
                    );
                    live.push(copy);
                }
                0..=1 => {
                    live.swap_remove(i);
                }
                2..=6 => {
                    // A few words per page, so stores revisit each other.
                    let addr = (rng.gen_range(0..4u64) << PAGE_SHIFT) + rng.gen_range(0..8u64) * 8;
                    let value = if rng.gen_bool(0.25) { 0 } else { rng.gen_range(1..1000u64) };
                    let (page, _) = locate(addr);
                    let before = pages_of(&live[i].0);
                    let shared =
                        live[i].0.pages.get(&page).is_some_and(|p| Arc::strong_count(p) > 1);
                    let others: Vec<_> = live.iter().map(|(m, _)| pages_of(m)).collect();
                    let (m, r) = &mut live[i];
                    let prev = r.insert(addr, value).unwrap_or(0);
                    assert_eq!(m.store(addr, value), prev);
                    assert_eq!(Arc::strong_count(&m.pages[&page]), 1, "a stored page is unshared");
                    let after = pages_of(m);
                    for (n, ptr) in &before {
                        let moved = after[n] != *ptr;
                        assert_eq!(moved, *n == page && shared, "page {n} after a store to {page}");
                    }
                    unshared += usize::from(shared);
                    for (j, (m, _)) in live.iter().enumerate().filter(|&(j, _)| j != i) {
                        assert_eq!(pages_of(m), others[j], "a store never touches another image");
                    }
                }
                _ => {
                    let (m, r) = &live[i];
                    let addr = (rng.gen_range(0..5u64) << PAGE_SHIFT) + rng.gen_range(0..8u64) * 8;
                    assert_eq!(m.load(addr), r.get(&addr).copied().unwrap_or(0));
                }
            }
            for (m, r) in &live {
                check(m, r);
            }
            let values: Vec<Reference> = live.iter().map(|(_, r)| nonzero(r)).collect();
            for ((a, ra), va) in live.iter().zip(&values) {
                for ((b, rb), vb) in live.iter().zip(&values) {
                    assert_eq!(a == b, ra == rb);
                    assert_eq!(a.semantically_eq(b), va == vb);
                }
            }
        }
        assert!(unshared > 100, "only {unshared} stores hit a shared page");
    }

    #[test]
    fn fill_matches_per_word_stores_across_pages() {
        let value = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        // Page-aligned, unaligned start slots (one a sub-word address),
        // runs that end mid-page or span several pages, and zero words.
        for (base, words) in
            [(0x10_000, 512), (0x10_008, 1), (0x10_ff8, 2), (0x20_1f4, 1500), (0x30_000, 0)]
        {
            // Over an image that already holds a word in the range and one
            // next to it, shared with a clone that must not change.
            let mut filled = MemoryImage::new();
            filled.store(base + 8, 7);
            filled.store(base.wrapping_sub(8), 9);
            let shared = filled.clone();
            let mut stored = filled.clone();
            filled.fill(base, words, value);
            for i in 0..words {
                stored.store(base + i * 8, value(i));
            }
            assert_eq!(filled, stored, "base {base:#x}, {words} words");
            let sorted = |m: &MemoryImage| {
                let mut words: Vec<_> = m.iter().collect();
                words.sort_unstable();
                words
            };
            assert_eq!(sorted(&filled), sorted(&stored), "base {base:#x}, {words} words");
            assert_eq!(filled.written_words(), stored.written_words());
            assert_eq!(shared.load(base + 8), 7, "the clone shares no filled page");
            assert_eq!(shared.written_words(), 2);
        }
    }

    #[test]
    fn from_iterator_collects() {
        let m: MemoryImage = vec![(0u64, 1u64), (8, 2)].into_iter().collect();
        assert_eq!(m.load(0), 1);
        assert_eq!(m.load(8), 2);
    }
}
