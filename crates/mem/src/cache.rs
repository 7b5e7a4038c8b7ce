//! A set-associative, LRU, tag-only cache model.
//!
//! Only tags are tracked — data values live in the functional
//! `ff_isa::MemoryImage`. The cache answers "would this access hit?" and
//! maintains replacement state.

use crate::config::CacheConfig;

/// A set-associative cache with true-LRU replacement.
///
/// # Examples
///
/// ```
/// use ff_mem::{Cache, CacheConfig};
/// let mut c = Cache::new(CacheConfig::new(1024, 2, 64, 1));
/// assert!(!c.access(0));        // cold miss
/// c.fill(0);
/// assert!(c.access(0));         // now hits
/// assert!(c.access(63));        // same line
/// assert!(!c.access(64));       // next line
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    /// Per-set LRU stacks of line addresses, most-recently-used first, in
    /// one flat array of `assoc` ways per set. A set's invalid ways are
    /// [`EMPTY`] and sit behind its valid ones.
    ways: Vec<u64>,
    /// `log2(line_bytes)`.
    line_shift: u32,
    num_sets: u64,
    hits: u64,
    misses: u64,
}

/// An invalid way. Line addresses of lines of two or more bytes are even,
/// so none equals it.
const EMPTY: u64 = u64::MAX;

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if lines are one byte long.
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.line_bytes > 1, "a one-byte line address could equal the invalid way");
        Cache {
            config,
            ways: vec![EMPTY; (config.num_sets() * config.assoc as u64) as usize],
            line_shift: config.line_bytes.trailing_zeros(),
            num_sets: config.num_sets(),
            hits: 0,
            misses: 0,
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The line address (byte address of the line start) containing `addr`.
    #[inline]
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.config.line_bytes - 1)
    }

    /// The line address of `addr` and the ways of its set.
    #[inline]
    fn set_of(&self, addr: u64) -> (u64, std::ops::Range<usize>) {
        let line = self.line_addr(addr);
        let block = line >> self.line_shift;
        let set = if self.num_sets.is_power_of_two() {
            block & (self.num_sets - 1)
        } else {
            block % self.num_sets
        };
        let assoc = self.config.assoc as usize;
        let first = set as usize * assoc;
        (line, first..first + assoc)
    }

    /// Moves `line` to the most-recently-used way of its set `ways` when it
    /// is resident; returns whether it was.
    #[inline]
    fn touch(ways: &mut [u64], line: u64) -> bool {
        match ways.iter().position(|&l| l == line) {
            Some(pos) => {
                Self::push_front(ways, pos, line);
                true
            }
            None => false,
        }
    }

    /// Shifts `ways[..last]` one way toward LRU, dropping `ways[last]`,
    /// and puts `line` in the MRU way. (A plain loop: sets are a few ways
    /// long, too short for `rotate_right` to pay off.)
    #[inline]
    fn push_front(ways: &mut [u64], last: usize, line: u64) {
        for i in (1..=last).rev() {
            ways[i] = ways[i - 1];
        }
        ways[0] = line;
    }

    /// Probes for `addr`, updating LRU and hit/miss counters. Returns
    /// whether the access hit. Does **not** allocate on miss; call
    /// [`Cache::fill`] for that (the [`crate::MemorySystem`] separates the
    /// two so MSHR merging can intervene).
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        let (line, set) = self.set_of(addr);
        let hit = Self::touch(&mut self.ways[set], line);
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// Probes without updating LRU or counters.
    #[inline]
    pub fn probe(&self, addr: u64) -> bool {
        let (line, set) = self.set_of(addr);
        self.ways[set].contains(&line)
    }

    /// Installs the line containing `addr` as most-recently-used, evicting
    /// the LRU line of the set if necessary. Returns the evicted line
    /// address, if any. Filling an already-present line just refreshes LRU.
    #[inline]
    pub fn fill(&mut self, addr: u64) -> Option<u64> {
        let (line, set) = self.set_of(addr);
        let ways = &mut self.ways[set];
        if Self::touch(ways, line) {
            return None;
        }
        let last = ways.len() - 1;
        let evicted = ways[last];
        Self::push_front(ways, last, line);
        (evicted != EMPTY).then_some(evicted)
    }

    /// Removes the line containing `addr` if present (back-invalidation).
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let (line, set) = self.set_of(addr);
        let ways = &mut self.ways[set];
        match ways.iter().position(|&l| l == line) {
            Some(pos) => {
                ways[pos..].rotate_left(1);
                ways[ways.len() - 1] = EMPTY;
                true
            }
            None => false,
        }
    }

    /// Counts `n` further hits on a line [`Cache::access`] just moved to
    /// MRU: repeating that access changes nothing but the hit count.
    pub(crate) fn note_hits(&mut self, n: u64) {
        self.hits += n;
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.ways.iter().filter(|&&l| l != EMPTY).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets, 2 ways, 64B lines.
        Cache::new(CacheConfig::new(256, 2, 64, 1))
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Lines 0, 128, 256 all map to set 0 (line/64 % 2 == 0).
        c.fill(0);
        c.fill(128);
        assert!(c.probe(0) && c.probe(128));
        // Touch 0 so 128 is LRU, then fill 256 -> evicts 128.
        assert!(c.access(0));
        let evicted = c.fill(256);
        assert_eq!(evicted, Some(128));
        assert!(c.probe(0));
        assert!(!c.probe(128));
        assert!(c.probe(256));
    }

    #[test]
    fn different_sets_do_not_interfere() {
        let mut c = tiny();
        c.fill(0); // set 0
        c.fill(64); // set 1
        c.fill(128); // set 0
        assert!(c.probe(64));
        assert_eq!(c.resident_lines(), 3);
    }

    #[test]
    fn fill_refreshes_lru_without_duplication() {
        let mut c = tiny();
        c.fill(0);
        c.fill(128);
        assert_eq!(c.fill(0), None); // refresh, no eviction
        assert_eq!(c.fill(256), Some(128));
    }

    #[test]
    fn counters_track_hits_and_misses() {
        let mut c = tiny();
        assert!(!c.access(0));
        c.fill(0);
        assert!(c.access(0));
        assert!(c.access(32)); // same line
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn probe_does_not_disturb_state() {
        let mut c = tiny();
        c.fill(0);
        c.fill(128);
        // Probing 128 must not make it MRU.
        assert!(c.probe(0));
        let _ = c.probe(128);
        let evicted = c.fill(256);
        // LRU order is [128, 0] by fill order; probe didn't change it, so 0
        // was MRU from fill(0)? fills order: 0 then 128 => MRU=128, LRU=0.
        assert_eq!(evicted, Some(0));
        assert_eq!(c.hits(), 0);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.fill(0);
        assert!(c.invalidate(0));
        assert!(!c.probe(0));
        assert!(!c.invalidate(0));
    }
}
