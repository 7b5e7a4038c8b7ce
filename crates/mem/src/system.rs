//! The assembled memory system: L1I + L1D over unified L2/L3 and main
//! memory, with non-blocking misses through a shared MSHR file.

use crate::cache::Cache;
use crate::config::HierarchyConfig;
use crate::mshr::{MshrFile, MshrOutcome};

/// What kind of access is being performed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// Demand data load.
    DataRead,
    /// Data store (write-allocate; never stalls the pipe, see DESIGN.md).
    DataWrite,
    /// Speculative load issued by advance/runahead execution. Times exactly
    /// like [`AccessKind::DataRead`] but is counted separately so experiments
    /// can report prefetch traffic.
    SpeculativeRead,
    /// Instruction fetch through the L1I.
    InstFetch,
}

impl AccessKind {
    #[inline]
    fn is_ifetch(self) -> bool {
        matches!(self, AccessKind::InstFetch)
    }
}

/// Which level of the hierarchy served an access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HitLevel {
    /// First-level cache (L1I or L1D depending on the access kind).
    L1,
    /// Unified second-level cache.
    L2,
    /// Unified third-level cache.
    L3,
    /// Main memory.
    Memory,
}

impl HitLevel {
    /// True when the access missed the first level (a "cache miss" in the
    /// paper's stall taxonomy).
    pub fn is_miss(self) -> bool {
        self != HitLevel::L1
    }

    /// True for the "relatively long" misses of Figure 1 (L3 or memory).
    pub fn is_long_miss(self) -> bool {
        matches!(self, HitLevel::L3 | HitLevel::Memory)
    }
}

/// Result of a timed memory access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemAccess {
    /// The access was accepted; its value is usable at `complete_at`.
    Done {
        /// Cycle at which the result is available for bypass.
        complete_at: u64,
        /// The level that served the request.
        level: HitLevel,
    },
    /// No MSHR was available; retry on a later cycle.
    Retry,
}

impl MemAccess {
    /// The completion cycle, if the access was accepted.
    pub fn complete_at(&self) -> Option<u64> {
        match self {
            MemAccess::Done { complete_at, .. } => Some(*complete_at),
            MemAccess::Retry => None,
        }
    }
}

/// Aggregate counters for one simulation run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Demand + speculative data accesses.
    pub data_accesses: u64,
    /// Data accesses that missed L1D.
    pub l1d_misses: u64,
    /// Data accesses served by L2.
    pub l2_hits: u64,
    /// Data accesses served by L3.
    pub l3_hits: u64,
    /// Data accesses served by main memory.
    pub mm_accesses: u64,
    /// Instruction fetches.
    pub ifetches: u64,
    /// Instruction fetches that missed L1I.
    pub l1i_misses: u64,
    /// Accesses rejected because the MSHR file was full.
    pub mshr_retries: u64,
    /// Speculative (advance/runahead) reads issued.
    pub speculative_reads: u64,
    /// MSHR entries allocated over the run.
    pub mshr_allocations: u64,
    /// MSHR entries released by expiry, including the end-of-run drain.
    pub mshr_releases: u64,
    /// MSHR entries still resident after the end-of-run drain. Nonzero
    /// means a leak: an allocation whose fill response never arrived.
    pub mshr_leaked: u64,
}

/// The full timing memory system.
///
/// All levels are tag-only (data lives in the functional memory image).
/// Misses allocate in the shared MSHR file; lines are installed into every
/// level on the refill path at request time, with the completion cycle
/// reported by the MSHR entry. Same-line requests merge. Writes allocate
/// but never consume MSHRs (the store buffer is idealized identically for
/// every model).
#[derive(Clone, Debug)]
pub struct MemorySystem {
    config: HierarchyConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    l3: Cache,
    mshrs: MshrFile,
    stats: MemStats,
    fault_warp_latency: Option<u64>,
    data_reads_seen: u64,
}

impl MemorySystem {
    /// Creates a memory system with cold caches.
    ///
    /// # Panics
    ///
    /// If the L1I latency is above one cycle. Fetch reads any later
    /// completion as a miss, waits for it and accesses the line again, so
    /// a slower hit would never deliver a fetch group.
    pub fn new(config: HierarchyConfig) -> Self {
        assert!(
            config.l1i.latency <= 1,
            "an L1I latency of {} cycles is unsupported: fetch reads a hit slower than one \
             cycle as a miss and never delivers",
            config.l1i.latency
        );
        MemorySystem {
            config,
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            l3: Cache::new(config.l3),
            mshrs: MshrFile::new(config.max_outstanding as usize),
            stats: MemStats::default(),
            fault_warp_latency: None,
            data_reads_seen: 0,
        }
    }

    /// Fault-injection hook: the `n`-th data read (0-based, demand or
    /// speculative) reports a completion cycle warped far past any legal
    /// hierarchy latency. Models a corrupted fill-timing response.
    pub fn inject_warp_latency(&mut self, n: u64) {
        self.fault_warp_latency = Some(n);
    }

    /// Fault-injection hook: the `n`-th MSHR allocation is never
    /// deallocated. See [`MshrFile::inject_lost_dealloc`].
    pub fn inject_lost_mshr_dealloc(&mut self, n: u64) {
        self.mshrs.inject_lost_dealloc(n);
    }

    /// Final run counters: drains the MSHR file (releasing every miss that
    /// completes at a finite cycle) and folds the allocation/release
    /// balance into the stats so leaks are visible in [`MemStats`].
    pub fn final_stats(&mut self) -> MemStats {
        self.mshrs.drain();
        let mut s = self.stats;
        s.mshr_allocations = self.mshrs.allocations();
        s.mshr_releases = self.mshrs.releases();
        s.mshr_leaked = self.mshrs.live() as u64;
        s
    }

    /// The hierarchy configuration.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Run counters.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// MSHR file (occupancy / merge statistics).
    pub fn mshrs(&self) -> &MshrFile {
        &self.mshrs
    }

    /// The earliest cycle after `now` at which an outstanding miss fills
    /// (see [`MshrFile::next_fill_at`]), or `u64::MAX` when none is in
    /// flight. Event-driven models include this in every quiescent
    /// window's wake set so a fast-forward never skips past a fill.
    #[inline]
    pub fn next_mshr_fill(&self, now: u64) -> u64 {
        self.mshrs.next_fill_at(now).unwrap_or(u64::MAX)
    }

    /// Performs a timed access at cycle `now`.
    ///
    /// For hits, `complete_at = now + level latency`. For misses an MSHR is
    /// required: if none is free, [`MemAccess::Retry`] is returned and no
    /// state changes besides the retry counter. Misses install the line in
    /// every level on the refill path immediately and complete at
    /// `now + latency_of_serving_level`. A second access to a line already
    /// in flight merges and completes when the first does.
    #[inline]
    pub fn access(&mut self, addr: u64, kind: AccessKind, now: u64) -> MemAccess {
        let warp = if matches!(kind, AccessKind::DataRead | AccessKind::SpeculativeRead) {
            let hit = self.fault_warp_latency == Some(self.data_reads_seen);
            self.data_reads_seen += 1;
            hit
        } else {
            false
        };
        let r = self.access_inner(addr, kind, now);
        match r {
            MemAccess::Done { complete_at, level } if warp => {
                MemAccess::Done { complete_at: complete_at + Self::WARP_DELAY, level }
            }
            _ => r,
        }
    }

    /// Charges `n` instruction fetches of `addr` at cycles `now..now + n`
    /// when the first is an L1I hit with no miss in flight on its line —
    /// a fetch stage re-reading a resident line every cycle while it
    /// cannot accept instructions. The counters, LRU order and MSHR file
    /// end exactly as after `n` polled [`MemorySystem::access`] calls
    /// with nothing else accessing the hierarchy in between: the first
    /// access is real and moves the line to MRU; the other `n - 1` find it
    /// still resident and still not in flight, and only count. Returns
    /// `false` and changes nothing when the first fetch would not hit.
    pub fn repeat_ifetch_hits(&mut self, addr: u64, now: u64, n: u64) -> bool {
        let line = self.l1i.line_addr(addr);
        if n == 0 || !self.l1i.probe(addr) || self.mshrs.in_flight(line, now).is_some() {
            return false;
        }
        let first = self.access(addr, AccessKind::InstFetch, now);
        debug_assert!(matches!(first, MemAccess::Done { level: HitLevel::L1, .. }));
        self.stats.ifetches += n - 1;
        self.l1i.note_hits(n - 1);
        true
    }

    /// Extra delay injected by [`MemorySystem::inject_warp_latency`] — far
    /// beyond any legal hierarchy latency, so timing sentinels can bound
    /// legitimate completion times well below it.
    pub const WARP_DELAY: u64 = 99_000;

    fn access_inner(&mut self, addr: u64, kind: AccessKind, now: u64) -> MemAccess {
        if kind.is_ifetch() {
            self.stats.ifetches += 1;
        } else {
            self.stats.data_accesses += 1;
            if matches!(kind, AccessKind::SpeculativeRead) {
                self.stats.speculative_reads += 1;
            }
        }

        let l1 = if kind.is_ifetch() { &mut self.l1i } else { &mut self.l1d };
        let line = l1.line_addr(addr);

        // An access to a line whose miss is still in flight merges with it
        // and completes when the original miss does — even though the tags
        // were installed at request time, the data has not arrived yet.
        if let Some(done) = self.mshrs.in_flight(line, now) {
            if kind.is_ifetch() {
                self.stats.l1i_misses += 1;
            } else {
                self.stats.l1d_misses += 1;
            }
            self.mshrs.note_merge();
            self.fill_path(addr, kind);
            return MemAccess::Done { complete_at: done, level: HitLevel::L2 };
        }

        if l1.access(addr) {
            return MemAccess::Done {
                complete_at: now + l1.config().latency as u64,
                level: HitLevel::L1,
            };
        }
        if kind.is_ifetch() {
            self.stats.l1i_misses += 1;
        } else {
            self.stats.l1d_misses += 1;
        }

        // Find the serving level.
        let (level, latency) = if self.l2.access(addr) {
            (HitLevel::L2, self.config.l2.latency)
        } else if self.l3.access(addr) {
            (HitLevel::L3, self.config.l3.latency)
        } else {
            (HitLevel::Memory, self.config.mm_latency)
        };

        // Writes allocate without MSHRs and never stall.
        let complete_at = now + latency as u64;
        if matches!(kind, AccessKind::DataWrite) {
            self.fill_all(addr, kind, level);
            return MemAccess::Done { complete_at, level };
        }

        match self.mshrs.request(line, now, complete_at) {
            MshrOutcome::Allocated { complete_at } => {
                self.fill_all(addr, kind, level);
                match level {
                    HitLevel::L2 => self.stats.l2_hits += 1,
                    HitLevel::L3 => self.stats.l3_hits += 1,
                    HitLevel::Memory => self.stats.mm_accesses += 1,
                    HitLevel::L1 => unreachable!("L1 hits return early"),
                }
                MemAccess::Done { complete_at, level }
            }
            MshrOutcome::Merged { complete_at } => {
                self.fill_path(addr, kind);
                MemAccess::Done { complete_at, level }
            }
            MshrOutcome::Full => {
                self.stats.mshr_retries += 1;
                MemAccess::Retry
            }
        }
    }

    /// Installs the line into the first-level cache on the access path
    /// (used when merging with an in-flight miss).
    fn fill_path(&mut self, addr: u64, kind: AccessKind) {
        if kind.is_ifetch() {
            self.l1i.fill(addr);
        } else {
            self.l1d.fill(addr);
        }
    }

    /// Installs the line into every level between the serving level and the
    /// requesting L1.
    fn fill_all(&mut self, addr: u64, kind: AccessKind, served_by: HitLevel) {
        if served_by >= HitLevel::Memory {
            self.l3.fill(addr);
        }
        if served_by >= HitLevel::L3 {
            self.l2.fill(addr);
        }
        self.fill_path(addr, kind);
    }

    /// Per-level caches, exposed for tests and detailed statistics.
    pub fn l1d(&self) -> &Cache {
        &self.l1d
    }

    /// The instruction cache.
    pub fn l1i(&self) -> &Cache {
        &self.l1i
    }

    /// The unified L2.
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// The unified L3.
    pub fn l3(&self) -> &Cache {
        &self.l3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> MemorySystem {
        MemorySystem::new(HierarchyConfig::itanium2_base())
    }

    #[test]
    fn cold_miss_costs_main_memory_latency() {
        let mut m = sys();
        let r = m.access(0x1_0000, AccessKind::DataRead, 10);
        assert_eq!(r, MemAccess::Done { complete_at: 10 + 145, level: HitLevel::Memory });
    }

    #[test]
    fn refill_installs_in_all_levels() {
        let mut m = sys();
        m.access(0x1_0000, AccessKind::DataRead, 0);
        assert!(m.l1d().probe(0x1_0000));
        assert!(m.l2().probe(0x1_0000));
        assert!(m.l3().probe(0x1_0000));
        let r = m.access(0x1_0000, AccessKind::DataRead, 500);
        assert_eq!(r, MemAccess::Done { complete_at: 501, level: HitLevel::L1 });
    }

    #[test]
    fn l2_hit_costs_five_cycles() {
        let mut m = sys();
        // Fill into all levels, then evict from L1D by filling conflicting
        // lines (L1D: 64 sets, 4 ways -> 5 lines mapping to the same set).
        m.access(0, AccessKind::DataRead, 0);
        let set_stride = 64 * 64; // line_bytes * num_sets
        for i in 1..=4u64 {
            m.access(i * set_stride, AccessKind::DataRead, 1000 + i * 400);
        }
        assert!(!m.l1d().probe(0), "line 0 should be evicted from L1D");
        let r = m.access(0, AccessKind::DataRead, 10_000);
        assert_eq!(r, MemAccess::Done { complete_at: 10_005, level: HitLevel::L2 });
    }

    #[test]
    fn mshr_exhaustion_forces_retry() {
        let mut m = sys();
        for i in 0..16u64 {
            let r = m.access(0x10_0000 + i * 128, AccessKind::DataRead, 0);
            assert!(matches!(r, MemAccess::Done { .. }), "miss {i} should be accepted");
        }
        let r = m.access(0x90_0000, AccessKind::DataRead, 0);
        assert_eq!(r, MemAccess::Retry);
        assert_eq!(m.stats().mshr_retries, 1);
        // After the misses complete, a new miss is accepted.
        let r = m.access(0x90_0000, AccessKind::DataRead, 200);
        assert!(matches!(r, MemAccess::Done { .. }));
    }

    #[test]
    fn same_line_miss_merges() {
        let mut m = sys();
        let a = m.access(0x2000, AccessKind::DataRead, 0);
        let b = m.access(0x2008, AccessKind::DataRead, 3);
        assert_eq!(a.complete_at(), b.complete_at());
        assert_eq!(m.mshrs().merges(), 1);
    }

    #[test]
    fn writes_never_retry_even_when_mshrs_full() {
        let mut m = sys();
        for i in 0..16u64 {
            m.access(0x10_0000 + i * 128, AccessKind::DataRead, 0);
        }
        let r = m.access(0x0dea_d000, AccessKind::DataWrite, 0);
        assert!(matches!(r, MemAccess::Done { .. }));
    }

    #[test]
    fn ifetch_uses_l1i_not_l1d() {
        let mut m = sys();
        m.access(0x3000, AccessKind::InstFetch, 0);
        assert!(m.l1i().probe(0x3000));
        assert!(!m.l1d().probe(0x3000));
        assert_eq!(m.stats().ifetches, 1);
        assert_eq!(m.stats().l1i_misses, 1);
    }

    #[test]
    fn speculative_reads_are_counted_and_fill() {
        let mut m = sys();
        m.access(0x5000, AccessKind::SpeculativeRead, 0);
        assert_eq!(m.stats().speculative_reads, 1);
        // Demand access later hits thanks to the speculative fill.
        let r = m.access(0x5000, AccessKind::DataRead, 1_000);
        assert_eq!(r, MemAccess::Done { complete_at: 1_001, level: HitLevel::L1 });
    }

    #[test]
    fn repeated_ifetch_hits_equal_polled_fetches() {
        let (mut polled, mut bulk) = (sys(), sys());
        for m in [&mut polled, &mut bulk] {
            m.access(0x3000, AccessKind::InstFetch, 0);
        }
        // While 0x3000's miss is in flight the bulk charge declines.
        assert!(!bulk.repeat_ifetch_hits(0x3000, 10, 5));
        for t in 500..507 {
            polled.access(0x3000, AccessKind::InstFetch, t);
        }
        assert!(bulk.repeat_ifetch_hits(0x3000, 500, 7));
        assert_eq!(polled.final_stats(), bulk.final_stats());
        assert_eq!(polled.l1i().hits(), bulk.l1i().hits());
        // A line that is not resident declines, leaving every count as is.
        let before = *bulk.stats();
        assert!(!bulk.repeat_ifetch_hits(0x9000, 600, 3));
        assert_eq!(*bulk.stats(), before);
    }

    #[test]
    fn hit_level_classification() {
        assert!(!HitLevel::L1.is_miss());
        assert!(HitLevel::L2.is_miss());
        assert!(!HitLevel::L2.is_long_miss());
        assert!(HitLevel::L3.is_long_miss());
        assert!(HitLevel::Memory.is_long_miss());
    }
}
