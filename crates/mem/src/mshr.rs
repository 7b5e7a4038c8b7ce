//! Miss status holding registers (MSHRs).
//!
//! The MSHR file bounds the number of outstanding cache misses (Table 2's
//! "Max Outstanding Misses: 16") and merges accesses to a line whose miss is
//! already in flight. Because overlap of outstanding misses is exactly what
//! runahead-family techniques exploit, this bound is a first-order limit on
//! how much memory-level parallelism any model can expose.

/// Outcome of asking the MSHR file to track a miss.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MshrOutcome {
    /// A new entry was allocated; the miss completes at the given cycle.
    Allocated {
        /// Completion cycle of the newly tracked miss.
        complete_at: u64,
    },
    /// The line already has a miss in flight; this access merges with it and
    /// completes when the existing miss does.
    Merged {
        /// Completion cycle of the in-flight miss.
        complete_at: u64,
    },
    /// All entries are busy; the requester must retry later.
    Full,
}

/// A bounded file of in-flight misses, keyed by line address.
#[derive(Clone, Debug)]
pub struct MshrFile {
    capacity: usize,
    /// `(line_address, complete_at)` pairs for in-flight misses.
    entries: Vec<(u64, u64)>,
    /// The latest `complete_at` ever allocated: no miss is in flight at or
    /// after it, so the lookups answer without a scan once it has passed.
    horizon: u64,
    allocations: u64,
    merges: u64,
    full_stalls: u64,
    releases: u64,
    peak_occupancy: usize,
    fault_lose_dealloc: Option<u64>,
    /// The `(line, complete_at)` entry pinned by the lost-deallocation
    /// fault: it keeps occupying a slot but is never released.
    pinned: Option<(u64, u64)>,
}

impl MshrFile {
    /// Creates an MSHR file with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR capacity must be positive");
        MshrFile {
            capacity,
            entries: Vec::with_capacity(capacity),
            horizon: 0,
            allocations: 0,
            merges: 0,
            full_stalls: 0,
            releases: 0,
            peak_occupancy: 0,
            fault_lose_dealloc: None,
            pinned: None,
        }
    }

    /// Releases entries whose misses have completed by cycle `now`. An
    /// entry pinned by the lost-deallocation fault survives every expiry
    /// and is never counted as released.
    pub fn expire(&mut self, now: u64) {
        let pinned = self.pinned;
        let before = self.entries.len();
        self.entries.retain(|&e| e.1 > now || Some(e) == pinned);
        self.releases += (before - self.entries.len()) as u64;
    }

    /// Releases every entry whose miss has a finite completion, regardless
    /// of the current cycle — the end-of-run drain. A pinned entry (the
    /// lost-deallocation fault) survives the drain and shows up as a leak.
    pub fn drain(&mut self) {
        self.expire(u64::MAX - 1);
    }

    /// Fault-injection hook: the `n`-th allocated entry (0-based) is never
    /// deallocated. The fill itself still arrives — waiters merged on the
    /// line wake at the real completion cycle — but the slot is never
    /// reclaimed. Models the classic MSHR leak where the free-list update
    /// is dropped after the fill response.
    pub fn inject_lost_dealloc(&mut self, n: u64) {
        self.fault_lose_dealloc = Some(n);
    }

    /// Requests tracking of a miss to `line` issued at `now`, completing at
    /// `complete_at` if newly allocated. Expired entries are reclaimed
    /// first. See [`MshrOutcome`].
    pub fn request(&mut self, line: u64, now: u64, complete_at: u64) -> MshrOutcome {
        self.expire(now);
        // A pinned entry whose miss already completed must not serve
        // merges: its fill arrived long ago, only the slot leaked.
        if let Some(&(_, done)) = self.entries.iter().find(|&&(l, d)| l == line && d > now) {
            self.merges += 1;
            return MshrOutcome::Merged { complete_at: done };
        }
        if self.entries.len() >= self.capacity {
            self.full_stalls += 1;
            return MshrOutcome::Full;
        }
        if self.fault_lose_dealloc == Some(self.allocations) {
            self.pinned = Some((line, complete_at));
        }
        self.entries.push((line, complete_at));
        self.horizon = self.horizon.max(complete_at);
        self.allocations += 1;
        self.peak_occupancy = self.peak_occupancy.max(self.entries.len());
        MshrOutcome::Allocated { complete_at }
    }

    /// Records a merge that was detected by the caller via
    /// [`MshrFile::in_flight`] rather than by [`MshrFile::request`].
    pub fn note_merge(&mut self) {
        self.merges += 1;
    }

    /// If `line` has a miss in flight at `now`, its completion cycle.
    #[inline]
    pub fn in_flight(&self, line: u64, now: u64) -> Option<u64> {
        if self.horizon <= now {
            return None;
        }
        self.entries.iter().find(|&&(l, done)| l == line && done > now).map(|&(_, d)| d)
    }

    /// Entries currently occupied at cycle `now`.
    pub fn occupancy(&self, now: u64) -> usize {
        self.entries.iter().filter(|&&(_, done)| done > now).count()
    }

    /// Total new-entry allocations.
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// Total same-line merges.
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Total requests rejected because the file was full.
    pub fn full_stalls(&self) -> u64 {
        self.full_stalls
    }

    /// Total entries released back to the free pool by expiry.
    pub fn releases(&self) -> u64 {
        self.releases
    }

    /// Entries still resident, counting completed-but-unreclaimed ones
    /// (reclamation is lazy; see [`MshrFile::expire`]). After
    /// [`MshrFile::drain`], any nonzero residue is a leak.
    pub fn live(&self) -> usize {
        self.entries.len()
    }

    /// Highest simultaneous occupancy observed.
    pub fn peak_occupancy(&self) -> usize {
        self.peak_occupancy
    }

    /// The earliest cycle after `now` at which an in-flight miss fills,
    /// or `None` when nothing is outstanding — the MSHR file's wake event
    /// for the event-driven tick. A fill both delivers a value (waking
    /// merged requesters) and frees a slot (unblocking `Full` retries),
    /// so fast-forwarded windows never skip past one.
    #[inline]
    pub fn next_fill_at(&self, now: u64) -> Option<u64> {
        if self.horizon <= now {
            return None;
        }
        self.entries.iter().map(|&(_, done)| done).filter(|&d| d > now).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocates_until_full() {
        let mut m = MshrFile::new(2);
        assert_eq!(m.request(0, 0, 100), MshrOutcome::Allocated { complete_at: 100 });
        assert_eq!(m.request(64, 0, 100), MshrOutcome::Allocated { complete_at: 100 });
        assert_eq!(m.request(128, 0, 100), MshrOutcome::Full);
        assert_eq!(m.full_stalls(), 1);
    }

    #[test]
    fn merges_same_line() {
        let mut m = MshrFile::new(2);
        m.request(0, 0, 100);
        assert_eq!(m.request(0, 5, 200), MshrOutcome::Merged { complete_at: 100 });
        assert_eq!(m.merges(), 1);
        assert_eq!(m.occupancy(5), 1);
    }

    #[test]
    fn expires_completed_entries() {
        let mut m = MshrFile::new(1);
        m.request(0, 0, 10);
        assert_eq!(m.request(64, 5, 100), MshrOutcome::Full);
        // At cycle 10 the first miss is done; the slot frees.
        assert_eq!(m.request(64, 10, 100), MshrOutcome::Allocated { complete_at: 100 });
        assert_eq!(m.occupancy(10), 1);
    }

    #[test]
    fn in_flight_reports_completion() {
        let mut m = MshrFile::new(4);
        m.request(0, 0, 42);
        assert_eq!(m.in_flight(0, 10), Some(42));
        assert_eq!(m.in_flight(0, 42), None);
        assert_eq!(m.in_flight(64, 10), None);
    }

    #[test]
    fn drain_balances_allocations_and_releases() {
        let mut m = MshrFile::new(4);
        m.request(0, 0, 10);
        m.request(64, 0, 20);
        m.request(128, 15, 30); // reclaims the first entry on the way in
        m.drain();
        assert_eq!(m.allocations(), 3);
        assert_eq!(m.releases(), 3);
        assert_eq!(m.live(), 0);
    }

    #[test]
    fn lost_dealloc_fault_leaks_one_entry() {
        let mut m = MshrFile::new(4);
        m.inject_lost_dealloc(1);
        assert_eq!(m.request(0, 0, 10), MshrOutcome::Allocated { complete_at: 10 });
        // The faulted allocation still reports its real completion cycle to
        // the requester; only the bookkeeping entry is pinned.
        assert_eq!(m.request(64, 0, 20), MshrOutcome::Allocated { complete_at: 20 });
        m.drain();
        assert_eq!(m.allocations(), 2);
        assert_eq!(m.releases(), 1);
        assert_eq!(m.live(), 1);
    }

    /// [`MshrFile::in_flight`] by a scan of every resident entry.
    fn scan_in_flight(m: &MshrFile, line: u64, now: u64) -> Option<u64> {
        m.entries.iter().find(|&&(l, d)| l == line && d > now).map(|&(_, d)| d)
    }

    /// [`MshrFile::next_fill_at`] by a scan of every resident entry.
    fn scan_next_fill(m: &MshrFile, now: u64) -> Option<u64> {
        m.entries.iter().map(|&(_, d)| d).filter(|&d| d > now).min()
    }

    #[test]
    fn horizon_short_circuit_matches_a_full_scan() {
        for seed in 1..=16u64 {
            let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mut next = move || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            };
            let mut m = MshrFile::new(1 + seed as usize % 8);
            let lost = seed % 5;
            m.inject_lost_dealloc(lost);
            let mut now = 0u64;
            for step in 0..2_000 {
                let r = next();
                match r % 16 {
                    0 => m.drain(),
                    1..=3 => m.expire(now),
                    _ => {
                        let line = (r >> 8) % 8 * 64;
                        let _ = m.request(line, now, now + 1 + (r >> 16) % 300);
                    }
                }
                now += (r >> 32) % 40;
                // Probe on both sides of the horizon.
                for at in [now, now + 1, now + 150, now + 400] {
                    for line in (0..8).map(|l| l * 64) {
                        assert_eq!(
                            m.in_flight(line, at),
                            scan_in_flight(&m, line, at),
                            "seed {seed} step {step} line {line} at {at}"
                        );
                    }
                    assert_eq!(
                        m.next_fill_at(at),
                        scan_next_fill(&m, at),
                        "seed {seed} step {step}"
                    );
                }
            }
            assert!(m.allocations() > lost, "seed {seed}: the lost deallocation never fired");
            m.drain();
            assert_eq!(m.live(), 1, "seed {seed}: the pinned entry must survive the drain");
            assert_eq!(m.next_fill_at(now), scan_next_fill(&m, now));
        }
    }

    #[test]
    fn peak_occupancy_tracks_maximum() {
        let mut m = MshrFile::new(8);
        for i in 0..5u64 {
            m.request(i * 64, 0, 50);
        }
        m.expire(60);
        m.request(999 * 64, 60, 100);
        assert_eq!(m.peak_occupancy(), 5);
    }
}
