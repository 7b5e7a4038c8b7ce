//! Per-structure activity counters for the Wattch-style power models.
//!
//! Each pipeline model increments the counters for the structures it
//! actually contains; `ff-power` combines them with per-access energies and
//! the clock-gating model to produce the *average power* column of the
//! paper's Table 1.

use std::ops::{Add, AddAssign};

/// Access counts for every modeled microarchitectural structure.
///
/// Out-of-order-specific and multipass-specific structures coexist here;
/// a model leaves the counters of structures it lacks at zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Activity {
    /// Cycles simulated (denominator for per-cycle activity factors).
    pub cycles: u64,
    // ---- register/data structures ----
    /// Architectural register-file read ports exercised.
    pub regfile_reads: u64,
    /// Architectural register-file writes.
    pub regfile_writes: u64,
    /// Speculative register-file (SRF) reads (multipass).
    pub srf_reads: u64,
    /// Speculative register-file (SRF) writes (multipass).
    pub srf_writes: u64,
    /// Result-store reads (multipass).
    pub rs_reads: u64,
    /// Result-store writes (multipass).
    pub rs_writes: u64,
    /// Register-alias-table lookups (out-of-order rename).
    pub rat_reads: u64,
    /// Register-alias-table updates (out-of-order rename).
    pub rat_writes: u64,
    // ---- scheduling structures ----
    /// Wakeup tag broadcasts into the scheduling window (out-of-order).
    pub wakeup_broadcasts: u64,
    /// Instructions selected/issued from the scheduling window.
    pub issue_selections: u64,
    /// Instruction-queue wide reads (multipass DEQ/PEEK).
    pub iq_reads: u64,
    /// Instruction-queue wide writes (multipass ENQ).
    pub iq_writes: u64,
    // ---- memory-ordering structures ----
    /// Load-buffer CAM searches (out-of-order).
    pub load_buffer_searches: u64,
    /// Store-buffer CAM searches (out-of-order).
    pub store_buffer_searches: u64,
    /// SMAQ reads/writes (multipass).
    pub smaq_accesses: u64,
    /// Advance-store-cache accesses (multipass).
    pub asc_accesses: u64,
    // ---- simulator self-instrumentation (tick-mode invariant) ----
    /// Live in-flight entries examined by issue select. With wakeup-driven
    /// ready sets this scales with instructions that *become* ready, not
    /// with window size x cycles.
    pub select_visits: u64,
    /// Allocation and growth events of in-flight state containers.
    /// Zero per retired instruction once the pipeline reaches steady state.
    pub alloc_count: u64,
}

impl Activity {
    /// Creates a zeroed activity record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Average accesses per cycle for a counter value.
    pub fn per_cycle(&self, count: u64) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            count as f64 / self.cycles as f64
        }
    }
}

impl Add for Activity {
    type Output = Activity;
    fn add(self, r: Activity) -> Activity {
        Activity {
            cycles: self.cycles + r.cycles,
            regfile_reads: self.regfile_reads + r.regfile_reads,
            regfile_writes: self.regfile_writes + r.regfile_writes,
            srf_reads: self.srf_reads + r.srf_reads,
            srf_writes: self.srf_writes + r.srf_writes,
            rs_reads: self.rs_reads + r.rs_reads,
            rs_writes: self.rs_writes + r.rs_writes,
            rat_reads: self.rat_reads + r.rat_reads,
            rat_writes: self.rat_writes + r.rat_writes,
            wakeup_broadcasts: self.wakeup_broadcasts + r.wakeup_broadcasts,
            issue_selections: self.issue_selections + r.issue_selections,
            iq_reads: self.iq_reads + r.iq_reads,
            iq_writes: self.iq_writes + r.iq_writes,
            load_buffer_searches: self.load_buffer_searches + r.load_buffer_searches,
            store_buffer_searches: self.store_buffer_searches + r.store_buffer_searches,
            smaq_accesses: self.smaq_accesses + r.smaq_accesses,
            asc_accesses: self.asc_accesses + r.asc_accesses,
            select_visits: self.select_visits + r.select_visits,
            alloc_count: self.alloc_count + r.alloc_count,
        }
    }
}

impl AddAssign for Activity {
    fn add_assign(&mut self, rhs: Activity) {
        *self = *self + rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_cycle_guards_zero() {
        let a = Activity::new();
        assert_eq!(a.per_cycle(100), 0.0);
        let b = Activity { cycles: 50, regfile_reads: 100, ..Activity::default() };
        assert!((b.per_cycle(b.regfile_reads) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn addition_sums_fields() {
        let a = Activity { cycles: 1, iq_reads: 2, asc_accesses: 3, ..Activity::default() };
        let b = Activity { cycles: 10, iq_reads: 20, asc_accesses: 30, ..Activity::default() };
        let c = a + b;
        assert_eq!(c.cycles, 11);
        assert_eq!(c.iq_reads, 22);
        assert_eq!(c.asc_accesses, 33);
    }
}
