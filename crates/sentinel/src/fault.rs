//! Deterministic seeded fault injection.
//!
//! A [`FaultClass`] and an index `N` arm [`MultipassConfig::fault`]; the
//! multipass pipeline then silently corrupts the `N`-th occurrence of the
//! class's event (a result-store merge, a load wakeup, ...). Determinism
//! is the point: a `(class, index)` pair always corrupts the same dynamic
//! event, so a detection proved in a test stays proved in CI and a missed
//! detection is replayable.
//!
//! The coverage contract — every fault class is caught by at least one
//! checker — is enforced by [`run_faulted`]'s callers: `ff-sentinel fault`
//! in CI and the crate's tests. Any fault that *fires* is observable (the
//! hooks corrupt events the checkers audit directly), so scanning indices
//! past the end of a run's event stream simply yields clean runs.

use ff_engine::SimCase;
use ff_isa::{MemoryImage, Program};
use ff_multipass::{FaultClass, Multipass, MultipassConfig};

use crate::{check_model, demo, SentinelReport};

/// Cycle watchdog for faulted runs: a dropped wakeup wedges the pipeline
/// forever, so faulted runs must time out rather than hang. Large enough
/// that a warped-latency run (~100k stalled cycles) still completes.
pub const FAULT_CYCLE_BUDGET: u64 = 400_000;

/// The sentinels expected to catch `class`.
pub fn expected_sentinels(class: FaultClass) -> &'static [&'static str] {
    match class {
        FaultClass::RegisterBitFlip => &["golden"],
        FaultClass::DroppedWakeup => &["scoreboard-srf"],
        FaultClass::WarpedCacheLatency => &["scoreboard-srf"],
        FaultClass::LostMshrDealloc => &["mshr"],
        FaultClass::StaleAscForward => &["asc"],
        FaultClass::DroppedReadyInsert => &["scoreboard-srf"],
    }
}

/// The demo kernel guaranteed to reach `class`'s fault site at index 0.
fn workload(class: FaultClass) -> (Program, MemoryImage) {
    match class {
        FaultClass::StaleAscForward => demo::forwarding(),
        _ => demo::chase(32),
    }
}

/// A seeded linear-congruential fault-site picker. Deterministic: the same
/// seed always yields the same `(class, index)` campaign.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    state: u64,
}

impl FaultInjector {
    /// Creates an injector from a seed.
    pub fn new(seed: u64) -> Self {
        FaultInjector { state: seed ^ 0x9e37_79b9_7f4a_7c15 }
    }

    fn next_u64(&mut self) -> u64 {
        // Knuth's MMIX LCG constants; plenty for picking fault sites.
        self.state = self
            .state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.state >> 16
    }

    /// Picks the next fault: a class and a small occurrence index (small so
    /// the site usually lands within a short run's event stream).
    pub fn next_fault(&mut self) -> (FaultClass, u64) {
        let class = FaultClass::ALL[(self.next_u64() % FaultClass::ALL.len() as u64) as usize];
        let index = self.next_u64() % 4;
        (class, index)
    }
}

/// Runs this class's demo kernel on the multipass model with the fault
/// armed at `index`, under the full checker set.
pub fn run_faulted(class: FaultClass, index: u64) -> SentinelReport {
    let (p, mem) = workload(class);
    let case = SimCase::new(&p, mem).with_cycle_budget(FAULT_CYCLE_BUDGET);
    let cfg = MultipassConfig { fault: Some((class, index)), ..MultipassConfig::default() };
    let mut model = Multipass::with_config(cfg);
    check_model(&mut model, &case)
}

/// Whether `report` shows the fault was caught by a sentinel expected to
/// catch this class.
pub fn detected(class: FaultClass, report: &SentinelReport) -> bool {
    expected_sentinels(class).iter().any(|s| report.fired(s))
}
