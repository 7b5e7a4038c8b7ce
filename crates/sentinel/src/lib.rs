//! Cycle-level invariant checking and deterministic fault injection.
//!
//! The multipass claims rest on subtle bookkeeping — ASC speculation bits,
//! pass-epoch rollback, MSHR lifetimes — that can silently corrupt results
//! rather than crash. This crate makes corruption *loud*:
//!
//! * a pluggable [`Sentinel`] framework: checkers observe a run through
//!   the engine's [`PipelineProbe`] wiring (hooks at retire, per-cycle
//!   snapshots, memory completions, ASC forwards and run end) and report
//!   [`Violation`]s without perturbing timing;
//! * six concrete checkers ([`checkers`]): in-order retirement, scoreboard
//!   / SRF consistency, ASC capacity and S-bit soundness, MSHR
//!   leak/double-free, pass-epoch monotonicity, and counter/activity
//!   accounting balance — plus a golden-interpreter lockstep adapter;
//! * a deterministic, seeded fault injector ([`fault`]) whose every fault
//!   class is proven (in tests and the `sentinel-smoke` CI job) to be
//!   caught by at least one checker.
//!
//! # Example
//!
//! ```
//! use ff_engine::MachineConfig;
//! use ff_multipass::Multipass;
//! use ff_sentinel::check_model;
//! use ff_workloads::{Scale, Workload};
//!
//! let w = Workload::by_name("mcf", Scale::Test).unwrap();
//! let mut model = Multipass::new(MachineConfig::default());
//! let report = check_model(&mut model, &w.sim_case());
//! assert!(report.outcome.is_ok());
//! assert!(report.violations.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use ff_engine::{
    AscForwardObs, CycleObs, ExecutionModel, MemAccessObs, PipelineProbe, RetireEvent, RunError,
    RunResult, SimCase,
};

pub mod checkers;
pub mod demo;
pub mod fault;

pub use checkers::{
    AccountingSentinel, AscSentinel, EpochSentinel, GoldenSentinel, MshrSentinel,
    RetireOrderSentinel, ScoreboardSrfSentinel,
};
pub use fault::{detected, expected_sentinels, run_faulted, FaultInjector};
pub use ff_multipass::FaultClass;

/// One invariant violation observed during a run.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Name of the sentinel that fired.
    pub sentinel: &'static str,
    /// Cycle at which the violation was observed.
    pub cycle: u64,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] cycle {}: {}", self.sentinel, self.cycle, self.message)
    }
}

/// Sink through which a sentinel reports violations. Bounds the total
/// retained so a hot invariant cannot balloon memory.
pub struct Reporter<'a> {
    sentinel: &'static str,
    out: &'a mut Vec<Violation>,
    cap: usize,
}

impl Reporter<'_> {
    /// Records one violation (dropped once the suite's cap is reached).
    pub fn report(&mut self, cycle: u64, message: String) {
        if self.out.len() < self.cap {
            self.out.push(Violation { sentinel: self.sentinel, cycle, message });
        }
    }
}

/// An invariant checker. Every hook mirrors one [`PipelineProbe`]
/// observation and defaults to a no-op, so a sentinel implements only the
/// hooks its invariant needs.
pub trait Sentinel {
    /// Short stable name ("retire-order", "mshr", ...), used in reports
    /// and by fault-detection tests.
    fn name(&self) -> &'static str;

    /// An instruction retired.
    fn on_retire(&mut self, event: &RetireEvent, v: &mut Reporter<'_>) {
        let _ = (event, v);
    }

    /// Top-of-cycle pipeline snapshot (multipass only).
    fn on_cycle(&mut self, obs: &CycleObs, v: &mut Reporter<'_>) {
        let _ = (obs, v);
    }

    /// A data access completed (multipass only).
    fn on_mem_access(&mut self, obs: &MemAccessObs, v: &mut Reporter<'_>) {
        let _ = (obs, v);
    }

    /// The ASC forwarded a store value into a load (multipass only).
    fn on_asc_forward(&mut self, obs: &AscForwardObs, v: &mut Reporter<'_>) {
        let _ = (obs, v);
    }

    /// The run completed.
    fn on_run_end(&mut self, result: &RunResult, v: &mut Reporter<'_>) {
        let _ = (result, v);
    }
}

/// Most violations retained per run; later ones are dropped (the first
/// firing is the interesting one — everything after is usually fallout).
pub const MAX_VIOLATIONS: usize = 64;

/// A set of sentinels driven by one probed run.
///
/// Implements [`PipelineProbe`], so it plugs directly into
/// [`ExecutionModel::run_observed`].
pub struct SentinelSuite<'a> {
    sentinels: Vec<Box<dyn Sentinel + 'a>>,
    violations: Vec<Violation>,
}

impl<'a> SentinelSuite<'a> {
    /// An empty suite.
    pub fn new() -> Self {
        SentinelSuite { sentinels: Vec::new(), violations: Vec::new() }
    }

    /// The six standard checkers (no golden interpreter).
    pub fn standard() -> Self {
        let mut s = Self::new();
        s.add(RetireOrderSentinel::new());
        s.add(ScoreboardSrfSentinel::new());
        s.add(AscSentinel::new());
        s.add(MshrSentinel::new());
        s.add(EpochSentinel::new());
        s.add(AccountingSentinel::new());
        s
    }

    /// The standard checkers plus golden-interpreter lockstep (catches
    /// silent architectural corruption such as register bit flips).
    pub fn with_golden(case: &SimCase<'a>) -> Self {
        let mut s = Self::standard();
        s.add(GoldenSentinel::new(case));
        s
    }

    /// Registers an additional sentinel.
    pub fn add(&mut self, sentinel: impl Sentinel + 'a) {
        self.sentinels.push(Box::new(sentinel));
    }

    /// Violations observed so far, in observation order.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Consumes the suite, returning its violations.
    pub fn into_violations(self) -> Vec<Violation> {
        self.violations
    }

    /// Runs `case` on `model` under this suite.
    pub fn check(mut self, model: &mut dyn ExecutionModel, case: &SimCase<'_>) -> SentinelReport {
        let outcome = model.run_observed(case, &mut self);
        SentinelReport { outcome, violations: self.violations }
    }

    fn each(&mut self, mut f: impl FnMut(&mut dyn Sentinel, &mut Reporter<'_>)) {
        for s in &mut self.sentinels {
            let mut r =
                Reporter { sentinel: s.name(), out: &mut self.violations, cap: MAX_VIOLATIONS };
            f(s.as_mut(), &mut r);
        }
    }
}

impl Default for SentinelSuite<'_> {
    fn default() -> Self {
        Self::new()
    }
}

impl PipelineProbe for SentinelSuite<'_> {
    fn on_retire(&mut self, event: &RetireEvent) {
        self.each(|s, r| s.on_retire(event, r));
    }

    fn on_cycle(&mut self, obs: &CycleObs) {
        self.each(|s, r| s.on_cycle(obs, r));
    }

    fn on_mem_access(&mut self, obs: &MemAccessObs) {
        self.each(|s, r| s.on_mem_access(obs, r));
    }

    fn on_asc_forward(&mut self, obs: &AscForwardObs) {
        self.each(|s, r| s.on_asc_forward(obs, r));
    }

    fn on_run_end(&mut self, result: &RunResult) {
        self.each(|s, r| s.on_run_end(result, r));
    }
}

/// Outcome of one sentinel-checked run.
#[derive(Debug)]
pub struct SentinelReport {
    /// The run's result (or why it was abandoned). A run that errs — e.g.
    /// wedged by an injected fault until the cycle budget trips — still
    /// carries every violation observed before the abort.
    pub outcome: Result<RunResult, RunError>,
    /// Invariant violations, in observation order.
    pub violations: Vec<Violation>,
}

impl SentinelReport {
    /// Whether the run completed with zero violations.
    pub fn is_clean(&self) -> bool {
        self.outcome.is_ok() && self.violations.is_empty()
    }

    /// Whether any violation came from the named sentinel.
    pub fn fired(&self, sentinel: &str) -> bool {
        self.violations.iter().any(|v| v.sentinel == sentinel)
    }
}

/// Runs `case` on `model` with the full checker set (standard six plus
/// golden lockstep).
pub fn check_model(model: &mut dyn ExecutionModel, case: &SimCase<'_>) -> SentinelReport {
    SentinelSuite::with_golden(case).check(model, case)
}

#[cfg(test)]
mod tests;
