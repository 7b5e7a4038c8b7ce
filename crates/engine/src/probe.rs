//! Pipeline probes: the single observation layer every model publishes to.
//!
//! A [`PipelineProbe`] is what the `ff-sentinel` invariant checkers, the
//! `ff-debug` lockstep checker, crash-bundle [`RetireRing`](crate::RetireRing)s
//! and timeline exporters plug into. Models publish *observations* —
//! fetches, issues, writebacks, retirements, per-cycle pointer/occupancy
//! snapshots, memory completions, and store-forwarding decisions — and a
//! probe consumes them without ever feeding anything back, so a probed
//! run is cycle-for-cycle identical to an unprobed one.
//!
//! Every model delivers retirements and the end-of-run result through
//! [`ExecutionModel::run_observed`](crate::ExecutionModel::run_observed);
//! the multipass pipeline additionally publishes its mode transitions and
//! the deep per-cycle observations ([`CycleObs`], [`MemAccessObs`],
//! [`AscForwardObs`]) from inside its core loop. A probe that wants only
//! the retirement stream says so through [`PipelineProbe::observes`].

use ff_isa::Reg;
use ff_mem::HitLevel;

use crate::model::RunResult;
use crate::retire::{RetireEvent, RetireMode};

/// One cycle's worth of multipass pipeline state, published at the top of
/// the cycle (after mode transitions, before issue).
#[derive(Clone, Copy, Debug)]
pub struct CycleObs {
    /// Current cycle.
    pub cycle: u64,
    /// Pipeline mode this cycle.
    pub mode: RetireMode,
    /// Sequence number of the episode's trigger instruction.
    pub trigger: u64,
    /// Advance-pass PEEK pointer.
    pub peek: u64,
    /// High-water mark of preexecution across the episode's passes.
    pub peek_high: u64,
    /// Architectural DEQ pointer (oldest unretired instruction).
    pub deq: u64,
    /// Speculative-register-file slots with their A-bit set.
    pub srf_abits: usize,
    /// Live advance-store-cache entries.
    pub asc_live: usize,
    /// Advance-store-cache capacity in entries.
    pub asc_capacity: usize,
    /// Whether every ASC set holds at most its associativity of entries.
    pub asc_assoc_ok: bool,
    /// In-flight speculative-memory-address-queue entries.
    pub smaq_live: usize,
    /// SMAQ capacity in entries.
    pub smaq_capacity: usize,
    /// Latest scoreboard ready cycle across all registers.
    pub sb_drain: u64,
}

/// A completed memory access as seen by the issue logic.
#[derive(Clone, Copy, Debug)]
pub struct MemAccessObs {
    /// Cycle the access was issued.
    pub cycle: u64,
    /// Cycle the hierarchy promised the value.
    pub complete_at: u64,
    /// Level that served the request.
    pub level: HitLevel,
}

/// An advance-store-cache forward into a load, with the facts needed to
/// audit its data-speculation (S) bit.
#[derive(Clone, Copy, Debug)]
pub struct AscForwardObs {
    /// Cycle of the forward.
    pub cycle: u64,
    /// Sequence number of the consuming load.
    pub load_seq: u64,
    /// Sequence number of the store whose value was forwarded.
    pub store_seq: u64,
    /// Youngest deferred (unknown-address) store at forward time, if any.
    pub deferred_store: Option<u64>,
    /// The S bit the pipeline attached to the forwarded value.
    pub s_bit: bool,
}

/// What a [`PipelineProbe`] wants to observe, asked once per run.
///
/// The levels are ordered: a model builds [`RetireEvent`]s for
/// [`Observes::Retirements`] and up, and the per-cycle multipass
/// observations only for [`Observes::Pipeline`]. A retirement-only probe
/// is therefore as cheap as the retirement stream itself: multipass keeps
/// its bulk fast-forward for it instead of walking skipped windows one
/// snapshot at a time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Observes {
    /// Nothing: the model constructs no observation at all.
    Nothing,
    /// [`PipelineProbe::on_retire`] and [`PipelineProbe::on_run_end`] only.
    Retirements,
    /// Every observation.
    Pipeline,
}

/// The one observer of a run: every model publishes its retirement
/// stream and end-of-run result here, and the multipass pipeline also
/// publishes its fetches, issues, writebacks, mode transitions and
/// per-cycle state.
///
/// Every callback has a no-op default, so a probe implements only what it
/// needs. [`PipelineProbe::observes`] is hoisted by models once per run;
/// a model never calls a callback the answer excludes.
pub trait PipelineProbe {
    /// Which observations this probe wants (see [`Observes`]).
    fn observes(&self) -> Observes {
        Observes::Pipeline
    }

    /// An instruction entered the fetch buffer.
    fn on_fetch(&mut self, seq: u64, cycle: u64) {
        let _ = (seq, cycle);
    }

    /// An instruction issued (architecturally or in an advance pass).
    fn on_issue(&mut self, seq: u64, cycle: u64) {
        let _ = (seq, cycle);
    }

    /// An instruction wrote an architectural register.
    fn on_writeback(&mut self, seq: u64, reg: Reg, cycle: u64) {
        let _ = (seq, reg, cycle);
    }

    /// An instruction retired. Events arrive in retirement (program)
    /// order with non-decreasing cycles, nothing more.
    fn on_retire(&mut self, event: &RetireEvent) {
        let _ = event;
    }

    /// The pipeline switched to `mode` at `cycle` (multipass only).
    /// Called on every transition, including ones that a later
    /// transition in the same top-of-cycle step supersedes before the
    /// [`PipelineProbe::on_cycle`] snapshot.
    fn on_mode(&mut self, cycle: u64, mode: RetireMode) {
        let _ = (cycle, mode);
    }

    /// Top-of-cycle pipeline snapshot (multipass only).
    fn on_cycle(&mut self, obs: &CycleObs) {
        let _ = obs;
    }

    /// A data access completed with a promised latency (multipass only).
    fn on_mem_access(&mut self, obs: &MemAccessObs) {
        let _ = obs;
    }

    /// The ASC forwarded a store value into a load (multipass only).
    fn on_asc_forward(&mut self, obs: &AscForwardObs) {
        let _ = obs;
    }

    /// The run completed; `result` carries the final statistics.
    fn on_run_end(&mut self, result: &RunResult) {
        let _ = result;
    }
}

/// A probe that observes nothing (the one
/// [`ExecutionModel::try_run`](crate::ExecutionModel::try_run) passes), so
/// models skip observation construction entirely.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullProbe;

impl PipelineProbe for NullProbe {
    fn observes(&self) -> Observes {
        Observes::Nothing
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observation_levels_are_ordered() {
        assert_eq!(NullProbe.observes(), Observes::Nothing);
        assert!(Observes::Nothing < Observes::Retirements);
        assert!(Observes::Retirements < Observes::Pipeline);
        assert_eq!(crate::RetireRing::new(1).observes(), Observes::Retirements);
    }
}
