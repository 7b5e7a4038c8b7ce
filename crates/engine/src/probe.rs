//! Pipeline probes: cycle-level observation hooks for invariant checking.
//!
//! A [`PipelineProbe`] is the engine-side wiring that the `ff-sentinel`
//! invariant checkers plug into. Models publish *observations* — fetches,
//! issues, writebacks, retirements, per-cycle pointer/occupancy snapshots,
//! memory completions, and store-forwarding decisions — and a probe
//! consumes them without ever feeding anything back, so a probed run is
//! cycle-for-cycle identical to an unprobed one.
//!
//! Every model delivers retirements and the end-of-run result through
//! [`ExecutionModel::run_observed`](crate::ExecutionModel::run_observed);
//! the multipass pipeline additionally publishes its mode transitions and
//! the deep per-cycle observations ([`CycleObs`], [`MemAccessObs`],
//! [`AscForwardObs`]) from inside its core loop.

use ff_isa::Reg;
use ff_mem::HitLevel;

use crate::model::RunResult;
use crate::retire::{RetireEvent, RetireHook, RetireMode};

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

/// Observation hooks published by a pipeline model.
///
/// Every hook has a no-op default, so a probe implements only what it
/// needs. [`PipelineProbe::enabled`] is hoisted by models exactly like
/// [`RetireHook::enabled`]: when it returns `false`, observation structs
/// are never even constructed.
pub trait PipelineProbe {
    /// Whether this probe wants observations at all.
    fn enabled(&self) -> bool {
        true
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

    /// An instruction retired.
    fn on_retire(&mut self, event: &RetireEvent<'_>) {
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

/// A probe that observes nothing and reports itself disabled, letting
/// models skip observation construction entirely.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullProbe;

impl PipelineProbe for NullProbe {
    fn enabled(&self) -> bool {
        false
    }
}

/// Retire-hook adapter that tees retirements to both a caller's hook and
/// a probe — the [`ExecutionModel::run_observed`](crate::ExecutionModel::run_observed)
/// plumbing for models without deeper instrumentation. It reports itself
/// enabled only when one of the two sides is, so an unobserved run never
/// constructs retirement events.
pub struct RetireTee<'a> {
    hook: &'a mut dyn RetireHook,
    hook_enabled: bool,
    probe: &'a mut dyn PipelineProbe,
    probe_enabled: bool,
}

impl<'a> RetireTee<'a> {
    /// Tees retirements into `hook` and `probe`, each when it is enabled.
    pub fn new(hook: &'a mut dyn RetireHook, probe: &'a mut dyn PipelineProbe) -> Self {
        let hook_enabled = hook.enabled();
        let probe_enabled = probe.enabled();
        RetireTee { hook, hook_enabled, probe, probe_enabled }
    }
}

impl RetireHook for RetireTee<'_> {
    fn enabled(&self) -> bool {
        self.hook_enabled || self.probe_enabled
    }

    fn on_retire(&mut self, event: &RetireEvent<'_>) {
        if self.hook_enabled {
            self.hook.on_retire(event);
        }
        if self.probe_enabled {
            self.probe.on_retire(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_probe_is_disabled() {
        assert!(!NullProbe.enabled());
    }

    #[test]
    fn tee_forwards_to_both_sides() {
        struct CountProbe(u64);
        impl PipelineProbe for CountProbe {
            fn on_retire(&mut self, _: &RetireEvent<'_>) {
                self.0 += 1;
            }
        }
        let mut ring = crate::retire::RetireRing::new(4);
        let mut probe = CountProbe(0);
        let mut p = ff_isa::Program::new();
        let b = p.add_block();
        p.push(b, ff_isa::Inst::new(ff_isa::Op::Nop));
        let ev = RetireEvent {
            seq: 0,
            cycle: 3,
            pc: p.first_pc_from(ff_isa::program::BlockId(0)).unwrap(),
            inst: std::borrow::Cow::Owned(ff_isa::Inst::new(ff_isa::Op::Nop)),
            qp_true: None,
            wrote: None,
            stored: None,
            mode: RetireMode::Architectural,
            merged: false,
            episode: None,
        };
        let mut tee = RetireTee::new(&mut ring, &mut probe);
        tee.on_retire(&ev);
        assert_eq!(ring.total(), 1);
        assert_eq!(probe.0, 1);
        // With neither side enabled, models skip building events.
        assert!(!RetireTee::new(&mut crate::NullRetireHook, &mut NullProbe).enabled());
    }
}
