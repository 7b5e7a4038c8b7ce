//! The execution-model interface shared by every pipeline.

use std::fmt;

use ff_isa::{ArchState, MemoryImage, Program};
use ff_mem::MemStats;

use crate::activity::Activity;
use crate::probe::{NullProbe, PipelineProbe};
use crate::stats::RunStats;

/// One simulation input: a compiled program plus its initial data memory.
///
/// Initial register values are established by setup code in the program's
/// first blocks (the workload generators emit `MovImm` preludes); bulk data
/// (arrays, linked structures) comes pre-loaded in `initial_mem`.
#[derive(Clone, Debug)]
pub struct SimCase<'a> {
    /// The compiled program to run.
    pub program: &'a Program,
    /// Initial contents of data memory.
    pub initial_mem: MemoryImage,
    /// Safety cap on dynamic instructions (guards runaway programs).
    pub max_insts: u64,
    /// Optional per-run cycle watchdog. When set, models abandon the run
    /// with [`RunError::CycleBudgetExceeded`] once this many cycles have
    /// been simulated, instead of panicking at the machine-wide
    /// `max_cycles` cap. Campaign runners use this to time out wedged
    /// jobs without taking down the whole campaign.
    pub cycle_budget: Option<u64>,
}

impl<'a> SimCase<'a> {
    /// Creates a case with a default instruction budget.
    pub fn new(program: &'a Program, initial_mem: MemoryImage) -> Self {
        SimCase { program, initial_mem, max_insts: 200_000_000, cycle_budget: None }
    }

    /// Sets a cycle watchdog budget (see [`SimCase::cycle_budget`]).
    pub fn with_cycle_budget(mut self, budget: u64) -> Self {
        self.cycle_budget = Some(budget);
        self
    }

    /// The effective cycle cap for a machine whose configured hard limit
    /// is `machine_max`: the smaller of the watchdog budget and the
    /// machine cap.
    pub fn cycle_cap(&self, machine_max: u64) -> u64 {
        match self.cycle_budget {
            Some(b) => b.min(machine_max),
            None => machine_max,
        }
    }

    /// The initial architectural state implied by this case.
    pub fn initial_state(&self) -> ArchState {
        let mut s = ArchState::new();
        s.mem = self.initial_mem.clone();
        s
    }
}

/// Why a simulation run was abandoned before the program halted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunError {
    /// The run hit its effective cycle cap (the case's watchdog budget or
    /// the machine's `max_cycles`, whichever is smaller) before halting.
    CycleBudgetExceeded {
        /// The cap that was hit.
        limit: u64,
        /// Instructions retired when the run was abandoned.
        retired: u64,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::CycleBudgetExceeded { limit, retired } => {
                write!(f, "cycle budget exceeded: {limit} cycles simulated, {retired} retired")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// How a model advances simulated time.
///
/// Both modes are required to produce bit-for-bit identical results —
/// the same [`RunResult`], retirement stream, and probe observation
/// stream. The event-driven mode is purely a simulator-throughput
/// optimization: it fast-forwards *quiescent* stretches (cycles proven to
/// have no observable work beyond charging a stall cycle) to the next
/// registered wake event instead of ticking them one by one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TickMode {
    /// Tick every structure every cycle — the reference semantics.
    Polling,
    /// Fast-forward quiescent stall windows to the earliest wake event
    /// (MSHR fill, FU release, fetch unblock, operand ready, rally
    /// resume). The default.
    #[default]
    EventDriven,
}

/// Output of one simulation run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Cycle counts and attribution.
    pub stats: RunStats,
    /// Structure activity for the power models.
    pub activity: Activity,
    /// Memory-hierarchy counters.
    pub mem_stats: MemStats,
    /// Final architectural state — must be semantically equal to the golden
    /// interpreter's for every model.
    pub final_state: ArchState,
    /// Simulator host work: iterations of the model's cycle loop. A polled
    /// run makes one pass per simulated cycle; the event-driven tick folds
    /// each fast-forwarded window into the pass before it. So, unlike the
    /// counters above, this one differs between tick modes, and it is
    /// never rendered into an artifact.
    pub loop_passes: u64,
}

/// A cycle-level execution model (in-order, runahead, multipass,
/// out-of-order).
///
/// Models are `Send` so campaign runners can execute independent
/// simulations on worker threads; every model is plain configuration data
/// between runs.
pub trait ExecutionModel: Send {
    /// Short name used in experiment output ("inorder", "MP", "OOO", ...).
    fn name(&self) -> &'static str;

    /// Selects how the model advances simulated time (see [`TickMode`]).
    ///
    /// Every mode must produce identical results.
    fn set_tick_mode(&mut self, mode: TickMode);

    /// Simulates `case` until the program halts or the effective cycle
    /// cap ([`SimCase::cycle_cap`]) is hit, publishing to `probe` what its
    /// [`PipelineProbe::observes`] asks for (see [`PipelineProbe`]) and
    /// ending with [`PipelineProbe::on_run_end`]. The probe is strictly
    /// read-only: an observed run produces a [`RunResult`] identical to
    /// an unobserved one.
    ///
    /// Every model delivers every retired dynamic instruction in
    /// retirement order and the end-of-run result; the multipass
    /// pipeline also publishes fetch, issue, writeback, per-cycle,
    /// mode-transition, memory-completion, and store-forwarding
    /// observations.
    ///
    /// # Errors
    ///
    /// [`RunError::CycleBudgetExceeded`] if the cap is reached first. On
    /// error the probe receives no end-of-run observation.
    ///
    /// # Panics
    ///
    /// Implementations panic if the program exceeds the case's instruction
    /// budget (indicating a malformed workload).
    fn run_observed(
        &mut self,
        case: &SimCase<'_>,
        probe: &mut dyn PipelineProbe,
    ) -> Result<RunResult, RunError>;

    /// Simulates `case` unobserved and returns the run's results.
    ///
    /// # Errors
    ///
    /// See [`ExecutionModel::run_observed`].
    fn try_run(&mut self, case: &SimCase<'_>) -> Result<RunResult, RunError> {
        self.run_observed(case, &mut NullProbe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_isa::{Inst, Op, Reg};

    #[test]
    fn initial_state_carries_memory() {
        let mut p = Program::new();
        let b = p.add_block();
        p.push(b, Inst::new(Op::Halt));
        let mut mem = MemoryImage::new();
        mem.store(0x100, 7);
        let case = SimCase::new(&p, mem);
        let s = case.initial_state();
        assert_eq!(s.mem.load(0x100), 7);
        assert_eq!(s.read(Reg::int(5)), 0);
    }
}
