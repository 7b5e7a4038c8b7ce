//! The concrete invariant checkers.
//!
//! Each sentinel audits one slice of the pipeline's bookkeeping; the
//! comments on each type state the invariant and which fault class it
//! exists to catch. All checks are derived from the paper's §3 mechanism
//! descriptions, not from the implementation — a checker that restated the
//! code would confirm bugs instead of finding them.

use ff_debug::LockstepChecker;
use ff_engine::{
    AscForwardObs, CycleObs, MemAccessObs, PipelineProbe, RetireEvent, RetireMode, RunResult,
    SimCase,
};

use crate::{Reporter, Sentinel};

/// Slack, in cycles, past the worst legal memory-hierarchy latency. The
/// deepest configured hierarchy resolves a main-memory miss in ~200 cycles
/// and every functional-unit latency is far smaller, so any promised
/// completion more than this far in the future is a wakeup-bookkeeping bug
/// (a dropped wakeup pends a register at `u64::MAX / 2`; a warped latency
/// lands ~99k cycles out — both are orders of magnitude past this bound).
pub const LATENCY_SLACK: u64 = 2048;

/// Audits the architectural retirement stream: sequence numbers must be
/// contiguous from zero (each dynamic instruction retires exactly once, in
/// program order) and retirement cycles must never decrease.
#[derive(Debug, Default)]
pub struct RetireOrderSentinel {
    next_seq: u64,
    last_cycle: u64,
}

impl RetireOrderSentinel {
    /// Creates the checker.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Sentinel for RetireOrderSentinel {
    fn name(&self) -> &'static str {
        "retire-order"
    }

    fn on_retire(&mut self, event: &RetireEvent, v: &mut Reporter<'_>) {
        if event.seq != self.next_seq {
            v.report(
                event.cycle,
                format!(
                    "retired seq #{} but #{} was next in program order",
                    event.seq, self.next_seq
                ),
            );
        }
        if event.cycle < self.last_cycle {
            v.report(
                event.cycle,
                format!(
                    "retirement cycle went backwards ({} after {})",
                    event.cycle, self.last_cycle
                ),
            );
        }
        self.next_seq = event.seq + 1;
        self.last_cycle = event.cycle;
    }
}

/// Audits scoreboard and SRF consistency:
///
/// * no register may be pending further out than the worst hierarchy
///   latency (catches dropped load wakeups, which pend a register
///   essentially forever);
/// * every promised memory completion must be within that same bound
///   (catches warped cache latencies at the moment of the access);
/// * outside advance mode "all A-bits are cleared, effectively clearing
///   the SRF" (§3.1) — a set A-bit would redirect architectural consumers
///   to stale speculative values.
#[derive(Debug, Default)]
pub struct ScoreboardSrfSentinel;

impl ScoreboardSrfSentinel {
    /// Creates the checker.
    pub fn new() -> Self {
        Self
    }
}

impl Sentinel for ScoreboardSrfSentinel {
    fn name(&self) -> &'static str {
        "scoreboard-srf"
    }

    fn on_cycle(&mut self, obs: &CycleObs, v: &mut Reporter<'_>) {
        if obs.sb_drain > obs.cycle + LATENCY_SLACK {
            v.report(
                obs.cycle,
                format!(
                    "scoreboard holds a register pending until cycle {} — beyond any legal \
                     wakeup latency (dropped wakeup?)",
                    obs.sb_drain
                ),
            );
        }
        if obs.mode != RetireMode::Advance && obs.srf_abits != 0 {
            v.report(
                obs.cycle,
                format!(
                    "{} SRF A-bit(s) set in {} mode (must be clear outside advance)",
                    obs.srf_abits, obs.mode
                ),
            );
        }
    }

    fn on_mem_access(&mut self, obs: &MemAccessObs, v: &mut Reporter<'_>) {
        if obs.complete_at > obs.cycle + LATENCY_SLACK {
            v.report(
                obs.cycle,
                format!(
                    "{:?} access promised completion at cycle {} — beyond any legal hierarchy \
                     latency",
                    obs.level, obs.complete_at
                ),
            );
        }
        if obs.complete_at < obs.cycle {
            v.report(
                obs.cycle,
                format!(
                    "memory access promised completion in the past (cycle {})",
                    obs.complete_at
                ),
            );
        }
    }
}

/// Audits the advance store cache and SMAQ:
///
/// * live entries never exceed capacity, and no ASC set exceeds its
///   associativity (§3.6's "small, low-associativity" structure);
/// * the data-speculation (S) bit on every forward matches §3.6's rule —
///   a forward is speculative exactly when a deferred (unknown-address)
///   store younger than the forwarding store is in flight. A cleared S-bit
///   on a speculative forward would let rally merge an unverified value.
#[derive(Debug, Default)]
pub struct AscSentinel;

impl AscSentinel {
    /// Creates the checker.
    pub fn new() -> Self {
        Self
    }
}

impl Sentinel for AscSentinel {
    fn name(&self) -> &'static str {
        "asc"
    }

    fn on_cycle(&mut self, obs: &CycleObs, v: &mut Reporter<'_>) {
        if obs.asc_live > obs.asc_capacity {
            v.report(
                obs.cycle,
                format!("ASC holds {} entries, capacity {}", obs.asc_live, obs.asc_capacity),
            );
        }
        if !obs.asc_assoc_ok {
            v.report(obs.cycle, "an ASC set exceeds its associativity".to_string());
        }
        if obs.smaq_live > obs.smaq_capacity {
            v.report(
                obs.cycle,
                format!("SMAQ holds {} entries, capacity {}", obs.smaq_live, obs.smaq_capacity),
            );
        }
    }

    fn on_asc_forward(&mut self, obs: &AscForwardObs, v: &mut Reporter<'_>) {
        let expected = obs.deferred_store.is_some_and(|d| d > obs.store_seq);
        if obs.s_bit != expected {
            v.report(
                obs.cycle,
                format!(
                    "ASC forward store #{} -> load #{} carried S={} but deferred store {:?} \
                     requires S={} (stale forward would skip rally verification)",
                    obs.store_seq, obs.load_seq, obs.s_bit, obs.deferred_store, expected
                ),
            );
        }
    }
}

/// Audits MSHR lifetimes from the end-of-run balance: after the drain,
/// every allocation must have been released exactly once. A leak means a
/// fill response never arrived (lost deallocation); releases exceeding
/// allocations means a double free.
#[derive(Debug, Default)]
pub struct MshrSentinel;

impl MshrSentinel {
    /// Creates the checker.
    pub fn new() -> Self {
        Self
    }
}

impl Sentinel for MshrSentinel {
    fn name(&self) -> &'static str {
        "mshr"
    }

    fn on_run_end(&mut self, result: &RunResult, v: &mut Reporter<'_>) {
        let m = &result.mem_stats;
        let cycle = result.stats.cycles;
        if m.mshr_releases > m.mshr_allocations {
            v.report(
                cycle,
                format!(
                    "MSHR double free: {} releases for {} allocations",
                    m.mshr_releases, m.mshr_allocations
                ),
            );
        }
        if m.mshr_leaked > 0 {
            v.report(
                cycle,
                format!(
                    "{} MSHR entr{} leaked (never deallocated)",
                    m.mshr_leaked,
                    if m.mshr_leaked == 1 { "y" } else { "ies" }
                ),
            );
        }
        if m.mshr_allocations != m.mshr_releases + m.mshr_leaked {
            v.report(
                cycle,
                format!(
                    "MSHR imbalance: {} allocated != {} released + {} leaked",
                    m.mshr_allocations, m.mshr_releases, m.mshr_leaked
                ),
            );
        }
    }
}

/// Audits pass-epoch monotonicity of the multipass pointer choreography
/// (§3.3, Figure 4), from the per-cycle snapshots:
///
/// * cycles strictly increase; DEQ and the trigger never move backwards;
/// * in advance mode the architectural side is stalled at the trigger
///   (`deq == trigger`) and the pass window is well-formed
///   (`trigger <= peek <= peek_high`);
/// * in rally mode DEQ is strictly below the PEEK high-water mark (rally
///   exits to architectural the moment it catches up).
#[derive(Debug, Default)]
pub struct EpochSentinel {
    last: Option<(u64, u64, u64)>,
}

impl EpochSentinel {
    /// Creates the checker.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Sentinel for EpochSentinel {
    fn name(&self) -> &'static str {
        "epoch"
    }

    fn on_cycle(&mut self, obs: &CycleObs, v: &mut Reporter<'_>) {
        if let Some((cycle, deq, trigger)) = self.last {
            if obs.cycle <= cycle {
                v.report(obs.cycle, format!("cycle did not advance past {cycle}"));
            }
            if obs.deq < deq {
                v.report(obs.cycle, format!("DEQ moved backwards ({} after {})", obs.deq, deq));
            }
            if obs.trigger < trigger {
                v.report(
                    obs.cycle,
                    format!("trigger moved backwards ({} after {})", obs.trigger, trigger),
                );
            }
        }
        match obs.mode {
            RetireMode::Advance => {
                if obs.deq != obs.trigger {
                    v.report(
                        obs.cycle,
                        format!(
                            "advance mode with DEQ {} != trigger {} (architectural side must \
                             stall at the trigger)",
                            obs.deq, obs.trigger
                        ),
                    );
                }
                if obs.peek < obs.trigger || obs.peek > obs.peek_high {
                    v.report(
                        obs.cycle,
                        format!(
                            "malformed advance window: trigger {} / peek {} / high {}",
                            obs.trigger, obs.peek, obs.peek_high
                        ),
                    );
                }
            }
            RetireMode::Rally => {
                if obs.deq >= obs.peek_high {
                    v.report(
                        obs.cycle,
                        format!(
                            "rally mode with DEQ {} >= PEEK high-water {} (should have exited \
                             to architectural)",
                            obs.deq, obs.peek_high
                        ),
                    );
                }
            }
            RetireMode::Architectural => {}
        }
        self.last = Some((obs.cycle, obs.deq, obs.trigger));
    }
}

/// Audits end-of-run counter balance: every simulated cycle is charged to
/// exactly one Figure 6 category, activity denominators match the cycle
/// count, mode-cycle counters fit inside the run, and ratio numerators
/// never exceed their denominators.
#[derive(Debug, Default)]
pub struct AccountingSentinel;

impl AccountingSentinel {
    /// Creates the checker.
    pub fn new() -> Self {
        Self
    }
}

impl Sentinel for AccountingSentinel {
    fn name(&self) -> &'static str {
        "accounting"
    }

    fn on_run_end(&mut self, result: &RunResult, v: &mut Reporter<'_>) {
        let s = &result.stats;
        let cycle = s.cycles;
        if s.breakdown.total() != s.cycles {
            v.report(
                cycle,
                format!(
                    "cycle breakdown totals {} but the run took {} cycles (every cycle must be \
                     charged to exactly one category)",
                    s.breakdown.total(),
                    s.cycles
                ),
            );
        }
        if result.activity.cycles != s.cycles {
            v.report(
                cycle,
                format!(
                    "activity denominator {} != {} simulated cycles",
                    result.activity.cycles, s.cycles
                ),
            );
        }
        if s.spec_mode_cycles + s.rally_cycles > s.cycles {
            v.report(
                cycle,
                format!(
                    "mode cycles overflow the run: {} advance + {} rally > {} total",
                    s.spec_mode_cycles, s.rally_cycles, s.cycles
                ),
            );
        }
        if s.mispredicts > s.branches {
            v.report(cycle, format!("{} mispredicts > {} branches", s.mispredicts, s.branches));
        }
        if s.rs_reuses > s.retired {
            v.report(
                cycle,
                format!("{} result-store reuses > {} retirements", s.rs_reuses, s.retired),
            );
        }
    }
}

/// Golden-interpreter lockstep as a sentinel: steps the `ff-debug`
/// [`LockstepChecker`] on every retirement and reports the first
/// divergence. This is the checker that catches silent *architectural*
/// corruption — a flipped register bit produces no structural anomaly, but
/// the retired value disagrees with the golden execution.
pub struct GoldenSentinel<'a> {
    checker: LockstepChecker<'a>,
    reported: bool,
}

impl<'a> GoldenSentinel<'a> {
    /// Creates the checker over the case's golden execution.
    pub fn new(case: &SimCase<'a>) -> Self {
        GoldenSentinel { checker: LockstepChecker::new(case), reported: false }
    }
}

impl Sentinel for GoldenSentinel<'_> {
    fn name(&self) -> &'static str {
        "golden"
    }

    fn on_retire(&mut self, event: &RetireEvent, v: &mut Reporter<'_>) {
        if self.reported {
            return;
        }
        self.checker.on_retire(event);
        if let Some(d) = self.checker.divergence() {
            v.report(
                d.event.cycle,
                format!("diverged from golden interpreter at seq #{}: {}", d.event.seq, d.kind),
            );
            self.reported = true;
        }
    }

    /// A stream that matched retirement by retirement can still stop
    /// short: the golden run must have halted, in the model's final state.
    fn on_run_end(&mut self, result: &RunResult, v: &mut Reporter<'_>) {
        if self.reported {
            return;
        }
        let golden = self.checker.golden();
        let cycle = result.stats.cycles;
        if !golden.is_halted() {
            v.report(
                cycle,
                format!("run ended after {} retirements, before the golden Halt", golden.retired()),
            );
        }
        if !result.final_state.semantically_eq(golden.state()) {
            v.report(cycle, "final state differs from the golden interpreter's".to_string());
        }
    }
}
