//! The in-order issue stage shared by the in-order, runahead and multipass
//! models.
//!
//! The paper defines multipass's architectural mode as "indistinguishable
//! from the baseline in-order pipeline" (§3), and runahead as that same
//! pipeline plus pre-execution episodes (§2, §5.4). [`InOrderStage`] is
//! that baseline: the machine state plus the two pieces every such model
//! shares, written once:
//!
//! * [`InOrderStage::execute`] — the issue step for the head instruction:
//!   scoreboard interlock, FU arbitration, the architectural step itself
//!   ([`ff_isa::interp::execute`], with loads and stores reaching the
//!   cache hierarchy through its access hook and an MSHR refusal replaying
//!   the head), then branch resolution. Per-model differences enter as
//!   inputs (predictor training, the stream a branch is checked against);
//!   values some models route differently come back in [`Issued`] for the
//!   caller to apply.
//! * [`InOrderStage::head_ready`] / [`InOrderStage::head_wake`] — when
//!   the instruction a stalled pipeline waits on could issue, and the
//!   earliest cycle that can change: runahead's episode exit and
//!   multipass's advance→rally transition (multipass adds only its E-bit
//!   arm).
//! * [`InOrderStage::stalled_head`] — the DESIGN.md §7c skip analysis for
//!   a stalled head, and [`InOrderStage::skip_until`] /
//!   [`InOrderStage::skip_to`], the bulk-charge tail every event-driven
//!   fast-forward ends in.
//!
//! Each model drives the stage with its own loop and adds only its policy.

use std::ops::Range;

use ff_frontend::{FetchUnit, Gshare};
use ff_isa::interp::{execute, successor, Access, Effect};
use ff_isa::{ArchState, Inst, Op, Pc, Program, Reg};
use ff_mem::{AccessKind, HitLevel, MemAccess, MemorySystem};

use crate::activity::Activity;
use crate::config::MachineConfig;
use crate::fu::FuPool;
use crate::model::{RunError, RunResult, SimCase};
use crate::retire::{EpisodeWindow, RetireEvent, RetireMode};
use crate::scoreboard::{operand_stall, operand_wake, PendingKind, Scoreboard};
use crate::stats::{RunStats, StallKind};

/// The baseline in-order pipeline's whole-run state.
pub struct InOrderStage<'p> {
    /// The program being run.
    pub program: &'p Program,
    /// Architectural registers and memory.
    pub state: ArchState,
    /// The cache hierarchy.
    pub mem: MemorySystem,
    /// Fetch unit and instruction buffer.
    pub fetch: FetchUnit,
    /// Per-register ready cycles.
    pub sb: Scoreboard,
    /// Functional-unit arbitration.
    pub fu: FuPool,
    /// Run statistics.
    pub stats: RunStats,
    /// Per-structure activity counters.
    pub activity: Activity,
    /// The current cycle.
    pub now: u64,
    /// A `HALT` has retired.
    pub halted: bool,
    /// Passes through the model's cycle loop ([`RunResult::loop_passes`]).
    loop_passes: u64,
    mispredict_penalty: u64,
}

/// The head of the instruction buffer, copied out of its fetch entry.
#[derive(Clone, Copy, Debug)]
pub struct Head<'p> {
    /// Dynamic sequence number.
    pub seq: u64,
    /// Static location.
    pub pc: Pc,
    /// The instruction, borrowed from the program.
    pub inst: &'p Inst,
    /// The fetch unit's predicted successor.
    pub predicted_next: Option<Pc>,
    /// Branch-history snapshot taken at fetch.
    pub snapshot: u16,
}

/// An instruction [`InOrderStage::execute`] issued and retired.
#[derive(Clone, Copy, Debug)]
pub struct Issued<'p> {
    /// The retired instruction.
    pub head: Head<'p>,
    /// What it did to architectural state.
    pub effect: Effect,
    /// The scoreboard write it schedules, `(reg, ready_at, kind)`. The
    /// caller applies it ([`Scoreboard::set_pending`]); multipass routes it
    /// through its fault-injection hooks.
    pub pend: Option<(Reg, u64, PendingKind)>,
    /// The completed data access, `(complete_at, level)`.
    pub access: Option<(u64, HitLevel)>,
    /// A mispredicted branch flushed fetch behind it.
    pub flushed: bool,
}

impl<'p> Issued<'p> {
    /// The retirement event.
    #[inline]
    pub fn event(
        &self,
        cycle: u64,
        mode: RetireMode,
        episode: Option<EpisodeWindow>,
    ) -> RetireEvent {
        let Head { seq, pc, inst, .. } = self.head;
        RetireEvent::executed(seq, pc, *inst, &self.effect, cycle, mode, episode)
    }
}

impl<'p> InOrderStage<'p> {
    /// A fresh pipeline for `case` with a `buffer`-entry instruction buffer.
    pub fn new(case: &SimCase<'p>, machine: &MachineConfig, buffer: usize) -> Self {
        InOrderStage {
            program: case.program,
            state: case.initial_state(),
            mem: MemorySystem::new(machine.hierarchy),
            fetch: FetchUnit::new(
                case.program,
                buffer,
                machine.fetch_width as usize,
                Gshare::new(machine.gshare_entries),
            ),
            sb: Scoreboard::new(),
            fu: FuPool::new(machine),
            stats: RunStats::default(),
            activity: Activity::new(),
            now: 0,
            halted: false,
            loop_passes: 0,
            mispredict_penalty: machine.mispredict_penalty,
        }
    }

    /// Top of a cycle-loop pass: the cycle watchdog and instruction budget,
    /// then fetch and the FU pool. Returns the sequence numbers fetched.
    #[inline]
    pub fn begin_cycle(
        &mut self,
        case: &SimCase<'_>,
        cycle_cap: u64,
    ) -> Result<Range<u64>, RunError> {
        if self.now >= cycle_cap {
            return Err(RunError::CycleBudgetExceeded {
                limit: cycle_cap,
                retired: self.stats.retired,
            });
        }
        assert!(self.stats.retired < case.max_insts, "instruction budget exceeded");
        self.loop_passes += 1;
        let fetched_from = self.fetch.next_seq();
        self.fetch.tick(self.program, &mut self.mem, self.now);
        self.fu.new_cycle(self.now);
        Ok(fetched_from..self.fetch.next_seq())
    }

    /// The head of the instruction buffer if it has arrived by now,
    /// counting one issue-select visit.
    #[inline]
    pub fn select_head(&mut self) -> Option<Head<'p>> {
        let e = self.fetch.get(self.fetch.head_seq()).filter(|e| e.fetched_at <= self.now)?;
        self.activity.select_visits += 1;
        Some(Head {
            seq: e.seq,
            pc: e.pc,
            inst: self.program.inst(e.pc).expect("fetched pc is valid"),
            predicted_next: e.predicted_next,
            snapshot: e.history_snapshot,
        })
    }

    /// Issues, executes and retires `head` architecturally, or returns the
    /// stall that keeps it from issuing this cycle.
    ///
    /// A branch trains the predictor only if `train_predictor`, and
    /// flushes fetch when its outcome differs from `stream_next`, the
    /// successor the buffer holds. On retirement the head leaves the
    /// buffer and counts as retired; the caller applies [`Issued::pend`].
    #[inline]
    pub fn execute(
        &mut self,
        head: &Head<'p>,
        train_predictor: bool,
        stream_next: Option<Pc>,
    ) -> Result<Issued<'p>, StallKind> {
        let (inst, now) = (head.inst, self.now);
        if let Some(kind) = operand_stall(inst, &self.sb, now) {
            return Err(kind);
        }
        if !self.fu.try_issue(inst, now) {
            return Err(StallKind::Other);
        }
        self.activity.regfile_reads += inst.reads().count() as u64;
        let mem = &mut self.mem;
        let mut access = None;
        let effect = execute(&mut self.state, inst, |a| match a {
            Access::Load(addr) => match mem.access(addr, AccessKind::DataRead, now) {
                MemAccess::Done { complete_at, level } => {
                    access = Some((complete_at, level));
                    Ok(())
                }
                // MSHRs full: replay next cycle, before the load has any
                // architectural effect. The FU slot is wasted, as in
                // hardware.
                MemAccess::Retry => Err(StallKind::Other),
            },
            Access::Store(addr) => {
                let _ = mem.access(addr, AccessKind::DataWrite, now);
                Ok(())
            }
        })?;
        let mut done = Issued { head: *head, effect, pend: None, access, flushed: false };
        let (op, taken) = (inst.op(), effect.taken);
        self.halted |= effect.halted;
        if effect.qp_true && !matches!(op, Op::Br { .. } | Op::Halt | Op::Nop | Op::Restart) {
            self.stats.executions += 1;
        }
        if let Some((d, _)) = effect.wrote {
            // Only a load makes a data access that leaves a result.
            let (ready_at, kind) = match access {
                Some((complete_at, _)) => (complete_at, PendingKind::Load),
                None => (now + op.latency() as u64, PendingKind::Exec),
            };
            self.activity.regfile_writes += 1;
            done.pend = Some((d, ready_at, kind));
        }
        // A branch resolves even when predicated off (not taken).
        if let Op::Br { .. } = op {
            let actual_next = successor(self.program, head.pc, inst, taken);
            // Only a predicated branch is conditional (the hardwired
            // predicate always reads true): count it and train on it.
            if inst.is_predicated() {
                self.stats.branches += 1;
                if train_predictor {
                    self.fetch.predictor_mut().update(head.pc, head.snapshot, taken);
                }
            }
            if stream_next != actual_next {
                self.stats.mispredicts += 1;
                let resume_at = now + self.mispredict_penalty;
                self.fetch.flush_after(head.seq, actual_next, resume_at, head.snapshot, taken);
                done.flushed = true;
            }
        }
        self.fetch.pop_front();
        self.stats.retired += 1;
        Ok(done)
    }

    /// Charges one polled issue cycle: to execution if anything issued,
    /// else to the stall that stopped issue, else to the front end.
    #[inline]
    pub fn charge_issue(&mut self, issued: u32, stall: Option<StallKind>) {
        let kind = match stall {
            _ if issued > 0 => StallKind::Execution,
            Some(kind) => kind,
            None => StallKind::FrontEnd,
        };
        self.stats.breakdown.charge(kind);
    }

    /// The head's instruction once it has arrived, else the cycle it
    /// arrives (`u64::MAX` when the buffer is drained: only fetch can
    /// change that).
    #[inline]
    fn live_head(&self) -> Result<&'p Inst, u64> {
        match self.fetch.get(self.fetch.head_seq()) {
            None => Err(u64::MAX),
            Some(e) if e.fetched_at > self.now => Err(e.fetched_at),
            Some(e) => Ok(self.program.inst(e.pc).expect("fetched pc is valid")),
        }
    }

    /// Whether the head has arrived and no operand interlock holds it:
    /// the instruction a stalled pipeline waits on could issue now, FU
    /// permitting. Runahead leaves an episode, and multipass advance mode
    /// enters rally, on this test.
    #[inline]
    pub fn head_ready(&self) -> bool {
        self.live_head().is_ok_and(|inst| operand_stall(inst, &self.sb, self.now).is_none())
    }

    /// The earliest cycle at which [`InOrderStage::head_ready`] can change
    /// through the passage of time alone: the head's arrival, else its
    /// earliest operand wake. `u64::MAX` when only fetch can change it.
    #[inline]
    pub fn head_wake(&self) -> u64 {
        match self.live_head() {
            Err(arrives) => arrives,
            Ok(inst) => operand_wake(inst, &self.sb, self.now).unwrap_or(u64::MAX),
        }
    }

    /// The §7c skip analysis for the head of the buffer: `(wake, kind,
    /// visits)` when the head provably cannot issue before `wake` through
    /// the passage of time alone, and each polled cycle until then would
    /// charge `kind` and make `visits` issue-select visits. `None` when the
    /// head must be polled.
    ///
    /// A drained or not-yet-arrived head is a front-end stall that never
    /// reaches issue select. A live head stalls on an operand (waking at
    /// the earliest operand arrival, where the stall kind may change) or on
    /// an occupied unpipelined FP unit; otherwise it would issue, or needs
    /// a memory access that mutates hierarchy state, and must be polled. A
    /// load stall is skipped only if `load_stall_skippable`: runahead and
    /// multipass leave the architectural regime on one the same cycle.
    #[inline]
    pub fn stalled_head(&self, load_stall_skippable: bool) -> Option<(u64, StallKind, u64)> {
        let inst = match self.live_head() {
            Ok(inst) => inst,
            Err(arrives) => return Some((arrives, StallKind::FrontEnd, 0)),
        };
        match operand_stall(inst, &self.sb, self.now) {
            Some(StallKind::Load) if !load_stall_skippable => None,
            Some(kind) => operand_wake(inst, &self.sb, self.now).map(|w| (w, kind, 1)),
            None if !self.fu.can_issue_fresh(inst, self.now) => {
                Some((self.fu.next_fp_release(self.now), StallKind::Other, 1))
            }
            None => None,
        }
    }

    /// The end of a skippable window whose issue side stays idle until
    /// `target`: clipped to the fetch unit's quiescence (`None` while fetch
    /// is active), the next MSHR fill and the cycle cap. `None` when the
    /// window is empty.
    #[inline]
    pub fn skip_until(&self, target: u64, cycle_cap: u64) -> Option<u64> {
        let fetch_wake = self.fetch.quiescent_until(self.now)?;
        let wake = target.min(fetch_wake).min(self.mem.next_mshr_fill(self.now)).min(cycle_cap);
        (wake > self.now).then_some(wake)
    }

    /// Jumps to `wake`, charging every skipped cycle to `kind` with
    /// `visits` issue-select visits each, exactly as the polled loop would.
    /// Returns the number of cycles skipped.
    #[inline]
    pub fn skip_to(&mut self, wake: u64, kind: StallKind, visits: u64) -> u64 {
        let skipped = wake - self.now;
        self.stats.breakdown.charge_n(kind, skipped);
        self.activity.select_visits += visits * skipped;
        self.now = wake;
        skipped
    }

    /// The event-driven fast-forward of an in-order head stall: skips to
    /// the wake point of [`InOrderStage::stalled_head`] while fetch is
    /// quiescent. Bit-for-bit identical to polling by construction.
    #[inline]
    pub fn fast_forward(&mut self, load_stall_skippable: bool, cycle_cap: u64) {
        // Active fetch rules out a window before the head is examined.
        if self.fetch.quiescent_until(self.now).is_none() {
            return;
        }
        if let Some((target, kind, visits)) = self.stalled_head(load_stall_skippable) {
            if let Some(wake) = self.skip_until(target, cycle_cap) {
                self.skip_to(wake, kind, visits);
            }
        }
    }

    /// The run's result once the program has halted.
    pub fn finish(mut self) -> RunResult {
        self.stats.cycles = self.now;
        self.activity.cycles = self.now;
        RunResult {
            stats: self.stats,
            activity: self.activity,
            mem_stats: self.mem.final_stats(),
            final_state: self.state,
            loop_passes: self.loop_passes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_isa::MemoryImage;

    /// `r2 = r1 + r0; halt`, one instruction per group.
    fn add_program() -> Program {
        let mut p = Program::new();
        let b = p.add_block();
        p.push(b, Inst::new(Op::Add).dst(Reg::int(2)).src(Reg::int(1)).src(Reg::int(0)).stop());
        p.push(b, Inst::new(Op::Halt).stop());
        p
    }

    /// Ticks fetch until the first group is in the buffer, leaving `now`
    /// at the cycle it was fetched.
    fn fetch_first_group(stage: &mut InOrderStage<'_>, case: &SimCase<'_>) {
        while stage.begin_cycle(case, u64::MAX).unwrap().is_empty() {
            stage.now += 1;
        }
    }

    #[test]
    fn drained_buffer_is_never_ready_and_waits_on_fetch() {
        let p = add_program();
        let case = SimCase::new(&p, MemoryImage::new());
        let stage = InOrderStage::new(&case, &MachineConfig::default(), 8);
        assert!(!stage.head_ready());
        assert_eq!(stage.head_wake(), u64::MAX);
    }

    #[test]
    fn head_not_yet_arrived_wakes_at_its_arrival() {
        let p = add_program();
        let case = SimCase::new(&p, MemoryImage::new());
        let mut stage = InOrderStage::new(&case, &MachineConfig::default(), 8);
        fetch_first_group(&mut stage, &case);
        let arrives = stage.fetch.get(stage.fetch.head_seq()).unwrap().fetched_at;
        assert!(arrives > stage.now);
        assert!(!stage.head_ready());
        assert_eq!(stage.head_wake(), arrives);
    }

    #[test]
    fn load_stalled_head_wakes_when_the_load_returns() {
        let p = add_program();
        let case = SimCase::new(&p, MemoryImage::new());
        let mut stage = InOrderStage::new(&case, &MachineConfig::default(), 8);
        fetch_first_group(&mut stage, &case);
        stage.now += 1;
        let returns = stage.now + 150;
        stage.sb.set_pending(Reg::int(1), returns, PendingKind::Load);
        assert!(!stage.head_ready());
        assert_eq!(stage.head_wake(), returns);
        stage.now = returns;
        assert!(stage.head_ready());
    }

    #[test]
    fn ready_head_stays_ready() {
        let p = add_program();
        let case = SimCase::new(&p, MemoryImage::new());
        let mut stage = InOrderStage::new(&case, &MachineConfig::default(), 8);
        fetch_first_group(&mut stage, &case);
        stage.now += 1;
        assert!(stage.head_ready());
        assert_eq!(stage.head_wake(), u64::MAX);
    }
}
