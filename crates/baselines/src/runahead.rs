//! Dundas–Mudge runahead preexecution (§2 and §5.4 of the paper).
//!
//! The pipeline behaves exactly like [`crate::InOrder`] until the oldest
//! instruction stalls on an unready *load* result. It then checkpoints
//! (architectural issue pauses without consuming the buffer) and
//! pre-executes subsequent instructions speculatively:
//!
//! * operands produced by deferred instructions are *invalid* and poison
//!   their consumers;
//! * valid-address loads access the memory hierarchy — the prefetching that
//!   is this scheme's entire benefit — but loads that miss the L1 produce
//!   invalid results;
//! * stores are dropped (runahead is purely a prefetching technique);
//! * branches with valid predicates resolve early, training the predictor
//!   and redirecting fetch.
//!
//! When the blocking load returns, *all* speculative work is discarded and
//! architectural execution re-executes every instruction — the two
//! limitations (no persistence, no restart) that motivate multipass
//! pipelining.

use std::borrow::Cow;

use ff_engine::{
    operand_wake, Activity, ExecutionModel, FuPool, MachineConfig, PendingKind, PipelineProbe,
    RetireEvent, RetireHook, RetireMode, RetireTee, RunError, RunResult, RunStats, Scoreboard,
    SimCase, StallKind, TickMode,
};
use ff_frontend::{FetchUnit, Gshare};
use ff_isa::eval::{alu, effective_address};
use ff_isa::{ArchState, Op, Reg};
use ff_mem::{AccessKind, MemAccess, MemorySystem};

use crate::inorder::operand_stall;

/// A speculative value in the runahead overlay: either a real value
/// available at some cycle, or invalid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SpecVal {
    /// Valid data, usable for bypass at `ready_at`.
    Valid {
        /// The speculative value.
        value: u64,
        /// Cycle at which the value can be bypassed.
        ready_at: u64,
    },
    /// Poisoned by a deferred producer.
    Invalid,
}

/// Speculative register overlay used during a runahead episode. Registers
/// not present fall through to the architectural file, with validity taken
/// from the scoreboard (a register whose writer is still in flight is
/// unavailable *now* but may arrive during the episode).
///
/// The overlay is a flat epoch-stamped array rather than a map: one
/// allocation at model start, and "discard all speculative state" on
/// episode entry is an epoch bump instead of a per-episode container —
/// zero heap traffic no matter how many episodes a run enters.
#[derive(Clone, Debug)]
struct SpecRegs {
    epoch: u64,
    slots: Vec<(u64, SpecVal)>,
}

impl SpecRegs {
    fn new() -> Self {
        SpecRegs { epoch: 1, slots: vec![(0, SpecVal::Invalid); Reg::FLAT_COUNT] }
    }

    /// Discards every overlay entry (entries stamped with older epochs
    /// read as absent).
    fn reset(&mut self) {
        self.epoch += 1;
    }

    fn write(&mut self, r: Reg, v: SpecVal) {
        if !r.is_hardwired() {
            self.slots[r.flat_index()] = (self.epoch, v);
        }
    }

    /// Reads `r` at cycle `now`: `Some(value)` when valid and ready, `None`
    /// when invalid or still in flight.
    fn read(&self, r: Reg, state: &ArchState, sb: &Scoreboard, now: u64) -> Option<u64> {
        if r.is_hardwired() {
            return Some(state.read(r));
        }
        match &self.slots[r.flat_index()] {
            (e, SpecVal::Valid { value, ready_at }) if *e == self.epoch && *ready_at <= now => {
                Some(*value)
            }
            (e, _) if *e == self.epoch => None,
            _ => {
                if sb.ready(r, now) {
                    Some(state.read(r))
                } else {
                    None
                }
            }
        }
    }
}

/// The Dundas–Mudge runahead model.
#[derive(Clone, Debug)]
pub struct Runahead {
    config: MachineConfig,
    tick: TickMode,
}

impl Runahead {
    /// Creates the model with the given machine configuration.
    pub fn new(config: MachineConfig) -> Self {
        Runahead { config, tick: TickMode::default() }
    }
}

impl ExecutionModel for Runahead {
    fn name(&self) -> &'static str {
        "runahead"
    }

    fn set_tick_mode(&mut self, mode: TickMode) {
        self.tick = mode;
    }

    fn run_observed(
        &mut self,
        case: &SimCase<'_>,
        hook: &mut dyn RetireHook,
        probe: &mut dyn PipelineProbe,
    ) -> Result<RunResult, RunError> {
        let program = case.program;
        let cfg = &self.config;
        let cycle_cap = case.cycle_cap(cfg.max_cycles);
        let mut state: ArchState = case.initial_state();
        let mut mem = MemorySystem::new(cfg.hierarchy);
        let mut fetch = FetchUnit::new(
            program,
            cfg.inorder_buffer,
            cfg.fetch_width as usize,
            Gshare::new(cfg.gshare_entries),
        );
        let mut sb = Scoreboard::new();
        let mut fu = FuPool::new(cfg);
        let mut stats = RunStats::default();
        let mut activity = Activity::new();
        let hook = &mut RetireTee::new(hook, probe);
        let hook_enabled = hook.enabled();

        // Runahead episode state: `Some(peek_seq)` while running ahead of a
        // blocking load. The speculative overlay persists across episodes
        // (reset is an epoch bump), so episode entry allocates nothing.
        let mut episode: Option<u64> = None;
        let mut spec = SpecRegs::new();
        activity.alloc_count += 1; // the overlay's single allocation

        let mut now: u64 = 0;
        let mut halted = false;

        while !halted {
            if now >= cycle_cap {
                return Err(RunError::CycleBudgetExceeded {
                    limit: cycle_cap,
                    retired: stats.retired,
                });
            }
            assert!(stats.retired < case.max_insts, "instruction budget exceeded");
            fetch.tick(program, &mut mem, now);
            fu.new_cycle(now);

            let mut issued_arch = 0u32;
            let mut stall: Option<StallKind> = None;
            let mut blocked_on_load = false;

            // ---- architectural issue (identical to the in-order core) ----
            if episode.is_none() {
                while issued_arch < cfg.issue_width {
                    let (pc, seq, predicted_next, snap) = match fetch.get(fetch.head_seq()) {
                        Some(e) if e.fetched_at <= now => {
                            (e.pc, e.seq, e.predicted_next, e.history_snapshot)
                        }
                        _ => break,
                    };
                    // Borrow the program's instruction rather than cloning
                    // the fetch buffer's copy into every issue slot.
                    let inst = program.inst(pc).expect("fetched pc is valid");
                    activity.select_visits += 1;

                    if let Some(kind) = operand_stall(inst, &sb, now) {
                        stall = Some(kind);
                        blocked_on_load = kind == StallKind::Load;
                        break;
                    }
                    if !fu.try_issue(inst, now) {
                        stall = Some(StallKind::Other);
                        break;
                    }

                    let qp_true = state.read(inst.qp_reg()) != 0;
                    activity.regfile_reads += inst.reads().count() as u64;
                    let ends_group = inst.ends_group();
                    let mut flushed = false;
                    let mut stored = None;

                    if qp_true {
                        match inst.op() {
                            Op::Halt => halted = true,
                            Op::Br { target } => {
                                let actual_next = program.first_pc_from(*target);
                                if inst.is_predicated() {
                                    stats.branches += 1;
                                    fetch.predictor_mut().update(pc, snap, true);
                                }
                                if predicted_next != actual_next {
                                    stats.mispredicts += 1;
                                    fetch.flush_after(
                                        seq,
                                        actual_next,
                                        now + cfg.mispredict_penalty,
                                        snap,
                                        true,
                                    );
                                    flushed = true;
                                }
                            }
                            Op::Load | Op::LoadFp => {
                                let base = state.read(inst.src_n(0).expect("load base"));
                                let addr = effective_address(base, inst.imm_val());
                                match mem.access(addr, AccessKind::DataRead, now) {
                                    MemAccess::Done { complete_at, .. } => {
                                        let v = state.mem.load(addr);
                                        if let Some(d) = inst.writes() {
                                            state.write(d, v);
                                            sb.set_pending(d, complete_at, PendingKind::Load);
                                            activity.regfile_writes += 1;
                                        }
                                        stats.executions += 1;
                                    }
                                    MemAccess::Retry => {
                                        stall = Some(StallKind::Other);
                                        break;
                                    }
                                }
                            }
                            Op::Store => {
                                let base = state.read(inst.src_n(0).expect("store base"));
                                let data = state.read(inst.src_n(1).expect("store data"));
                                let addr = effective_address(base, inst.imm_val());
                                state.mem.store(addr, data);
                                let _ = mem.access(addr, AccessKind::DataWrite, now);
                                stored = Some((addr, data));
                                stats.executions += 1;
                            }
                            Op::Nop | Op::Restart => {}
                            op => {
                                let a = inst.src_n(0).map(|r| state.read(r)).unwrap_or(0);
                                let b = inst.src_n(1).map(|r| state.read(r)).unwrap_or(0);
                                let v = alu(op, a, b, inst.imm_val());
                                if let Some(d) = inst.writes() {
                                    state.write(d, v);
                                    sb.set_pending(d, now + op.latency() as u64, PendingKind::Exec);
                                    activity.regfile_writes += 1;
                                }
                                stats.executions += 1;
                            }
                        }
                    } else if let Op::Br { .. } = inst.op() {
                        let actual_next = program.next_pc(pc);
                        stats.branches += 1;
                        fetch.predictor_mut().update(pc, snap, false);
                        if predicted_next != actual_next {
                            stats.mispredicts += 1;
                            fetch.flush_after(
                                seq,
                                actual_next,
                                now + cfg.mispredict_penalty,
                                snap,
                                false,
                            );
                            flushed = true;
                        }
                    }

                    if hook_enabled {
                        hook.on_retire(&RetireEvent {
                            seq,
                            cycle: now,
                            pc,
                            inst: Cow::Borrowed(inst),
                            qp_true: Some(qp_true),
                            wrote: if qp_true {
                                inst.writes().map(|d| (d, state.read(d)))
                            } else {
                                None
                            },
                            stored,
                            mode: RetireMode::Architectural,
                            merged: false,
                            episode: None,
                        });
                    }
                    fetch.pop_front();
                    stats.retired += 1;
                    issued_arch += 1;
                    if halted || flushed || ends_group {
                        break;
                    }
                }

                // Enter runahead on a load-use stall.
                if issued_arch == 0 && blocked_on_load && !halted {
                    episode = Some(fetch.head_seq());
                    spec.reset();
                    stats.spec_mode_entries += 1;
                }
            }

            // ---- runahead pre-execution ----
            if episode.is_some() {
                // Exit check: is the blocking instruction ready now?
                let head_ready = fetch
                    .get(fetch.head_seq())
                    .map(|e| {
                        let inst = program.inst(e.pc).expect("fetched pc is valid");
                        operand_stall(inst, &sb, now).is_none()
                    })
                    .unwrap_or(false);
                if head_ready {
                    // Discard all speculative state; architectural execution
                    // resumes next cycle and re-executes everything.
                    episode = None;
                    stats.breakdown.charge(StallKind::Load);
                    stats.spec_mode_cycles += 1;
                    now += 1;
                    continue;
                }
            }
            if let Some(peek) = &mut episode {
                let spec = &mut spec;
                let mut pseudo_issued = 0u32;
                while pseudo_issued < cfg.issue_width {
                    let (pc, predicted_next, snap) = match fetch.get(*peek) {
                        Some(e) if e.fetched_at <= now => {
                            (e.pc, e.predicted_next, e.history_snapshot)
                        }
                        _ => break,
                    };
                    let inst = program.inst(pc).expect("fetched pc is valid");
                    activity.select_visits += 1;
                    if !fu.try_issue(inst, now) {
                        break;
                    }
                    let ends_group = inst.ends_group();
                    let qp = if inst.is_predicated() {
                        spec.read(inst.qp_reg(), &state, &sb, now)
                    } else {
                        Some(1)
                    };
                    let mut redirected = false;

                    match (qp, inst.op()) {
                        (None, _) => {
                            // Unknown predicate: defer the whole instruction.
                            if let Some(d) = inst.writes() {
                                spec.write(d, SpecVal::Invalid);
                            }
                        }
                        (Some(0), _) => {} // predicated off: no-op
                        (Some(_), Op::Halt) => {
                            // Stop pre-executing past the end of the program.
                            break;
                        }
                        (Some(_), Op::Br { target }) => {
                            // Valid branch: train the predictor early.
                            // (Runahead discards all work on exit, so fetch
                            // is *not* redirected — the architectural
                            // re-execution resolves the branch normally.)
                            let actual_next = program.first_pc_from(*target);
                            if inst.is_predicated() {
                                fetch.predictor_mut().update(pc, snap, true);
                            }
                            if predicted_next != actual_next {
                                stats.early_resolved_mispredicts += 1;
                                // Pre-executing past a known-wrong branch is
                                // useless; stop this cycle's group here.
                                redirected = true;
                            }
                        }
                        (Some(_), Op::Load | Op::LoadFp) => {
                            let base = inst.src_n(0).and_then(|r| spec.read(r, &state, &sb, now));
                            match base {
                                Some(b) => {
                                    let addr = effective_address(b, inst.imm_val());
                                    match mem.access(addr, AccessKind::SpeculativeRead, now) {
                                        MemAccess::Done { complete_at, level } => {
                                            stats.executions += 1;
                                            if let Some(d) = inst.writes() {
                                                if level.is_miss() {
                                                    // Missing loads defer their
                                                    // consumers (prefetch only).
                                                    spec.write(d, SpecVal::Invalid);
                                                } else {
                                                    spec.write(
                                                        d,
                                                        SpecVal::Valid {
                                                            value: state.mem.load(addr),
                                                            ready_at: complete_at,
                                                        },
                                                    );
                                                }
                                            }
                                        }
                                        MemAccess::Retry => {
                                            if let Some(d) = inst.writes() {
                                                spec.write(d, SpecVal::Invalid);
                                            }
                                        }
                                    }
                                }
                                None => {
                                    if let Some(d) = inst.writes() {
                                        spec.write(d, SpecVal::Invalid);
                                    }
                                }
                            }
                        }
                        (Some(_), Op::Store) => {
                            // Stores are dropped in runahead; a valid address
                            // still prefetches the line.
                            if let Some(b) =
                                inst.src_n(0).and_then(|r| spec.read(r, &state, &sb, now))
                            {
                                let addr = effective_address(b, inst.imm_val());
                                let _ = mem.access(addr, AccessKind::DataWrite, now);
                                stats.executions += 1;
                            }
                        }
                        (Some(_), Op::Nop | Op::Restart) => {}
                        (Some(_), op) => {
                            let a = inst.src_n(0).and_then(|r| spec.read(r, &state, &sb, now));
                            let b = inst.src_n(1).and_then(|r| spec.read(r, &state, &sb, now));
                            let a_ok = inst.src_n(0).is_none() || a.is_some();
                            let b_ok = inst.src_n(1).is_none() || b.is_some();
                            if let Some(d) = inst.writes() {
                                if a_ok && b_ok {
                                    let v = alu(op, a.unwrap_or(0), b.unwrap_or(0), inst.imm_val());
                                    spec.write(
                                        d,
                                        SpecVal::Valid {
                                            value: v,
                                            ready_at: now + op.latency() as u64,
                                        },
                                    );
                                    stats.executions += 1;
                                } else {
                                    spec.write(d, SpecVal::Invalid);
                                }
                            } else if a_ok && b_ok {
                                stats.executions += 1;
                            }
                        }
                    }

                    *peek += 1;
                    pseudo_issued += 1;
                    if redirected {
                        // Fetch was truncated; peek continues at the next
                        // (corrected) sequence number when it arrives.
                        *peek = (*peek).min(fetch.next_seq());
                        break;
                    }
                    if ends_group {
                        break;
                    }
                }

                // All runahead cycles are charged to the blocking load
                // (architecturally the pipeline is stalled on it).
                stats.breakdown.charge(StallKind::Load);
                stats.spec_mode_cycles += 1;
                now += 1;

                // Event-driven fast-forward inside an episode: skip ahead
                // only while the exit check provably stays false, the
                // pseudo-issue loop has nothing to chew on (PEEK ran past
                // fetch), and fetch itself is idle. Each skipped cycle is
                // charged to the blocking load, exactly as polled.
                if self.tick == TickMode::EventDriven && !halted {
                    if let Some(fetch_wake) = fetch.quiescent_until(now) {
                        let peek_wake = match fetch.get(*peek) {
                            None => Some(u64::MAX),
                            Some(e) if e.fetched_at > now => Some(e.fetched_at),
                            Some(_) => None, // live entry: pre-execution would run
                        };
                        let head_wake = fetch.get(fetch.head_seq()).and_then(|e| {
                            if e.fetched_at > now {
                                return Some(e.fetched_at);
                            }
                            let inst = program.inst(e.pc).expect("fetched pc is valid");
                            if operand_stall(inst, &sb, now).is_none() {
                                None // exit check fires: poll
                            } else {
                                Some(operand_wake(inst, &sb, now).unwrap_or(u64::MAX))
                            }
                        });
                        if let (Some(p), Some(h)) = (peek_wake, head_wake) {
                            let wake = p
                                .min(h)
                                .min(fetch_wake)
                                .min(mem.next_mshr_fill(now))
                                .min(cycle_cap);
                            if wake > now {
                                let skipped = wake - now;
                                stats.breakdown.charge_n(StallKind::Load, skipped);
                                stats.spec_mode_cycles += skipped;
                                now = wake;
                            }
                        }
                    }
                }
                continue;
            }

            if issued_arch > 0 {
                stats.breakdown.charge(StallKind::Execution);
            } else if let Some(kind) = stall {
                stats.breakdown.charge(kind);
            } else {
                stats.breakdown.charge(StallKind::FrontEnd);
            }
            now += 1;

            // Event-driven fast-forward in the architectural regime: same
            // analysis as the in-order baseline, except a predicted *load*
            // stall is never skipped — it enters a runahead episode the
            // very cycle it is detected.
            if self.tick == TickMode::EventDriven && !halted {
                if let Some(fetch_wake) = fetch.quiescent_until(now) {
                    // The third tuple element is issue-select visits per
                    // skipped cycle: a live stalled head is examined once
                    // every polled cycle, a drained or not-yet-fetched head
                    // is never examined.
                    let window = match fetch.get(fetch.head_seq()) {
                        None => Some((u64::MAX, StallKind::FrontEnd, 0)),
                        Some(e) if e.fetched_at > now => {
                            Some((e.fetched_at, StallKind::FrontEnd, 0))
                        }
                        Some(e) => {
                            let inst = program.inst(e.pc).expect("fetched pc is valid");
                            match operand_stall(inst, &sb, now) {
                                Some(kind) if kind != StallKind::Load => {
                                    operand_wake(inst, &sb, now).map(|w| (w, kind, 1))
                                }
                                Some(_) => None,
                                None if !fu.can_issue_fresh(inst, now) => {
                                    Some((fu.next_fp_release(now), StallKind::Other, 1))
                                }
                                None => None,
                            }
                        }
                    };
                    if let Some((target, kind, visits)) = window {
                        let wake =
                            target.min(fetch_wake).min(mem.next_mshr_fill(now)).min(cycle_cap);
                        if wake > now {
                            stats.breakdown.charge_n(kind, wake - now);
                            activity.select_visits += visits * (wake - now);
                            now = wake;
                        }
                    }
                }
            }
        }

        stats.cycles = now;
        activity.cycles = now;
        let result =
            RunResult { stats, activity, mem_stats: mem.final_stats(), final_state: state };
        probe.on_run_end(&result);
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inorder::InOrder;
    use ff_isa::interp::Interpreter;
    use ff_isa::{Inst, MemoryImage, Program};

    /// Pointer-chase program over a pre-built linked list, with independent
    /// streaming loads after each chase step — the Figure 1 scenario.
    fn chase_with_stream(nodes: u64) -> (Program, MemoryImage) {
        let mut p = Program::new();
        let b0 = p.add_block();
        let b1 = p.add_block();
        let b2 = p.add_block();
        p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(1)).imm(0x1_0000).stop());
        p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(5)).imm(0x80_0000).stop());
        // loop: r1 = load r1 (next); r4 = r1 + 0 (immediate use: the
        // in-order pipe stalls *here*); then an independent streaming miss
        // that only runahead can hoist under the chase miss (Figure 1).
        p.push(b1, Inst::new(Op::Load).dst(Reg::int(1)).src(Reg::int(1)).region(0).stop());
        p.push(b1, Inst::new(Op::Add).dst(Reg::int(4)).src(Reg::int(1)).src(Reg::int(0)).stop());
        p.push(b1, Inst::new(Op::Load).dst(Reg::int(2)).src(Reg::int(5)).region(1));
        p.push(b1, Inst::new(Op::AddImm).dst(Reg::int(5)).src(Reg::int(5)).imm(4096).stop());
        p.push(b1, Inst::new(Op::Add).dst(Reg::int(3)).src(Reg::int(3)).src(Reg::int(2)));
        p.push(b1, Inst::new(Op::CmpNe).dst(Reg::pred(1)).src(Reg::int(4)).src(Reg::int(0)).stop());
        p.push(b1, Inst::new(Op::Br { target: b1 }).qp(Reg::pred(1)).stop());
        p.push(b2, Inst::new(Op::Halt).stop());
        let mut mem = MemoryImage::new();
        // Linked list with large strides to defeat the caches.
        let stride = 64 * 1024;
        for i in 0..nodes {
            let a = 0x1_0000 + i * stride;
            let next = if i + 1 == nodes { 0 } else { 0x1_0000 + (i + 1) * stride };
            mem.store(a, next);
        }
        for i in 0..nodes {
            mem.store(0x80_0000 + i * 4096, i);
        }
        (p, mem)
    }

    #[test]
    fn matches_interpreter() {
        let (p, mem) = chase_with_stream(20);
        let case = SimCase::new(&p, mem.clone());
        let r = Runahead::new(MachineConfig::default()).try_run(&case).unwrap();
        let mut s = ArchState::new();
        s.mem = mem;
        let mut i = Interpreter::with_state(&p, s);
        i.run(10_000_000).unwrap();
        assert!(r.final_state.semantically_eq(i.state()));
        assert_eq!(r.stats.retired, i.retired());
    }

    #[test]
    fn runahead_beats_inorder_on_chased_misses() {
        let (p, mem) = chase_with_stream(64);
        let case = SimCase::new(&p, mem);
        let base = InOrder::new(MachineConfig::default()).try_run(&case).unwrap();
        let ra = Runahead::new(MachineConfig::default()).try_run(&case).unwrap();
        assert!(
            ra.stats.cycles < base.stats.cycles,
            "runahead {} !< inorder {}",
            ra.stats.cycles,
            base.stats.cycles
        );
        assert!(ra.stats.spec_mode_entries > 0);
        assert!(ra.stats.spec_mode_cycles > 0);
    }

    #[test]
    fn runahead_issues_speculative_prefetches() {
        let (p, mem) = chase_with_stream(64);
        let case = SimCase::new(&p, mem);
        let ra = Runahead::new(MachineConfig::default()).try_run(&case).unwrap();
        assert!(ra.mem_stats.speculative_reads > 0);
    }

    #[test]
    fn no_benefit_without_misses() {
        // A purely register-resident loop never enters runahead.
        let mut p = Program::new();
        let b0 = p.add_block();
        let b1 = p.add_block();
        let b2 = p.add_block();
        p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(1)).imm(100).stop());
        p.push(b1, Inst::new(Op::AddImm).dst(Reg::int(1)).src(Reg::int(1)).imm(-1));
        p.push(b1, Inst::new(Op::CmpNe).dst(Reg::pred(1)).src(Reg::int(1)).src(Reg::int(0)).stop());
        p.push(b1, Inst::new(Op::Br { target: b1 }).qp(Reg::pred(1)).stop());
        p.push(b2, Inst::new(Op::Halt).stop());
        let case = SimCase::new(&p, MemoryImage::new());
        let ra = Runahead::new(MachineConfig::default()).try_run(&case).unwrap();
        assert_eq!(ra.stats.spec_mode_entries, 0);
    }

    #[test]
    fn wasted_work_is_visible() {
        // Runahead re-executes pre-executed instructions, so dynamic
        // executions exceed retirements on miss-heavy code.
        let (p, mem) = chase_with_stream(64);
        let case = SimCase::new(&p, mem);
        let ra = Runahead::new(MachineConfig::default()).try_run(&case).unwrap();
        assert!(
            ra.stats.executions > ra.stats.retired,
            "executions {} should exceed retired {}",
            ra.stats.executions,
            ra.stats.retired
        );
    }
}
