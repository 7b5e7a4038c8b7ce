//! Dundas–Mudge runahead preexecution (§2 and §5.4 of the paper).
//!
//! Runahead is the in-order stage plus an episode policy. Its architectural
//! regime *is* [`crate::InOrder`]: the same [`InOrderStage`] driven by the
//! same issue loop, so on code without load-use stalls the two models are
//! cycle-for-cycle identical. When the oldest instruction stalls on an
//! unready *load* result, the pipeline checkpoints (architectural issue
//! pauses without consuming the buffer) and pre-executes subsequent
//! instructions speculatively:
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
//!
//! The pieces runahead shares with multipass come from `ff-engine`: the
//! speculative values live in the same [`Srf`] multipass advance mode
//! writes (untainted values and I-bits only, read without counting SRF
//! activity), and the episode exit is the stage's
//! [`InOrderStage::head_ready`] test, the one multipass uses to enter
//! rally. The pre-execution step itself stays separate from multipass's
//! advance pass: the two differ in eight places (DESIGN.md §4, "Why
//! runahead keeps its own pre-execution step").

use ff_engine::{
    ExecutionModel, InOrderStage, MachineConfig, Observes, PipelineProbe, RunError, RunResult,
    SimCase, Srf, SrfVal, StallKind, TickMode,
};
use ff_isa::eval::{alu, effective_address};
use ff_isa::{Op, Reg};
use ff_mem::{AccessKind, MemAccess};

use crate::inorder::issue_group;

/// Reads `r` for pre-execution at the stage's current cycle: `Some(value)`
/// when valid and ready, `None` when poisoned or still in flight. A live
/// SRF slot is a value only if valid and ready; an empty one falls back to
/// the architectural file, whose in-flight writers are unavailable *now*
/// but may arrive during the episode. A hardwired register has no SRF
/// slot and is always ready, so it reads its architectural constant.
fn spec_read(srf: &Srf, stage: &InOrderStage<'_>, r: Reg) -> Option<u64> {
    match srf.probe(r) {
        Some(SrfVal::Valid { value, ready_at, .. }) if ready_at <= stage.now => Some(value),
        Some(_) => None,
        None => stage.sb.ready(r, stage.now).then(|| stage.state.read(r)),
    }
}

/// One cycle of pre-execution from `peek`: up to `width` instructions of
/// one group, executed against the speculative overlay purely to prefetch.
fn pre_execute(stage: &mut InOrderStage<'_>, peek: &mut u64, srf: &mut Srf, width: u32) {
    let (program, now) = (stage.program, stage.now);
    let mut pseudo_issued = 0u32;
    while pseudo_issued < width {
        let (pc, predicted_next, snap) = match stage.fetch.get(*peek) {
            Some(e) if e.fetched_at <= now => (e.pc, e.predicted_next, e.history_snapshot),
            _ => break,
        };
        let inst = program.inst(pc).expect("fetched pc is valid");
        stage.activity.select_visits += 1;
        if !stage.fu.try_issue(inst, now) {
            break;
        }
        let read = |r: Reg| spec_read(srf, stage, r);
        let qp = if inst.is_predicated() { read(inst.qp_reg()) } else { Some(1) };
        let mut redirected = false;

        match (qp, inst.op()) {
            (None, _) => {
                // Unknown predicate: defer the whole instruction.
                if let Some(d) = inst.writes() {
                    srf.write(d, SrfVal::Invalid);
                }
            }
            (Some(0), _) => {} // predicated off: no-op
            // Stop pre-executing past the end of the program.
            (Some(_), Op::Halt) => break,
            (Some(_), Op::Br { target }) => {
                // Valid branch: train the predictor early. (Runahead
                // discards all work on exit, so fetch is *not* redirected —
                // the architectural re-execution resolves the branch.)
                let actual_next = program.first_pc_from(*target);
                if inst.is_predicated() {
                    stage.fetch.predictor_mut().update(pc, snap, true);
                }
                if predicted_next != actual_next {
                    stage.stats.early_resolved_mispredicts += 1;
                    // Pre-executing past a known-wrong branch is useless;
                    // stop this cycle's group here.
                    redirected = true;
                }
            }
            (Some(_), Op::Load | Op::LoadFp) => {
                let mut value = SrfVal::Invalid;
                if let Some(b) = inst.src_n(0).and_then(read) {
                    let addr = effective_address(b, inst.imm_val());
                    let access = stage.mem.access(addr, AccessKind::SpeculativeRead, now);
                    if let MemAccess::Done { complete_at, level } = access {
                        stage.stats.executions += 1;
                        // Missing loads defer their consumers (prefetch only).
                        if !level.is_miss() {
                            let v = stage.state.mem.load(addr);
                            value =
                                SrfVal::Valid { value: v, ready_at: complete_at, tainted: false };
                        }
                    }
                }
                if let Some(d) = inst.writes() {
                    srf.write(d, value);
                }
            }
            (Some(_), Op::Store) => {
                // Stores are dropped in runahead; a valid address still
                // prefetches the line.
                if let Some(b) = inst.src_n(0).and_then(read) {
                    let addr = effective_address(b, inst.imm_val());
                    let _ = stage.mem.access(addr, AccessKind::DataWrite, now);
                    stage.stats.executions += 1;
                }
            }
            (Some(_), Op::Nop | Op::Restart) => {}
            (Some(_), op) => {
                // Per source: `None` when absent, `Some(None)` when invalid.
                let a = inst.src_n(0).map(read);
                let b = inst.src_n(1).map(read);
                let valid = a != Some(None) && b != Some(None);
                if valid {
                    stage.stats.executions += 1;
                }
                if let Some(d) = inst.writes() {
                    let value = if valid {
                        let v = alu(
                            op,
                            a.flatten().unwrap_or(0),
                            b.flatten().unwrap_or(0),
                            inst.imm_val(),
                        );
                        // Runahead has no data speculation: nothing is tainted.
                        SrfVal::Valid {
                            value: v,
                            ready_at: now + op.latency() as u64,
                            tainted: false,
                        }
                    } else {
                        SrfVal::Invalid
                    };
                    srf.write(d, value);
                }
            }
        }

        *peek += 1;
        pseudo_issued += 1;
        if redirected {
            // Fetch was truncated; peek continues at the next (corrected)
            // sequence number when it arrives.
            *peek = (*peek).min(stage.fetch.next_seq());
            break;
        }
        if inst.ends_group() {
            break;
        }
    }
}

/// The wake point of an idle episode: `None` while pre-execution has a
/// live instruction at `peek` or the exit check would fire; otherwise the
/// earliest arrival at `peek` or wake of the blocked head.
fn episode_wake(stage: &InOrderStage<'_>, peek: u64) -> Option<u64> {
    let peek_wake = match stage.fetch.get(peek) {
        None => u64::MAX,
        Some(e) if e.fetched_at > stage.now => e.fetched_at,
        Some(_) => return None, // live entry: pre-execution would run
    };
    (!stage.head_ready()).then(|| peek_wake.min(stage.head_wake()))
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
        probe: &mut dyn PipelineProbe,
    ) -> Result<RunResult, RunError> {
        let cfg = &self.config;
        let cycle_cap = case.cycle_cap(cfg.max_cycles);
        let mut stage = InOrderStage::new(case, cfg, cfg.inorder_buffer);
        let retire = probe.observes() >= Observes::Retirements;

        // Runahead episode state: `Some(peek_seq)` while running ahead of a
        // blocking load. The speculative overlay persists across episodes
        // (reset is an epoch bump), so episode entry allocates nothing.
        let mut episode: Option<u64> = None;
        let mut srf = Srf::new();
        stage.activity.alloc_count += 1; // the SRF's single allocation

        while !stage.halted {
            stage.begin_cycle(case, cycle_cap)?;
            if episode.is_none() {
                // The architectural regime is the in-order pipeline.
                let observer = retire.then_some(&mut *probe);
                let (issued, stall) = issue_group(&mut stage, cfg.issue_width, observer);
                if issued == 0 && stall == Some(StallKind::Load) {
                    // Enter runahead on a load-use stall.
                    episode = Some(stage.fetch.head_seq());
                    srf.clear();
                    stage.stats.spec_mode_entries += 1;
                } else {
                    stage.charge_issue(issued, stall);
                    stage.now += 1;
                    // A load stall enters an episode the very cycle it is
                    // detected, so only the other head stalls are skipped.
                    if self.tick == TickMode::EventDriven && !stage.halted {
                        stage.fast_forward(false, cycle_cap);
                    }
                    continue;
                }
            }

            // ---- runahead pre-execution ----
            // Every runahead cycle is charged to the blocking load
            // (architecturally the pipeline is stalled on it).
            stage.stats.breakdown.charge(StallKind::Load);
            stage.stats.spec_mode_cycles += 1;
            // Exit check: is the blocking instruction ready now?
            if stage.head_ready() {
                // Discard all speculative state; architectural execution
                // resumes next cycle and re-executes everything.
                episode = None;
                stage.now += 1;
                continue;
            }
            let peek = episode.as_mut().expect("in an episode");
            pre_execute(&mut stage, peek, &mut srf, cfg.issue_width);
            stage.now += 1;

            // Event-driven fast-forward inside an episode: skip ahead only
            // while the exit check provably stays false, the pseudo-issue
            // loop has nothing to chew on (PEEK ran past fetch), and fetch
            // itself is idle. Each skipped cycle is charged to the blocking
            // load, exactly as polled.
            if self.tick == TickMode::EventDriven {
                if let Some(wake) = episode_wake(&stage, *peek)
                    .and_then(|target| stage.skip_until(target, cycle_cap))
                {
                    stage.stats.spec_mode_cycles += stage.skip_to(wake, StallKind::Load, 0);
                }
            }
        }

        let result = stage.finish();
        probe.on_run_end(&result);
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inorder::InOrder;
    use ff_isa::interp::Interpreter;
    use ff_isa::{ArchState, Inst, MemoryImage, Program};

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
