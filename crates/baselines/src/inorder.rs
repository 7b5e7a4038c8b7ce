//! The baseline in-order EPIC pipeline.
//!
//! Execution follows the compiler's plan exactly: instructions issue in
//! program order, at most one compiler issue group per cycle (EPIC stop
//! bits), with *split issue* within a group when a member stalls — the
//! Itanium 2 dispersal discipline. Variable-latency results are
//! scoreboarded; a consumer (or an output-dependent writer, §3.5) stalls
//! until the producer's result is ready. This is the `base` bar of
//! Figure 6: every cycle in which no instruction issues is charged to the
//! stall cause of the oldest unissued instruction.

use std::borrow::Cow;

use ff_engine::{
    operand_wake, Activity, ExecutionModel, FuPool, MachineConfig, PendingKind, PipelineProbe,
    RetireEvent, RetireHook, RetireMode, RetireTee, RunError, RunResult, RunStats, Scoreboard,
    SimCase, StallKind, TickMode,
};
use ff_frontend::{FetchUnit, Gshare};
use ff_isa::eval::{alu, effective_address};
use ff_isa::{ArchState, Op};
use ff_mem::{AccessKind, MemAccess, MemorySystem};

/// The baseline in-order model.
#[derive(Clone, Debug)]
pub struct InOrder {
    config: MachineConfig,
    tick: TickMode,
}

impl InOrder {
    /// Creates the model with the given machine configuration.
    pub fn new(config: MachineConfig) -> Self {
        InOrder { config, tick: TickMode::default() }
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }
}

pub(crate) use ff_engine::operand_stall;

impl ExecutionModel for InOrder {
    fn name(&self) -> &'static str {
        "inorder"
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

            let mut issued_this_cycle = 0u32;
            let mut stall: Option<StallKind> = None;

            while issued_this_cycle < cfg.issue_width {
                let (pc, seq, predicted_next, snap) = match fetch.get(fetch.head_seq()) {
                    Some(e) if e.fetched_at <= now => {
                        (e.pc, e.seq, e.predicted_next, e.history_snapshot)
                    }
                    _ => break, // empty buffer (or entry still in flight)
                };
                // The fetch buffer holds a verbatim copy of the static
                // instruction; borrow the program's original rather than
                // cloning it into every issue slot.
                let inst = program.inst(pc).expect("fetched pc is valid");
                activity.select_visits += 1;

                if let Some(kind) = operand_stall(inst, &sb, now) {
                    stall = Some(kind);
                    break;
                }
                if !fu.try_issue(inst, now) {
                    stall = Some(StallKind::Other);
                    break;
                }

                // Read operands (bypass/regfile) and execute eagerly.
                let qp_true = state.read(inst.qp_reg()) != 0;
                activity.regfile_reads += inst.reads().count() as u64;
                let ends_group = inst.ends_group();
                let mut flushed = false;
                let mut stored = None;

                if qp_true {
                    match inst.op() {
                        Op::Halt => {
                            halted = true;
                        }
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
                                    // MSHRs full: replay next cycle. The FU
                                    // slot is wasted, as in hardware.
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
                } else {
                    // Predicated off: retires as a no-op, but a predicated
                    // branch still resolves (not-taken) against prediction.
                    if let Op::Br { .. } = inst.op() {
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
                issued_this_cycle += 1;

                if halted || flushed || ends_group {
                    break;
                }
            }

            if issued_this_cycle > 0 {
                stats.breakdown.charge(StallKind::Execution);
            } else if let Some(kind) = stall {
                stats.breakdown.charge(kind);
            } else {
                stats.breakdown.charge(StallKind::FrontEnd);
            }
            now += 1;

            // Event-driven quiescence fast-forward: when fetch is idle
            // and the head of the issue queue is provably blocked on a
            // known-latency event, skip ahead to the earliest wake point,
            // charging every skipped cycle exactly as the polled loop
            // would have. Bit-for-bit identical stats by construction.
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
                                // The stall *kind* may change once the
                                // earliest operand readies: wake at the
                                // min crossing and re-evaluate there.
                                Some(kind) => operand_wake(inst, &sb, now).map(|w| (w, kind, 1)),
                                // Blocked purely on an occupied
                                // unpipelined FP unit.
                                None if !fu.can_issue_fresh(inst, now) => {
                                    Some((fu.next_fp_release(now), StallKind::Other, 1))
                                }
                                // Would issue (or needs a memory access,
                                // which mutates hierarchy stats): poll.
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
    use ff_compiler::{compile, CompilerOptions};
    use ff_isa::interp::Interpreter;
    use ff_isa::{Inst, MemoryImage, Program, Reg};

    fn run_model(p: &Program, mem: MemoryImage) -> RunResult {
        let case = SimCase::new(p, mem);
        InOrder::new(MachineConfig::default()).try_run(&case).unwrap()
    }

    fn check_against_interpreter(p: &Program, mem: MemoryImage) -> RunResult {
        let r = run_model(p, mem.clone());
        let mut s = ArchState::new();
        s.mem = mem;
        let mut i = Interpreter::with_state(p, s);
        i.run(10_000_000).unwrap();
        assert!(
            r.final_state.semantically_eq(i.state()),
            "in-order final state diverges from interpreter"
        );
        assert_eq!(r.stats.retired, i.retired());
        r
    }

    /// Sum an in-memory array with a counted loop.
    fn sum_loop(n: i64) -> (Program, MemoryImage) {
        let mut p = Program::new();
        let b0 = p.add_block();
        let b1 = p.add_block();
        let b2 = p.add_block();
        p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(1)).imm(0x1000));
        p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(2)).imm(n));
        p.push(b1, Inst::new(Op::Load).dst(Reg::int(4)).src(Reg::int(1)));
        p.push(b1, Inst::new(Op::Add).dst(Reg::int(3)).src(Reg::int(3)).src(Reg::int(4)));
        p.push(b1, Inst::new(Op::AddImm).dst(Reg::int(1)).src(Reg::int(1)).imm(8));
        p.push(b1, Inst::new(Op::AddImm).dst(Reg::int(2)).src(Reg::int(2)).imm(-1));
        p.push(b1, Inst::new(Op::CmpNe).dst(Reg::pred(1)).src(Reg::int(2)).src(Reg::int(0)));
        p.push(b1, Inst::new(Op::Br { target: b1 }).qp(Reg::pred(1)));
        p.push(b2, Inst::new(Op::Halt));
        let compiled = compile(&p, &CompilerOptions::default());
        let mut mem = MemoryImage::new();
        for i in 0..n as u64 {
            mem.store(0x1000 + i * 8, i + 1);
        }
        (compiled, mem)
    }

    #[test]
    fn matches_interpreter_on_sum_loop() {
        let (p, mem) = sum_loop(50);
        let r = check_against_interpreter(&p, mem);
        assert_eq!(r.final_state.int(3), 50 * 51 / 2);
        assert!(r.stats.cycles > 0);
    }

    #[test]
    fn attribution_covers_every_cycle() {
        let (p, mem) = sum_loop(100);
        let r = run_model(&p, mem);
        assert_eq!(r.stats.breakdown.total(), r.stats.cycles);
    }

    #[test]
    fn cold_misses_produce_load_stalls() {
        let (p, mem) = sum_loop(200);
        let r = run_model(&p, mem);
        assert!(r.stats.breakdown.load > 0, "expected load-use stalls: {:?}", r.stats);
    }

    #[test]
    fn one_group_per_cycle_limits_ipc() {
        // Ten single-instruction groups of independent moves: the baseline
        // needs >= 10 issue cycles even though all are independent.
        let mut p = Program::new();
        let b = p.add_block();
        for i in 1..=10 {
            p.push(b, Inst::new(Op::MovImm).dst(Reg::int(i)).imm(i as i64).stop());
        }
        p.push(b, Inst::new(Op::Halt).stop());
        let r = run_model(&p, MemoryImage::new());
        assert!(r.stats.cycles >= 11, "cycles = {}", r.stats.cycles);
    }

    #[test]
    fn grouped_code_is_faster_than_serial_groups() {
        // The same ten moves packed by the compiler into 6-wide groups
        // should finish in fewer cycles.
        let mut serial = Program::new();
        let b = serial.add_block();
        for i in 1..=10 {
            serial.push(b, Inst::new(Op::MovImm).dst(Reg::int(i)).imm(i as i64).stop());
        }
        serial.push(b, Inst::new(Op::Halt).stop());

        let mut packed_src = Program::new();
        let b = packed_src.add_block();
        for i in 1..=10 {
            packed_src.push(b, Inst::new(Op::MovImm).dst(Reg::int(i)).imm(i as i64));
        }
        packed_src.push(b, Inst::new(Op::Halt));
        let packed = compile(&packed_src, &CompilerOptions::default());

        let rs = run_model(&serial, MemoryImage::new());
        let rp = run_model(&packed, MemoryImage::new());
        assert!(
            rp.stats.cycles < rs.stats.cycles,
            "packed {} !< serial {}",
            rp.stats.cycles,
            rs.stats.cycles
        );
    }

    #[test]
    fn cycle_budget_watchdog_aborts_long_runs() {
        let (p, mem) = sum_loop(200);
        let case = SimCase::new(&p, mem.clone()).with_cycle_budget(10);
        let err = InOrder::new(MachineConfig::default()).try_run(&case).unwrap_err();
        assert!(matches!(err, RunError::CycleBudgetExceeded { limit: 10, .. }), "{err}");
        // A generous budget changes nothing.
        let full = run_model(&p, mem.clone());
        let case = SimCase::new(&p, mem).with_cycle_budget(full.stats.cycles + 1);
        let ok = InOrder::new(MachineConfig::default()).try_run(&case).unwrap();
        assert_eq!(ok.stats, full.stats);
    }

    #[test]
    fn branchy_code_trains_predictor() {
        let (p, mem) = sum_loop(500);
        let r = run_model(&p, mem);
        assert!(r.stats.branches >= 500);
        // A counted loop is highly predictable once trained.
        assert!(r.stats.mispredict_rate() < 0.10, "mispredict rate {}", r.stats.mispredict_rate());
    }

    #[test]
    fn multicycle_ops_attribute_other_stalls() {
        let mut p = Program::new();
        let b = p.add_block();
        p.push(b, Inst::new(Op::MovImm).dst(Reg::int(1)).imm(7).stop());
        // Long chain of dependent divides.
        for _ in 0..5 {
            p.push(b, Inst::new(Op::Div).dst(Reg::int(1)).src(Reg::int(1)).src(Reg::int(1)).stop());
        }
        p.push(b, Inst::new(Op::Halt).stop());
        let r = run_model(&p, MemoryImage::new());
        assert!(r.stats.breakdown.other > 50, "other stalls = {:?}", r.stats.breakdown);
    }

    #[test]
    fn waw_scoreboarding_stalls_output_dependence() {
        // load r1 (miss); then movimm r1 must wait for the load's writeback
        // (§3.5) even though it has no input dependence.
        let mut p = Program::new();
        let b = p.add_block();
        p.push(b, Inst::new(Op::MovImm).dst(Reg::int(2)).imm(0x8000).stop());
        p.push(b, Inst::new(Op::Load).dst(Reg::int(1)).src(Reg::int(2)).stop());
        p.push(b, Inst::new(Op::MovImm).dst(Reg::int(1)).imm(5).stop());
        p.push(b, Inst::new(Op::Halt).stop());
        let r = run_model(&p, MemoryImage::new());
        // The cold miss costs ~145 cycles and the WAW write must wait.
        assert!(r.stats.cycles > 140, "cycles = {}", r.stats.cycles);
        assert_eq!(r.final_state.int(1), 5);
    }
}
