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
//!
//! The machine state, the execute step and the stalled-head skip analysis
//! live in [`InOrderStage`]; this model is a short loop over it, and
//! `issue_group` is the issue loop runahead reuses for its architectural
//! regime.

use ff_engine::{
    ExecutionModel, InOrderStage, MachineConfig, Observes, PipelineProbe, RetireMode, RunError,
    RunResult, SimCase, StallKind, TickMode,
};

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

/// One cycle of baseline issue: the head's compiler group in program
/// order, up to `width` instructions, split at the first stall. Returns
/// the number issued and the stall that ended issue, if any.
/// Retirements go to `observer` when there is one.
pub(crate) fn issue_group(
    stage: &mut InOrderStage<'_>,
    width: u32,
    mut observer: Option<&mut (dyn PipelineProbe + '_)>,
) -> (u32, Option<StallKind>) {
    let mut issued = 0u32;
    while issued < width {
        let Some(head) = stage.select_head() else { break };
        let done = match stage.execute(&head, true, head.predicted_next) {
            Ok(done) => done,
            Err(stall) => return (issued, Some(stall)),
        };
        if let Some((d, ready_at, kind)) = done.pend {
            stage.sb.set_pending(d, ready_at, kind);
        }
        if let Some(observer) = observer.as_deref_mut() {
            observer.on_retire(&done.event(stage.now, RetireMode::Architectural, None));
        }
        issued += 1;
        if stage.halted || done.flushed || head.inst.ends_group() {
            break;
        }
    }
    (issued, None)
}

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
        probe: &mut dyn PipelineProbe,
    ) -> Result<RunResult, RunError> {
        let cfg = &self.config;
        let cycle_cap = case.cycle_cap(cfg.max_cycles);
        let mut stage = InOrderStage::new(case, cfg, cfg.inorder_buffer);
        let retire = probe.observes() >= Observes::Retirements;
        while !stage.halted {
            stage.begin_cycle(case, cycle_cap)?;
            let observer = retire.then_some(&mut *probe);
            let (issued, stall) = issue_group(&mut stage, cfg.issue_width, observer);
            stage.charge_issue(issued, stall);
            stage.now += 1;
            // Event-driven quiescence fast-forward (DESIGN.md §7c).
            if self.tick == TickMode::EventDriven && !stage.halted {
                stage.fast_forward(true, cycle_cap);
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
    use ff_compiler::{compile, CompilerOptions};
    use ff_isa::interp::Interpreter;
    use ff_isa::{ArchState, Inst, MemoryImage, Op, Program, Reg};

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
