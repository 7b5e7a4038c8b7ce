//! First-divergence triage for the flea-flicker execution models.
//!
//! Every timing model in this workspace must retire the same architectural
//! instruction stream as the golden [`Interpreter`]. When one doesn't, the
//! end-of-run `semantically_eq` oracle only says *that* the final states
//! differ — often millions of dynamic instructions after the actual bug.
//!
//! [`LockstepChecker`] closes that gap: it is a retirement-only
//! [`PipelineProbe`] that steps the golden interpreter once per
//! [`RetireEvent`] and cross-checks, in order,
//!
//! 1. **control** — the retired pc against the golden next-pc;
//! 2. **predicate** — the model's qualifying-predicate outcome (when it
//!    reported one) against the golden evaluation;
//! 3. **register** — the value the model wrote against the golden
//!    post-step register file, including writes the model *failed* to
//!    perform;
//! 4. **memory** — the store the model performed (address and data)
//!    against the golden store effect, including missing stores;
//! 5. **stream length** — retirements past the golden `Halt`.
//!
//! The first mismatch freezes into a [`Divergence`] carrying the retired
//! sequence number, pc, instruction, pipeline mode, the active
//! advance-episode window (trigger / PEEK / DEQ, multipass only), and a
//! short history of the retirements leading up to it.
//!
//! [`compare_model`] wraps the whole flow for one model + workload and
//! returns a [`ComparisonReport`] whose `Display` is a human-readable
//! triage report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use ff_engine::{
    ExecutionModel, Observes, PipelineProbe, RetireEvent, RetireRing, RunResult, SimCase,
};
use ff_isa::interp::Interpreter;
use ff_isa::{Pc, Reg};

/// How many retirements before the divergence are retained for the report.
pub const HISTORY_LEN: usize = 16;

/// What differed at the first divergent retirement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DivergenceKind {
    /// The model retired an instruction at the wrong pc. `expected` is
    /// `None` when golden control escaped the program.
    Control {
        /// The pc the golden interpreter was about to execute.
        expected: Option<Pc>,
        /// The pc the model retired.
        actual: Pc,
    },
    /// The model resolved the qualifying predicate to the wrong value.
    Predicate {
        /// Golden predicate outcome.
        expected: bool,
        /// The model's outcome.
        actual: bool,
    },
    /// The model wrote a different value than the golden execution.
    Register {
        /// The destination register.
        reg: Reg,
        /// Golden post-execution value.
        expected: u64,
        /// The value the model wrote.
        actual: u64,
    },
    /// The golden execution wrote a register but the model reported no
    /// write at all.
    MissingWrite {
        /// The destination register the model skipped.
        reg: Reg,
        /// Golden post-execution value.
        expected: u64,
    },
    /// The store effect differs (address or data), one side performed a
    /// store the other didn't, or both.
    Store {
        /// Golden `(address, data)`, `None` if golden performed no store.
        expected: Option<(u64, u64)>,
        /// Model `(address, data)`, `None` if the model reported no store.
        actual: Option<(u64, u64)>,
    },
    /// The model retired an instruction after the golden program halted.
    ExtraRetirement,
    /// The golden interpreter itself failed (malformed program).
    GoldenError(
        /// The interpreter's error message.
        String,
    ),
}

impl fmt::Display for DivergenceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DivergenceKind::Control { expected: Some(e), actual } => {
                write!(f, "control: golden is at {e}, model retired {actual}")
            }
            DivergenceKind::Control { expected: None, actual } => {
                write!(f, "control: golden control escaped, model retired {actual}")
            }
            DivergenceKind::Predicate { expected, actual } => {
                write!(f, "predicate: golden qp={expected}, model resolved qp={actual}")
            }
            DivergenceKind::Register { reg, expected, actual } => write!(
                f,
                "register {reg}: expected {expected:#x} ({expected}), model wrote {actual:#x} ({actual})"
            ),
            DivergenceKind::MissingWrite { reg, expected } => {
                write!(f, "register {reg}: expected a write of {expected:#x}, model wrote nothing")
            }
            DivergenceKind::Store { expected, actual } => {
                write!(f, "store: expected ")?;
                match expected {
                    Some((a, d)) => write!(f, "[{a:#x}]={d:#x}")?,
                    None => write!(f, "none")?,
                }
                write!(f, ", model performed ")?;
                match actual {
                    Some((a, d)) => write!(f, "[{a:#x}]={d:#x}"),
                    None => write!(f, "none"),
                }
            }
            DivergenceKind::ExtraRetirement => {
                write!(f, "stream: model retired past the golden Halt")
            }
            DivergenceKind::GoldenError(e) => write!(f, "golden interpreter error: {e}"),
        }
    }
}

/// The first point at which a model's retirement stream departs from the
/// golden execution.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// The divergent retirement: its sequence number, cycle, pc,
    /// instruction, pipeline mode, merge flag and advance-episode window.
    pub event: RetireEvent,
    /// What differed.
    pub kind: DivergenceKind,
    /// The retirements leading up to (and including) the divergent one,
    /// oldest first.
    pub history: Vec<RetireEvent>,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ev = &self.event;
        writeln!(f, "first divergence at retired seq #{} (cycle {}):", ev.seq, ev.cycle)?;
        writeln!(f, "  {} `{}`", ev.pc, ev.inst)?;
        write!(f, "  mode: {}{}", ev.mode, if ev.merged { " (merged result)" } else { "" })?;
        match ev.episode {
            Some(ep) => writeln!(f, ", episode {ep}")?,
            None => writeln!(f)?,
        }
        writeln!(f, "  {}", self.kind)?;
        if !self.history.is_empty() {
            writeln!(f, "  last {} retirements:", self.history.len())?;
            for ev in &self.history {
                writeln!(f, "    {ev}")?;
            }
        }
        Ok(())
    }
}

/// A retirement-only [`PipelineProbe`] that runs the golden
/// interpreter in lockstep with a model's retirement stream and freezes
/// the first divergence.
///
/// After the model run, [`LockstepChecker::divergence`] holds the verdict.
pub struct LockstepChecker<'a> {
    interp: Interpreter<'a>,
    ring: RetireRing,
    divergence: Option<Divergence>,
}

impl<'a> LockstepChecker<'a> {
    /// Creates a checker for one simulation case.
    pub fn new(case: &SimCase<'a>) -> Self {
        LockstepChecker {
            interp: Interpreter::with_state(case.program, case.initial_state()),
            ring: RetireRing::new(HISTORY_LEN),
            divergence: None,
        }
    }

    /// The first divergence, if one was found.
    pub fn divergence(&self) -> Option<&Divergence> {
        self.divergence.as_ref()
    }

    /// The golden interpreter, stepped once per checked retirement.
    pub fn golden(&self) -> &Interpreter<'a> {
        &self.interp
    }

    fn diverge(&mut self, event: &RetireEvent, kind: DivergenceKind) {
        self.divergence = Some(Divergence {
            event: *event,
            kind,
            history: self.ring.events().copied().collect(),
        });
    }

    /// Runs the checks for one retirement. Split out of the trait impl so
    /// the first error can return early.
    fn check(&mut self, event: &RetireEvent) {
        // 1. Stream length: the golden program already halted.
        if self.interp.is_halted() {
            self.diverge(event, DivergenceKind::ExtraRetirement);
            return;
        }

        // 2. Control: the model must retire exactly the golden next pc.
        let golden_pc = self.interp.pc();
        if golden_pc != Some(event.pc) {
            self.diverge(event, DivergenceKind::Control { expected: golden_pc, actual: event.pc });
            return;
        }

        // The golden step: predicate outcome, register write and store.
        let golden = match self.interp.step() {
            Ok(effect) => effect.expect("a halted interpreter was ruled out above"),
            Err(e) => {
                self.diverge(event, DivergenceKind::GoldenError(e.to_string()));
                return;
            }
        };

        // 3. Predicate (when the model resolved it at retirement; merged
        // multipass results resolved it during an earlier pass).
        if let Some(model_qp) = event.qp_true {
            if model_qp != golden.qp_true {
                self.diverge(
                    event,
                    DivergenceKind::Predicate { expected: golden.qp_true, actual: model_qp },
                );
                return;
            }
        }

        // 4. Register write, against the golden post-step register file.
        match (event.wrote, golden.wrote) {
            (Some((reg, actual)), _) => {
                let expected = self.interp.state().read(reg);
                if actual != expected {
                    self.diverge(event, DivergenceKind::Register { reg, expected, actual });
                    return;
                }
            }
            // A merged Nop (or a model bug) dropped the write.
            (None, Some((reg, expected))) => {
                self.diverge(event, DivergenceKind::MissingWrite { reg, expected });
                return;
            }
            (None, None) => {}
        }

        // 5. Store effect.
        if event.stored != golden.stored {
            self.diverge(
                event,
                DivergenceKind::Store { expected: golden.stored, actual: event.stored },
            );
        }
    }
}

impl PipelineProbe for LockstepChecker<'_> {
    fn observes(&self) -> Observes {
        Observes::Retirements
    }

    fn on_retire(&mut self, event: &RetireEvent) {
        if self.divergence.is_some() {
            return; // frozen on the first divergence
        }
        self.ring.push(*event);
        self.check(event);
    }
}

/// Outcome of one differential run of a model against the golden
/// interpreter.
#[derive(Clone, Debug)]
pub struct ComparisonReport {
    /// The model's name.
    pub model: &'static str,
    /// The first retirement-level divergence, if any.
    pub divergence: Option<Divergence>,
    /// Dynamic instructions the model retired.
    pub model_retired: u64,
    /// Dynamic instructions the golden interpreter retired.
    pub golden_retired: u64,
    /// Whether the final architectural states are semantically equal.
    pub final_state_eq: bool,
    /// The model's run result (stats, activity, final state).
    pub result: RunResult,
}

impl ComparisonReport {
    /// Whether model and golden execution agreed completely.
    pub fn is_clean(&self) -> bool {
        self.divergence.is_none()
            && self.final_state_eq
            && self.model_retired == self.golden_retired
    }
}

impl fmt::Display for ComparisonReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "model `{}` vs golden interpreter: {}",
            self.model,
            if self.is_clean() { "OK" } else { "DIVERGED" }
        )?;
        writeln!(
            f,
            "  retired: model {} / golden {}; final state {}",
            self.model_retired,
            self.golden_retired,
            if self.final_state_eq { "matches" } else { "DIFFERS" }
        )?;
        match &self.divergence {
            Some(d) => write!(f, "{d}")?,
            None if !self.is_clean() => writeln!(
                f,
                "  no retirement-level divergence — the model's architectural \
                 effects at retirement all matched, so the discrepancy comes \
                 from state the model mutated outside its reported retirements"
            )?,
            None => {}
        }
        Ok(())
    }
}

/// Runs `model` on `case` in lockstep with the golden interpreter and
/// reports the first divergence (if any) plus end-of-run comparisons.
pub fn compare_model(model: &mut dyn ExecutionModel, case: &SimCase<'_>) -> ComparisonReport {
    let mut checker = LockstepChecker::new(case);
    let result =
        model.run_observed(case, &mut checker).unwrap_or_else(|e| panic!("{e} — runaway program?"));

    // The checker's interpreter stopped stepping at the divergence (if
    // any); run it on to the golden end of the program.
    let LockstepChecker { interp: mut golden, divergence, .. } = checker;
    let fuel = case.max_insts.saturating_sub(golden.retired());
    golden.run(fuel).expect("golden interpreter failed on workload program");

    ComparisonReport {
        model: model.name(),
        divergence,
        model_retired: result.stats.retired,
        golden_retired: golden.retired(),
        final_state_eq: result.final_state.semantically_eq(golden.state()),
        result,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_baselines::InOrder;
    use ff_engine::{MachineConfig, RetireMode};
    use ff_isa::{Inst, MemoryImage, Op, Program};
    use ff_multipass::{FaultClass, Multipass, MultipassConfig};

    /// The Figure 1 shape: a pointer chase whose long misses open advance
    /// episodes, with enough independent work behind the stall for the
    /// result store to fill — merges are guaranteed.
    fn chase_workload(nodes: u64) -> (Program, MemoryImage) {
        let mut p = Program::new();
        let b0 = p.add_block();
        let b1 = p.add_block();
        let b2 = p.add_block();
        p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(1)).imm(0x10_0000).stop());
        p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(5)).imm(0x400_0000).stop());
        p.push(b1, Inst::new(Op::Load).dst(Reg::int(1)).src(Reg::int(1)).region(0).stop());
        p.push(b1, Inst::new(Op::Restart).src(Reg::int(1)).stop());
        p.push(b1, Inst::new(Op::Add).dst(Reg::int(4)).src(Reg::int(1)).src(Reg::int(0)).stop());
        p.push(b1, Inst::new(Op::Load).dst(Reg::int(2)).src(Reg::int(5)).region(1));
        p.push(b1, Inst::new(Op::AddImm).dst(Reg::int(5)).src(Reg::int(5)).imm(4096).stop());
        p.push(b1, Inst::new(Op::Add).dst(Reg::int(3)).src(Reg::int(3)).src(Reg::int(2)));
        p.push(b1, Inst::new(Op::CmpNe).dst(Reg::pred(1)).src(Reg::int(4)).src(Reg::int(0)).stop());
        p.push(b1, Inst::new(Op::Br { target: b1 }).qp(Reg::pred(1)).stop());
        p.push(b2, Inst::new(Op::Halt).stop());
        let mut mem = MemoryImage::new();
        let stride = 128 * 1024;
        for i in 0..nodes {
            let a = 0x10_0000 + i * stride;
            let next = if i + 1 == nodes { 0 } else { 0x10_0000 + (i + 1) * stride };
            mem.store(a, next);
        }
        for i in 0..nodes {
            mem.store(0x400_0000 + i * 4096, i);
        }
        (p, mem)
    }

    #[test]
    fn clean_model_produces_clean_report() {
        let (p, mem) = chase_workload(16);
        let case = SimCase::new(&p, mem);
        let mut model = InOrder::new(MachineConfig::default());
        let report = compare_model(&mut model, &case);
        assert!(report.is_clean(), "unexpected divergence:\n{report}");
        assert!(report.divergence.is_none());
        assert_eq!(report.model_retired, report.golden_retired);
        assert!(report.to_string().contains("OK"));
    }

    #[test]
    fn clean_multipass_produces_clean_report() {
        let (p, mem) = chase_workload(24);
        let case = SimCase::new(&p, mem);
        let mut model = Multipass::new(MachineConfig::default());
        let report = compare_model(&mut model, &case);
        assert!(report.is_clean(), "unexpected divergence:\n{report}");
        // The chase actually exercised the multipass machinery.
        assert!(report.result.stats.rs_reuses > 0, "workload produced no merges");
    }

    /// The ISSUE's acceptance scenario: corrupt one result-store merge
    /// behind the debug flag and demonstrate that the triage report names
    /// the first divergent retired seq, the differing register, and the
    /// pipeline mode.
    #[test]
    fn injected_merge_fault_is_pinpointed() {
        let (p, mem) = chase_workload(24);
        let case = SimCase::new(&p, mem);

        // The fault only fires on a *value* merge; scan the first few merge
        // indices until one hits (Nop/Store merges pass the counter by).
        let mut found = None;
        for n in 0..64 {
            let cfg = MultipassConfig {
                fault: Some((FaultClass::RegisterBitFlip, n)),
                ..MultipassConfig::new(MachineConfig::default())
            };
            let mut model = Multipass::with_config(cfg);
            let report = compare_model(&mut model, &case);
            if report.divergence.is_some() {
                found = Some(report);
                break;
            }
        }
        let report = found.expect("no merge index produced a divergence");
        let d = report.divergence.as_ref().unwrap();

        // The fault flips bit 0 of a merged value: a register divergence
        // on a merged retirement, caught at that exact instruction.
        assert!(d.event.merged, "fault was injected at a merge:\n{report}");
        let DivergenceKind::Register { reg, expected, actual } = &d.kind else {
            panic!("expected a register divergence, got:\n{report}");
        };
        assert_eq!(*actual, *expected ^ 1, "fault XORs bit 0:\n{report}");
        assert_eq!(d.event.mode, RetireMode::Rally, "merges retire in rally mode:\n{report}");
        assert!(d.event.episode.is_some(), "rally retirement carries an episode window:\n{report}");
        assert!(!d.history.is_empty());

        // The rendered report names seq, register, and mode.
        let text = report.to_string();
        assert!(text.contains(&format!("seq #{}", d.event.seq)), "{text}");
        assert!(text.contains(&reg.to_string()), "{text}");
        assert!(text.contains("rally"), "{text}");
    }

    /// A predicate holds 0 or 1 whatever value is written to it, and
    /// every model must report the value it holds.
    #[test]
    fn predicate_writes_are_reported_as_held() {
        let mut p = Program::new();
        let b = p.add_block();
        p.push(b, Inst::new(Op::MovImm).dst(Reg::pred(1)).imm(42).stop());
        p.push(b, Inst::new(Op::Halt).stop());
        let case = SimCase::new(&p, MemoryImage::new());
        let models: [&mut dyn ExecutionModel; 2] = [
            &mut InOrder::new(MachineConfig::default()),
            &mut ff_baselines::OutOfOrder::new(MachineConfig::default()),
        ];
        for model in models {
            let report = compare_model(model, &case);
            assert!(report.is_clean(), "{report}");
        }
    }

    #[test]
    fn extra_retirements_are_reported() {
        // A probe-level test: feed the checker one event past Halt.
        let mut p = Program::new();
        let b = p.add_block();
        p.push(b, Inst::new(Op::Halt));
        let case = SimCase::new(&p, MemoryImage::new());
        let mut checker = LockstepChecker::new(&case);
        let pc = p.first_pc_from(ff_isa::program::BlockId(0)).unwrap();
        let ev = RetireEvent {
            seq: 0,
            cycle: 0,
            pc,
            inst: Inst::new(Op::Halt),
            qp_true: Some(true),
            wrote: None,
            stored: None,
            mode: RetireMode::Architectural,
            merged: false,
            episode: None,
        };
        checker.on_retire(&ev);
        assert!(checker.divergence().is_none());
        checker.on_retire(&RetireEvent { seq: 1, ..ev });
        let d = checker.divergence().expect("second retirement is past Halt");
        assert_eq!(d.kind, DivergenceKind::ExtraRetirement);
    }
}
