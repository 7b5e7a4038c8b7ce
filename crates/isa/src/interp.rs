//! Golden functional interpreter and the one architectural step.
//!
//! [`execute`] is what one non-speculative instruction does to
//! architectural state, written once: the interpreter, the out-of-order
//! models' trace stream, the in-order issue stage and the lockstep checker
//! all execute through it, so no timing model can drift from the oracle.
//! The speculative executors (runahead pre-execution, multipass advance)
//! read poisoned or deferred operands and keep their own steps.
//!
//! [`Interpreter`] executes a [`Program`] with no timing model at all. Every
//! cycle-level pipeline in the workspace must finish in an architectural
//! state [`ArchState::semantically_eq`] to the interpreter's — this is the
//! primary correctness oracle of the repository.

use std::convert::Infallible;
use std::fmt;

use crate::eval::{alu, branch_taken, effective_address};
use crate::inst::Inst;
use crate::op::Op;
use crate::program::{Pc, Program};
use crate::reg::Reg;
use crate::state::ArchState;

/// A data access [`execute`] is about to make, shown to its access hook
/// before the instruction has any architectural effect.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Access {
    /// A load from this byte address.
    Load(u64),
    /// A store to this byte address.
    Store(u64),
}

/// What one executed instruction did to architectural state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Effect {
    /// The qualifying predicate read true. When false, every other field
    /// is empty: the instruction did nothing.
    pub qp_true: bool,
    /// A branch was taken.
    pub taken: bool,
    /// A `Halt` executed.
    pub halted: bool,
    /// The register written and the value it now holds (a predicate holds
    /// 0 or 1).
    pub wrote: Option<(Reg, u64)>,
    /// Effective address of an executed load.
    pub loaded: Option<u64>,
    /// Address and data of an executed store.
    pub stored: Option<(u64, u64)>,
}

/// Executes `inst` on `state` and reports its effect.
///
/// A load or store first passes its address to `access`, the timing
/// model's memory port. An `Err` from the hook refuses the access (an
/// in-order stage's full MSHRs, say): `execute` returns it at once and
/// `state` is untouched, so the instruction can simply be replayed.
///
/// # Examples
///
/// ```
/// use std::convert::Infallible;
/// use ff_isa::interp::{execute, Access};
/// use ff_isa::{ArchState, Inst, Op, Reg};
/// let mut s = ArchState::new();
/// s.write(Reg::int(1), 0x40);
/// s.mem.store(0x40, 7);
/// // Pointer chase: r1 = load [r1].
/// let chase = Inst::new(Op::Load).dst(Reg::int(1)).src(Reg::int(1));
/// // A refused access leaves r1 alone...
/// assert_eq!(execute(&mut s, &chase, |_| Err("MSHRs full")), Err("MSHRs full"));
/// assert_eq!(s.int(1), 0x40);
/// // ...and an accepted one loads through it.
/// let e = execute(&mut s, &chase, |a| {
///     assert_eq!(a, Access::Load(0x40));
///     Ok::<_, Infallible>(())
/// });
/// assert_eq!(e.unwrap().wrote, Some((Reg::int(1), 7)));
/// ```
#[inline]
pub fn execute<E>(
    state: &mut ArchState,
    inst: &Inst,
    mut access: impl FnMut(Access) -> Result<(), E>,
) -> Result<Effect, E> {
    let mut effect = Effect { qp_true: state.read(inst.qp_reg()) != 0, ..Effect::default() };
    if !effect.qp_true {
        return Ok(effect);
    }
    let src = |n: usize| inst.src_n(n).map_or(0, |r| state.read(r));
    let operand = |n: usize, what: &str| state.read(inst.src_n(n).expect(what));
    match inst.op() {
        Op::Halt => effect.halted = true,
        Op::Br { .. } => effect.taken = branch_taken(true),
        Op::Load | Op::LoadFp => {
            let addr = effective_address(operand(0, "load has a base"), inst.imm_val());
            access(Access::Load(addr))?;
            effect.loaded = Some(addr);
            let v = state.mem.load(addr);
            effect.wrote = write_result(state, inst, v);
        }
        Op::Store => {
            let addr = effective_address(operand(0, "store has a base"), inst.imm_val());
            let data = operand(1, "store has data");
            access(Access::Store(addr))?;
            state.mem.store(addr, data);
            effect.stored = Some((addr, data));
        }
        Op::Nop | Op::Restart => {}
        op => {
            let v = alu(op, src(0), src(1), inst.imm_val());
            effect.wrote = write_result(state, inst, v);
        }
    }
    Ok(effect)
}

/// Writes `v` to `inst`'s destination, if it has one, returning the
/// register and the value it now holds.
#[inline]
fn write_result(state: &mut ArchState, inst: &Inst, v: u64) -> Option<(Reg, u64)> {
    let d = inst.writes()?;
    state.write(d, v);
    Some((d, state.read(d)))
}

/// The pc that follows `inst` at `pc`: a taken branch's target, else the
/// next instruction in layout order. `None` when control leaves the
/// program.
#[inline]
pub fn successor(program: &Program, pc: Pc, inst: &Inst, taken: bool) -> Option<Pc> {
    match inst.op() {
        Op::Br { target } if taken => program.first_pc_from(*target),
        _ => program.next_pc(pc),
    }
}

/// Why an interpreter run stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// A `Halt` instruction executed.
    Halted,
    /// The step budget was exhausted before `Halt`.
    OutOfFuel,
}

/// Error produced when the interpreted program is malformed at run time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InterpretError {
    /// Control reached a pc with no instruction (fell off the program).
    InvalidPc(Pc),
}

impl fmt::Display for InterpretError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpretError::InvalidPc(pc) => write!(f, "control reached invalid pc {pc}"),
        }
    }
}

impl std::error::Error for InterpretError {}

/// A straightforward fetch–execute interpreter over a [`Program`].
///
/// # Examples
///
/// ```
/// use ff_isa::{Inst, Op, Program, Reg, interp::Interpreter};
/// let mut p = Program::new();
/// let b = p.add_block();
/// p.push(b, Inst::new(Op::MovImm).dst(Reg::int(1)).imm(5));
/// p.push(b, Inst::new(Op::Halt));
/// let mut i = Interpreter::new(&p);
/// i.run(100).unwrap();
/// assert_eq!(i.state().int(1), 5);
/// ```
#[derive(Debug)]
pub struct Interpreter<'a> {
    program: &'a Program,
    state: ArchState,
    pc: Option<Pc>,
    retired: u64,
    halted: bool,
}

impl<'a> Interpreter<'a> {
    /// Creates an interpreter positioned at the program entry with zeroed
    /// architectural state.
    pub fn new(program: &'a Program) -> Self {
        Self::with_state(program, ArchState::new())
    }

    /// Creates an interpreter with a pre-initialized architectural state
    /// (e.g. a workload's data memory image).
    pub fn with_state(program: &'a Program, state: ArchState) -> Self {
        Interpreter {
            program,
            state,
            pc: program.first_pc_from(crate::program::BlockId(0)),
            retired: 0,
            halted: false,
        }
    }

    /// The current architectural state.
    pub fn state(&self) -> &ArchState {
        &self.state
    }

    /// Consumes the interpreter, returning the final architectural state.
    pub fn into_state(self) -> ArchState {
        self.state
    }

    /// Dynamic instructions retired so far (predicated-false instructions
    /// count: they occupy the dynamic stream).
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Whether a `Halt` has executed.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// The pc of the next instruction to execute (`None` only for invalid
    /// programs whose control escaped).
    pub fn pc(&self) -> Option<Pc> {
        if self.halted {
            None
        } else {
            self.pc
        }
    }

    /// Executes one dynamic instruction, returning its effect, or `None`
    /// once the program has halted.
    ///
    /// # Errors
    ///
    /// Returns [`InterpretError::InvalidPc`] if control escapes the program
    /// (which [`Program::validate`] rules out for well-formed programs).
    pub fn step(&mut self) -> Result<Option<Effect>, InterpretError> {
        if self.halted {
            return Ok(None);
        }
        let pc = self.pc.unwrap_or(Pc::new(crate::program::BlockId(u32::MAX), 0));
        let inst = self.program.inst(pc).ok_or(InterpretError::InvalidPc(pc))?;
        let Ok(effect) = execute(&mut self.state, inst, |_| Ok::<_, Infallible>(()));
        self.retired += 1;
        self.halted = effect.halted;
        self.pc = successor(self.program, pc, inst, effect.taken);
        Ok(Some(effect))
    }

    /// Runs until `Halt` or until `fuel` dynamic instructions have executed.
    ///
    /// # Errors
    ///
    /// Propagates [`InterpretError`] from [`Interpreter::step`].
    pub fn run(&mut self, fuel: u64) -> Result<StopReason, InterpretError> {
        for _ in 0..fuel {
            if self.step()?.is_none_or(|e| e.halted) {
                return Ok(StopReason::Halted);
            }
        }
        Ok(if self.halted { StopReason::Halted } else { StopReason::OutOfFuel })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::BlockId;

    /// Loop: r1 = 10; r2 = 0; do { r2 += r1; r1 -= 1 } while (r1 != 0)
    fn loop_program() -> Program {
        let mut p = Program::new();
        let b0 = p.add_block();
        let b1 = p.add_block();
        let b2 = p.add_block();
        p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(1)).imm(10));
        p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(2)).imm(0));
        p.push(b1, Inst::new(Op::Add).dst(Reg::int(2)).src(Reg::int(2)).src(Reg::int(1)));
        p.push(b1, Inst::new(Op::AddImm).dst(Reg::int(1)).src(Reg::int(1)).imm(-1));
        p.push(b1, Inst::new(Op::CmpNe).dst(Reg::pred(1)).src(Reg::int(1)).src(Reg::int(0)));
        p.push(b1, Inst::new(Op::Br { target: b1 }).qp(Reg::pred(1)));
        p.push(b2, Inst::new(Op::Halt));
        p
    }

    #[test]
    fn loop_sums_correctly() {
        let p = loop_program();
        assert!(p.validate().is_ok());
        let mut i = Interpreter::new(&p);
        assert_eq!(i.run(10_000).unwrap(), StopReason::Halted);
        assert_eq!(i.state().int(2), 55);
        assert_eq!(i.state().int(1), 0);
    }

    #[test]
    fn fuel_limits_execution() {
        let p = loop_program();
        let mut i = Interpreter::new(&p);
        assert_eq!(i.run(3).unwrap(), StopReason::OutOfFuel);
        assert!(!i.is_halted());
        assert_eq!(i.retired(), 3);
    }

    #[test]
    fn memory_ops_round_trip() {
        let mut p = Program::new();
        let b = p.add_block();
        p.push(b, Inst::new(Op::MovImm).dst(Reg::int(1)).imm(0x2000));
        p.push(b, Inst::new(Op::MovImm).dst(Reg::int(2)).imm(77));
        p.push(b, Inst::new(Op::Store).src(Reg::int(1)).src(Reg::int(2)).imm(8));
        p.push(b, Inst::new(Op::Load).dst(Reg::int(3)).src(Reg::int(1)).imm(8));
        p.push(b, Inst::new(Op::Halt));
        let mut i = Interpreter::new(&p);
        i.run(100).unwrap();
        assert_eq!(i.state().int(3), 77);
        assert_eq!(i.state().mem.load(0x2008), 77);
    }

    #[test]
    fn predicated_false_is_noop_but_retires() {
        let mut p = Program::new();
        let b = p.add_block();
        // p1 stays false, so the guarded write must not happen.
        p.push(b, Inst::new(Op::MovImm).dst(Reg::int(1)).imm(1).qp(Reg::pred(1)));
        p.push(b, Inst::new(Op::Halt));
        let mut i = Interpreter::new(&p);
        i.run(10).unwrap();
        assert_eq!(i.state().int(1), 0);
        assert_eq!(i.retired(), 2);
    }

    #[test]
    fn restart_is_architectural_noop() {
        let mut p = Program::new();
        let b = p.add_block();
        p.push(b, Inst::new(Op::MovImm).dst(Reg::int(1)).imm(4));
        p.push(b, Inst::new(Op::Restart).src(Reg::int(1)));
        p.push(b, Inst::new(Op::Halt));
        let mut i = Interpreter::new(&p);
        i.run(10).unwrap();
        assert_eq!(i.state().int(1), 4);
        assert!(i.is_halted());
    }

    /// r1 = 0x40, a pointer to 7 (and 0x48 holds 9); r2 = 5; f1 = 1.5;
    /// p1 true, p2 false.
    fn sample_state() -> ArchState {
        let mut s = ArchState::new();
        s.write(Reg::int(1), 0x40);
        s.write(Reg::int(2), 5);
        s.write(Reg::fp(1), 1.5f64.to_bits());
        s.write(Reg::pred(1), 1);
        s.mem.store(0x40, 7);
        s.mem.store(0x48, 9);
        s
    }

    #[test]
    fn execute_reports_every_effect_of_each_op_class() {
        let (r, f, p) = (Reg::int, Reg::fp, Reg::pred);
        let none = Effect::default();
        let cases = [
            (
                Inst::new(Op::Add).dst(r(3)).src(r(1)).src(r(2)),
                Effect { wrote: Some((r(3), 0x45)), ..none },
            ),
            (
                Inst::new(Op::CmpLt).dst(p(3)).src(r(2)).src(r(1)),
                Effect { wrote: Some((p(3), 1)), ..none },
            ),
            (
                Inst::new(Op::FMul).dst(f(2)).src(f(1)).src(f(1)),
                Effect { wrote: Some((f(2), 2.25f64.to_bits())), ..none },
            ),
            // A predicate holds 0 or 1, and the effect reports what it holds.
            (Inst::new(Op::MovImm).dst(p(4)).imm(42), Effect { wrote: Some((p(4), 1)), ..none }),
            (
                Inst::new(Op::Load).dst(r(3)).src(r(1)).imm(8),
                Effect { loaded: Some(0x48), wrote: Some((r(3), 9)), ..none },
            ),
            (
                Inst::new(Op::LoadFp).dst(f(3)).src(r(1)),
                Effect { loaded: Some(0x40), wrote: Some((f(3), 7)), ..none },
            ),
            (
                Inst::new(Op::Store).src(r(1)).src(r(2)).imm(8),
                Effect { stored: Some((0x48, 5)), ..none },
            ),
            (Inst::new(Op::Br { target: BlockId(0) }), Effect { taken: true, ..none }),
            (Inst::new(Op::Halt), Effect { halted: true, ..none }),
            (Inst::new(Op::Nop), none),
            (Inst::new(Op::Restart).src(r(1)), none),
        ];
        for (inst, want) in cases {
            let before = sample_state();
            let mut s = before.clone();
            let mut seen = Vec::new();
            let got = execute(&mut s, &inst.qp(p(1)), |a| {
                seen.push(a);
                Ok::<_, Infallible>(())
            });
            assert_eq!(got, Ok(Effect { qp_true: true, ..want }), "{inst}");
            // The hook saw exactly the data access...
            let accesses: Vec<_> = want
                .loaded
                .map(Access::Load)
                .into_iter()
                .chain(want.stored.map(|(a, _)| Access::Store(a)))
                .collect();
            assert_eq!(seen, accesses, "{inst}");
            // ...and the state changed by exactly the reported effect.
            let mut after = before.clone();
            if let Some((d, v)) = want.wrote {
                after.write(d, v);
            }
            if let Some((a, v)) = want.stored {
                after.mem.store(a, v);
            }
            assert_eq!(s, after, "{inst}");

            // Predicated off: no access, no effect.
            let mut s = before.clone();
            let got = execute(&mut s, &inst.qp(p(2)), |_| -> Result<(), ()> {
                panic!("{inst}: a predicated-off instruction made an access")
            });
            assert_eq!(got, Ok(none), "{inst}");
            assert_eq!(s, before, "{inst}");
        }
    }

    #[test]
    fn a_refused_access_leaves_the_state_untouched() {
        let chase = Inst::new(Op::Load).dst(Reg::int(1)).src(Reg::int(1));
        let store = Inst::new(Op::Store).src(Reg::int(1)).src(Reg::int(2));
        for inst in [chase, store] {
            let before = sample_state();
            let mut s = before.clone();
            assert_eq!(execute(&mut s, &inst, |_| Err("refused")), Err("refused"), "{inst}");
            assert_eq!(s, before, "{inst}");
        }
    }

    #[test]
    fn successor_follows_only_a_taken_branch() {
        let p = loop_program();
        let (b1, b2) = (BlockId(1), BlockId(2));
        let br = p.inst(Pc::new(b1, 3)).unwrap();
        assert_eq!(successor(&p, Pc::new(b1, 3), br, true), Some(Pc::new(b1, 0)));
        assert_eq!(successor(&p, Pc::new(b1, 3), br, false), Some(Pc::new(b2, 0)));
        let add = p.inst(Pc::new(b1, 0)).unwrap();
        assert_eq!(successor(&p, Pc::new(b1, 0), add, false), Some(Pc::new(b1, 1)));
        let halt = p.inst(Pc::new(b2, 0)).unwrap();
        assert_eq!(successor(&p, Pc::new(b2, 0), halt, false), None);
    }

    #[test]
    fn step_reports_the_effect() {
        let p = loop_program();
        let mut i = Interpreter::new(&p);
        let e = i.step().unwrap().unwrap();
        assert_eq!(
            e,
            Effect { qp_true: true, wrote: Some((Reg::int(1), 10)), ..Effect::default() }
        );
    }

    #[test]
    fn step_after_halt_is_none() {
        let p = loop_program();
        let mut i = Interpreter::new(&p);
        i.run(10_000).unwrap();
        assert_eq!(i.step().unwrap(), None);
    }
}
