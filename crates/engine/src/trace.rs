//! Streamed dynamic traces for the trace-driven out-of-order models.
//!
//! The out-of-order timing models are *trace driven*: the golden functional
//! semantics produce the correct-path dynamic instruction stream with
//! dataflow links (register producers and same-address store→load memory
//! dependences), and the timing model schedules that stream under window,
//! ROB, functional-unit, and memory constraints. Wrong-path instructions
//! affect timing through branch-resolution bubbles but do not pollute the
//! caches — consistent with the paper's *idealized* out-of-order model
//! (§5.1), which deliberately excludes several realistic overheads.
//!
//! [`TraceStream`] steps the golden semantics one instruction at a time, as
//! the timing model fetches, so no run ever holds the whole dynamic trace:
//! its memory is the architectural state plus a register-producer table
//! and a last-store map, both bounded by the program's footprint rather
//! than its length.

use std::convert::Infallible;
use std::ops::Deref;

use ff_isa::interp::{execute, successor, Access, Effect};
use ff_isa::{ArchState, Inst, MemoryImage, Op, Pc, Program, Reg};

/// The register producers of one dynamic instruction, in ascending
/// sequence order without duplicates: at most the qualifying predicate and
/// the two sources, held inline.
#[derive(Clone, Copy, Debug, Default)]
pub struct DepList {
    len: u8,
    seqs: [u64; 3],
}

impl DepList {
    /// Inserts `seq`, keeping the list sorted and duplicate-free.
    #[inline]
    fn insert(&mut self, seq: u64) {
        let len = self.len as usize;
        let at = match self.seqs[..len].binary_search(&seq) {
            Ok(_) => return,
            Err(at) => at,
        };
        self.seqs.copy_within(at..len, at + 1);
        self.seqs[at] = seq;
        self.len += 1;
    }
}

impl Deref for DepList {
    type Target = [u64];

    #[inline]
    fn deref(&self) -> &[u64] {
        &self.seqs[..self.len as usize]
    }
}

/// One dynamic instruction of a trace.
#[derive(Clone, Debug)]
pub struct TraceInst<'p> {
    /// Position in the dynamic stream.
    pub seq: u64,
    /// Static location.
    pub pc: Pc,
    /// The static instruction, borrowed from the program.
    pub inst: &'p Inst,
    /// What the instruction did to architectural state.
    pub effect: Effect,
    /// Sequence numbers of the register producers this instruction must
    /// wait for: the qualifying predicate and, when it read true, each
    /// source.
    pub reg_deps: DepList,
    /// Sequence number of the most recent store to the same word, for loads
    /// (perfect memory disambiguation, per the idealized model).
    pub mem_dep: Option<u64>,
}

impl TraceInst<'_> {
    /// Whether this entry is a conditional (predictor-consulting) branch.
    pub fn is_conditional_branch(&self) -> bool {
        matches!(self.inst.op(), Op::Br { .. }) && self.inst.is_predicated()
    }
}

/// Why a trace stream could not produce its next instruction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// The program exceeded the dynamic-instruction budget without halting.
    OutOfFuel,
    /// Control escaped the program.
    InvalidControl,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::OutOfFuel => write!(f, "instruction budget exhausted"),
            TraceError::InvalidControl => write!(f, "control escaped the program"),
        }
    }
}

impl std::error::Error for TraceError {}

/// The correct-path dynamic trace of a program, produced one instruction
/// at a time by the golden functional semantics.
///
/// Iterating yields each [`TraceInst`] in dynamic order and ends after the
/// `Halt`; an `Err` item reports a malformed program.
#[derive(Debug)]
pub struct TraceStream<'p> {
    program: &'p Program,
    state: ArchState,
    /// Last dynamic writer of each register (flat index).
    last_writer: Box<[Option<u64>]>,
    /// One more than the sequence number of the last store to each word;
    /// zero (the image's default) means no store yet.
    last_store: MemoryImage,
    /// The next instruction's pc; `None` once control escaped.
    pc: Option<Pc>,
    seq: u64,
    max_insts: u64,
    halted: bool,
}

impl<'p> TraceStream<'p> {
    /// Starts the trace of `program` from `initial`, allowing at most
    /// `max_insts` dynamic instructions before the `Halt`.
    pub fn new(program: &'p Program, initial: ArchState, max_insts: u64) -> Self {
        TraceStream {
            program,
            state: initial,
            last_writer: vec![None; Reg::FLAT_COUNT].into_boxed_slice(),
            last_store: MemoryImage::new(),
            pc: program.first_pc_from(ff_isa::program::BlockId(0)),
            seq: 0,
            max_insts,
            halted: false,
        }
    }

    /// Whether the `Halt` has been produced (the stream is exhausted).
    #[inline]
    pub fn is_done(&self) -> bool {
        self.halted
    }

    /// The static location and instruction the next item will carry, or
    /// `Ok(None)` once the `Halt` has been produced.
    ///
    /// # Errors
    ///
    /// [`TraceError::OutOfFuel`] once `max_insts` instructions have been
    /// produced without a `Halt`, [`TraceError::InvalidControl`] if control
    /// left the program.
    #[inline]
    pub fn peek(&self) -> Result<Option<(Pc, &'p Inst)>, TraceError> {
        if self.halted {
            return Ok(None);
        }
        if self.seq >= self.max_insts {
            return Err(TraceError::OutOfFuel);
        }
        let pc = self.pc.ok_or(TraceError::InvalidControl)?;
        let inst = self.program.inst(pc).ok_or(TraceError::InvalidControl)?;
        Ok(Some((pc, inst)))
    }

    /// The architectural state after every instruction produced so far —
    /// the final state once the stream is done.
    pub fn state(&self) -> &ArchState {
        &self.state
    }

    /// Consumes the stream, yielding its architectural state without
    /// cloning the memory image.
    pub fn into_state(self) -> ArchState {
        self.state
    }

    /// Executes the next instruction and records its dataflow links.
    fn step(&mut self, pc: Pc, inst: &'p Inst) -> TraceInst<'p> {
        let seq = self.seq;
        let mut reg_deps = DepList::default();
        // Hardwired registers never get a writer (`writes` drops them), so
        // an unpredicated instruction's `p0` adds no dependence.
        let mut depend_on = |r: Reg| {
            if let Some(w) = self.last_writer[r.flat_index()] {
                reg_deps.insert(w);
            }
        };
        // Register links are recorded against the state before the step,
        // so an instruction that overwrites a source depends on that
        // source's previous producer, not on itself.
        depend_on(inst.qp_reg());
        if self.state.read(inst.qp_reg()) != 0 {
            inst.srcs().for_each(&mut depend_on);
            if let Some(d) = inst.writes() {
                self.last_writer[d.flat_index()] = Some(seq);
            }
        }
        // Memory dataflow links come from the access hook, which sees each
        // load and store address as it is computed.
        let (last_store, mut mem_dep) = (&mut self.last_store, None);
        let Ok(effect) = execute(&mut self.state, inst, |access| {
            match access {
                Access::Load(a) => mem_dep = last_store.load(a).checked_sub(1),
                Access::Store(a) => {
                    last_store.store(a, seq + 1);
                }
            }
            Ok::<_, Infallible>(())
        });
        self.halted = effect.halted;
        self.seq += 1;
        self.pc = successor(self.program, pc, inst, effect.taken);
        TraceInst { seq, pc, inst, effect, reg_deps, mem_dep }
    }
}

impl<'p> Iterator for TraceStream<'p> {
    type Item = Result<TraceInst<'p>, TraceError>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        match self.peek() {
            Ok(Some((pc, inst))) => Some(Ok(self.step(pc, inst))),
            Ok(None) => None,
            Err(e) => Some(Err(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_isa::interp::Interpreter;

    fn memory_loop() -> (Program, ArchState) {
        let mut p = Program::new();
        let b0 = p.add_block();
        let b1 = p.add_block();
        let b2 = p.add_block();
        // r1 = 0x1000 (array base), r2 = 4 (count), r3 = 0 (sum)
        p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(1)).imm(0x1000));
        p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(2)).imm(4));
        // loop: r4 = load r1; r3 += r4; store r3 -> (r1+0x800); r1 += 8;
        //       r2 -= 1; if r2 != 0 goto loop
        p.push(b1, Inst::new(Op::Load).dst(Reg::int(4)).src(Reg::int(1)));
        p.push(b1, Inst::new(Op::Add).dst(Reg::int(3)).src(Reg::int(3)).src(Reg::int(4)));
        p.push(b1, Inst::new(Op::Store).src(Reg::int(1)).src(Reg::int(3)).imm(0x800));
        p.push(b1, Inst::new(Op::AddImm).dst(Reg::int(1)).src(Reg::int(1)).imm(8));
        p.push(b1, Inst::new(Op::AddImm).dst(Reg::int(2)).src(Reg::int(2)).imm(-1));
        p.push(b1, Inst::new(Op::CmpNe).dst(Reg::pred(1)).src(Reg::int(2)).src(Reg::int(0)));
        p.push(b1, Inst::new(Op::Br { target: b1 }).qp(Reg::pred(1)));
        p.push(b2, Inst::new(Op::Halt));
        let mut s = ArchState::new();
        for i in 0..4u64 {
            s.mem.store(0x1000 + i * 8, i + 1);
        }
        (p, s)
    }

    /// Drains a whole stream: every entry plus the final state.
    fn drain(
        p: &Program,
        s: ArchState,
        max_insts: u64,
    ) -> Result<(Vec<TraceInst<'_>>, ArchState), TraceError> {
        let mut t = TraceStream::new(p, s, max_insts);
        let insts = t.by_ref().collect::<Result<Vec<_>, _>>()?;
        assert!(t.is_done());
        Ok((insts, t.into_state()))
    }

    #[test]
    fn trace_matches_interpreter_final_state() {
        let (p, s) = memory_loop();
        let (t, fin) = drain(&p, s.clone(), 100_000).unwrap();
        let mut i = Interpreter::with_state(&p, s);
        i.run(100_000).unwrap();
        assert!(fin.semantically_eq(i.state()));
        assert_eq!(t.len() as u64, i.retired());
    }

    #[test]
    fn stream_steps_in_lockstep_with_the_interpreter() {
        let (p, s) = memory_loop();
        let mut t = TraceStream::new(&p, s.clone(), 100_000);
        let mut i = Interpreter::with_state(&p, s);
        while let Some((pc, _)) = t.peek().unwrap() {
            // Peeking never advances the stream.
            assert_eq!(t.peek().unwrap().map(|(pc, _)| pc), Some(pc));
            assert_eq!(Some(pc), i.pc());
            let ti = t.next().unwrap().unwrap();
            i.step().unwrap();
            assert_eq!(ti.pc, pc);
            assert_eq!(ti.seq + 1, i.retired());
            assert!(t.state().semantically_eq(i.state()));
        }
        assert!(t.next().is_none());
    }

    #[test]
    fn register_deps_point_at_producers() {
        let (p, s) = memory_loop();
        let (t, _) = drain(&p, s, 100_000).unwrap();
        // Dynamic inst 3 is `r3 += r4` of iteration 1: depends on the load
        // (seq 2) and on nothing else fetched earlier that writes r3.
        assert!(t[3].reg_deps.contains(&2));
    }

    #[test]
    fn store_load_dependence_found() {
        let mut p = Program::new();
        let b = p.add_block();
        p.push(b, Inst::new(Op::MovImm).dst(Reg::int(1)).imm(0x40));
        p.push(b, Inst::new(Op::Store).src(Reg::int(1)).src(Reg::int(1)));
        p.push(b, Inst::new(Op::Load).dst(Reg::int(2)).src(Reg::int(1)));
        p.push(b, Inst::new(Op::Halt));
        let (t, _) = drain(&p, ArchState::new(), 100).unwrap();
        assert_eq!(t[2].mem_dep, Some(1));
    }

    #[test]
    fn predicated_false_depends_only_on_predicate() {
        let mut p = Program::new();
        let b = p.add_block();
        p.push(b, Inst::new(Op::CmpEq).dst(Reg::pred(1)).src(Reg::int(0)).src(Reg::int(1)));
        p.push(b, Inst::new(Op::MovImm).dst(Reg::int(3)).imm(9).qp(Reg::pred(2)));
        p.push(b, Inst::new(Op::Halt));
        let (t, fin) = drain(&p, ArchState::new(), 100).unwrap();
        let mv = &t[1];
        assert!(!mv.effect.qp_true); // p2 was never written -> false
        assert!(mv.reg_deps.is_empty()); // p2 has no producer
        assert_eq!(fin.int(3), 0);
    }

    #[test]
    fn branch_outcomes_recorded() {
        let (p, s) = memory_loop();
        let (t, _) = drain(&p, s, 100_000).unwrap();
        let branches: Vec<_> = t.iter().filter(|i| i.is_conditional_branch()).collect();
        assert_eq!(branches.len(), 4);
        assert!(branches[..3].iter().all(|b| b.effect.taken));
        assert!(!branches[3].effect.taken);
    }

    #[test]
    fn predicated_false_memory_ops_have_no_address() {
        let mut p = Program::new();
        let b = p.add_block();
        // p2 stays false: the load never executes.
        p.push(b, Inst::new(Op::Load).dst(Reg::int(1)).src(Reg::int(2)).qp(Reg::pred(2)));
        p.push(b, Inst::new(Op::Store).src(Reg::int(2)).src(Reg::int(3)).qp(Reg::pred(2)));
        p.push(b, Inst::new(Op::Halt));
        let (t, _) = drain(&p, ArchState::new(), 100).unwrap();
        assert_eq!(t[0].effect, Effect::default());
        assert_eq!(t[1].effect, Effect::default());
        assert_eq!(t[0].mem_dep, None);
    }

    #[test]
    fn dep_lists_are_deduplicated() {
        let mut p = Program::new();
        let b = p.add_block();
        p.push(b, Inst::new(Op::MovImm).dst(Reg::int(1)).imm(3));
        p.push(b, Inst::new(Op::MovImm).dst(Reg::pred(1)).imm(1));
        // Both sources come from the same producer.
        p.push(b, Inst::new(Op::Add).dst(Reg::int(2)).src(Reg::int(1)).src(Reg::int(1)));
        // Producers arrive out of order (qp from seq 1, sources from 0).
        p.push(
            b,
            Inst::new(Op::Add).dst(Reg::int(3)).src(Reg::int(2)).src(Reg::int(1)).qp(Reg::pred(1)),
        );
        p.push(b, Inst::new(Op::Halt));
        let (t, _) = drain(&p, ArchState::new(), 100).unwrap();
        assert_eq!(*t[2].reg_deps, [0]);
        assert_eq!(*t[3].reg_deps, [0, 1, 2]);
    }

    #[test]
    fn out_of_fuel_is_reported() {
        let mut p = Program::new();
        let b = p.add_block();
        p.push(b, Inst::new(Op::Br { target: b })); // infinite loop
        let mut t = TraceStream::new(&p, ArchState::new(), 100);
        assert_eq!(t.by_ref().take_while(Result::is_ok).count(), 100);
        assert_eq!(t.peek().unwrap_err(), TraceError::OutOfFuel);
        assert!(!t.is_done());
    }
}
