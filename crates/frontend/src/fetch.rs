//! The fetch engine and instruction buffer.
//!
//! [`FetchUnit`] walks the predicted path of a program, up to `width`
//! instructions per cycle, through the L1I, and appends [`FetchedInst`]s to
//! a bounded FIFO buffer. Backends address buffer entries by *sequence
//! number* — a monotonically increasing id over the speculative dynamic
//! instruction stream — which is exactly what the multipass DEQ/PEEK
//! pointers of the paper's Figure 2 need.

use std::collections::VecDeque;

use ff_isa::{Op, Pc, Program};
use ff_mem::{AccessKind, MemAccess, MemorySystem};

use crate::gshare::Gshare;

/// One instruction in the speculative fetch stream.
#[derive(Clone, Debug)]
pub struct FetchedInst {
    /// Position in the speculative dynamic stream (0-based, monotonic).
    pub seq: u64,
    /// Static location of the instruction.
    pub pc: Pc,
    /// The operation (a plain `Copy` — backends that need operand registers
    /// re-read the full [`Inst`](ff_isa::Inst) via `program.inst(pc)`, which avoids
    /// cloning the register arrays through every buffered entry).
    pub op: Op,
    /// Whether the instruction carries a non-trivial qualifying predicate.
    pub predicated: bool,
    /// The pc the fetch stream continued at after this instruction
    /// (`None` after `Halt`). Branch resolution compares the actual
    /// successor against this.
    pub predicted_next: Option<Pc>,
    /// For conditional branches: the predicted direction.
    pub predicted_taken: bool,
    /// For conditional branches: the gshare history snapshot at prediction.
    pub history_snapshot: u16,
    /// Cycle at which this instruction became available to the backend.
    pub fetched_at: u64,
}

impl FetchedInst {
    /// Whether this entry is a conditional branch that consulted gshare.
    #[inline]
    pub fn used_predictor(&self) -> bool {
        matches!(self.op, Op::Br { .. }) && self.predicated
    }
}

/// Fetch engine plus instruction buffer.
///
/// Timing rules:
/// * at most one I-cache access per cycle, covering up to `width`
///   sequential instructions;
/// * an L1I miss blocks fetch until the miss completes;
/// * a predicted-taken branch ends the fetch group; fetch resumes at the
///   target next cycle (one redirect bubble);
/// * the buffer is bounded; fetch stalls when full;
/// * a backend-initiated flush ([`FetchUnit::flush_after`]) squashes younger
///   entries and blocks fetch for the supplied refill penalty.
#[derive(Clone, Debug)]
pub struct FetchUnit {
    buffer: VecDeque<FetchedInst>,
    predictor: Gshare,
    fetch_pc: Option<Pc>,
    next_seq: u64,
    head_seq: u64,
    capacity: usize,
    width: usize,
    blocked_until: u64,
    fetched_halt: bool,
    stat_fetched: u64,
    stat_icache_stall_cycles: u64,
    stat_squashed: u64,
}

impl FetchUnit {
    /// Creates a fetch unit positioned at the entry of `program`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `width` is zero.
    pub fn new(program: &Program, capacity: usize, width: usize, predictor: Gshare) -> Self {
        assert!(capacity > 0 && width > 0, "capacity and width must be positive");
        FetchUnit {
            buffer: VecDeque::with_capacity(capacity),
            predictor,
            fetch_pc: program.first_pc_from(ff_isa::program::BlockId(0)),
            next_seq: 0,
            head_seq: 0,
            capacity,
            width,
            blocked_until: 0,
            fetched_halt: false,
            stat_fetched: 0,
            stat_icache_stall_cycles: 0,
            stat_squashed: 0,
        }
    }

    /// Advances fetch by one cycle, possibly appending up to `width`
    /// instructions fetched at cycle `now`.
    pub fn tick(&mut self, program: &Program, mem: &mut MemorySystem, now: u64) {
        if now < self.blocked_until || self.fetched_halt {
            return;
        }
        let mut pc = match self.fetch_pc {
            Some(pc) => pc,
            None => return,
        };
        if self.buffer.len() >= self.capacity {
            return;
        }
        // One I-cache access for the whole fetch group.
        match mem.access(pc.fetch_address(), AccessKind::InstFetch, now) {
            MemAccess::Done { complete_at, .. } => {
                if complete_at > now + 1 {
                    // L1I miss: group delivered when the miss returns.
                    self.stat_icache_stall_cycles += complete_at - (now + 1);
                    self.blocked_until = complete_at;
                    return;
                }
            }
            MemAccess::Retry => {
                self.blocked_until = now + 1;
                return;
            }
        }

        for _ in 0..self.width {
            if self.buffer.len() >= self.capacity {
                break;
            }
            let inst = match program.inst(pc) {
                Some(i) => i,
                None => {
                    self.fetch_pc = None;
                    return;
                }
            };
            let mut predicted_taken = false;
            let mut history_snapshot = 0;
            let mut redirect = false;
            let predicted_next = match inst.op() {
                Op::Halt => {
                    self.fetched_halt = true;
                    None
                }
                Op::Br { target } => {
                    if inst.is_predicated() {
                        let (taken, snap) = self.predictor.predict(pc);
                        predicted_taken = taken;
                        history_snapshot = snap;
                        if taken {
                            redirect = true;
                            program.first_pc_from(*target)
                        } else {
                            program.next_pc(pc)
                        }
                    } else {
                        // Unconditional: statically taken, no predictor use.
                        predicted_taken = true;
                        redirect = true;
                        program.first_pc_from(*target)
                    }
                }
                _ => program.next_pc(pc),
            };
            self.buffer.push_back(FetchedInst {
                seq: self.next_seq,
                pc,
                op: *inst.op(),
                predicated: inst.is_predicated(),
                predicted_next,
                predicted_taken,
                history_snapshot,
                fetched_at: now + 1,
            });
            self.next_seq += 1;
            self.stat_fetched += 1;
            if self.fetched_halt {
                self.fetch_pc = None;
                return;
            }
            match predicted_next {
                Some(next) => {
                    pc = next;
                    self.fetch_pc = Some(next);
                    if redirect {
                        // Taken branch ends the group with a redirect bubble.
                        self.blocked_until = now + 2;
                        return;
                    }
                }
                None => {
                    self.fetch_pc = None;
                    return;
                }
            }
        }
    }

    /// The entry with sequence number `seq`, if it is currently buffered.
    #[inline]
    pub fn get(&self, seq: u64) -> Option<&FetchedInst> {
        if seq < self.head_seq {
            return None;
        }
        self.buffer.get((seq - self.head_seq) as usize)
    }

    /// Sequence number of the oldest buffered instruction.
    #[inline]
    pub fn head_seq(&self) -> u64 {
        self.head_seq
    }

    /// Sequence number the next fetched instruction will receive.
    #[inline]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Number of buffered instructions.
    #[inline]
    pub fn len(&self) -> usize {
        self.buffer.len()
    }

    /// Whether the buffer is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buffer.is_empty()
    }

    /// Whether the buffer is full (fetch is stalling on backpressure).
    #[inline]
    pub fn is_full(&self) -> bool {
        self.buffer.len() >= self.capacity
    }

    /// Whether a `Halt` has been fetched (fetch has stopped).
    #[inline]
    pub fn halted(&self) -> bool {
        self.fetched_halt
    }

    /// Whether fetch is currently blocked (I-miss, redirect, or flush
    /// penalty) at cycle `now`.
    #[inline]
    pub fn blocked_at(&self, now: u64) -> bool {
        now < self.blocked_until
    }

    /// If [`FetchUnit::tick`] at cycle `now` would be a pure no-op (no
    /// I-cache access, no buffered instruction, no stat change), the
    /// earliest future cycle at which the passage of time alone could
    /// change that — `u64::MAX` when only a backend action (a pop after
    /// a full buffer, a flush) can re-enable fetch. `None` when fetch is
    /// active at `now`.
    ///
    /// This is the fetch unit's wake event for the event-driven tick. A
    /// full buffer reports `u64::MAX` even while an I-miss is pending,
    /// because within a quiescent window nothing pops the buffer; the
    /// first pop ends the window and re-polls.
    #[inline]
    pub fn quiescent_until(&self, now: u64) -> Option<u64> {
        if self.fetched_halt || self.fetch_pc.is_none() || self.buffer.len() >= self.capacity {
            return Some(u64::MAX);
        }
        if now < self.blocked_until {
            return Some(self.blocked_until);
        }
        None
    }

    /// Pops the oldest instruction (architectural consumption).
    #[inline]
    pub fn pop_front(&mut self) -> Option<FetchedInst> {
        let e = self.buffer.pop_front();
        if e.is_some() {
            self.head_seq += 1;
        }
        e
    }

    /// Squashes every buffered instruction with `seq > after_seq`, restarts
    /// fetch at `new_pc`, charges the front-end refill penalty (fetch
    /// resumes at `resume_at`), and repairs the branch predictor's global
    /// history from `snapshot`/`actual_taken`. This is the mispredict-
    /// recovery path used by every backend.
    pub fn flush_after(
        &mut self,
        after_seq: u64,
        new_pc: Option<Pc>,
        resume_at: u64,
        snapshot: u16,
        actual_taken: bool,
    ) {
        while let Some(back) = self.buffer.back() {
            if back.seq > after_seq {
                self.buffer.pop_back();
                self.next_seq -= 1;
                self.stat_squashed += 1;
            } else {
                break;
            }
        }
        // next_seq may have been reduced; keep monotonicity with head.
        debug_assert!(self.next_seq >= self.head_seq);
        self.fetch_pc = new_pc;
        // Fetching a `Halt` stops fetch until a flush squashes it, so a
        // buffered `Halt` is always the youngest entry.
        self.fetched_halt = self.buffer.back().is_some_and(|f| matches!(f.op, Op::Halt));
        self.blocked_until = self.blocked_until.max(resume_at);
        self.predictor.repair(snapshot, actual_taken);
    }

    /// Mutable access to the predictor (resolution-time training).
    pub fn predictor_mut(&mut self) -> &mut Gshare {
        &mut self.predictor
    }

    /// Shared access to the predictor.
    pub fn predictor(&self) -> &Gshare {
        &self.predictor
    }

    /// Total instructions fetched.
    pub fn fetched(&self) -> u64 {
        self.stat_fetched
    }

    /// Total instructions squashed by flushes.
    pub fn squashed(&self) -> u64 {
        self.stat_squashed
    }

    /// Cycles fetch was blocked by L1I misses.
    pub fn icache_stall_cycles(&self) -> u64 {
        self.stat_icache_stall_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_isa::{program::BlockId, Inst, Reg};
    use ff_mem::HierarchyConfig;

    fn straightline(n: usize) -> Program {
        let mut p = Program::new();
        let b = p.add_block();
        for i in 0..n {
            p.push(b, Inst::new(Op::AddImm).dst(Reg::int(1)).src(Reg::int(1)).imm(i as i64));
        }
        p.push(b, Inst::new(Op::Halt));
        p
    }

    fn unit(p: &Program, cap: usize) -> (FetchUnit, MemorySystem) {
        (
            FetchUnit::new(p, cap, 6, Gshare::new(1024)),
            MemorySystem::new(HierarchyConfig::itanium2_base()),
        )
    }

    /// Runs fetch until the buffer holds `want` entries or `max_cycles` pass.
    fn fill(f: &mut FetchUnit, p: &Program, m: &mut MemorySystem, want: usize, max_cycles: u64) {
        let mut now = 0;
        while f.len() < want && now < max_cycles {
            f.tick(p, m, now);
            now += 1;
        }
    }

    #[test]
    fn fetches_up_to_width_per_cycle_after_warmup() {
        let p = straightline(20);
        let (mut f, mut m) = unit(&p, 64);
        // Cycle 0: cold I-miss blocks the first group.
        f.tick(&p, &mut m, 0);
        assert_eq!(f.len(), 0);
        assert!(f.icache_stall_cycles() > 0);
        fill(&mut f, &p, &mut m, 6, 1_000);
        assert!(f.len() >= 6);
        assert_eq!(f.get(0).unwrap().pc, Pc::ENTRY);
    }

    #[test]
    fn stops_at_halt() {
        let p = straightline(3);
        let (mut f, mut m) = unit(&p, 64);
        fill(&mut f, &p, &mut m, 4, 1_000);
        assert!(f.halted());
        assert_eq!(f.len(), 4); // 3 adds + halt
        let last = f.get(3).unwrap();
        assert!(matches!(last.op, Op::Halt));
        assert_eq!(last.predicted_next, None);
        // Further ticks fetch nothing.
        let n = f.len();
        for c in 2_000..2_010 {
            f.tick(&p, &mut m, c);
        }
        assert_eq!(f.len(), n);
    }

    #[test]
    fn capacity_backpressure() {
        let p = straightline(100);
        let (mut f, mut m) = unit(&p, 8);
        fill(&mut f, &p, &mut m, 8, 1_000);
        assert_eq!(f.len(), 8);
        assert!(f.is_full());
        f.tick(&p, &mut m, 5_000);
        assert_eq!(f.len(), 8);
        // Consuming two frees room.
        f.pop_front();
        f.pop_front();
        assert_eq!(f.head_seq(), 2);
        fill(&mut f, &p, &mut m, 8, 10_000);
        assert_eq!(f.len(), 8);
        assert!(f.get(1).is_none()); // popped entries are gone
        assert!(f.get(2).is_some());
    }

    #[test]
    fn unconditional_branch_redirects_with_bubble() {
        let mut p = Program::new();
        let b0 = p.add_block();
        let b1 = p.add_block();
        let b2 = p.add_block();
        p.push(b0, Inst::new(Op::Br { target: b2 }));
        p.push(b1, Inst::new(Op::Nop));
        p.push(b2, Inst::new(Op::Halt));
        let (mut f, mut m) = unit(&p, 64);
        fill(&mut f, &p, &mut m, 2, 1_000);
        let br = f.get(0).unwrap();
        assert!(br.predicted_taken);
        assert_eq!(br.predicted_next, Some(Pc::new(BlockId(2), 0)));
        let next = f.get(1).unwrap();
        assert_eq!(next.pc, Pc::new(BlockId(2), 0));
        // The redirect bubble means the target was fetched a cycle later.
        assert!(next.fetched_at > br.fetched_at);
    }

    #[test]
    fn conditional_branch_uses_predictor() {
        let mut p = Program::new();
        let b0 = p.add_block();
        let b1 = p.add_block();
        p.push(b0, Inst::new(Op::CmpEq).dst(Reg::pred(1)).src(Reg::int(0)).src(Reg::int(0)));
        p.push(b0, Inst::new(Op::Br { target: b0 }).qp(Reg::pred(1)));
        p.push(b1, Inst::new(Op::Halt));
        let (mut f, mut m) = unit(&p, 64);
        fill(&mut f, &p, &mut m, 3, 1_000);
        let br = f.get(1).unwrap();
        assert!(br.used_predictor());
        // Untrained predictor says weakly not-taken: fall through to halt.
        assert!(!br.predicted_taken);
        assert_eq!(br.predicted_next, Some(Pc::new(BlockId(1), 0)));
    }

    #[test]
    fn flush_after_squashes_younger_and_redirects() {
        let p = straightline(50);
        let (mut f, mut m) = unit(&p, 64);
        fill(&mut f, &p, &mut m, 12, 1_000);
        let before = f.len() as u64;
        f.flush_after(3, Some(Pc::new(BlockId(0), 30)), 200, 0, true);
        assert_eq!(f.len(), 4); // seqs 0..=3 survive
        assert_eq!(f.next_seq(), 4);
        assert_eq!(f.squashed(), before - 4);
        assert!(f.blocked_at(199));
        assert!(!f.blocked_at(200));
        // Refetch resumes at the redirected pc.
        let mut now = 200;
        while f.len() < 5 && now < 1_000 {
            f.tick(&p, &mut m, now);
            now += 1;
        }
        assert_eq!(f.get(4).unwrap().pc, Pc::new(BlockId(0), 30));
        assert!(!f.halted());
    }

    #[test]
    fn flush_during_icache_miss_extends_the_block() {
        let p = straightline(50);
        let (mut f, mut m) = unit(&p, 64);
        // Cycle 0 starts a cold I-miss (blocked until ~145).
        f.tick(&p, &mut m, 0);
        assert!(f.blocked_at(100));
        // A flush with a later resume keeps the later block.
        f.flush_after(u64::MAX, Some(Pc::ENTRY), 300, 0, false);
        assert!(f.blocked_at(299));
        assert!(!f.blocked_at(300));
    }

    #[test]
    fn predictor_training_changes_fetch_direction() {
        // A loop branch: untrained gshare predicts not-taken (falls
        // through); after training, fetch follows the backedge.
        let mut p = Program::new();
        let b0 = p.add_block();
        let b1 = p.add_block();
        p.push(b0, Inst::new(Op::Nop));
        p.push(b0, Inst::new(Op::Br { target: b0 }).qp(Reg::pred(1)));
        p.push(b1, Inst::new(Op::Halt));
        let (mut f, mut m) = unit(&p, 16);
        fill(&mut f, &p, &mut m, 3, 1_000);
        let br = f.get(1).unwrap();
        assert!(!br.predicted_taken);
        // Flush to refetch, then train the branch taken at the history the
        // refetched prediction will actually use (gshare is
        // history-indexed).
        let pc = br.pc;
        let snap = br.history_snapshot;
        f.flush_after(0, Some(Pc::new(BlockId(0), 1)), 2_000, snap, true);
        let refetch_history = f.predictor().history();
        for _ in 0..20 {
            f.predictor_mut().update(pc, refetch_history, true);
        }
        let mut now = 2_000;
        while f.len() < 3 && now < 3_000 {
            f.tick(&p, &mut m, now);
            now += 1;
        }
        let br2 = f.get(1).unwrap();
        assert!(matches!(br2.op, Op::Br { .. }));
        assert!(br2.predicted_taken, "trained branch should fetch the backedge");
        assert_eq!(f.get(2).unwrap().pc, Pc::new(BlockId(0), 0));
    }

    #[test]
    fn flush_keeps_fetch_halted_only_while_the_halt_is_buffered() {
        let p = straightline(2); // 2 adds + halt = seqs 0,1,2
        let (mut f, mut m) = unit(&p, 64);
        fill(&mut f, &p, &mut m, 3, 1_000);
        assert!(f.halted());
        let halt_pc = f.get(2).unwrap().pc;
        let tick_until = |f: &mut FetchUnit, m: &mut MemorySystem, end: u64| {
            for now in 0..end {
                f.tick(&p, m, now);
            }
        };
        // A flush that keeps the halt leaves fetch stopped.
        f.flush_after(2, Some(Pc::ENTRY), 50, 0, false);
        assert!(f.halted(), "halt is still buffered");
        tick_until(&mut f, &mut m, 100);
        assert_eq!((f.len(), f.next_seq()), (3, 3));
        // A flush that squashes it resumes fetch at the redirect.
        f.flush_after(1, Some(halt_pc), 150, 0, false);
        assert!(!f.halted(), "halt was squashed");
        assert_eq!(f.len(), 2);
        tick_until(&mut f, &mut m, 200);
        assert_eq!(f.len(), 3, "fetch resumed and refetched the halt");
        assert_eq!(f.get(2).unwrap().pc, halt_pc);
        assert!(f.halted());
    }
}
