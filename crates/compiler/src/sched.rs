//! List scheduling into EPIC issue groups.
//!
//! The scheduler reorders a basic block's instructions by critical-path
//! priority, packs them into issue groups of at most six instructions
//! respecting the Itanium 2 functional-unit mix, and emits stop bits on
//! group boundaries. This is the "meticulous compile-time scheduling" the
//! multipass pipeline exploits: the better the static schedule, the more of
//! the remaining stall time is the unanticipable load latency that
//! multipass targets.

use ff_isa::{FuClass, Inst};

use crate::dag::DepDag;

/// Per-cycle functional-unit slot budget (Itanium 2-like: 4 M, 2 I, 2 F,
/// 3 B, at most 6 instructions total).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FuSlots {
    /// Memory ports.
    pub mem: u32,
    /// Integer ports.
    pub int: u32,
    /// Floating-point ports.
    pub fp: u32,
    /// Branch ports.
    pub branch: u32,
    /// Total issue width.
    pub width: u32,
}

impl Default for FuSlots {
    fn default() -> Self {
        FuSlots { mem: 4, int: 2, fp: 2, branch: 3, width: 6 }
    }
}

impl FuSlots {
    /// Attempts to reserve a slot for `inst`, preferring an I port for
    /// A-type ALU operations and falling back to an M port (the Itanium 2
    /// A-type rule). Returns whether the reservation succeeded.
    pub fn try_take(&mut self, inst: &Inst) -> bool {
        if self.width == 0 {
            return false;
        }
        let taken = match inst.op().fu_class() {
            FuClass::Mem => take(&mut self.mem),
            FuClass::Fp => take(&mut self.fp),
            FuClass::Branch => take(&mut self.branch),
            FuClass::Int => {
                if inst.op().is_a_type() {
                    take(&mut self.int) || take(&mut self.mem)
                } else {
                    take(&mut self.int)
                }
            }
        };
        if taken {
            self.width -= 1;
        }
        taken
    }
}

fn take(slot: &mut u32) -> bool {
    if *slot > 0 {
        *slot -= 1;
        true
    } else {
        false
    }
}

/// List-schedules one basic block, returning the instructions in their new
/// order with stop bits marking issue-group boundaries. The final
/// instruction always carries a stop bit.
///
/// The schedule respects every dependence edge of [`DepDag`]: an
/// instruction is placed in cycle `c` only if each predecessor `p` was
/// placed at `cycle(p) + min_delay <= c`, and each group satisfies the
/// [`FuSlots`] budget.
pub fn schedule_block(block: &[Inst]) -> Vec<Inst> {
    if block.is_empty() {
        return Vec::new();
    }
    let dag = DepDag::build(block);
    let prio = dag.critical_path_priorities();
    let n = block.len();
    let mut placed: Vec<Option<u32>> = vec![None; n]; // cycle of each inst
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut groups: Vec<u32> = Vec::with_capacity(n); // cycle per emitted inst
    let mut cycle: u32 = 0;
    let mut remaining = n;

    while remaining > 0 {
        let mut slots = FuSlots::default();
        // Candidates ready this cycle, highest priority first, source order
        // as tie-break (stable because indices ascend).
        let mut ready: Vec<usize> = (0..n)
            .filter(|&i| placed[i].is_none())
            .filter(|&i| {
                dag.pred_edges(i).all(|e| match placed[e.from] {
                    Some(c) => c + e.min_delay <= cycle,
                    None => false,
                })
            })
            .collect();
        ready.sort_by_key(|&i| std::cmp::Reverse(prio[i]));
        let mut scheduled_any = false;
        for i in ready {
            if slots.try_take(&block[i]) {
                placed[i] = Some(cycle);
                order.push(i);
                groups.push(cycle);
                remaining -= 1;
                scheduled_any = true;
            }
        }
        let _ = scheduled_any; // empty cycles simply advance
        cycle += 1;
    }

    // Emit in placement order with stop bits at group boundaries.
    let mut out: Vec<Inst> = Vec::with_capacity(n);
    for (k, &i) in order.iter().enumerate() {
        let mut inst = block[i];
        let last_of_group = k + 1 == n || groups[k + 1] != groups[k];
        inst.set_stop(last_of_group);
        out.push(inst);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_isa::{Op, Reg};

    fn groups_of(block: &[Inst]) -> Vec<Vec<String>> {
        let mut gs = vec![Vec::new()];
        for i in block {
            gs.last_mut().unwrap().push(i.op().to_string());
            if i.ends_group() {
                gs.push(Vec::new());
            }
        }
        gs.pop();
        gs
    }

    #[test]
    fn independent_ops_share_a_group() {
        let block = vec![
            Inst::new(Op::MovImm).dst(Reg::int(1)).imm(1),
            Inst::new(Op::MovImm).dst(Reg::int(2)).imm(2),
            Inst::new(Op::MovImm).dst(Reg::int(3)).imm(3),
        ];
        let s = schedule_block(&block);
        let gs = groups_of(&s);
        assert_eq!(gs.len(), 1);
        assert_eq!(gs[0].len(), 3);
    }

    #[test]
    fn raw_dependence_splits_groups() {
        let block = vec![
            Inst::new(Op::MovImm).dst(Reg::int(1)).imm(1),
            Inst::new(Op::Add).dst(Reg::int(2)).src(Reg::int(1)).src(Reg::int(1)),
        ];
        let s = schedule_block(&block);
        let gs = groups_of(&s);
        assert_eq!(gs.len(), 2);
    }

    #[test]
    fn multicycle_producer_creates_gap_not_reorder_violation() {
        // mul feeds add: the add must be >= 5 cycles later, but an
        // independent op can fill the first group.
        let block = vec![
            Inst::new(Op::Mul).dst(Reg::int(1)).src(Reg::int(9)).src(Reg::int(9)),
            Inst::new(Op::Add).dst(Reg::int(2)).src(Reg::int(1)).src(Reg::int(1)),
            Inst::new(Op::MovImm).dst(Reg::int(3)).imm(7),
        ];
        let s = schedule_block(&block);
        let gs = groups_of(&s);
        // First group holds mul + movimm; dependent add comes later alone.
        assert_eq!(gs[0].len(), 2);
        assert_eq!(gs.last().unwrap(), &vec!["add".to_string()]);
    }

    #[test]
    fn respects_issue_width() {
        let block: Vec<Inst> =
            (1..=12).map(|i| Inst::new(Op::MovImm).dst(Reg::int(i)).imm(i as i64)).collect();
        let s = schedule_block(&block);
        for g in groups_of(&s) {
            assert!(g.len() <= 6);
        }
    }

    #[test]
    fn respects_fu_mix() {
        // 4 loads + 2 A-type fit (4 M + 2 I); a 5th load must spill over.
        let block: Vec<Inst> =
            (1..=5).map(|i| Inst::new(Op::Load).dst(Reg::int(i)).src(Reg::int(60 + i))).collect();
        let s = schedule_block(&block);
        let gs = groups_of(&s);
        assert_eq!(gs.len(), 2);
        assert_eq!(gs[0].len(), 4);
        assert_eq!(gs[1].len(), 1);
    }

    #[test]
    fn a_type_overflows_to_mem_ports() {
        // 6 simple adds: 2 on I ports, 4 on M ports — one group.
        let block: Vec<Inst> = (1..=6)
            .map(|i| Inst::new(Op::AddImm).dst(Reg::int(i)).src(Reg::int(0)).imm(i as i64))
            .collect();
        let s = schedule_block(&block);
        assert_eq!(groups_of(&s).len(), 1);
    }

    #[test]
    fn compares_compete_for_i_ports() {
        // 3 compares: only 2 I ports, no A-type fallback — two groups.
        let block: Vec<Inst> = (1..=3)
            .map(|i| Inst::new(Op::CmpEq).dst(Reg::pred(i)).src(Reg::int(i)).src(Reg::int(0)))
            .collect();
        let s = schedule_block(&block);
        assert_eq!(groups_of(&s).len(), 2);
    }

    #[test]
    fn branch_stays_last() {
        let block = vec![
            Inst::new(Op::Add).dst(Reg::int(1)).src(Reg::int(2)).src(Reg::int(3)),
            Inst::new(Op::CmpNe).dst(Reg::pred(1)).src(Reg::int(1)).src(Reg::int(0)),
            Inst::new(Op::Br { target: ff_isa::program::BlockId(0) }).qp(Reg::pred(1)),
        ];
        let s = schedule_block(&block);
        assert!(s.last().unwrap().op().is_branch());
        assert!(s.last().unwrap().ends_group());
    }

    #[test]
    fn empty_block_is_fine() {
        assert!(schedule_block(&[]).is_empty());
    }

    #[test]
    fn all_instructions_survive() {
        let block = vec![
            Inst::new(Op::Load).dst(Reg::int(1)).src(Reg::int(2)),
            Inst::new(Op::Store).src(Reg::int(1)).src(Reg::int(3)),
            Inst::new(Op::Nop),
            Inst::new(Op::Halt),
        ];
        let s = schedule_block(&block);
        assert_eq!(s.len(), block.len());
    }
}
