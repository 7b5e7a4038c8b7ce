//! Counted-loop unrolling with modulo variable renaming.
//!
//! OpenIMPACT's schedules owe much of their quality to cross-iteration ILP
//! (unrolling and modulo scheduling). This pass reproduces the unrolling
//! half for the canonical counted loop shape the workload generators emit:
//!
//! ```text
//! B:  <body>
//!     addimm ctr = ctr #-1
//!     cmpne  p   = ctr r0
//!     (p) br B
//! ```
//!
//! The transformed loop runs `factor` iterations per trip with per-copy
//! temporaries renamed to fresh registers (so independent copies really are
//! independent for the list scheduler), guarded by a `remaining >= factor`
//! check; leftover iterations run in an appended remainder loop that
//! preserves the original body exactly:
//!
//! ```text
//! B:      cmplt p9 = ctr rK        // fewer than `factor` left?
//!         (p9) br B_rem
//!         <body copy 0> ctr -= 1
//!         …
//!         <body copy K-1> ctr -= 1
//!         br B                     // re-test the guard
//! …
//! B_rem:  cmpeq p8 = ctr r0
//!         (p8) br B+1              // done: fall-through successor
//!         <original body> ctr -= 1
//!         br B_rem
//! ```
//!
//! The transformation is conservative: loops that read the loop predicate
//! in the body, write the counter elsewhere, contain other branches, or
//! would exhaust the register files are left untouched. Semantics
//! preservation is enforced by the workspace's interpreter-equivalence
//! oracle and property tests.
//!
//! Like any register-allocating compiler pass, unrolling claims *unused*
//! registers as scratch (the guard constant, guard/exit predicates, and
//! per-copy temporaries); programs must not depend on the final values of
//! registers they never wrote.

use std::collections::HashMap;

use ff_isa::{program::BlockId, Inst, Op, Program, Reg, RegClass};

/// The recognized tail of a counted loop.
struct CountedLoop {
    /// Counter register.
    ctr: Reg,
    /// Loop predicate register (written by the `cmpne`).
    pred: Reg,
    /// Body length (instructions before the `addimm/cmpne/br` tail).
    body_len: usize,
}

fn recognize(block_id: BlockId, block: &[Inst]) -> Option<CountedLoop> {
    if block.len() < 4 {
        return None;
    }
    let n = block.len();
    let br = &block[n - 1];
    let cmp = &block[n - 2];
    let dec = &block[n - 3];
    // (p) br B  — back edge to this very block, qualified.
    let back_edge = matches!(br.op(), Op::Br { target } if *target == block_id);
    if !back_edge || !br.is_predicated() {
        return None;
    }
    let pred = br.qp_reg();
    // cmpne p = ctr r0
    if !matches!(cmp.op(), Op::CmpNe)
        || cmp.dst_reg() != Some(pred)
        || cmp.src_n(1) != Some(Reg::int(0))
    {
        return None;
    }
    let ctr = cmp.src_n(0)?;
    // addimm ctr = ctr #-1
    if !matches!(dec.op(), Op::AddImm)
        || dec.dst_reg() != Some(ctr)
        || dec.src_n(0) != Some(ctr)
        || dec.imm_val() != -1
    {
        return None;
    }
    let body = &block[..n - 3];
    // No other control flow, counter writes, or predicate uses inside.
    for inst in body {
        if inst.op().is_branch() || matches!(inst.op(), Op::Restart) {
            return None;
        }
        if inst.writes() == Some(ctr) {
            return None;
        }
        if inst.reads().any(|r| r == pred) || inst.writes() == Some(pred) {
            return None;
        }
    }
    Some(CountedLoop { ctr, pred, body_len: n - 3 })
}

/// Registers of one class used anywhere in the program.
fn used_mask(program: &Program) -> [Vec<bool>; 3] {
    let mut int = vec![false; ff_isa::NUM_INT_REGS];
    let mut fp = vec![false; ff_isa::NUM_FP_REGS];
    let mut pred = vec![false; ff_isa::NUM_PRED_REGS];
    let mut mark = |r: Reg| match r.class() {
        RegClass::Int => int[r.index() as usize] = true,
        RegClass::Fp => fp[r.index() as usize] = true,
        RegClass::Pred => pred[r.index() as usize] = true,
    };
    for (_, inst) in program.iter() {
        for r in inst.reads() {
            mark(r);
        }
        if let Some(d) = inst.dst_reg() {
            mark(d);
        }
        mark(inst.qp_reg());
    }
    [int, fp, pred]
}

struct FreeRegs {
    masks: [Vec<bool>; 3],
    cursors: [usize; 3],
}

impl FreeRegs {
    fn new(program: &Program) -> Self {
        FreeRegs { masks: used_mask(program), cursors: [1, 0, 1] }
    }

    fn take(&mut self, class: RegClass) -> Option<Reg> {
        let (mask_idx, make): (usize, fn(u8) -> Reg) = match class {
            RegClass::Int => (0, Reg::int),
            RegClass::Fp => (1, Reg::fp),
            RegClass::Pred => (2, Reg::pred),
        };
        let mask = &mut self.masks[mask_idx];
        let cur = &mut self.cursors[mask_idx];
        while *cur < mask.len() {
            if !mask[*cur] {
                mask[*cur] = true;
                let r = make(*cur as u8);
                *cur += 1;
                return Some(r);
            }
            *cur += 1;
        }
        None
    }
}

/// Temporaries of a body that are safe to rename per unrolled copy:
/// registers whose first body access is a write (not live around the back
/// edge) *and* that are never read outside the loop block (dead at loop
/// exit), excluding hardwired ones. Live-out or loop-carried registers stay
/// shared across copies, which is correct (in-order WAW semantics) at the
/// cost of serializing those values.
fn body_temps(program: &Program, loop_block: BlockId, body: &[Inst]) -> Vec<Reg> {
    let mut first_is_write: HashMap<Reg, bool> = HashMap::new();
    for inst in body {
        for r in inst.reads() {
            first_is_write.entry(r).or_insert(false);
        }
        if let Some(d) = inst.writes() {
            first_is_write.entry(d).or_insert(true);
        }
    }
    let read_elsewhere = |r: Reg| {
        program
            .iter()
            .filter(|(pc, _)| pc.block != loop_block)
            .any(|(_, inst)| inst.reads().any(|x| x == r))
    };
    let mut temps: Vec<Reg> = first_is_write
        .into_iter()
        .filter(|&(r, w)| w && !r.is_hardwired() && !read_elsewhere(r))
        .map(|(r, _)| r)
        .collect();
    temps.sort_by_key(|r| r.flat_index());
    temps
}

fn rename(inst: &Inst, map: &HashMap<Reg, Reg>) -> Inst {
    let mut out = Inst::new(*inst.op());
    let qp = inst.qp_reg();
    if inst.is_predicated() {
        out = out.qp(*map.get(&qp).unwrap_or(&qp));
    }
    if let Some(d) = inst.dst_reg() {
        out = out.dst(*map.get(&d).unwrap_or(&d));
    }
    for s in inst.srcs() {
        out = out.src(*map.get(&s).unwrap_or(&s));
    }
    out = out.imm(inst.imm_val());
    if let Some(r) = inst.alias_region() {
        out = out.region(r);
    }
    out
}

/// Unrolls every eligible counted loop in `program` by `factor`.
///
/// Ineligible loops (and everything else) are copied unchanged. The first
/// block of the program is used for guard-constant setup and is therefore
/// never itself unrolled.
///
/// # Panics
///
/// Panics if `factor < 2`.
pub fn unroll_loops(program: &Program, factor: u32) -> Program {
    assert!(factor >= 2, "an unroll factor below 2 is a no-op");
    let mut free = FreeRegs::new(program);

    // Pass 1: decide which blocks unroll and allocate their resources.
    struct Plan {
        lp: CountedLoop,
        k_reg: Reg,
        guard_pred: Reg,
        exit_pred: Reg,
        rem_block: BlockId,
        renames: Vec<HashMap<Reg, Reg>>,
    }
    let mut plans: HashMap<u32, Plan> = HashMap::new();
    let mut next_new_block = program.num_blocks() as u32;
    for b in 1..program.num_blocks() {
        let block_id = BlockId(b as u32);
        let block = program.block(block_id).expect("block exists");
        let Some(lp) = recognize(block_id, block) else { continue };
        let body = &block[..lp.body_len];
        let temps = body_temps(program, block_id, body);
        // Fresh registers: guard constant, two predicates, and one rename
        // set per extra copy.
        let Some(k_reg) = free.take(RegClass::Int) else { continue };
        let (Some(guard_pred), Some(exit_pred)) =
            (free.take(RegClass::Pred), free.take(RegClass::Pred))
        else {
            continue;
        };
        let mut renames = Vec::new();
        let mut ok = true;
        for _ in 1..factor {
            let mut map = HashMap::new();
            for &t in &temps {
                match free.take(t.class()) {
                    Some(fresh) => {
                        map.insert(t, fresh);
                    }
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                break;
            }
            renames.push(map);
        }
        if !ok {
            continue;
        }
        let rem_block = BlockId(next_new_block);
        next_new_block += 1;
        plans.insert(block_id.0, Plan { lp, k_reg, guard_pred, exit_pred, rem_block, renames });
    }

    if plans.is_empty() {
        return program.clone();
    }

    // Pass 2: emit.
    let mut out = Program::new();
    for b in 0..program.num_blocks() {
        let id = out.add_block();
        let block_id = BlockId(b as u32);
        let block = program.block(block_id).expect("block exists");
        match plans.get(&block_id.0) {
            None => {
                for inst in block {
                    out.push(id, *inst);
                }
                // The first block doubles as the guard-constant preheader.
                if b == 0 {
                    for plan in plans.values() {
                        out.push(id, Inst::new(Op::MovImm).dst(plan.k_reg).imm(factor as i64));
                    }
                }
            }
            Some(plan) => {
                let body = &block[..plan.lp.body_len];
                // Guard: fewer than `factor` iterations left -> remainder.
                out.push(
                    id,
                    Inst::new(Op::CmpLt).dst(plan.guard_pred).src(plan.lp.ctr).src(plan.k_reg),
                );
                out.push(id, Inst::new(Op::Br { target: plan.rem_block }).qp(plan.guard_pred));
                // factor copies of the body, temps renamed per copy.
                for k in 0..factor {
                    if k == 0 {
                        for inst in body {
                            out.push(id, *inst);
                        }
                    } else {
                        let map = &plan.renames[(k - 1) as usize];
                        for inst in body {
                            out.push(id, rename(inst, map));
                        }
                    }
                    out.push(id, Inst::new(Op::AddImm).dst(plan.lp.ctr).src(plan.lp.ctr).imm(-1));
                }
                // Unconditional back edge: re-test the guard.
                out.push(id, Inst::new(Op::Br { target: block_id }));
            }
        }
    }
    // Remainder loops, appended in plan order.
    let mut ordered: Vec<(&u32, &Plan)> = plans.iter().collect();
    ordered.sort_by_key(|(b, _)| **b);
    for (b, plan) in ordered {
        let rem = out.add_block();
        debug_assert_eq!(rem, plan.rem_block);
        let block = program.block(BlockId(*b)).expect("block exists");
        let body = &block[..plan.lp.body_len];
        // Top-tested: while (ctr != 0) { body; ctr -= 1 }. The loop
        // predicate is rewritten on *every* entry — including a zero-trip
        // remainder — so it always holds the value the original do-while
        // loop would have left architecturally (false at exit).
        out.push(rem, Inst::new(Op::CmpNe).dst(plan.lp.pred).src(plan.lp.ctr).src(Reg::int(0)));
        out.push(rem, Inst::new(Op::CmpEq).dst(plan.exit_pred).src(plan.lp.ctr).src(Reg::int(0)));
        out.push(rem, Inst::new(Op::Br { target: BlockId(b + 1) }).qp(plan.exit_pred));
        for inst in body {
            out.push(rem, *inst);
        }
        out.push(rem, Inst::new(Op::AddImm).dst(plan.lp.ctr).src(plan.lp.ctr).imm(-1));
        out.push(rem, Inst::new(Op::Br { target: rem }));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_isa::interp::Interpreter;
    use ff_isa::ArchState;

    /// Builds the canonical counted loop summing a memory window.
    fn counted_sum(trips: i64) -> Program {
        let mut p = Program::new();
        let b0 = p.add_block();
        let b1 = p.add_block();
        let b2 = p.add_block();
        p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(1)).imm(0x1000));
        p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(2)).imm(trips));
        p.push(b1, Inst::new(Op::Load).dst(Reg::int(4)).src(Reg::int(1)));
        p.push(b1, Inst::new(Op::Add).dst(Reg::int(3)).src(Reg::int(3)).src(Reg::int(4)));
        p.push(b1, Inst::new(Op::AddImm).dst(Reg::int(1)).src(Reg::int(1)).imm(8));
        p.push(b1, Inst::new(Op::AddImm).dst(Reg::int(2)).src(Reg::int(2)).imm(-1));
        p.push(b1, Inst::new(Op::CmpNe).dst(Reg::pred(1)).src(Reg::int(2)).src(Reg::int(0)));
        p.push(b1, Inst::new(Op::Br { target: b1 }).qp(Reg::pred(1)));
        p.push(b2, Inst::new(Op::Halt));
        p
    }

    fn run(p: &Program) -> ArchState {
        let mut s = ArchState::new();
        for i in 0..1_000u64 {
            s.mem.store(0x1000 + i * 8, i + 1);
        }
        let mut interp = Interpreter::with_state(p, s);
        interp.run(10_000_000).expect("program finishes");
        assert!(interp.is_halted());
        interp.into_state()
    }

    #[test]
    fn unrolled_loops_preserve_semantics_for_all_trip_counts() {
        // Scratch registers claimed by the pass may differ; the registers
        // the program actually uses — and memory — must match exactly.
        for trips in [1i64, 2, 3, 4, 5, 7, 8, 9, 100, 101] {
            let p = counted_sum(trips);
            for factor in [2u32, 3, 4] {
                let u = unroll_loops(&p, factor);
                assert!(u.validate().is_ok(), "trips={trips} factor={factor}");
                let a = run(&p);
                let b = run(&u);
                // r4 is a dead-at-exit temporary the pass may rename; the
                // live registers (pointer, counter, accumulator) and the
                // loop predicate must match exactly.
                for r in 1..=3u8 {
                    assert_eq!(
                        a.int(r),
                        b.int(r),
                        "r{r} diverged at trips={trips} factor={factor}"
                    );
                }
                assert_eq!(a.pred(1), b.pred(1), "trips={trips} factor={factor}");
                assert!(a.mem.semantically_eq(&b.mem), "trips={trips} factor={factor}");
            }
        }
    }

    #[test]
    fn unrolling_grows_the_loop_block() {
        let p = counted_sum(64);
        let u = unroll_loops(&p, 4);
        let orig = p.block(BlockId(1)).unwrap().len();
        let grown = u.block(BlockId(1)).unwrap().len();
        assert!(grown > 3 * orig, "{grown} vs {orig}");
        // Remainder loop appended.
        assert_eq!(u.num_blocks(), p.num_blocks() + 1);
    }

    #[test]
    fn temporaries_are_renamed_per_copy() {
        let p = counted_sum(64);
        let u = unroll_loops(&p, 2);
        let block = u.block(BlockId(1)).unwrap();
        // The load temporary r4 must appear under a fresh name in copy 2.
        let loads: Vec<Reg> =
            block.iter().filter(|i| i.op().is_load()).filter_map(|i| i.dst_reg()).collect();
        assert_eq!(loads.len(), 2);
        assert_ne!(loads[0], loads[1], "copies must not share the load temp");
    }

    #[test]
    fn ineligible_loops_are_untouched() {
        // Pointer-chase loop (no counter pattern): must pass through.
        let mut p = Program::new();
        let b0 = p.add_block();
        let b1 = p.add_block();
        p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(1)).imm(0x1000));
        p.push(b1, Inst::new(Op::Load).dst(Reg::int(1)).src(Reg::int(1)));
        p.push(b1, Inst::new(Op::CmpNe).dst(Reg::pred(1)).src(Reg::int(1)).src(Reg::int(0)));
        p.push(b1, Inst::new(Op::Br { target: b1 }).qp(Reg::pred(1)));
        let b2 = p.add_block();
        p.push(b2, Inst::new(Op::Halt));
        let u = unroll_loops(&p, 4);
        assert_eq!(u, p);
    }

    #[test]
    fn live_out_temporaries_keep_their_final_values() {
        // Same loop, but r4 (the per-iteration load value) is read AFTER
        // the loop: the pass must not rename it, and its final value must
        // be the last iteration's.
        let mut p = counted_sum(10);
        let b2 = BlockId(2);
        // Insert a use of r4 before the halt.
        let block = p.block_mut(b2).unwrap();
        block.insert(0, Inst::new(Op::Add).dst(Reg::int(5)).src(Reg::int(4)).src(Reg::int(4)));
        let u = unroll_loops(&p, 4);
        let a = run(&p);
        let b = run(&u);
        assert_eq!(a.int(4), b.int(4), "live-out temp must be preserved");
        assert_eq!(a.int(5), b.int(5));
        assert_eq!(b.int(4), 10, "last loaded value");
    }

    #[test]
    fn loop_predicate_has_the_architectural_final_value() {
        let p = counted_sum(10);
        let u = unroll_loops(&p, 4);
        let a = run(&p);
        let b = run(&u);
        assert_eq!(a.pred(1), b.pred(1), "p1 must match the original loop's exit value");
        assert!(!b.pred(1));
    }
}
