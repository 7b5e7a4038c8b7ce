//! Critical-load identification and RESTART insertion (paper §3.3).
//!
//! "Restart may be desirable if a deferred instruction will cause the vast
//! majority of subsequent preexecution to be deferred. … If an SCC precedes
//! a much larger number of multiple-cycle or variable-latency (such as
//! load) instructions than the SCC succeeds in the dataflow graph, the
//! loads in the SCC are considered critical. A RESTART is inserted after
//! every load in the SCC, consuming the load's destination."

use ff_isa::{program::BlockId, Inst, Op, Program};

use crate::scc::loop_sccs;

/// Policy deciding when a loop SCC's loads are *critical*.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RestartPolicy {
    /// The SCC must precede at least `ratio` times as many variable-latency
    /// instructions as it succeeds.
    pub ratio: f64,
    /// Minimum number of downstream variable-latency instructions.
    pub min_downstream: usize,
}

impl Default for RestartPolicy {
    fn default() -> Self {
        RestartPolicy { ratio: 2.0, min_downstream: 2 }
    }
}

impl RestartPolicy {
    /// Applies the criticality test to an SCC's downstream/upstream
    /// variable-latency counts.
    pub fn is_critical(&self, downstream: usize, upstream: usize) -> bool {
        downstream >= self.min_downstream
            && downstream as f64 >= self.ratio * upstream as f64
            && downstream > upstream
    }
}

/// Returns a copy of `program` with a `RESTART` instruction inserted after
/// every load belonging to a critical loop SCC. The `RESTART` consumes the
/// load's destination register, so its operand is unready exactly while the
/// load miss is outstanding — the trigger condition for advance restart.
pub fn insert_restarts(program: &Program, policy: &RestartPolicy) -> Program {
    // Collect (block, inst-index) of critical loads.
    let mut critical: Vec<(BlockId, usize)> = Vec::new();
    for scc in loop_sccs(program) {
        if scc.loads.is_empty() {
            continue;
        }
        if policy.is_critical(scc.downstream_variable, scc.upstream_variable) {
            for &l in &scc.loads {
                critical.push((scc.block, l));
            }
        }
    }

    let mut out = Program::new();
    for b in 0..program.num_blocks() {
        let id = out.add_block();
        let block_id = BlockId(b as u32);
        let block = program.block(block_id).expect("block exists");
        for (i, inst) in block.iter().enumerate() {
            out.push(id, *inst);
            if critical.contains(&(block_id, i)) {
                let dst = inst.dst_reg().expect("critical load has a destination register");
                out.push(id, Inst::new(Op::Restart).src(dst));
            }
        }
    }
    out
}

/// Counts `RESTART` instructions in a program (testing/diagnostics).
pub fn count_restarts(program: &Program) -> usize {
    program.iter().filter(|(_, i)| matches!(i.op(), Op::Restart)).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_isa::interp::Interpreter;
    use ff_isa::Reg;

    /// mcf-like loop: a pointer chase whose value feeds several dependent
    /// loads — the canonical critical SCC.
    fn critical_loop() -> Program {
        let mut p = Program::new();
        let b0 = p.add_block();
        p.push(b0, Inst::new(Op::Load).dst(Reg::int(1)).src(Reg::int(1)));
        p.push(b0, Inst::new(Op::Load).dst(Reg::int(2)).src(Reg::int(1)).imm(8));
        p.push(b0, Inst::new(Op::Load).dst(Reg::int(3)).src(Reg::int(1)).imm(16));
        p.push(b0, Inst::new(Op::Add).dst(Reg::int(4)).src(Reg::int(2)).src(Reg::int(3)));
        p.push(b0, Inst::new(Op::CmpNe).dst(Reg::pred(1)).src(Reg::int(1)).src(Reg::int(0)));
        p.push(b0, Inst::new(Op::Br { target: b0 }).qp(Reg::pred(1)));
        let b1 = p.add_block();
        p.push(b1, Inst::new(Op::Halt));
        p
    }

    #[test]
    fn inserts_restart_after_critical_load() {
        let p = critical_loop();
        let out = insert_restarts(&p, &RestartPolicy::default());
        assert_eq!(count_restarts(&out), 1);
        let block = out.block(BlockId(0)).unwrap();
        // RESTART is right after the chase load and consumes r1.
        assert!(matches!(block[0].op(), Op::Load));
        assert!(matches!(block[1].op(), Op::Restart));
        assert_eq!(block[1].src_n(0), Some(Reg::int(1)));
    }

    #[test]
    fn restart_does_not_change_semantics() {
        let p = critical_loop();
        let out = insert_restarts(&p, &RestartPolicy::default());
        let mut a = Interpreter::new(&p);
        a.run(100_000).unwrap();
        let mut b = Interpreter::new(&out);
        b.run(100_000).unwrap();
        assert!(a.state().semantically_eq(b.state()));
    }

    #[test]
    fn accumulator_only_loop_gets_no_restart() {
        // Streaming loop: address is an induction variable (no load SCC).
        let mut p = Program::new();
        let b0 = p.add_block();
        p.push(b0, Inst::new(Op::Load).dst(Reg::int(2)).src(Reg::int(1)));
        p.push(b0, Inst::new(Op::AddImm).dst(Reg::int(1)).src(Reg::int(1)).imm(8));
        p.push(b0, Inst::new(Op::Add).dst(Reg::int(3)).src(Reg::int(3)).src(Reg::int(2)));
        p.push(b0, Inst::new(Op::CmpNe).dst(Reg::pred(1)).src(Reg::int(1)).src(Reg::int(0)));
        p.push(b0, Inst::new(Op::Br { target: b0 }).qp(Reg::pred(1)));
        let b1 = p.add_block();
        p.push(b1, Inst::new(Op::Halt));
        let out = insert_restarts(&p, &RestartPolicy::default());
        assert_eq!(count_restarts(&out), 0);
    }

    #[test]
    fn policy_thresholds() {
        let pol = RestartPolicy::default();
        assert!(pol.is_critical(4, 1));
        assert!(!pol.is_critical(1, 0), "below min_downstream");
        assert!(!pol.is_critical(4, 3), "ratio not met");
        assert!(pol.is_critical(2, 0));
    }

    #[test]
    fn chase_without_dependent_loads_not_critical() {
        // Chase load feeding only single-cycle ALU work: downstream
        // variable-latency count is 0 -> not critical.
        let mut p = Program::new();
        let b0 = p.add_block();
        p.push(b0, Inst::new(Op::Load).dst(Reg::int(1)).src(Reg::int(1)));
        p.push(b0, Inst::new(Op::AddImm).dst(Reg::int(2)).src(Reg::int(1)).imm(1));
        p.push(b0, Inst::new(Op::CmpNe).dst(Reg::pred(1)).src(Reg::int(1)).src(Reg::int(0)));
        p.push(b0, Inst::new(Op::Br { target: b0 }).qp(Reg::pred(1)));
        let b1 = p.add_block();
        p.push(b1, Inst::new(Op::Halt));
        let out = insert_restarts(&p, &RestartPolicy::default());
        assert_eq!(count_restarts(&out), 0);
    }
}
