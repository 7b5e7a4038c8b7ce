//! MSHR occupancy conservation on random memory-heavy programs.
//!
//! The MSHR file is the one structure every model shares and every
//! runahead-family technique stresses, so a lost deallocation silently
//! caps memory-level parallelism for the rest of the run without changing
//! any architectural result. These properties pin the conservation law —
//! every allocated entry is released by the end-of-run drain, on every
//! hierarchy config — and a regression proves the mshr sentinel catches
//! the lost-deallocation fault that breaks it.

use proptest::prelude::*;

use flea_flicker::engine::SimCase;
use flea_flicker::experiments::{HierKind, ModelKind, Suite};
use flea_flicker::isa::{Inst, MemoryImage, Op, Program, Reg};
use flea_flicker::sentinel::{detected, run_faulted, FaultClass};

const WINDOW_BASE: u64 = 0x8000;
/// Spread accesses across enough distinct lines to cycle MSHR entries
/// through allocate/merge/release many times per run (64B lines, so
/// consecutive `slot`s of 8 words land on distinct lines).
const WINDOW_LINES: u64 = 48;

/// One memory access in the loop body: a load from or store to a line
/// chosen by `slot`.
#[derive(Clone, Debug)]
enum MemOp {
    Load { slot: u8 },
    Store { slot: u8 },
}

fn arb_mem_op() -> impl Strategy<Value = MemOp> {
    prop_oneof![
        (0u8..WINDOW_LINES as u8).prop_map(|slot| MemOp::Load { slot }),
        (0u8..WINDOW_LINES as u8).prop_map(|slot| MemOp::Store { slot }),
    ]
}

/// Builds a counted loop whose body issues the given access pattern.
/// Addresses are immediate-materialized per access so every iteration
/// re-touches the same lines (exercising merge and re-allocate paths as
/// lines are evicted between trips).
fn build_program(body: &[MemOp], trips: u8) -> Program {
    let mut p = Program::new();
    let b0 = p.add_block();
    let b1 = p.add_block();
    let b2 = p.add_block();
    p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(2)).imm(0x55));
    p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(22)).imm(trips as i64 + 1));
    for op in body {
        match op {
            MemOp::Load { slot } => {
                let addr = WINDOW_BASE + u64::from(*slot) * 64;
                p.push(b1, Inst::new(Op::MovImm).dst(Reg::int(3)).imm(addr as i64));
                p.push(b1, Inst::new(Op::Load).dst(Reg::int(4)).src(Reg::int(3)));
            }
            MemOp::Store { slot } => {
                let addr = WINDOW_BASE + u64::from(*slot) * 64;
                p.push(b1, Inst::new(Op::MovImm).dst(Reg::int(5)).imm(addr as i64));
                p.push(b1, Inst::new(Op::Store).src(Reg::int(5)).src(Reg::int(2)));
            }
        }
    }
    p.push(b1, Inst::new(Op::AddImm).dst(Reg::int(22)).src(Reg::int(22)).imm(-1));
    p.push(b1, Inst::new(Op::CmpNe).dst(Reg::pred(1)).src(Reg::int(22)).src(Reg::int(0)));
    p.push(b1, Inst::new(Op::Br { target: b1 }).qp(Reg::pred(1)));
    p.push(b2, Inst::new(Op::Halt));
    p
}

fn initial_memory() -> MemoryImage {
    let mut m = MemoryImage::new();
    for i in 0..WINDOW_LINES * 8 {
        m.store(WINDOW_BASE + i * 8, i.wrapping_mul(0x1234_5679) ^ 0x5A5A);
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Allocations balance releases at drain, with zero leaked entries,
    /// for an in-order and a multipass pipeline on every hierarchy config.
    #[test]
    fn mshr_allocations_balance_releases_at_drain(
        body in proptest::collection::vec(arb_mem_op(), 1..12),
        trips in 1u8..8,
    ) {
        let program = build_program(&body, trips);
        prop_assert!(program.validate().is_ok());
        let mem = initial_memory();
        for model in [ModelKind::InOrder, ModelKind::Multipass] {
            for hier in HierKind::ALL {
                let case = SimCase::new(&program, mem.clone());
                let r = Suite::build_model(model, hier)
                    .try_run(&case)
                    .expect("bounded loop kernels finish without a budget");
                let m = &r.mem_stats;
                prop_assert_eq!(
                    m.mshr_allocations, m.mshr_releases,
                    "{}/{}: {} allocated vs {} released",
                    model.name(), hier.name(), m.mshr_allocations, m.mshr_releases
                );
                prop_assert_eq!(
                    m.mshr_leaked, 0,
                    "{}/{}: {} entries leaked",
                    model.name(), hier.name(), m.mshr_leaked
                );
            }
        }
    }
}

/// The conservation law is load-bearing: breaking it with the
/// lost-deallocation fault must trip the mshr sentinel.
#[test]
fn lost_mshr_dealloc_fault_trips_the_mshr_sentinel() {
    let report = run_faulted(FaultClass::LostMshrDealloc, 0);
    assert!(report.fired("mshr"), "violations: {:?}", report.violations);
    assert!(detected(FaultClass::LostMshrDealloc, &report));
}
