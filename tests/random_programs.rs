//! Property-based cross-model validation on randomly generated programs.
//!
//! Random loop kernels (random ALU/memory/predication mixes over a bounded
//! memory window) are compiled through the full `ff-compiler` pipeline and
//! executed on every pipeline model; all of them must agree with the golden
//! interpreter. This exercises the multipass machinery (SRF/RS/ASC/S-bits,
//! regrouping, restart) against arbitrary dependence patterns, including
//! store-to-load forwarding and value misspeculation.

use proptest::prelude::*;

use flea_flicker::baselines::{InOrder, Runahead};
use flea_flicker::compiler::{compile, CompilerOptions};
use flea_flicker::engine::{ExecutionModel, MachineConfig, SimCase};
use flea_flicker::experiments::ModelKind;
use flea_flicker::isa::interp::Interpreter;
use flea_flicker::isa::{ArchState, Inst, MemoryImage, Op, Program, Reg};
use flea_flicker::multipass::Multipass;

/// One randomly generated body instruction.
#[derive(Clone, Debug)]
enum BodyInst {
    /// `rd = rs1 op rs2`
    Alu { op_idx: u8, rd: u8, rs1: u8, rs2: u8 },
    /// `rd = rs + imm`
    AddImm { rd: u8, rs: u8, imm: i8 },
    /// `rd = mul rs1, rs2` (multi-cycle)
    Mul { rd: u8, rs1: u8, rs2: u8 },
    /// `rd = load [base_window + (rs & mask)]` — data-dependent address.
    Load { rd: u8, rs: u8 },
    /// `store [base_window + (rs & mask)] = rs2`
    Store { rs: u8, rs2: u8 },
    /// `p2 = rs1 < rs2; (p2) rd = rd + rs1` — predicated update.
    Pred { rd: u8, rs1: u8, rs2: u8 },
}

/// Operand registers r2..=r9; results also go to r2..=r9.
fn reg(i: u8) -> Reg {
    Reg::int(2 + (i % 8))
}

const ALU_OPS: [Op; 4] = [Op::Add, Op::Sub, Op::Xor, Op::Or];
const WINDOW_BASE: u64 = 0x8000;
const WINDOW_WORDS: u64 = 64;

fn arb_body_inst() -> impl Strategy<Value = BodyInst> {
    prop_oneof![
        (0u8..4, 0u8..8, 0u8..8, 0u8..8).prop_map(|(op_idx, rd, rs1, rs2)| BodyInst::Alu {
            op_idx,
            rd,
            rs1,
            rs2
        }),
        (0u8..8, 0u8..8, any::<i8>()).prop_map(|(rd, rs, imm)| BodyInst::AddImm { rd, rs, imm }),
        (0u8..8, 0u8..8, 0u8..8).prop_map(|(rd, rs1, rs2)| BodyInst::Mul { rd, rs1, rs2 }),
        (0u8..8, 0u8..8).prop_map(|(rd, rs)| BodyInst::Load { rd, rs }),
        (0u8..8, 0u8..8).prop_map(|(rs, rs2)| BodyInst::Store { rs, rs2 }),
        (0u8..8, 0u8..8, 0u8..8).prop_map(|(rd, rs1, rs2)| BodyInst::Pred { rd, rs1, rs2 }),
    ]
}

/// Builds a program: init registers, run `trips` iterations of the random
/// body inside a counted loop, halt. The address mask keeps all memory
/// traffic inside a small window. r20 holds the window base, r21 the mask.
fn build_program(body: &[BodyInst], trips: u8) -> Program {
    let mut p = Program::new();
    let b0 = p.add_block();
    let b1 = p.add_block();
    let b2 = p.add_block();
    for i in 0..8u8 {
        p.push(b0, Inst::new(Op::MovImm).dst(reg(i)).imm(3 + 7 * i as i64));
    }
    p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(20)).imm(WINDOW_BASE as i64));
    p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(21)).imm(((WINDOW_WORDS - 1) * 8) as i64));
    p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(22)).imm(trips as i64 + 1));
    for bi in body {
        match bi {
            BodyInst::Alu { op_idx, rd, rs1, rs2 } => p.push(
                b1,
                Inst::new(ALU_OPS[*op_idx as usize]).dst(reg(*rd)).src(reg(*rs1)).src(reg(*rs2)),
            ),
            BodyInst::AddImm { rd, rs, imm } => {
                p.push(b1, Inst::new(Op::AddImm).dst(reg(*rd)).src(reg(*rs)).imm(*imm as i64))
            }
            BodyInst::Mul { rd, rs1, rs2 } => {
                p.push(b1, Inst::new(Op::Mul).dst(reg(*rd)).src(reg(*rs1)).src(reg(*rs2)))
            }
            BodyInst::Load { rd, rs } => {
                // r23 = (rs & mask) + window base; rd = [r23]
                p.push(b1, Inst::new(Op::And).dst(Reg::int(23)).src(reg(*rs)).src(Reg::int(21)));
                p.push(
                    b1,
                    Inst::new(Op::Add).dst(Reg::int(23)).src(Reg::int(23)).src(Reg::int(20)),
                );
                p.push(b1, Inst::new(Op::Load).dst(reg(*rd)).src(Reg::int(23)));
            }
            BodyInst::Store { rs, rs2 } => {
                p.push(b1, Inst::new(Op::And).dst(Reg::int(24)).src(reg(*rs)).src(Reg::int(21)));
                p.push(
                    b1,
                    Inst::new(Op::Add).dst(Reg::int(24)).src(Reg::int(24)).src(Reg::int(20)),
                );
                p.push(b1, Inst::new(Op::Store).src(Reg::int(24)).src(reg(*rs2)));
            }
            BodyInst::Pred { rd, rs1, rs2 } => {
                p.push(b1, Inst::new(Op::CmpLt).dst(Reg::pred(2)).src(reg(*rs1)).src(reg(*rs2)));
                p.push(
                    b1,
                    Inst::new(Op::Add).dst(reg(*rd)).src(reg(*rd)).src(reg(*rs1)).qp(Reg::pred(2)),
                );
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
    for i in 0..WINDOW_WORDS {
        m.store(WINDOW_BASE + i * 8, i.wrapping_mul(0x9E37_79B9) ^ 0xABCD);
    }
    m
}

fn all_models(
    machine: MachineConfig,
) -> impl Iterator<Item = (&'static str, Box<dyn ExecutionModel>)> {
    ModelKind::ALL.into_iter().map(move |kind| (kind.name(), kind.build(machine)))
}

/// Runs every model on the case and returns a first-divergence triage
/// report (`ff-debug`) for each model that disagrees with the interpreter.
fn divergence_reports(golden: &ArchState, case: &SimCase<'_>) -> Vec<String> {
    let machine = MachineConfig::itanium2_base();
    let mut failures = Vec::new();
    for (name, mut model) in all_models(machine) {
        let r = model.try_run(case).unwrap();
        if !r.final_state.semantically_eq(golden) || r.stats.breakdown.total() != r.stats.cycles {
            let report = flea_flicker::debug::compare_model(&mut *model, case);
            failures.push(format!("model {name}:\n{report}"));
        }
    }
    failures
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Every model agrees with the interpreter on arbitrary compiled loops.
    #[test]
    fn all_models_agree_on_random_programs(
        body in proptest::collection::vec(arb_body_inst(), 1..14),
        trips in 1u8..12,
    ) {
        let raw = build_program(&body, trips);
        let program = compile(&raw, &CompilerOptions::default());
        prop_assert!(program.validate().is_ok());
        let mem = initial_memory();

        let mut s = ArchState::new();
        s.mem = mem.clone();
        let mut interp = Interpreter::with_state(&program, s);
        interp.run(5_000_000).expect("interpreter must finish");
        prop_assert!(interp.is_halted());
        let golden = interp.into_state();

        let case = SimCase::new(&program, mem);
        let failures = divergence_reports(&golden, &case);
        prop_assert!(failures.is_empty(), "{}", failures.join("\n"));
    }

    /// Unrolled compilation preserves memory semantics, and every model
    /// agrees with the interpreter on the unrolled program (which contains
    /// control shapes — guard branches, unconditional back edges, remainder
    /// loops — that the plain generator never emits).
    #[test]
    fn all_models_agree_on_unrolled_programs(
        body in proptest::collection::vec(arb_body_inst(), 1..10),
        trips in 1u8..12,
    ) {
        let raw = build_program(&body, trips);
        let options = CompilerOptions { unroll: Some(2), ..CompilerOptions::default() };
        let program = compile(&raw, &options);
        prop_assert!(program.validate().is_ok());
        prop_assert!(
            flea_flicker::compiler::verify_schedule(&program).is_ok(),
            "unrolled schedule violates EPIC group rules"
        );
        let mem = initial_memory();

        // Memory semantics match the raw program (registers may differ in
        // compiler-claimed scratch and renamed dead temporaries).
        let mut s_raw = ArchState::new();
        s_raw.mem = mem.clone();
        let mut i_raw = Interpreter::with_state(&raw, s_raw);
        i_raw.run(5_000_000).expect("raw finishes");
        let mut s_u = ArchState::new();
        s_u.mem = mem.clone();
        let mut i_u = Interpreter::with_state(&program, s_u);
        i_u.run(5_000_000).expect("unrolled finishes");
        prop_assert!(i_raw.state().mem.semantically_eq(&i_u.state().mem));
        let golden = i_u.into_state();

        let case = SimCase::new(&program, mem);
        let failures = divergence_reports(&golden, &case);
        prop_assert!(failures.is_empty(), "unrolled: {}", failures.join("\n"));
    }

    /// Runahead and multipass leave the in-order pipeline only on a
    /// load-use stall, so on load-free programs each is the in-order model
    /// cycle for cycle: a timing oracle for the in-order stage and issue
    /// rule all three share. Multipass gets the in-order instruction
    /// buffer, since a deeper queue fetches further ahead.
    #[test]
    fn speculative_models_match_inorder_without_loads(
        body in proptest::collection::vec(
            arb_body_inst().prop_filter("no loads", |b| !matches!(b, BodyInst::Load { .. })),
            1..14,
        ),
        trips in 1u8..12,
    ) {
        let raw = build_program(&body, trips);
        let compiled = compile(&raw, &CompilerOptions::default());
        let machine = MachineConfig::itanium2_base();
        let mp_machine = MachineConfig { multipass_iq: machine.inorder_buffer, ..machine };
        for program in [&raw, &compiled] {
            let case = SimCase::new(program, initial_memory());
            let base = InOrder::new(machine).try_run(&case).unwrap();
            let models: [Box<dyn ExecutionModel>; 2] =
                [Box::new(Runahead::new(machine)), Box::new(Multipass::new(mp_machine))];
            for mut model in models {
                let r = model.try_run(&case).unwrap();
                let name = model.name();
                prop_assert_eq!(r.stats.spec_mode_entries, 0, "{} entered speculation", name);
                prop_assert_eq!(
                    &r.stats,
                    &base.stats,
                    "{} stats differ:\n{:?}\n{:?}",
                    name,
                    r.stats,
                    base.stats
                );
                prop_assert_eq!(
                    &r.mem_stats,
                    &base.mem_stats,
                    "{} mem_stats differ:\n{:?}\n{:?}",
                    name,
                    r.mem_stats,
                    base.mem_stats
                );
            }
        }
    }

    /// The assembler round-trips every program the generator can produce.
    #[test]
    fn assembly_round_trips(
        body in proptest::collection::vec(arb_body_inst(), 1..20),
        trips in 1u8..10,
    ) {
        use flea_flicker::isa::asm::parse_program;
        let raw = build_program(&body, trips);
        let compiled = compile(&raw, &CompilerOptions::default());
        for p in [&raw, &compiled] {
            let text = p.to_string();
            let again = parse_program(&text)
                .map_err(|e| TestCaseError::fail(format!("reassembly failed: {e}")))?;
            prop_assert_eq!(p, &again);
        }
    }

    /// Compilation itself preserves semantics for random bodies.
    #[test]
    fn compilation_preserves_semantics(
        body in proptest::collection::vec(arb_body_inst(), 1..20),
        trips in 1u8..10,
    ) {
        let raw = build_program(&body, trips);
        let compiled = compile(&raw, &CompilerOptions::default());
        let mem = initial_memory();

        let mut s1 = ArchState::new();
        s1.mem = mem.clone();
        let mut i1 = Interpreter::with_state(&raw, s1);
        i1.run(5_000_000).expect("raw program finishes");

        let mut s2 = ArchState::new();
        s2.mem = mem;
        let mut i2 = Interpreter::with_state(&compiled, s2);
        i2.run(5_000_000).expect("compiled program finishes");

        prop_assert!(i1.state().semantically_eq(i2.state()));
        // Retirement counts may differ: the compiler legitimately inserts
        // RESTART markers into critical loop SCCs, which are architectural
        // no-ops but occupy dynamic instruction slots.
        prop_assert!(i2.retired() >= i1.retired());
    }
}

/// Runs a fixed kernel through the compiler and asserts every model agrees
/// with the interpreter, printing ff-debug triage reports on failure.
fn check_regression_kernel(body: &[BodyInst], trips: u8) {
    let raw = build_program(body, trips);
    let program = compile(&raw, &CompilerOptions::default());
    let mem = initial_memory();

    let mut s = ArchState::new();
    s.mem = mem.clone();
    let mut interp = Interpreter::with_state(&program, s);
    interp.run(5_000_000).expect("interpreter must finish");
    assert!(interp.is_halted());
    let golden = interp.into_state();

    let case = SimCase::new(&program, mem);
    let failures = divergence_reports(&golden, &case);
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Shrunk kernel from the checked-in proptest regression seed
/// (`tests/random_programs.proptest-regressions`, cc b6bda37c…): a
/// multi-cycle multiply feeding a load-address chain under WAW pressure.
#[test]
fn regression_shrunk_kernel_b6bda37c() {
    check_regression_kernel(
        &[
            BodyInst::AddImm { rd: 7, rs: 1, imm: 0 },
            BodyInst::Load { rd: 1, rs: 4 },
            BodyInst::Mul { rd: 2, rs1: 0, rs2: 7 },
            BodyInst::Alu { op_idx: 0, rd: 4, rs1: 3, rs2: 1 },
            BodyInst::Mul { rd: 5, rs1: 0, rs2: 7 },
        ],
        1,
    );
}

/// Stale ASC forward across a deferred store (fuzz seed 6745): in one
/// advance pass an older store's ASC entry forwarded to a younger load
/// even though an intervening store with an unknown address had been
/// deferred between them. The forwarded value must carry an S-bit in that
/// case so the rally-mode value check catches the aliasing store.
#[test]
fn regression_stale_asc_forward_across_deferred_store() {
    check_regression_kernel(
        &[
            BodyInst::Load { rd: 0, rs: 2 },
            BodyInst::Store { rs: 3, rs2: 1 },
            BodyInst::Load { rd: 3, rs: 7 },
            BodyInst::Store { rs: 0, rs2: 5 },
            BodyInst::Store { rs: 7, rs2: 7 },
            BodyInst::Load { rd: 0, rs: 0 },
            BodyInst::Pred { rd: 2, rs1: 6, rs2: 0 },
            BodyInst::Load { rd: 4, rs: 5 },
            BodyInst::Load { rd: 5, rs: 0 },
            BodyInst::AddImm { rd: 4, rs: 1, imm: 85 },
            BodyInst::Pred { rd: 0, rs1: 2, rs2: 1 },
            BodyInst::Store { rs: 1, rs2: 4 },
            BodyInst::Alu { op_idx: 3, rd: 1, rs1: 4, rs2: 5 },
        ],
        9,
    );
}
