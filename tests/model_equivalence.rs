//! Cross-model architectural equivalence: every execution model must
//! finish every workload in a final state semantically identical to the
//! golden interpreter's. This is the repository's primary correctness
//! oracle — the timing models are also functional interpreters.

use flea_flicker::engine::{ExecutionModel, MachineConfig, SimCase};
use flea_flicker::experiments::ModelKind;
use flea_flicker::isa::interp::Interpreter;
use flea_flicker::isa::ArchState;
use flea_flicker::workloads::{Scale, Workload};

fn interpreter_state(w: &Workload) -> (ArchState, u64) {
    let mut s = ArchState::new();
    s.mem = w.mem.clone();
    let mut i = Interpreter::with_state(&w.program, s);
    i.run(50_000_000).expect("workload must be valid");
    assert!(i.is_halted(), "{} did not halt", w.name);
    let retired = i.retired();
    (i.into_state(), retired)
}

fn models(machine: MachineConfig) -> impl Iterator<Item = (&'static str, Box<dyn ExecutionModel>)> {
    ModelKind::ALL.into_iter().map(move |kind| (kind.name(), kind.build(machine)))
}

#[test]
fn every_model_matches_the_interpreter_on_every_workload() {
    let machine = MachineConfig::itanium2_base();
    for w in Workload::all(Scale::Test) {
        let (golden, retired) = interpreter_state(&w);
        let case = SimCase::new(&w.program, w.mem.clone());
        for (name, mut model) in models(machine) {
            let r = model.try_run(&case).unwrap();
            assert!(
                r.final_state.semantically_eq(&golden),
                "{name} diverges from the interpreter on {}\n{}",
                w.name,
                flea_flicker::debug::compare_model(&mut *model, &case)
            );
            assert_eq!(
                r.stats.retired, retired,
                "{name} retired a different dynamic instruction count on {}",
                w.name
            );
            assert_eq!(
                r.stats.breakdown.total(),
                r.stats.cycles,
                "{name} mis-attributes cycles on {}",
                w.name
            );
        }
    }
}

#[test]
fn models_are_deterministic() {
    let machine = MachineConfig::itanium2_base();
    let w = Workload::by_name("bzip2", Scale::Test).unwrap();
    let case = SimCase::new(&w.program, w.mem.clone());
    for (name, mut model) in models(machine) {
        let a = model.try_run(&case).unwrap();
        let b = model.try_run(&case).unwrap();
        // Bit-for-bit: every counter of two identical runs must agree.
        assert_eq!(a.stats, b.stats, "{name} is nondeterministic");
        assert!(a.final_state.semantically_eq(&b.final_state), "{name} state varies");
    }
}

/// Fetch reads an L1I hit slower than one cycle as a miss and never
/// delivers, so such a hierarchy is rejected when a run builds its memory
/// system instead of spinning to the cycle budget.
#[test]
#[should_panic(expected = "L1I latency of 2 cycles is unsupported")]
fn an_l1i_latency_above_one_cycle_is_rejected() {
    use flea_flicker::mem::HierarchyConfig;
    let w = Workload::by_name("gzip", Scale::Test).unwrap();
    let mut h = HierarchyConfig::itanium2_base();
    h.l1i.latency = 2;
    let machine = MachineConfig::itanium2_base().with_hierarchy(h);
    let case = SimCase::new(&w.program, w.mem.clone()).with_cycle_budget(200_000);
    let r = ModelKind::Multipass.build(machine).try_run(&case);
    panic!("a run with a 2-cycle L1I returned {:?}", r.map(|r| r.stats.retired));
}

#[test]
fn alternative_hierarchies_preserve_semantics() {
    use flea_flicker::mem::HierarchyConfig;
    let w = Workload::by_name("vortex", Scale::Test).unwrap();
    let (golden, _) = interpreter_state(&w);
    for h in HierarchyConfig::figure7_sweep() {
        let machine = MachineConfig::itanium2_base().with_hierarchy(h);
        let case = SimCase::new(&w.program, w.mem.clone());
        for (name, mut model) in models(machine) {
            let r = model.try_run(&case).unwrap();
            assert!(
                r.final_state.semantically_eq(&golden),
                "{name} diverges under hierarchy {}",
                h.name
            );
        }
    }
}
