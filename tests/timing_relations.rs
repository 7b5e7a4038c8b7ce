//! Metamorphic timing relations: cycle counts checked against each
//! other, not against a stored digest.
//!
//! A slower main memory, or fewer outstanding misses, can only make a
//! machine wait longer. So on the base hierarchy, raising `mm_latency` by
//! 100 cycles or cutting `max_outstanding` from 16 to 4 must never lower
//! the cycle count of in-order, multipass or idealized OOO, on any of the
//! 12 test kernels at seeds 0–2. Every point that breaks a relation is
//! listed in the failure message; none is exempt.

use flea_flicker::engine::{MachineConfig, SimCase};
use flea_flicker::experiments::{HierKind, ModelKind};
use flea_flicker::workloads::{Scale, Workload};

const MODELS: [ModelKind; 3] = [ModelKind::InOrder, ModelKind::Multipass, ModelKind::Ooo];
const SEEDS: [u64; 3] = [0, 1, 2];

fn cycles(model: ModelKind, machine: MachineConfig, w: &Workload) -> u64 {
    let case = SimCase::new(&w.program, w.mem.clone());
    let result = model.build(machine).try_run(&case);
    result.unwrap_or_else(|e| panic!("{} on {}: {e}", model.name(), w.name)).stats.cycles
}

#[test]
fn slower_memory_and_fewer_mshrs_never_lower_cycles() {
    let base = MachineConfig::itanium2_base().with_hierarchy(HierKind::Base.config());
    assert_eq!(base.hierarchy.max_outstanding, 16);
    let mut slower_memory = base;
    slower_memory.hierarchy.mm_latency += 100;
    let mut fewer_mshrs = base;
    fewer_mshrs.hierarchy.max_outstanding = 4;
    let relations = [("mm_latency +100", slower_memory), ("max_outstanding 16 -> 4", fewer_mshrs)];

    let mut checked = 0;
    let mut broken = Vec::new();
    for bench in Workload::NAMES {
        for seed in SEEDS {
            let w = Workload::by_name_seeded(bench, Scale::Test, seed).expect("known kernel");
            for model in MODELS {
                let before = cycles(model, base, &w);
                for (relation, machine) in relations {
                    let after = cycles(model, machine, &w);
                    checked += 1;
                    if after < before {
                        broken.push(format!(
                            "{bench} s{seed} {}: {relation} lowers cycles {before} -> {after}",
                            model.name()
                        ));
                    }
                }
            }
        }
    }
    assert_eq!(checked, 2 * 12 * 3 * 3);
    assert!(
        broken.is_empty(),
        "{} of {checked} checks broken:\n{}",
        broken.len(),
        broken.join("\n")
    );
}
