//! A retirement hook never changes a run. Every model, on every kernel,
//! produces the same statistics, structure activity and memory counters
//! with a `RetireRing` attached as with no hook at all, and a cycle
//! budget ends both runs with the same error.
//!
//! Campaign attempts run unhooked and rebuild a failed attempt's crash
//! bundle by replaying it under a `RetireRing`; the bundle is only
//! faithful because of this property.

use flea_flicker::engine::{NullProbe, RetireRing, RunError, RunResult, SimCase};
use flea_flicker::experiments::{HierKind, ModelKind, Suite};
use flea_flicker::harness::bundle::BUNDLE_RETIREMENTS;
use flea_flicker::workloads::{Scale, Workload};

fn assert_same_result(what: &str, plain: &RunResult, hooked: &RunResult) {
    assert_eq!(plain.stats, hooked.stats, "{what}: RunStats differ");
    assert_eq!(plain.activity, hooked.activity, "{what}: Activity differs");
    assert_eq!(plain.mem_stats, hooked.mem_stats, "{what}: MemStats differ");
    assert!(plain.final_state.semantically_eq(&hooked.final_state), "{what}: final state differs");
}

#[test]
fn a_retire_hook_never_changes_a_run() {
    for w in Workload::all(Scale::Test) {
        for model in ModelKind::ALL {
            for budget in [None, Some(100), Some(1_000), Some(10_000)] {
                let mut case = SimCase::new(&w.program, w.mem.clone());
                if let Some(b) = budget {
                    case = case.with_cycle_budget(b);
                }
                let what = format!("{} on {} (budget {budget:?})", model.name(), w.name);
                let plain = Suite::build_model(model, HierKind::Base).try_run(&case);
                let mut ring = RetireRing::new(BUNDLE_RETIREMENTS);
                let hooked = Suite::build_model(model, HierKind::Base).run_observed(
                    &case,
                    &mut ring,
                    &mut NullProbe,
                );
                match (&plain, &hooked) {
                    (Ok(p), Ok(h)) => {
                        assert_same_result(&what, p, h);
                        assert_eq!(
                            ring.total(),
                            p.stats.retired,
                            "{what}: ring missed retirements"
                        );
                    }
                    (Err(p), Err(h)) => {
                        assert_eq!(p, h, "{what}: different errors");
                        let RunError::CycleBudgetExceeded { retired, .. } = h;
                        assert_eq!(ring.total(), *retired, "{what}: ring missed retirements");
                    }
                    _ => panic!(
                        "{what}: unhooked {:?} but hooked {:?}",
                        plain.as_ref().err(),
                        hooked.as_ref().err()
                    ),
                }
            }
        }
    }
}
