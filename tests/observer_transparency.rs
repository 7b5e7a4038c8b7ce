//! An observer never changes a run. Every model, on every kernel and
//! under every cycle budget, produces the same statistics, structure
//! activity, memory counters and final state with a probe attached as
//! with none, and a cycle budget ends both runs with the same error. Both
//! kinds of probe are checked: a retirement-only `RetireRing` and the
//! full-pipeline sentinel suite.
//!
//! Campaign attempts run unobserved and rebuild a failed attempt's crash
//! bundle by replaying it under a `RetireRing` (and, with `--sentinels`,
//! the sentinel suite); the bundle is only faithful because of this
//! property.

use flea_flicker::engine::{PipelineProbe, RetireRing, RunError, RunResult, SimCase};
use flea_flicker::experiments::{HierKind, ModelKind, Suite};
use flea_flicker::harness::bundle::BUNDLE_RETIREMENTS;
use flea_flicker::sentinel::SentinelSuite;
use flea_flicker::workloads::{Scale, Workload};

fn assert_same_result(what: &str, plain: &RunResult, observed: &RunResult) {
    assert_eq!(plain.stats, observed.stats, "{what}: RunStats differ");
    assert_eq!(plain.activity, observed.activity, "{what}: Activity differs");
    assert_eq!(plain.mem_stats, observed.mem_stats, "{what}: MemStats differ");
    assert!(
        plain.final_state.semantically_eq(&observed.final_state),
        "{what}: final state differs"
    );
}

/// Runs every model on every test kernel under four budgets, once plain
/// and once observed by a fresh `make()` probe, asserts the two runs
/// agree, and hands the probe and observed outcome to `check`.
fn assert_transparent<P: PipelineProbe>(
    make: impl Fn() -> P,
    check: impl Fn(&str, P, &Result<RunResult, RunError>),
) {
    for w in Workload::all(Scale::Test) {
        for model in ModelKind::ALL {
            for budget in [None, Some(100), Some(1_000), Some(10_000)] {
                let mut case = SimCase::new(&w.program, w.mem.clone());
                if let Some(b) = budget {
                    case = case.with_cycle_budget(b);
                }
                let what = format!("{} on {} (budget {budget:?})", model.name(), w.name);
                let plain = Suite::build_model(model, HierKind::Base).try_run(&case);
                let mut probe = make();
                let observed =
                    Suite::build_model(model, HierKind::Base).run_observed(&case, &mut probe);
                match (&plain, &observed) {
                    (Ok(p), Ok(o)) => assert_same_result(&what, p, o),
                    (Err(p), Err(o)) => assert_eq!(p, o, "{what}: different errors"),
                    _ => panic!(
                        "{what}: unobserved {:?} but observed {:?}",
                        plain.as_ref().err(),
                        observed.as_ref().err()
                    ),
                }
                check(&what, probe, &observed);
            }
        }
    }
}

#[test]
fn a_retire_ring_never_changes_a_run() {
    assert_transparent(
        || RetireRing::new(BUNDLE_RETIREMENTS),
        |what, ring, observed| {
            let retired = match observed {
                Ok(r) => r.stats.retired,
                Err(RunError::CycleBudgetExceeded { retired, .. }) => *retired,
            };
            assert_eq!(ring.total(), retired, "{what}: ring missed retirements");
        },
    );
}

#[test]
fn a_pipeline_probe_never_changes_a_run() {
    assert_transparent(SentinelSuite::standard, |what, suite, _| {
        assert!(suite.violations().is_empty(), "{what}: {:?}", suite.violations());
    });
}
