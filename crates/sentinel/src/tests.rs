use ff_engine::{
    CycleObs, ExecutionModel, MachineConfig, PipelineProbe, RetireMode, RunResult, SimCase,
};
use ff_experiments::ModelKind;
use ff_multipass::Multipass;
use ff_workloads::{Scale, Workload};

use crate::{check_model, demo, detected, expected_sentinels, fault, run_faulted};
use crate::{FaultClass, FaultInjector};
use crate::{Sentinel, SentinelSuite, Violation, MAX_VIOLATIONS};

#[test]
fn clean_runs_report_zero_violations_across_all_models() {
    // A representative subset of workloads keeps this test quick; CI's
    // `ff-campaign run --all --scale test --sentinels` sweeps all twelve.
    for bench in ["mcf", "gzip", "art"] {
        let w = Workload::by_name(bench, Scale::Test).unwrap();
        for kind in ModelKind::ALL {
            let mut model = kind.build(MachineConfig::default());
            let report = check_model(model.as_mut(), &w.sim_case());
            assert!(
                report.outcome.is_ok(),
                "{} / {bench}: {:?}",
                model.name(),
                report.outcome.err()
            );
            assert!(
                report.violations.is_empty(),
                "{} / {bench}: {:?}",
                model.name(),
                report.violations
            );
        }
    }
}

#[test]
fn golden_sentinel_catches_a_stream_that_stops_before_halt() {
    // Every retirement but the final `Halt` reaches the suite, so each
    // one matches the golden step and only the end-of-run check can fire.
    struct WithholdHalt<'a>(SentinelSuite<'a>);
    impl PipelineProbe for WithholdHalt<'_> {
        fn on_retire(&mut self, event: &ff_engine::RetireEvent) {
            if !matches!(event.inst.op(), ff_isa::Op::Halt) {
                self.0.on_retire(event);
            }
        }
        fn on_run_end(&mut self, result: &RunResult) {
            self.0.on_run_end(result);
        }
    }
    let w = Workload::by_name("gzip", Scale::Test).unwrap();
    let case = w.sim_case();
    let mut probe = WithholdHalt(SentinelSuite::with_golden(&case));
    ModelKind::InOrder.build(MachineConfig::default()).run_observed(&case, &mut probe).unwrap();
    let violations = probe.0.into_violations();
    assert!(
        violations.iter().any(|v| v.sentinel == "golden" && v.message.contains("golden Halt")),
        "{violations:?}"
    );
}

#[test]
fn demo_kernels_are_clean_without_faults() {
    for (p, mem) in [demo::chase(32), demo::forwarding()] {
        let case = SimCase::new(&p, mem);
        let mut model = Multipass::new(MachineConfig::default());
        let report = check_model(&mut model, &case);
        assert!(report.is_clean(), "{:?}", report.violations);
    }
}

#[test]
fn forwarding_kernel_exercises_a_speculative_asc_forward() {
    // The stale-asc fault site must exist in the clean run: at least one
    // ASC forward with the S-bit set.
    struct CountForwards(u64);
    impl PipelineProbe for CountForwards {
        fn on_asc_forward(&mut self, obs: &ff_engine::AscForwardObs) {
            if obs.s_bit {
                self.0 += 1;
            }
        }
    }
    let (p, mem) = demo::forwarding();
    let case = SimCase::new(&p, mem);
    let mut probe = CountForwards(0);
    let mut model = Multipass::new(MachineConfig::default());
    model.run_observed(&case, &mut probe).expect("forwarding kernel must complete");
    assert!(probe.0 > 0, "no S-bit ASC forward — the stale-asc fault site is unreachable");
}

#[test]
fn every_fault_class_is_detected_at_index_zero() {
    for class in FaultClass::ALL {
        let report = run_faulted(class, 0);
        assert!(
            detected(class, &report),
            "{}: expected {:?} to fire, got {:?} (outcome {:?})",
            class.name(),
            expected_sentinels(class),
            report.violations,
            report.outcome.as_ref().err()
        );
    }
}

#[test]
fn seeded_fault_sites_are_detected_whenever_they_fire() {
    let mut inj = FaultInjector::new(7);
    for _ in 0..12 {
        let (class, index) = inj.next_fault();
        let report = run_faulted(class, index);
        if report.is_clean() {
            continue; // site past the end of the run's event stream
        }
        assert!(
            detected(class, &report),
            "{}[{index}]: perturbed run not caught by {:?}: {:?}",
            class.name(),
            expected_sentinels(class),
            report.violations
        );
    }
}

#[test]
fn fault_injector_is_deterministic() {
    let a: Vec<_> = (0..16)
        .map({
            let mut i = FaultInjector::new(42);
            move |_| i.next_fault()
        })
        .collect();
    let b: Vec<_> = (0..16)
        .map({
            let mut i = FaultInjector::new(42);
            move |_| i.next_fault()
        })
        .collect();
    assert_eq!(a, b);
    let c: Vec<_> = (0..16)
        .map({
            let mut i = FaultInjector::new(43);
            move |_| i.next_fault()
        })
        .collect();
    assert_ne!(a, c, "different seeds should pick different campaigns");
}

#[test]
fn fault_class_names_round_trip() {
    for class in FaultClass::ALL {
        assert_eq!(FaultClass::parse(class.name()), Some(class));
    }
    assert_eq!(FaultClass::parse("no-such-fault"), None);
}

#[test]
fn dropped_wakeup_is_caught_within_the_latency_slack() {
    // The scoreboard sentinel fires the first cycle the wedged register is
    // observable — well before the run's watchdog aborts it.
    let report = run_faulted(FaultClass::DroppedWakeup, 0);
    assert!(report.outcome.is_err(), "a dropped wakeup must wedge the run");
    let first = report
        .violations
        .iter()
        .find(|v| v.sentinel == "scoreboard-srf")
        .expect("scoreboard sentinel must fire");
    assert!(
        first.cycle < crate::checkers::LATENCY_SLACK + 1_000,
        "detection at cycle {} is too late",
        first.cycle
    );
}

#[test]
fn dropped_ready_insert_is_caught_within_the_latency_slack() {
    // A wakeup insertion lost on an exec writeback wedges the destination
    // register's scoreboard entry; the scoreboard sentinel must see the
    // impossible drain horizon immediately, not at the watchdog.
    let report = run_faulted(FaultClass::DroppedReadyInsert, 0);
    let first = report
        .violations
        .iter()
        .find(|v| v.sentinel == "scoreboard-srf")
        .expect("scoreboard sentinel must fire on a dropped ready insertion");
    assert!(
        first.cycle < crate::checkers::LATENCY_SLACK + 1_000,
        "detection at cycle {} is too late",
        first.cycle
    );
}

#[test]
fn synthetic_violations_respect_the_suite_cap() {
    struct AlwaysFire;
    impl Sentinel for AlwaysFire {
        fn name(&self) -> &'static str {
            "always-fire"
        }
        fn on_cycle(&mut self, obs: &CycleObs, v: &mut crate::Reporter<'_>) {
            v.report(obs.cycle, "synthetic".to_string());
        }
    }
    let mut suite = SentinelSuite::new();
    suite.add(AlwaysFire);
    let obs = CycleObs {
        cycle: 0,
        mode: RetireMode::Architectural,
        trigger: 0,
        peek: 0,
        peek_high: 0,
        deq: 0,
        srf_abits: 0,
        asc_live: 0,
        asc_capacity: 64,
        asc_assoc_ok: true,
        smaq_live: 0,
        smaq_capacity: 128,
        sb_drain: 0,
    };
    for _ in 0..(MAX_VIOLATIONS + 10) {
        suite.on_cycle(&obs);
    }
    assert_eq!(suite.violations().len(), MAX_VIOLATIONS);
}

#[test]
fn accounting_sentinel_flags_unbalanced_counters() {
    use crate::checkers::AccountingSentinel;
    let (p, mem) = demo::chase(4);
    let case = SimCase::new(&p, mem);
    let mut model = Multipass::new(MachineConfig::default());
    let mut good = model.try_run(&case).unwrap();

    fn audit(result: &RunResult) -> Vec<Violation> {
        let mut suite = SentinelSuite::new();
        suite.add(AccountingSentinel::new());
        suite.on_run_end(result);
        suite.into_violations()
    }

    assert!(audit(&good).is_empty());
    good.stats.cycles += 1; // breakdown no longer balances
    let v = audit(&good);
    assert!(!v.is_empty());
    assert!(v[0].message.contains("breakdown"), "{}", v[0].message);
}

#[test]
fn violation_display_names_the_sentinel_and_cycle() {
    let v = Violation { sentinel: "asc", cycle: 123, message: "boom".to_string() };
    let s = v.to_string();
    assert!(s.contains("[asc]"), "{s}");
    assert!(s.contains("cycle 123"), "{s}");
    assert!(s.contains("boom"), "{s}");
}

#[test]
fn faulted_run_budget_allows_warped_latency_to_complete() {
    // A warped latency stalls ~99k cycles but must still complete inside
    // the fault budget so the MSHR/accounting end-of-run checks run.
    let report = run_faulted(FaultClass::WarpedCacheLatency, 0);
    assert!(
        report.outcome.is_ok(),
        "warped run should complete within {} cycles: {:?}",
        fault::FAULT_CYCLE_BUDGET,
        report.outcome.err()
    );
}
