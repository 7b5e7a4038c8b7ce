//! `ff-sentinel` — invariant-checked smoke runs and fault-detection proofs.
//!
//! ```text
//! ff-sentinel clean [--scale test|paper]
//!     Run every execution model over every workload with the full checker
//!     set; exit nonzero on any violation.
//!
//! ff-sentinel fault <class|all> [--seed N]
//!     Prove the named fault class (or every class) is caught: index 0 must
//!     fire and be detected by the expected checker, and every seeded
//!     fault site that perturbs the run must be detected too.
//! ```

use std::process::ExitCode;

use ff_baselines::{InOrder, OutOfOrder, Runahead};
use ff_engine::{ExecutionModel, MachineConfig};
use ff_multipass::{Multipass, MultipassConfig};
use ff_sentinel::{
    check_model, detected, expected_sentinels, run_faulted, FaultClass, FaultInjector,
};
use ff_workloads::{Scale, Workload};

fn usage() -> String {
    let classes: Vec<&str> = FaultClass::ALL.iter().map(|c| c.name()).collect();
    format!(
        "usage: ff-sentinel <clean [--scale test|paper] | fault <class|all> [--seed N]>\n\
         fault classes: {}",
        classes.join(" ")
    )
}

/// The seven execution models, mirroring the experiment suite's roster.
fn models() -> Vec<Box<dyn ExecutionModel>> {
    let m = MachineConfig::default();
    vec![
        Box::new(InOrder::new(m)),
        Box::new(Runahead::new(m)),
        Box::new(OutOfOrder::new(m)),
        Box::new(OutOfOrder::realistic(m)),
        Box::new(Multipass::new(m)),
        Box::new(Multipass::with_config(MultipassConfig::without_regrouping(m))),
        Box::new(Multipass::with_config(MultipassConfig::without_restart(m))),
    ]
}

fn cmd_clean(scale: Scale) -> ExitCode {
    let workloads = Workload::all(scale);
    let mut runs = 0u64;
    let mut bad = 0u64;
    for model in &mut models() {
        for w in &workloads {
            let report = check_model(model.as_mut(), &w.sim_case());
            runs += 1;
            if let Err(e) = &report.outcome {
                bad += 1;
                println!("FAIL {model} / {bench}: {e}", model = model.name(), bench = w.name);
            }
            for v in report.violations.iter() {
                bad += 1;
                println!("FAIL {model} / {bench}: {v}", model = model.name(), bench = w.name);
            }
        }
    }
    if bad > 0 {
        println!("clean sweep: {bad} violation(s) across {runs} runs");
        return ExitCode::FAILURE;
    }
    println!("clean sweep: {runs} runs, zero violations");
    ExitCode::SUCCESS
}

fn prove_class(class: FaultClass, seed: u64) -> bool {
    // Index 0 is guaranteed to fire on the class's demo kernel: it must be
    // caught by the expected checker.
    let report = run_faulted(class, 0);
    if !detected(class, &report) {
        println!(
            "MISSED {}[0]: expected {:?} to fire; violations: {:?}",
            class.name(),
            expected_sentinels(class),
            report.violations
        );
        return false;
    }
    let v = report
        .violations
        .iter()
        .find(|v| expected_sentinels(class).contains(&v.sentinel))
        .expect("detected implies a matching violation");
    println!("caught {}[0] by [{}] at cycle {}", class.name(), v.sentinel, v.cycle);

    // Seeded sites: any site that actually perturbs the run must be
    // detected; sites past the event stream leave the run clean.
    let mut inj = FaultInjector::new(seed);
    for _ in 0..8 {
        let (c, index) = inj.next_fault();
        if c != class {
            continue;
        }
        let r = run_faulted(c, index);
        if r.is_clean() {
            continue; // fault site never reached
        }
        if !detected(c, &r) {
            println!(
                "MISSED {}[{index}]: run perturbed but expected {:?} silent; violations: {:?}",
                c.name(),
                expected_sentinels(c),
                r.violations
            );
            return false;
        }
        println!("caught {}[{index}]", c.name());
    }
    true
}

fn cmd_fault(class_arg: &str, seed: u64) -> ExitCode {
    let classes: Vec<FaultClass> = if class_arg == "all" {
        FaultClass::ALL.to_vec()
    } else {
        match FaultClass::parse(class_arg) {
            Some(c) => vec![c],
            None => {
                eprintln!("unknown fault class `{class_arg}`\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
    };
    let ok = classes.into_iter().all(|c| prove_class(c, seed));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("clean") => {
            let mut scale = Scale::Test;
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--scale" => match it.next().map(String::as_str) {
                        Some("test") => scale = Scale::Test,
                        Some("paper") => scale = Scale::Paper,
                        _ => {
                            eprintln!("--scale needs `test` or `paper`\n{}", usage());
                            return ExitCode::FAILURE;
                        }
                    },
                    other => {
                        eprintln!("unknown flag `{other}`\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            cmd_clean(scale)
        }
        Some("fault") => {
            let Some(class_arg) = args.get(1) else {
                eprintln!("{}", usage());
                return ExitCode::FAILURE;
            };
            let mut seed = 0xf1ea;
            let mut it = args[2..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                        Some(s) => seed = s,
                        None => {
                            eprintln!("--seed needs an integer\n{}", usage());
                            return ExitCode::FAILURE;
                        }
                    },
                    other => {
                        eprintln!("unknown flag `{other}`\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            cmd_fault(class_arg, seed)
        }
        _ => {
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_names_every_fault_class() {
        let text = usage();
        let listed = text.lines().find_map(|l| l.strip_prefix("fault classes: ")).unwrap();
        for class in FaultClass::ALL {
            assert!(
                listed.split(' ').any(|n| n == class.name()),
                "{} missing:\n{text}",
                class.name()
            );
        }
    }
}
