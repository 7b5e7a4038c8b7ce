//! `ff-sentinel` — fault-detection proofs for the invariant checkers.
//!
//! ```text
//! ff-sentinel fault <class|all> [--seed N]
//!     Prove the named fault class (or every class) is caught: index 0 must
//!     fire and be detected by the expected checker, and every seeded
//!     fault site that perturbs the run must be detected too.
//! ```
//!
//! Clean runs are checked by `ff-campaign run --sentinels`.

use std::process::ExitCode;

use ff_sentinel::{detected, expected_sentinels, run_faulted, FaultClass, FaultInjector};

fn usage() -> String {
    let classes: Vec<&str> = FaultClass::ALL.iter().map(|c| c.name()).collect();
    format!(
        "usage: ff-sentinel fault <class|all> [--seed N]\n\
         fault classes: {}",
        classes.join(" ")
    )
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
