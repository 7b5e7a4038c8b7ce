//! Runs one execution model against the golden interpreter in lockstep and
//! prints the `ff-debug` first-divergence triage report.
//!
//! ```sh
//! cargo run --release --example compare_divergence -- <workload> <model> [fault-index]
//! cargo run --release --example compare_divergence -- --bundle <path>
//! ```
//!
//! `<workload>` is a workload name (`mcf`, `bzip2`, ... — see
//! `inspect_workload`), `<model>` one of `inorder`, `runahead`, `ooo`,
//! `ooo-real`, `mp`, `mp-noregroup`, `mp-norestart`. The optional
//! `fault-index` injects a single-bit corruption into the N-th multipass
//! result-store merge (`FaultClass::RegisterBitFlip`) so the
//! triage output can be demonstrated on a healthy tree.
//!
//! `--bundle` loads a crash bundle written by a failed `ff-campaign` job
//! (under `<out>/bundles/`), prints the recorded failure context, rebuilds
//! the exact workload and model from the bundle's grid coordinates, and
//! replays the job under the lockstep checker — campaign failure to triage
//! report in one command.

use std::process::ExitCode;

use flea_flicker::baselines::{InOrder, OutOfOrder, Runahead};
use flea_flicker::debug::compare_model;
use flea_flicker::engine::{ExecutionModel, MachineConfig, SimCase};
use flea_flicker::experiments::{HierKind, ModelKind, Suite};
use flea_flicker::harness::job::parse_scale;
use flea_flicker::harness::CrashBundle;
use flea_flicker::multipass::{FaultClass, Multipass, MultipassConfig};
use flea_flicker::workloads::{Scale, Workload};

fn usage() -> ExitCode {
    eprintln!("usage: compare_divergence <workload> <model> [fault-index]");
    eprintln!("       compare_divergence --bundle <path>");
    eprintln!("  models: inorder runahead ooo ooo-real mp mp-noregroup mp-norestart");
    ExitCode::FAILURE
}

/// Replays a campaign crash bundle: print what the campaign saw, then run
/// the same (model, hier, workload, seed) under the lockstep checker.
fn replay_bundle(path: &str) -> ExitCode {
    let bundle = match CrashBundle::read(std::path::Path::new(path)) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot load bundle: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("crash bundle: {}", bundle.job_id);
    println!("  error: {}", bundle.error);
    if let Some(budget) = bundle.cycle_budget {
        println!("  cycle budget: {budget}");
    }
    for v in &bundle.violations {
        println!("  violation: {v}");
    }
    println!("  retired before failure: {}", bundle.retired_total);
    if !bundle.last_retirements.is_empty() {
        println!("  last {} retirements (oldest first):", bundle.last_retirements.len());
        for line in &bundle.last_retirements {
            println!("    {line}");
        }
    }

    let (Some(model), Some(hier), Some(scale)) = (
        ModelKind::parse(&bundle.model),
        HierKind::parse(&bundle.hier),
        parse_scale(&bundle.scale),
    ) else {
        eprintln!("bundle names an unknown model/hier/scale");
        return ExitCode::FAILURE;
    };
    let Some(w) = Workload::by_name_seeded(&bundle.bench, scale, bundle.seed) else {
        eprintln!("bundle names an unknown benchmark `{}`", bundle.bench);
        return ExitCode::FAILURE;
    };

    println!();
    println!("replaying {} under the lockstep checker...", bundle.job_id);
    // The replay runs without the campaign's watchdog budget: the goal is
    // a complete lockstep comparison, not a fast failure.
    let case = SimCase::new(&w.program, w.mem.clone());
    let mut model = Suite::build_model(model, hier);
    let report = compare_model(model.as_mut(), &case);
    println!("{report}");
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).is_some_and(|a| a == "--bundle") {
        let Some(path) = args.get(2) else {
            return usage();
        };
        return replay_bundle(path);
    }
    let (Some(workload), Some(model_name)) = (args.get(1), args.get(2)) else {
        return usage();
    };
    let fault: Option<u64> = match args.get(3) {
        Some(s) => match s.parse() {
            Ok(n) => Some(n),
            Err(_) => return usage(),
        },
        None => None,
    };

    let Some(w) = Workload::by_name(workload, Scale::Test) else {
        eprintln!("unknown workload `{workload}`");
        return usage();
    };

    let machine = MachineConfig::itanium2_base();
    let mp_config = |mut c: MultipassConfig| {
        c.fault = fault.map(|n| (FaultClass::RegisterBitFlip, n));
        c
    };
    let mut model: Box<dyn ExecutionModel> = match model_name.as_str() {
        "inorder" => Box::new(InOrder::new(machine)),
        "runahead" => Box::new(Runahead::new(machine)),
        "ooo" => Box::new(OutOfOrder::new(machine)),
        "ooo-real" => Box::new(OutOfOrder::realistic(machine)),
        "mp" => Box::new(Multipass::with_config(mp_config(MultipassConfig::new(machine)))),
        "mp-noregroup" => Box::new(Multipass::with_config(mp_config(
            MultipassConfig::without_regrouping(machine),
        ))),
        "mp-norestart" => {
            Box::new(Multipass::with_config(mp_config(MultipassConfig::without_restart(machine))))
        }
        other => {
            eprintln!("unknown model `{other}`");
            return usage();
        }
    };
    if fault.is_some() && !model_name.starts_with("mp") {
        eprintln!("fault injection only applies to multipass models");
        return usage();
    }

    let case = SimCase::new(&w.program, w.mem.clone());
    let report = compare_model(&mut *model, &case);
    println!("{report}");
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
