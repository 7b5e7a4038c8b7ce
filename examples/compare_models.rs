//! Runs every execution model on every workload (test scale) and prints a
//! Figure 6-like comparison: cycles, speedup over in-order, and the
//! four-way stall breakdown.
//!
//! ```sh
//! cargo run --release --example compare_models
//! ```

use flea_flicker::baselines::{InOrder, OutOfOrder, Runahead};
use flea_flicker::engine::{ExecutionModel, MachineConfig, RunResult, SimCase};
use flea_flicker::multipass::Multipass;
use flea_flicker::workloads::{Scale, Workload};

fn main() {
    let machine = MachineConfig::itanium2_base();
    println!(
        "{:<8} {:<10} {:>10} {:>8}   {:>6} {:>6} {:>6} {:>6}",
        "bench", "model", "cycles", "speedup", "exec", "front", "other", "load"
    );
    for w in Workload::all(Scale::Test) {
        let case = SimCase::new(&w.program, w.mem.clone());
        let base = InOrder::new(machine).try_run(&case).unwrap();
        let runs: Vec<(&str, RunResult)> = vec![
            ("inorder", base.clone()),
            ("runahead", Runahead::new(machine).try_run(&case).unwrap()),
            ("MP", Multipass::new(machine).try_run(&case).unwrap()),
            ("OOO", OutOfOrder::new(machine).try_run(&case).unwrap()),
            ("OOO-real", OutOfOrder::realistic(machine).try_run(&case).unwrap()),
        ];
        for (name, r) in &runs {
            assert!(
                base.final_state.semantically_eq(&r.final_state),
                "{} diverges on {}",
                name,
                w.name
            );
            let n = r.stats.cycles as f64;
            println!(
                "{:<8} {:<10} {:>10} {:>7.2}x   {:>5.1}% {:>5.1}% {:>5.1}% {:>5.1}%",
                w.name,
                name,
                r.stats.cycles,
                base.stats.cycles as f64 / n,
                100.0 * r.stats.breakdown.execution as f64 / n,
                100.0 * r.stats.breakdown.front_end as f64 / n,
                100.0 * r.stats.breakdown.other as f64 / n,
                100.0 * r.stats.breakdown.load as f64 / n,
            );
        }
        println!();
    }
}
