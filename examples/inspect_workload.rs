//! Diagnostic: dump detailed model statistics for one workload.
//!
//! ```sh
//! cargo run --release -p flea-flicker --example inspect_workload [bench] [test|paper]
//! ```

use flea_flicker::baselines::{InOrder, OutOfOrder, Runahead};
use flea_flicker::engine::{ExecutionModel, MachineConfig, RunResult, SimCase};
use flea_flicker::multipass::{Multipass, MultipassConfig};
use flea_flicker::workloads::{Scale, Workload};

fn dump(name: &str, r: &RunResult, base_cycles: u64) {
    let s = &r.stats;
    println!(
        "{name:<14} cycles {:>9} ({:.3}x)  exec {:>8} front {:>7} other {:>7} load {:>9}",
        s.cycles,
        base_cycles as f64 / s.cycles as f64,
        s.breakdown.execution,
        s.breakdown.front_end,
        s.breakdown.other,
        s.breakdown.load
    );
    println!(
        "{:<14} episodes {} restarts {} rs_reuses {} regroups {} flushes {} spec_reads {} mshr_peak - early_br {}",
        "",
        s.spec_mode_entries,
        s.advance_restarts,
        s.rs_reuses,
        s.regroup_merges,
        s.value_flushes,
        r.mem_stats.speculative_reads,
        s.early_resolved_mispredicts,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let bench = args.get(1).map(String::as_str).unwrap_or("mcf");
    let scale = match args.get(2).map(String::as_str) {
        Some("paper") => Scale::Paper,
        _ => Scale::Test,
    };
    let w = Workload::by_name(bench, scale).expect("known benchmark");
    let machine = MachineConfig::itanium2_base();
    let case = SimCase::new(&w.program, w.mem.clone());

    let base = InOrder::new(machine).try_run(&case).unwrap();
    println!("== {bench} ({scale:?}) ==");
    dump("inorder", &base, base.stats.cycles);
    dump("runahead", &Runahead::new(machine).try_run(&case).unwrap(), base.stats.cycles);
    dump("MP", &Multipass::new(machine).try_run(&case).unwrap(), base.stats.cycles);
    dump(
        "MP-norestart",
        &Multipass::with_config(MultipassConfig::without_restart(machine)).try_run(&case).unwrap(),
        base.stats.cycles,
    );
    dump(
        "MP-noregroup",
        &Multipass::with_config(MultipassConfig::without_regrouping(machine))
            .try_run(&case)
            .unwrap(),
        base.stats.cycles,
    );
    dump("OOO", &OutOfOrder::new(machine).try_run(&case).unwrap(), base.stats.cycles);
    dump("OOO-real", &OutOfOrder::realistic(machine).try_run(&case).unwrap(), base.stats.cycles);
}
