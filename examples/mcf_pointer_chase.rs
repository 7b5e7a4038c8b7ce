//! The paper's motivating scenario on the mcf-like workload: a pointer
//! chase whose every hop misses to memory, with dependent loads behind the
//! stall. Shows how multipass turns serialized miss handling into
//! overlapped miss handling (Figure 1), and how much of that needs
//! advance restart.
//!
//! ```sh
//! cargo run --release --example mcf_pointer_chase
//! ```

use flea_flicker::baselines::{InOrder, Runahead};
use flea_flicker::engine::{ExecutionModel, MachineConfig, SimCase};
use flea_flicker::multipass::{Multipass, MultipassConfig};
use flea_flicker::workloads::{Scale, Workload};

fn main() {
    let w = Workload::by_name("mcf", Scale::Test).expect("mcf exists");
    let machine = MachineConfig::itanium2_base();
    let case = SimCase::new(&w.program, w.mem.clone());

    let base = InOrder::new(machine).try_run(&case).unwrap();
    let ra = Runahead::new(machine).try_run(&case).unwrap();
    let mp = Multipass::new(machine).try_run(&case).unwrap();
    let mp_nr =
        Multipass::with_config(MultipassConfig::without_restart(machine)).try_run(&case).unwrap();

    println!("mcf-like pointer chase ({} dynamic instructions)\n", base.stats.retired);
    println!(
        "{:<22} {:>10} {:>9} {:>12} {:>12}",
        "model", "cycles", "speedup", "load stalls", "mem stalls %"
    );
    for (name, r) in [
        ("in-order", &base),
        ("runahead (D-M)", &ra),
        ("multipass", &mp),
        ("multipass w/o restart", &mp_nr),
    ] {
        println!(
            "{:<22} {:>10} {:>8.2}x {:>12} {:>11.1}%",
            name,
            r.stats.cycles,
            base.stats.cycles as f64 / r.stats.cycles as f64,
            r.stats.breakdown.load,
            100.0 * r.stats.breakdown.load as f64 / r.stats.cycles as f64,
        );
    }
    println!();
    println!("multipass advance episodes : {}", mp.stats.spec_mode_entries);
    println!("multipass pass restarts    : {}", mp.stats.advance_restarts);
    println!("multipass results reused   : {}", mp.stats.rs_reuses);
    println!("speculative prefetches     : {}", mp.mem_stats.speculative_reads);

    // All models compute the same answer.
    assert!(base.final_state.semantically_eq(&mp.final_state));
    assert!(base.final_state.semantically_eq(&ra.final_state));
    assert!(base.final_state.semantically_eq(&mp_nr.final_state));
}
