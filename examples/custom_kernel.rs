//! Write a kernel in the textual assembly syntax, compile it with the
//! EPIC scheduler, and compare all execution models on it.
//!
//! ```sh
//! cargo run --release -p flea-flicker --example custom_kernel
//! ```

use flea_flicker::baselines::{InOrder, OutOfOrder, Runahead};
use flea_flicker::compiler::{compile, CompilerOptions};
use flea_flicker::engine::{ExecutionModel, MachineConfig, SimCase};
use flea_flicker::isa::asm::parse_program;
use flea_flicker::isa::MemoryImage;
use flea_flicker::multipass::Multipass;

/// A pointer chase with a dependent lookup into a separate value table —
/// a miniature mcf. The compiler finds the chase SCC (it precedes two
/// variable-latency loads) and inserts a RESTART after it.
const KERNEL: &str = "
B0:
    movimm r1 = #1048576      // list head
    movimm r3 = #0            // accumulator
B1:
    load r1 = r1 @0           // next = *node          (the chase)
    load r10 = r1 #8 @0       // ptr  = node->value_ptr
    load r11 = r10 @1         // v    = *ptr            (second miss)
    add r3 = r3 r11
    cmpne p1 = r1 r0
    (p1) br B1
B2:
    halt
";

fn main() {
    let parsed = parse_program(KERNEL).expect("kernel assembles");
    let program = compile(&parsed, &CompilerOptions::default());
    println!("compiled kernel (stop bits + RESTART inserted by the compiler):\n{program}");

    // Build a 64-node strided list plus a strided value table.
    let mut mem = MemoryImage::new();
    let base = 1_048_576u64;
    let values = 64 * 1_048_576u64;
    let stride = 96 * 1024;
    for i in 0..64u64 {
        let a = base + i * stride;
        let next = if i == 63 { 0 } else { base + (i + 1) * stride };
        mem.store(a, next);
        mem.store(a + 8, values + i * stride);
        mem.store(values + i * stride, i + 1);
    }
    mem.store(8, values); // null node's value_ptr (read on the final hop)

    let machine = MachineConfig::itanium2_base();
    let case = SimCase::new(&program, mem);
    let base_run = InOrder::new(machine).try_run(&case).unwrap();
    println!("{:<10} {:>8} cycles", "inorder", base_run.stats.cycles);
    for (name, r) in [
        ("runahead", Runahead::new(machine).try_run(&case).unwrap()),
        ("multipass", Multipass::new(machine).try_run(&case).unwrap()),
        ("ooo", OutOfOrder::new(machine).try_run(&case).unwrap()),
    ] {
        assert!(r.final_state.semantically_eq(&base_run.final_state));
        println!(
            "{:<10} {:>8} cycles  ({:.2}x)",
            name,
            r.stats.cycles,
            base_run.stats.cycles as f64 / r.stats.cycles as f64
        );
    }
    // The chase advances before the lookup, so node 0's value is skipped
    // and the final (null) hop reads node 0's value slot: 2..=64 plus 1.
    assert_eq!(base_run.final_state.int(3), (1..=64).sum::<u64>());
}
