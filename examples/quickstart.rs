//! Quickstart: build a tiny EPIC program by hand, compile it, and run it
//! on the multipass pipeline.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use flea_flicker::compiler::{compile, CompilerOptions};
use flea_flicker::engine::{ExecutionModel, MachineConfig, SimCase};
use flea_flicker::isa::{Inst, MemoryImage, Op, Program, Reg};
use flea_flicker::multipass::Multipass;

fn main() {
    // A little loop: sum the first 100 integers stored in memory.
    let mut p = Program::new();
    let setup = p.add_block();
    let body = p.add_block();
    let exit = p.add_block();
    p.push(setup, Inst::new(Op::MovImm).dst(Reg::int(1)).imm(0x1000)); // cursor
    p.push(setup, Inst::new(Op::MovImm).dst(Reg::int(2)).imm(100)); // counter
    p.push(body, Inst::new(Op::Load).dst(Reg::int(4)).src(Reg::int(1)));
    p.push(body, Inst::new(Op::Add).dst(Reg::int(3)).src(Reg::int(3)).src(Reg::int(4)));
    p.push(body, Inst::new(Op::AddImm).dst(Reg::int(1)).src(Reg::int(1)).imm(8));
    p.push(body, Inst::new(Op::AddImm).dst(Reg::int(2)).src(Reg::int(2)).imm(-1));
    p.push(body, Inst::new(Op::CmpNe).dst(Reg::pred(1)).src(Reg::int(2)).src(Reg::int(0)));
    p.push(body, Inst::new(Op::Br { target: body }).qp(Reg::pred(1)));
    p.push(exit, Inst::new(Op::Halt));

    // Compile: list scheduling into 6-wide EPIC issue groups + RESTART
    // insertion for critical loop SCCs (none here).
    let program = compile(&p, &CompilerOptions::default());
    println!("compiled program:\n{program}");

    // Data memory: values 1..=100.
    let mut mem = MemoryImage::new();
    for i in 0..100u64 {
        mem.store(0x1000 + i * 8, i + 1);
    }

    // Run on the multipass pipeline with the paper's Table 2 machine.
    let case = SimCase::new(&program, mem);
    let result = Multipass::new(MachineConfig::itanium2_base()).try_run(&case).unwrap();

    println!("sum               = {}", result.final_state.int(3));
    println!("cycles            = {}", result.stats.cycles);
    println!("retired           = {}", result.stats.retired);
    println!("IPC               = {:.2}", result.stats.ipc());
    println!("cycle breakdown   = {:?}", result.stats.breakdown);
    println!("advance episodes  = {}", result.stats.spec_mode_entries);
    assert_eq!(result.final_state.int(3), 5050);
}
