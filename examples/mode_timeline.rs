//! Visualizes the multipass mode choreography of the paper's Figure 4:
//! architectural execution, the switch to advance preexecution when a load
//! interlocks, pass restarts, and the rally back to architectural state.
//!
//! ```sh
//! cargo run --release -p flea-flicker --example mode_timeline
//! ```

use flea_flicker::engine::{ExecutionModel, MachineConfig, PipelineProbe, RetireMode, SimCase};
use flea_flicker::isa::{Inst, MemoryImage, Op, Program, Reg};
use flea_flicker::multipass::Multipass;

/// Records every mode transition as `(cycle, mode)`.
struct ModeTrace(Vec<(u64, RetireMode)>);

impl PipelineProbe for ModeTrace {
    fn on_mode(&mut self, cycle: u64, mode: RetireMode) {
        self.0.push((cycle, mode));
    }
}

fn main() {
    // The Figure 1 scenario in miniature: a long-miss load, a stall-on-use,
    // and independent work behind it.
    let mut p = Program::new();
    let b0 = p.add_block();
    let b1 = p.add_block();
    let b2 = p.add_block();
    p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(1)).imm(0x10_0000).stop());
    p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(5)).imm(0x80_0000).stop());
    p.push(b0, Inst::new(Op::MovImm).dst(Reg::int(2)).imm(8).stop());
    // loop: chase + restart + use, then an independent miss stream.
    p.push(b1, Inst::new(Op::Load).dst(Reg::int(1)).src(Reg::int(1)).region(0).stop());
    p.push(b1, Inst::new(Op::Restart).src(Reg::int(1)).stop());
    p.push(b1, Inst::new(Op::Add).dst(Reg::int(4)).src(Reg::int(1)).src(Reg::int(0)).stop());
    p.push(b1, Inst::new(Op::Load).dst(Reg::int(6)).src(Reg::int(5)).region(1));
    p.push(b1, Inst::new(Op::AddImm).dst(Reg::int(5)).src(Reg::int(5)).imm(4096).stop());
    p.push(b1, Inst::new(Op::Add).dst(Reg::int(3)).src(Reg::int(3)).src(Reg::int(6)));
    p.push(b1, Inst::new(Op::AddImm).dst(Reg::int(2)).src(Reg::int(2)).imm(-1).stop());
    p.push(b1, Inst::new(Op::CmpNe).dst(Reg::pred(1)).src(Reg::int(2)).src(Reg::int(0)).stop());
    p.push(b1, Inst::new(Op::Br { target: b1 }).qp(Reg::pred(1)).stop());
    p.push(b2, Inst::new(Op::Halt).stop());

    let mut mem = MemoryImage::new();
    for i in 0..8u64 {
        let a = 0x10_0000 + i * 128 * 1024;
        let next = if i == 7 { 0x10_0000 } else { a + 128 * 1024 };
        mem.store(a, next);
        mem.store(0x80_0000 + i * 4096, i + 1);
    }

    let case = SimCase::new(&p, mem);
    let mut trace = ModeTrace(Vec::new());
    let result =
        Multipass::new(MachineConfig::itanium2_base()).run_observed(&case, &mut trace).unwrap();

    println!("cycle  mode          (total {} cycles)", result.stats.cycles);
    let mut prev_cycle = 0;
    for (cycle, mode) in &trace.0 {
        let label = match mode {
            RetireMode::Architectural => "ARCHITECTURAL",
            RetireMode::Advance => "ADVANCE",
            RetireMode::Rally => "RALLY",
        };
        println!("{cycle:>5}  {label:<13} (+{} cycles in previous mode)", cycle - prev_cycle);
        prev_cycle = *cycle;
    }
    println!();
    println!("advance episodes : {}", result.stats.spec_mode_entries);
    println!("pass restarts    : {}", result.stats.advance_restarts);
    println!("advance cycles   : {}", result.stats.spec_mode_cycles);
    println!("rally cycles     : {}", result.stats.rally_cycles);
    println!("results reused   : {}", result.stats.rs_reuses);
}
