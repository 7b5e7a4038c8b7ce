//! "Flea-flicker" multipass pipelining (Barnes, Ryoo & Hwu, MICRO 2005).
//!
//! This crate implements the paper's primary contribution: an in-order EPIC
//! pipeline that, instead of idling behind a data-cache-interlocked
//! instruction, makes *multiple, carefully controlled in-order passes*
//! through the subsequent instructions, preserving every valid result so
//! that each pass — and the final architectural pass — runs faster and
//! cheaper than the last.
//!
//! The microarchitecture follows §3 of the paper:
//!
//! * **Modes** ([`ff_engine::RetireMode`]): *architectural* (multipass
//!   structures clock-gated; the baseline in-order pipeline, issue rule
//!   included), *advance* (speculative preexecution past the stalled
//!   trigger), and *rally* (architectural resumption accelerated by
//!   preserved results).
//! * **SRF + A-bits** ([`ff_engine::Srf`], shared with runahead): a
//!   speculative register file shadowing the architectural one; an A-bit
//!   redirects consumers to the SRF, an I-bit marks values poisoned by
//!   deferred producers.
//! * **Result store (RS) + E-bits**: per-instruction-queue-entry preserved
//!   results; E-marked instructions *merge* instead of re-executing, carry
//!   no dependences, and enable **issue regrouping** (§3.2) — dynamically
//!   larger issue groups without reordering.
//! * **Advance restart** (§3.3): compiler-inserted `RESTART` markers with
//!   unready operands restart the pass at the trigger, picking up
//!   newly-arrived short-miss results.
//! * **WAW policy** (§3.5): advance loads that miss the L1 skip the SRF
//!   write-back; their value is deposited in the RS when the miss returns.
//! * **SMAQ + advance store cache** (§3.6): advance stores forward through
//!   a small low-associativity [`asc::AdvanceStoreCache`]; deferred stores
//!   or ASC replacement make later loads *data speculative* (S-bit), which
//!   rally verifies value-wise, flushing on mismatch.
//!
//! # Example
//!
//! ```
//! use ff_engine::{ExecutionModel, MachineConfig, SimCase};
//! use ff_isa::{Inst, MemoryImage, Op, Program, Reg};
//! use ff_multipass::Multipass;
//!
//! let mut p = Program::new();
//! let b = p.add_block();
//! p.push(b, Inst::new(Op::MovImm).dst(Reg::int(1)).imm(21).stop());
//! p.push(b, Inst::new(Op::Add).dst(Reg::int(2)).src(Reg::int(1)).src(Reg::int(1)).stop());
//! p.push(b, Inst::new(Op::Halt).stop());
//! let case = SimCase::new(&p, MemoryImage::new());
//! let result = Multipass::new(MachineConfig::default()).try_run(&case).unwrap();
//! assert_eq!(result.final_state.int(2), 42);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asc;
pub mod config;
pub mod entry;
pub mod pipeline;

pub use asc::AdvanceStoreCache;
pub use config::{FaultClass, MultipassConfig, RestartStrategy};
pub use pipeline::Multipass;

/// xorshift64: a fixed, dependency-free operation stream for the unit
/// tests.
#[cfg(test)]
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}
