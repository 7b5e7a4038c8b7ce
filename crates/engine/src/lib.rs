//! Shared cycle-level pipeline infrastructure for the flea-flicker
//! simulator.
//!
//! Everything the four execution models (`ff-baselines`, `ff-multipass`)
//! have in common lives here:
//!
//! * [`MachineConfig`] — the machine parameters of the paper's Table 2;
//! * [`Scoreboard`] — per-register ready-cycle tracking with the *cause* of
//!   each pending write, which drives the stall-attribution taxonomy of
//!   Figure 6 (execution / front-end / other / load);
//! * [`FuPool`] — runtime functional-unit arbitration (4 M / 2 I / 2 F /
//!   3 B ports, six-issue, unpipelined dividers);
//! * [`RunStats`] / [`StallKind`] — per-run statistics with the paper's
//!   cycle-attribution categories;
//! * [`Activity`] — per-structure access counters consumed by the Wattch
//!   power models in `ff-power`;
//! * [`TraceStream`] — the dynamic trace with dataflow and memory
//!   dependence links, stepped one instruction at a time through
//!   [`ff_isa::interp::execute`] for the trace-driven out-of-order timing
//!   models;
//! * [`ExecutionModel`] — the trait every pipeline model implements, and
//!   [`SimCase`]/[`RunResult`] — its input/output types;
//! * [`PipelineProbe`] — the one observer a run takes: the retirement
//!   stream ([`RetireEvent`]) for the `ff-debug` triage tooling and
//!   crash-bundle [`RetireRing`]s, and the multipass per-cycle
//!   observations for the `ff-sentinel` checkers, each probe saying which
//!   it wants ([`Observes`]);
//! * [`InOrderStage`] — the baseline in-order pipeline the in-order,
//!   runahead and multipass models share: one issue step around
//!   [`ff_isa::interp::execute`], one head-readiness and head-wake rule,
//!   and one stalled-head skip analysis (DESIGN.md §7c);
//! * [`Srf`] — the speculative register file (A-bits, I-bits) both
//!   speculative passes write: multipass advance mode and runahead
//!   pre-execution.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activity;
pub mod config;
pub mod fu;
pub mod model;
pub mod probe;
pub mod retire;
pub mod scoreboard;
pub mod srf;
pub mod stage;
pub mod stats;
pub mod trace;

pub use activity::Activity;
pub use config::MachineConfig;
pub use fu::FuPool;
pub use model::{ExecutionModel, RunError, RunResult, SimCase, TickMode};
pub use probe::{AscForwardObs, CycleObs, MemAccessObs, NullProbe, Observes, PipelineProbe};
pub use retire::{EpisodeWindow, RetireEvent, RetireMode, RetireRing};
pub use scoreboard::{operand_stall, operand_wake, PendingKind, Scoreboard};
pub use srf::{Srf, SrfVal};
pub use stage::{Head, InOrderStage, Issued};
pub use stats::{RunStats, StallKind};
pub use trace::{DepList, TraceError, TraceInst, TraceStream};

/// xorshift64: a fixed, dependency-free operation stream for the unit
/// tests.
#[cfg(test)]
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}
