//! Facade crate for the flea-flicker multipass pipelining reproduction.
//!
//! Re-exports the workspace crates under one roof so examples and downstream
//! users can depend on a single crate:
//!
//! * [`isa`] — EPIC instruction set and functional semantics
//! * [`mem`] — timing memory hierarchy (caches, MSHRs)
//! * [`frontend`] — fetch engine and gshare branch prediction
//! * [`compiler`] — OpenIMPACT-like scheduler and RESTART insertion
//! * [`workloads`] — SPEC CPU2000-like synthetic kernels
//! * [`engine`] — shared pipeline infrastructure and statistics
//! * [`baselines`] — in-order, runahead, and out-of-order models
//! * [`multipass`] — the paper's contribution: multipass pipelining
//! * [`power`] — Wattch-like power models (Table 1)
//! * [`experiments`] — table/figure reproduction harness
//! * [`harness`] — parallel campaign runner (`ff-campaign`) with
//!   checkpoint/resume, watchdogs, panic isolation, quarantine, and
//!   run manifests
//! * [`sentinel`] — cycle-level invariant checkers (`ff-sentinel`) and
//!   the deterministic fault injector that proves they fire
//! * [`debug`] — first-divergence triage against the golden interpreter

#![forbid(unsafe_code)]

/// Convenient single-import surface for the common workflow: build or
/// generate a program, pick a machine, run models, compare results.
///
/// ```
/// use flea_flicker::prelude::*;
///
/// let w = Workload::by_name("mesa", Scale::Test).unwrap();
/// let case = SimCase::new(&w.program, w.mem.clone());
/// let r = Multipass::new(MachineConfig::itanium2_base()).try_run(&case).unwrap();
/// assert!(r.stats.cycles > 0);
/// ```
pub mod prelude {
    pub use ff_baselines::{InOrder, OutOfOrder, Runahead};
    pub use ff_compiler::{compile, CompilerOptions};
    pub use ff_engine::{ExecutionModel, MachineConfig, RunResult, SimCase};
    pub use ff_isa::{ArchState, Inst, MemoryImage, Op, Program, Reg};
    pub use ff_mem::HierarchyConfig;
    pub use ff_multipass::{Multipass, MultipassConfig, RestartStrategy};
    pub use ff_workloads::{Scale, Workload};
}

pub use ff_baselines as baselines;
pub use ff_compiler as compiler;
pub use ff_debug as debug;
pub use ff_engine as engine;
pub use ff_experiments as experiments;
pub use ff_frontend as frontend;
pub use ff_harness as harness;
pub use ff_isa as isa;
pub use ff_mem as mem;
pub use ff_multipass as multipass;
pub use ff_power as power;
pub use ff_sentinel as sentinel;
pub use ff_workloads as workloads;
