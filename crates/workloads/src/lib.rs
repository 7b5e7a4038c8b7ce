//! SPEC CPU2000-like synthetic workloads for the flea-flicker simulator.
//!
//! The paper evaluates twelve C benchmarks from SPEC CPU2000. Those inputs
//! are proprietary, so this crate substitutes seeded synthetic kernels that
//! reproduce each benchmark's *memory-level-parallelism signature* — the
//! properties multipass pipelining is sensitive to:
//!
//! * footprint and access pattern (pointer chase / stream / random gather),
//! * dependence structure of misses (chained vs. independent; whether a
//!   load SCC feeds further variable-latency work — the advance-restart
//!   trigger),
//! * branch predictability (front-end stalls and the value of early branch
//!   resolution), and
//! * the multi-cycle-operation mix ("other" stalls).
//!
//! Every workload is generated deterministically from a fixed per-kernel
//! seed, compiled through the `ff-compiler` stand-in (list scheduling +
//! critical-SCC RESTART insertion), and validated by construction: its
//! program passes `Program::validate` and terminates within its dynamic
//! budget.
//!
//! # Example
//!
//! ```
//! use ff_workloads::{Scale, Workload};
//!
//! let w = Workload::by_name("mcf", Scale::Test).unwrap();
//! assert_eq!(w.name, "mcf");
//! assert!(w.program.validate().is_ok());
//! let case = w.sim_case();
//! assert!(case.program.num_insts() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod kernels;

use ff_engine::SimCase;
use ff_isa::{MemoryImage, Program};

/// Workload sizing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Scale {
    /// Small footprints and trip counts for unit/integration tests.
    Test,
    /// Paper-scale runs used by the benchmark harness.
    Paper,
}

/// A generated benchmark: a compiled program plus its initial memory image.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Benchmark name (SPEC CPU2000 counterpart).
    pub name: &'static str,
    /// True for the CFP2000-like kernels (art, equake, mesa, ammp).
    pub is_fp: bool,
    /// The compiled (scheduled, RESTART-annotated) program.
    pub program: Program,
    /// Initial data memory.
    pub mem: MemoryImage,
}

impl Workload {
    /// The twelve benchmark names in the paper's presentation order.
    pub const NAMES: [&'static str; 12] = [
        "gzip", "vpr", "mcf", "parser", "gap", "vortex", "bzip2", "twolf", "art", "equake", "mesa",
        "ammp",
    ];

    /// Generates every benchmark at the given scale.
    pub fn all(scale: Scale) -> Vec<Workload> {
        Self::NAMES.iter().map(|n| Self::by_name(n, scale).expect("known name")).collect()
    }

    /// Generates one benchmark by name, or `None` for an unknown name.
    pub fn by_name(name: &str, scale: Scale) -> Option<Workload> {
        Self::by_name_seeded(name, scale, 0)
    }

    /// Generates one benchmark with an explicit generator seed, for
    /// seed-sensitivity studies (`seed = 0` matches [`Workload::by_name`]).
    pub fn by_name_seeded(name: &str, scale: Scale, seed: u64) -> Option<Workload> {
        Some(match name {
            "gzip" => kernels::gzip_seeded(scale, seed),
            "vpr" => kernels::vpr_seeded(scale, seed),
            "mcf" => kernels::mcf_seeded(scale, seed),
            "parser" => kernels::parser_seeded(scale, seed),
            "gap" => kernels::gap_seeded(scale, seed),
            "vortex" => kernels::vortex_seeded(scale, seed),
            "bzip2" => kernels::bzip2_seeded(scale, seed),
            "twolf" => kernels::twolf_seeded(scale, seed),
            "art" => kernels::art_seeded(scale, seed),
            "equake" => kernels::equake_seeded(scale, seed),
            "mesa" => kernels::mesa_seeded(scale, seed),
            "ammp" => kernels::ammp_seeded(scale, seed),
            _ => return None,
        })
    }

    /// A [`SimCase`] over this workload.
    pub fn sim_case(&self) -> SimCase<'_> {
        SimCase::new(&self.program, self.mem.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_isa::interp::Interpreter;

    #[test]
    fn all_twelve_generate_and_validate() {
        let ws = Workload::all(Scale::Test);
        assert_eq!(ws.len(), 12);
        for w in &ws {
            assert!(w.program.validate().is_ok(), "{} fails validation", w.name);
            assert!(w.program.num_insts() > 0);
        }
    }

    #[test]
    fn all_twelve_terminate_in_the_interpreter() {
        for w in Workload::all(Scale::Test) {
            let mut s = ff_isa::ArchState::new();
            s.mem = w.mem.clone();
            let mut i = Interpreter::with_state(&w.program, s);
            let stop = i.run(20_000_000).expect("valid control flow");
            assert_eq!(stop, ff_isa::interp::StopReason::Halted, "{} did not halt", w.name);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Workload::by_name("mcf", Scale::Test).unwrap();
        let b = Workload::by_name("mcf", Scale::Test).unwrap();
        assert_eq!(a.program, b.program);
        assert!(a.mem.semantically_eq(&b.mem));
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(Workload::by_name("nosuch", Scale::Test).is_none());
    }

    #[test]
    fn seeds_produce_distinct_but_valid_workloads() {
        let a = Workload::by_name_seeded("gap", Scale::Test, 0).unwrap();
        let b = Workload::by_name_seeded("gap", Scale::Test, 1).unwrap();
        assert!(!a.mem.semantically_eq(&b.mem), "different seeds, same memory?");
        assert!(b.program.validate().is_ok());
        // Seed 0 is the canonical generator.
        let c = Workload::by_name("gap", Scale::Test).unwrap();
        assert!(a.mem.semantically_eq(&c.mem));
    }

    #[test]
    fn fp_flags_match_spec_suites() {
        for w in Workload::all(Scale::Test) {
            let expect_fp = matches!(w.name, "art" | "equake" | "mesa" | "ammp");
            assert_eq!(w.is_fp, expect_fp, "{}", w.name);
        }
    }

    #[test]
    fn mcf_and_gap_carry_restart_markers() {
        for name in ["mcf", "gap", "bzip2"] {
            let w = Workload::by_name(name, Scale::Test).unwrap();
            let restarts = ff_compiler::restart::count_restarts(&w.program);
            assert!(restarts > 0, "{name} should have RESTART markers");
        }
    }

    #[test]
    fn streaming_kernels_have_no_restart_markers() {
        for name in ["art", "mesa"] {
            let w = Workload::by_name(name, Scale::Test).unwrap();
            let restarts = ff_compiler::restart::count_restarts(&w.program);
            assert_eq!(restarts, 0, "{name} should not have RESTART markers");
        }
    }
}
