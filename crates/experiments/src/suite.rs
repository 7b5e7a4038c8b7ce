//! Memoized simulation suite: (model, hierarchy, benchmark) → results.

use std::collections::BTreeMap;
use std::fmt;

use ff_baselines::{InOrder, OutOfOrder, Runahead};
use ff_engine::{ExecutionModel, MachineConfig, RunResult, SimCase};
use ff_mem::HierarchyConfig;
use ff_multipass::{Multipass, MultipassConfig};
use ff_workloads::{Scale, Workload};

/// Which execution model to run.
///
/// Ordered (`Ord`) in presentation order so campaign artifact enumeration
/// and cache iteration are deterministic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ModelKind {
    /// Baseline in-order EPIC pipeline.
    InOrder,
    /// Dundas–Mudge runahead.
    Runahead,
    /// Idealized out-of-order (Figure 6's OOO).
    Ooo,
    /// Realistic decentralized out-of-order (§5.2).
    OooRealistic,
    /// Full multipass pipeline.
    Multipass,
    /// Multipass without issue regrouping (Figure 8).
    MpNoRegroup,
    /// Multipass without advance restart (Figure 8).
    MpNoRestart,
}

impl ModelKind {
    /// All seven models in presentation order.
    pub const ALL: [ModelKind; 7] = [
        ModelKind::InOrder,
        ModelKind::Runahead,
        ModelKind::Ooo,
        ModelKind::OooRealistic,
        ModelKind::Multipass,
        ModelKind::MpNoRegroup,
        ModelKind::MpNoRestart,
    ];

    /// Canonical short name (matches the model's `ExecutionModel::name`).
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::InOrder => "inorder",
            ModelKind::Runahead => "runahead",
            ModelKind::Ooo => "ooo",
            ModelKind::OooRealistic => "ooo-realistic",
            ModelKind::Multipass => "MP",
            ModelKind::MpNoRegroup => "MP-noregroup",
            ModelKind::MpNoRestart => "MP-norestart",
        }
    }

    /// Parses a (case-insensitive) model name, accepting a few aliases
    /// (`multipass` for `MP`, `ooo_realistic` for `ooo-realistic`, ...).
    pub fn parse(s: &str) -> Option<ModelKind> {
        let k = s.to_ascii_lowercase().replace('_', "-");
        Some(match k.as_str() {
            "inorder" | "in-order" | "base" => ModelKind::InOrder,
            "runahead" => ModelKind::Runahead,
            "ooo" => ModelKind::Ooo,
            "ooo-realistic" | "realistic" => ModelKind::OooRealistic,
            "mp" | "multipass" => ModelKind::Multipass,
            "mp-noregroup" | "noregroup" => ModelKind::MpNoRegroup,
            "mp-norestart" | "norestart" => ModelKind::MpNoRestart,
            _ => return None,
        })
    }

    /// Builds a boxed model instance over `machine`.
    pub fn build(self, machine: MachineConfig) -> Box<dyn ExecutionModel> {
        match self {
            ModelKind::InOrder => Box::new(InOrder::new(machine)),
            ModelKind::Runahead => Box::new(Runahead::new(machine)),
            ModelKind::Ooo => Box::new(OutOfOrder::new(machine)),
            ModelKind::OooRealistic => Box::new(OutOfOrder::realistic(machine)),
            ModelKind::Multipass => Box::new(Multipass::new(machine)),
            ModelKind::MpNoRegroup => {
                Box::new(Multipass::with_config(MultipassConfig::without_regrouping(machine)))
            }
            ModelKind::MpNoRestart => {
                Box::new(Multipass::with_config(MultipassConfig::without_restart(machine)))
            }
        }
    }
}

/// Which cache hierarchy to use (Figure 7).
///
/// Ordered (`Ord`) in paper order for deterministic enumeration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HierKind {
    /// Table 2 base hierarchy.
    Base,
    /// Base with 200-cycle main memory.
    Config1,
    /// Smaller, slower hierarchy (8 KB L1 / 128 KB 7-cycle L2 /
    /// 1.5 MB 16-cycle L3 / 200-cycle memory).
    Config2,
}

impl HierKind {
    /// All three hierarchies in paper order.
    pub const ALL: [HierKind; 3] = [HierKind::Base, HierKind::Config1, HierKind::Config2];

    /// The concrete hierarchy configuration.
    pub fn config(self) -> HierarchyConfig {
        match self {
            HierKind::Base => HierarchyConfig::itanium2_base(),
            HierKind::Config1 => HierarchyConfig::config1(),
            HierKind::Config2 => HierarchyConfig::config2(),
        }
    }

    /// Display name used in Figure 7 output.
    pub fn name(self) -> &'static str {
        match self {
            HierKind::Base => "base",
            HierKind::Config1 => "config1",
            HierKind::Config2 => "config2",
        }
    }

    /// Parses a (case-insensitive) hierarchy name.
    pub fn parse(s: &str) -> Option<HierKind> {
        match s.to_ascii_lowercase().as_str() {
            "base" => Some(HierKind::Base),
            "config1" => Some(HierKind::Config1),
            "config2" => Some(HierKind::Config2),
            _ => None,
        }
    }
}

/// Error for a benchmark name that is not one of the twelve workloads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownBenchmark {
    /// The rejected name.
    pub name: String,
}

impl fmt::Display for UnknownBenchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown benchmark {:?}; valid names: {}", self.name, Workload::NAMES.join(", "))
    }
}

impl std::error::Error for UnknownBenchmark {}

/// Anything that can produce one [`RunResult`] per (model, hierarchy,
/// benchmark) grid point: the serial in-memory [`Suite`], or an artifact
/// store fed by a parallel `ff-campaign` run.
///
/// The figure/table experiments in [`crate::figures`] are written against
/// this trait, so they render identically from live simulations and from
/// checkpointed campaign artifacts.
pub trait ResultSource {
    /// Benchmark names in presentation order.
    fn benchmarks(&self) -> Vec<&'static str>;

    /// The result of one simulation grid point.
    ///
    /// # Panics
    ///
    /// Panics if the grid point cannot be produced (unknown benchmark, or
    /// a missing campaign artifact).
    fn result(&mut self, model: ModelKind, hier: HierKind, bench: &'static str) -> &RunResult;

    /// Convenience: cycles of one run.
    fn cycles(&mut self, model: ModelKind, hier: HierKind, bench: &'static str) -> u64 {
        self.result(model, hier, bench).stats.cycles
    }

    /// The result of one *seeded* grid point (workload-generator seed).
    /// Sources that only hold the canonical grid serve seed 0 and panic on
    /// anything else; artifact-backed and remote sources override this to
    /// serve the seed-sensitivity points too.
    ///
    /// # Panics
    ///
    /// Panics if the seeded grid point cannot be produced.
    fn result_seeded(
        &mut self,
        model: ModelKind,
        hier: HierKind,
        bench: &'static str,
        seed: u64,
    ) -> &RunResult {
        assert_eq!(seed, 0, "this ResultSource only serves the canonical seed 0");
        self.result(model, hier, bench)
    }

    /// The stored text of a standalone report artifact, for sources that
    /// keep them (an artifact store or a campaign server). Live sources
    /// return an error naming the report.
    ///
    /// # Errors
    ///
    /// When this source does not store report artifacts or the artifact is
    /// missing/corrupt.
    fn report_text(&mut self, name: &'static str) -> Result<String, String> {
        Err(format!("this ResultSource does not store report artifacts (wanted `{name}`)"))
    }
}

/// A memoizing simulation driver over the twelve workloads.
pub struct Suite {
    workloads: Vec<Workload>,
    cache: BTreeMap<(ModelKind, HierKind, &'static str), RunResult>,
}

impl Suite {
    /// Generates the workload set at `scale`.
    pub fn new(scale: Scale) -> Self {
        Suite { workloads: Workload::all(scale), cache: BTreeMap::new() }
    }

    /// Benchmark names in presentation order.
    pub fn benchmarks(&self) -> Vec<&'static str> {
        self.workloads.iter().map(|w| w.name).collect()
    }

    /// The workload with the given name, or an [`UnknownBenchmark`] error
    /// listing the valid names.
    pub fn workload(&self, name: &str) -> Result<&Workload, UnknownBenchmark> {
        self.workloads
            .iter()
            .find(|w| w.name == name)
            .ok_or_else(|| UnknownBenchmark { name: name.to_string() })
    }

    /// Executes one simulation of `workload` on the Table 2 machine with
    /// `hier`'s cache hierarchy — the single-threaded backend behind both
    /// [`Suite::run`] and each `ff-campaign` worker.
    ///
    /// # Panics
    ///
    /// Panics if the machine's cycle cap is exceeded (runaway program).
    pub fn execute(model: ModelKind, hier: HierKind, workload: &Workload) -> RunResult {
        let case = SimCase::new(&workload.program, workload.mem.clone());
        Self::build_model(model, hier)
            .try_run(&case)
            .unwrap_or_else(|e| panic!("{e} — runaway program?"))
    }

    /// Builds the exact model instance [`Suite::execute`] runs: the
    /// Table 2 machine with `hier`'s cache hierarchy.
    pub fn build_model(model: ModelKind, hier: HierKind) -> Box<dyn ExecutionModel> {
        model.build(MachineConfig::itanium2_base().with_hierarchy(hier.config()))
    }

    /// Runs (or returns the memoized result of) one simulation.
    ///
    /// # Panics
    ///
    /// Panics if `bench` is not one of the twelve benchmarks.
    pub fn run(&mut self, model: ModelKind, hier: HierKind, bench: &'static str) -> &RunResult {
        if !self.cache.contains_key(&(model, hier, bench)) {
            let w = self.workload(bench).unwrap_or_else(|e| panic!("{e}"));
            let result = Self::execute(model, hier, w);
            self.cache.insert((model, hier, bench), result);
        }
        &self.cache[&(model, hier, bench)]
    }

    /// Convenience: cycles of one run.
    pub fn cycles(&mut self, model: ModelKind, hier: HierKind, bench: &'static str) -> u64 {
        self.run(model, hier, bench).stats.cycles
    }
}

impl ResultSource for Suite {
    fn benchmarks(&self) -> Vec<&'static str> {
        Suite::benchmarks(self)
    }

    fn result(&mut self, model: ModelKind, hier: HierKind, bench: &'static str) -> &RunResult {
        self.run(model, hier, bench)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memoization_returns_identical_results() {
        let mut s = Suite::new(Scale::Test);
        let a = s.run(ModelKind::InOrder, HierKind::Base, "mesa").stats.cycles;
        let b = s.run(ModelKind::InOrder, HierKind::Base, "mesa").stats.cycles;
        assert_eq!(a, b);
        assert_eq!(s.cache.len(), 1);
    }

    #[test]
    fn all_models_agree_on_final_state() {
        let mut s = Suite::new(Scale::Test);
        for model in ModelKind::ALL {
            let base = s.run(ModelKind::InOrder, HierKind::Base, "gap").final_state.clone();
            let other = s.run(model, HierKind::Base, "gap").final_state.clone();
            assert!(base.semantically_eq(&other), "{model:?} diverges on gap");
        }
    }

    #[test]
    fn hierarchies_change_timing_not_results() {
        let mut s = Suite::new(Scale::Test);
        let base = s.run(ModelKind::Multipass, HierKind::Base, "vpr").clone();
        let slow = s.run(ModelKind::Multipass, HierKind::Config2, "vpr").clone();
        assert!(base.final_state.semantically_eq(&slow.final_state));
        assert!(slow.stats.cycles >= base.stats.cycles, "slower hierarchy, fewer cycles?");
    }

    #[test]
    fn unknown_benchmark_is_an_error_listing_valid_names() {
        let s = Suite::new(Scale::Test);
        let err = s.workload("nosuch").unwrap_err();
        assert_eq!(err.name, "nosuch");
        let msg = err.to_string();
        assert!(msg.contains("gzip") && msg.contains("ammp"), "{msg}");
        assert!(s.workload("mcf").is_ok());
    }

    #[test]
    fn cache_iteration_is_in_key_order() {
        let mut s = Suite::new(Scale::Test);
        s.run(ModelKind::Multipass, HierKind::Base, "vpr");
        s.run(ModelKind::InOrder, HierKind::Base, "gzip");
        s.run(ModelKind::InOrder, HierKind::Base, "art");
        let keys: Vec<_> = s.cache.keys().collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "BTreeMap iteration must be ordered");
    }

    #[test]
    fn model_and_hier_names_round_trip() {
        for m in ModelKind::ALL {
            assert_eq!(ModelKind::parse(m.name()), Some(m), "{m:?}");
        }
        for h in HierKind::ALL {
            assert_eq!(HierKind::parse(h.name()), Some(h), "{h:?}");
        }
        assert_eq!(ModelKind::parse("Multipass"), Some(ModelKind::Multipass));
        assert_eq!(ModelKind::parse("nosuch"), None);
        assert_eq!(HierKind::parse("nosuch"), None);
    }

    #[test]
    fn built_models_report_their_names() {
        let machine = MachineConfig::itanium2_base();
        for m in ModelKind::ALL {
            let built = m.build(machine);
            // Canonical kind names match the models' self-reported names,
            // so campaign artifacts and debug output agree.
            assert_eq!(built.name(), m.name(), "{m:?}");
        }
    }
}
