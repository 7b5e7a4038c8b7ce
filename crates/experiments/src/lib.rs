//! Experiment harness reproducing every table and figure of the paper.
//!
//! | Paper artifact | Function | `results/` file |
//! |---|---|---|
//! | Table 1 (power ratios) | [`table1_experiment`] | `table1_power.txt` |
//! | Table 2 (machine config) | [`table2`] | `table2_config.txt` |
//! | Figure 6 (cycle breakdown, base/MP/OOO) | [`figure6`] | `figure6_cycles.txt` |
//! | Figure 7 (cache-hierarchy sweep) | [`figure7`] | `figure7_hierarchies.txt` |
//! | Figure 8 (regrouping/restart ablation) | [`figure8`] | `figure8_ablation.txt`, `.csv` |
//! | §5.2 realistic OOO comparison | [`realistic_ooo`] | `realistic_ooo.txt` |
//! | §5.4 Dundas–Mudge comparison | [`runahead_compare`] | `runahead_compare.txt` |
//!
//! `ff-campaign run --all` renders every results file.
//! All experiments run through a memoizing [`Suite`] so shared baselines
//! are simulated once.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv;
pub mod figures;
pub mod render;
pub mod reports;
pub mod suite;

pub use figures::{
    figure6, figure7, figure8, realistic_ooo, runahead_compare, table1_experiment, table2, Figure6,
    Figure7, Figure8, RealisticOooResult, RunaheadResult,
};
pub use suite::{HierKind, ModelKind, ResultSource, Suite, UnknownBenchmark};
