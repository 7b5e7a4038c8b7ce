//! One function per table/figure of the paper.

use ff_engine::Activity;
use ff_engine::MachineConfig;
use ff_power::Table1Row;

use crate::suite::{HierKind, ModelKind, ResultSource};

/// Figure 6: normalized execution cycles with the four-way stall breakdown
/// for baseline, multipass, and idealized out-of-order.
#[derive(Clone, Debug)]
pub struct Figure6 {
    /// One row per benchmark.
    pub rows: Vec<Figure6Row>,
}

/// Per-benchmark Figure 6 data. All cycle categories are normalized to the
/// baseline's total cycles.
#[derive(Clone, Debug)]
pub struct Figure6Row {
    /// Benchmark name.
    pub bench: &'static str,
    /// Normalized (execution, front-end, other, load) for each model.
    pub base: [f64; 4],
    /// Multipass breakdown (normalized to baseline total).
    pub mp: [f64; 4],
    /// Out-of-order breakdown (normalized to baseline total).
    pub ooo: [f64; 4],
}

impl Figure6Row {
    /// Total normalized cycles of one model's breakdown.
    pub fn total(b: &[f64; 4]) -> f64 {
        b.iter().sum()
    }
}

impl Figure6 {
    /// Arithmetic-mean speedup of multipass over the baseline.
    pub fn mp_speedup(&self) -> f64 {
        mean(self.rows.iter().map(|r| 1.0 / Figure6Row::total(&r.mp)))
    }

    /// Arithmetic-mean speedup of out-of-order over multipass.
    pub fn ooo_over_mp(&self) -> f64 {
        mean(self.rows.iter().map(|r| Figure6Row::total(&r.mp) / Figure6Row::total(&r.ooo)))
    }

    /// Mean reduction in total stall cycles (everything but execution)
    /// achieved by multipass, as a fraction of baseline stalls.
    pub fn mp_stall_reduction(&self) -> f64 {
        mean(self.rows.iter().map(|r| {
            let base_stall = Figure6Row::total(&r.base) - r.base[0];
            let mp_stall = Figure6Row::total(&r.mp) - r.mp[0];
            if base_stall > 0.0 {
                1.0 - mp_stall / base_stall
            } else {
                0.0
            }
        }))
    }

    /// Per-benchmark reduction in *load* stall cycles.
    pub fn load_stall_reduction(&self, bench: &str) -> f64 {
        let r = self.rows.iter().find(|r| r.bench == bench).expect("unknown benchmark");
        if r.base[3] > 0.0 {
            1.0 - r.mp[3] / r.base[3]
        } else {
            0.0
        }
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    v.iter().sum::<f64>() / v.len() as f64
}

fn breakdown(result: &ff_engine::RunResult, norm: f64) -> [f64; 4] {
    let b = &result.stats.breakdown;
    [
        b.execution as f64 / norm,
        b.front_end as f64 / norm,
        b.other as f64 / norm,
        b.load as f64 / norm,
    ]
}

/// Runs the Figure 6 experiment over any result source (the serial
/// [`Suite`](crate::Suite) or a campaign artifact store).
pub fn figure6<S: ResultSource + ?Sized>(suite: &mut S) -> Figure6 {
    let benches = suite.benchmarks();
    let mut rows = Vec::new();
    for bench in benches {
        let base = suite.result(ModelKind::InOrder, HierKind::Base, bench).clone();
        let norm = base.stats.cycles as f64;
        let mp = suite.result(ModelKind::Multipass, HierKind::Base, bench).clone();
        let ooo = suite.result(ModelKind::Ooo, HierKind::Base, bench).clone();
        rows.push(Figure6Row {
            bench,
            base: breakdown(&base, norm),
            mp: breakdown(&mp, norm),
            ooo: breakdown(&ooo, norm),
        });
    }
    Figure6 { rows }
}

/// Figure 7: multipass and out-of-order speedups over in-order for the
/// three cache hierarchies.
#[derive(Clone, Debug)]
pub struct Figure7 {
    /// One entry per hierarchy, in paper order (base, config1, config2).
    pub configs: Vec<Figure7Config>,
}

/// Speedups under one hierarchy.
#[derive(Clone, Debug)]
pub struct Figure7Config {
    /// Hierarchy name.
    pub name: &'static str,
    /// Per-benchmark `(bench, mp_speedup, ooo_speedup)`.
    pub rows: Vec<(&'static str, f64, f64)>,
}

impl Figure7Config {
    /// Mean multipass speedup under this hierarchy.
    pub fn mean_mp(&self) -> f64 {
        mean(self.rows.iter().map(|r| r.1))
    }

    /// Mean out-of-order speedup under this hierarchy.
    pub fn mean_ooo(&self) -> f64 {
        mean(self.rows.iter().map(|r| r.2))
    }

    /// The MP:OOO gap (1.0 = parity).
    pub fn gap(&self) -> f64 {
        self.mean_ooo() / self.mean_mp()
    }
}

/// Runs the Figure 7 experiment.
pub fn figure7<S: ResultSource + ?Sized>(suite: &mut S) -> Figure7 {
    let benches = suite.benchmarks();
    let mut configs = Vec::new();
    for hier in [HierKind::Base, HierKind::Config1, HierKind::Config2] {
        let mut rows = Vec::new();
        for bench in &benches {
            let base = suite.cycles(ModelKind::InOrder, hier, bench) as f64;
            let mp = suite.cycles(ModelKind::Multipass, hier, bench) as f64;
            let ooo = suite.cycles(ModelKind::Ooo, hier, bench) as f64;
            rows.push((*bench, base / mp, base / ooo));
        }
        configs.push(Figure7Config { name: hier.name(), rows });
    }
    Figure7 { configs }
}

/// Figure 8: the percentage of the full multipass speedup retained when
/// one of the two key mechanisms is disabled.
#[derive(Clone, Debug)]
pub struct Figure8 {
    /// Per-benchmark `(bench, pct_without_regrouping, pct_without_restart)`.
    pub rows: Vec<(&'static str, f64, f64)>,
}

/// Runs the Figure 8 ablation.
pub fn figure8<S: ResultSource + ?Sized>(suite: &mut S) -> Figure8 {
    let benches = suite.benchmarks();
    let mut rows = Vec::new();
    for bench in benches {
        let base = suite.cycles(ModelKind::InOrder, HierKind::Base, bench) as f64;
        let full = suite.cycles(ModelKind::Multipass, HierKind::Base, bench) as f64;
        let noregroup = suite.cycles(ModelKind::MpNoRegroup, HierKind::Base, bench) as f64;
        let norestart = suite.cycles(ModelKind::MpNoRestart, HierKind::Base, bench) as f64;
        let full_speedup = base / full - 1.0;
        let pct = |cycles: f64| {
            let s = base / cycles - 1.0;
            if full_speedup > 1e-9 {
                100.0 * s / full_speedup
            } else {
                100.0
            }
        };
        rows.push((bench, pct(noregroup), pct(norestart)));
    }
    Figure8 { rows }
}

/// §5.2: multipass vs the realistic decentralized out-of-order design.
#[derive(Clone, Debug)]
pub struct RealisticOooResult {
    /// Per-benchmark `(bench, mp_speedup_over_realistic_ooo)`.
    pub rows: Vec<(&'static str, f64)>,
}

impl RealisticOooResult {
    /// Mean multipass speedup over the realistic out-of-order design
    /// (the paper reports 1.05×).
    pub fn mean(&self) -> f64 {
        mean(self.rows.iter().map(|r| r.1))
    }
}

/// Runs the realistic-OOO comparison.
pub fn realistic_ooo<S: ResultSource + ?Sized>(suite: &mut S) -> RealisticOooResult {
    let benches = suite.benchmarks();
    let rows = benches
        .into_iter()
        .map(|bench| {
            let real = suite.cycles(ModelKind::OooRealistic, HierKind::Base, bench) as f64;
            let mp = suite.cycles(ModelKind::Multipass, HierKind::Base, bench) as f64;
            (bench, real / mp)
        })
        .collect();
    RealisticOooResult { rows }
}

/// §5.4: Dundas–Mudge runahead "only reduced half as many cycles as
/// multipass relative to in-order".
#[derive(Clone, Debug)]
pub struct RunaheadResult {
    /// Per-benchmark `(bench, runahead_cycle_reduction, mp_cycle_reduction)`
    /// as fractions of baseline cycles.
    pub rows: Vec<(&'static str, f64, f64)>,
}

impl RunaheadResult {
    /// Ratio of mean runahead cycle reduction to mean multipass cycle
    /// reduction (the paper's "half").
    pub fn reduction_ratio(&self) -> f64 {
        let ra = mean(self.rows.iter().map(|r| r.1));
        let mp = mean(self.rows.iter().map(|r| r.2));
        if mp > 1e-12 {
            ra / mp
        } else {
            0.0
        }
    }
}

/// Runs the runahead comparison.
pub fn runahead_compare<S: ResultSource + ?Sized>(suite: &mut S) -> RunaheadResult {
    let benches = suite.benchmarks();
    let rows = benches
        .into_iter()
        .map(|bench| {
            let base = suite.cycles(ModelKind::InOrder, HierKind::Base, bench) as f64;
            let ra = suite.cycles(ModelKind::Runahead, HierKind::Base, bench) as f64;
            let mp = suite.cycles(ModelKind::Multipass, HierKind::Base, bench) as f64;
            (bench, (base - ra) / base, (base - mp) / base)
        })
        .collect();
    RunaheadResult { rows }
}

/// Table 1: power ratios computed from the aggregate activity of the
/// Figure 6 out-of-order and multipass runs.
pub fn table1_experiment<S: ResultSource + ?Sized>(suite: &mut S) -> Vec<Table1Row> {
    let benches = suite.benchmarks();
    let mut ooo_act = Activity::new();
    let mut mp_act = Activity::new();
    for bench in benches {
        ooo_act += suite.result(ModelKind::Ooo, HierKind::Base, bench).activity;
        mp_act += suite.result(ModelKind::Multipass, HierKind::Base, bench).activity;
    }
    ff_power::table1(&ooo_act, &mp_act)
}

/// Table 2: the experimental machine configuration rows.
pub fn table2() -> Vec<(String, String)> {
    MachineConfig::itanium2_base().table2_rows()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::Suite;
    use ff_workloads::Scale;

    fn suite() -> Suite {
        Suite::new(Scale::Test)
    }

    #[test]
    fn figure6_has_twelve_normalized_rows() {
        let f = figure6(&mut suite());
        assert_eq!(f.rows.len(), 12);
        for r in &f.rows {
            let total = Figure6Row::total(&r.base);
            assert!((total - 1.0).abs() < 1e-9, "{}: base not normalized: {total}", r.bench);
            assert!(Figure6Row::total(&r.mp) > 0.0);
            assert!(Figure6Row::total(&r.ooo) > 0.0);
        }
    }

    #[test]
    fn figure6_ordering_holds_even_at_test_scale() {
        let f = figure6(&mut suite());
        // MP should on average beat the baseline; OOO should beat MP.
        assert!(f.mp_speedup() > 1.0, "MP mean speedup {}", f.mp_speedup());
        assert!(f.ooo_over_mp() > 0.9, "OOO/MP {}", f.ooo_over_mp());
    }

    #[test]
    fn figure8_percentages_are_sane() {
        let f = figure8(&mut suite());
        for (bench, noregroup, norestart) in &f.rows {
            assert!((-150.0..=180.0).contains(noregroup), "{bench} noregroup {noregroup}");
            assert!((-150.0..=180.0).contains(norestart), "{bench} norestart {norestart}");
        }
    }

    #[test]
    fn table1_has_three_rows() {
        let rows = table1_experiment(&mut suite());
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.peak_ratio > 0.0 && r.average_ratio > 0.0));
    }

    #[test]
    fn table2_matches_paper_values() {
        let rows = table2();
        assert!(rows.iter().any(|(k, v)| k == "Main Memory" && v == "145 cycles"));
        assert!(rows.iter().any(|(k, v)| k == "Multipass Instruction Queue" && v == "256 entry"));
    }
}
