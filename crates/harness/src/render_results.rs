//! Regenerates every file under `results/` from campaign artifacts.
//!
//! Each file's body is rendered by the same `ff-experiments` code the
//! standalone bench targets use (they share [`ResultSource`]), so a
//! campaign-rendered file matches a bench-rendered one line for line; the
//! trailing `wall time` footer reports the campaign's wall time. The
//! source is generic: a [`crate::store::ArtifactStore`] over a local
//! artifact directory and one pointed at an `ff-server` render the same
//! bytes.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use ff_experiments::{
    csv, figure6, figure7, figure8, realistic_ooo, render, reports, runahead_compare,
    table1_experiment, table2, HierKind, ResultSource,
};
use ff_workloads::Scale;

use crate::campaign::{SENSITIVITY_MODELS, SENSITIVITY_SEEDS};

fn scale_header(scale: Scale) -> String {
    format!("{scale:?}")
}

/// Renders one results file's text from any [`ResultSource`]. `scale` is
/// the scale the source's artifacts were produced at; `wall_s` feeds the
/// footer of the files that historically report one.
fn render_file<S: ResultSource + ?Sized>(
    source: &mut S,
    scale: Scale,
    name: &str,
    wall_s: f64,
) -> Result<String, String> {
    let sc = scale_header(scale);
    let mut out = String::new();
    match name {
        "figure6_cycles.txt" => {
            let f = figure6(source);
            let _ = writeln!(out, "=== Figure 6: normalized execution cycles ({sc} scale) ===\n");
            let _ = writeln!(out, "{}", render::figure6(&f));
            let _ = writeln!(out, "{}", render::figure6_bars(&f));
            let _ = writeln!(out, "wall time: {wall_s:.1}s");
        }
        "figure7_hierarchies.txt" => {
            let f = figure7(source);
            let _ =
                writeln!(out, "=== Figure 7: speedups across cache hierarchies ({sc} scale) ===\n");
            let _ = writeln!(out, "{}", render::figure7(&f));
            let _ = writeln!(out, "wall time: {wall_s:.1}s");
        }
        "figure8_ablation.txt" => {
            let f = figure8(source);
            let _ = writeln!(
                out,
                "=== Figure 8: regrouping / advance-restart ablation ({sc} scale) ===\n"
            );
            let _ = writeln!(out, "{}", render::figure8(&f));
            let _ = writeln!(out, "wall time: {wall_s:.1}s");
        }
        "figure8_ablation.csv" => {
            let f = figure8(source);
            out = csv::figure8(&f);
        }
        "realistic_ooo.txt" => {
            let r = realistic_ooo(source);
            let _ =
                writeln!(out, "=== §5.2: multipass vs realistic out-of-order ({sc} scale) ===\n");
            let _ = writeln!(out, "{}", render::realistic_ooo(&r));
            let _ = writeln!(out, "wall time: {wall_s:.1}s");
        }
        "runahead_compare.txt" => {
            let r = runahead_compare(source);
            let _ =
                writeln!(out, "=== §5.4: Dundas-Mudge runahead vs multipass ({sc} scale) ===\n");
            let _ = writeln!(out, "{}", render::runahead(&r));
            let _ = writeln!(out, "wall time: {wall_s:.1}s");
        }
        "table1_power.txt" => {
            let rows = table1_experiment(source);
            let _ = writeln!(
                out,
                "=== Table 1: power ratios, out-of-order / multipass ({sc} scale) ===\n"
            );
            let _ = writeln!(out, "{}", ff_power::table1::render(&rows));
            let _ = writeln!(out, "paper reference: register/data 0.99 peak / 1.20 avg;");
            let _ = writeln!(out, "                 scheduling 10.28 peak / 7.15 avg;");
            let _ = writeln!(out, "                 memory ordering 3.21 peak / 9.79 avg");
            let _ = writeln!(out, "\nwall time: {wall_s:.1}s");
        }
        "table2_config.txt" => {
            let _ = writeln!(out, "=== Table 2: experimental machine configuration ===\n");
            for (feature, params) in table2() {
                let _ = writeln!(out, "{feature:<44} {params}");
            }
        }
        "memory_consistency.txt" => {
            out = reports::memory_consistency(source, scale);
        }
        "seed_sensitivity.txt" => {
            let mut seeds = vec![0u64];
            seeds.extend(SENSITIVITY_SEEDS);
            // All sensitivity models' artifacts must exist; the closure only
            // pulls what the report compares.
            debug_assert_eq!(SENSITIVITY_MODELS.len(), 2);
            out = reports::seed_sensitivity(scale, &seeds, |model, bench, seed| {
                source.result_seeded(model, HierKind::Base, bench, seed).stats.cycles
            });
        }
        "ablation_structures.txt" => {
            out = source.report_text("ablation_structures")?;
        }
        "unroll_effect.txt" => {
            out = source.report_text("unroll_effect")?;
        }
        other => return Err(format!("unknown results file `{other}`")),
    }
    Ok(out)
}

/// The results files a full campaign regenerates, in write order.
pub const RESULTS_FILES: [&str; 12] = [
    "figure6_cycles.txt",
    "figure7_hierarchies.txt",
    "figure8_ablation.txt",
    "figure8_ablation.csv",
    "realistic_ooo.txt",
    "runahead_compare.txt",
    "table1_power.txt",
    "table2_config.txt",
    "memory_consistency.txt",
    "seed_sensitivity.txt",
    "ablation_structures.txt",
    "unroll_effect.txt",
];

/// Renders every results file from `source` into `results_dir`.
///
/// # Errors
///
/// On a missing/corrupt artifact or an unwritable results directory.
pub fn render_all<S: ResultSource + ?Sized>(
    source: &mut S,
    scale: Scale,
    results_dir: &Path,
    wall_s: f64,
) -> Result<Vec<PathBuf>, String> {
    std::fs::create_dir_all(results_dir)
        .map_err(|e| format!("create {}: {e}", results_dir.display()))?;
    let mut written = Vec::new();
    for name in RESULTS_FILES {
        let text = render_file(source, scale, name, wall_s)?;
        let path = results_dir.join(name);
        std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
        written.push(path);
    }
    Ok(written)
}
