//! Simulator-throughput measurement and the tracked perf trajectory.
//!
//! `cargo bench -p ff-bench --bench sim_throughput` measures how fast the
//! simulator itself runs — simulated cycles per wall-clock second and
//! retired instructions per second — for every execution model on a fixed
//! kernel set, in the event-driven tick mode every production run uses.
//! Results are written to
//! `BENCH_<git-describe>.json` at the repository root so the trajectory of
//! simulator performance is tracked in version control, and the CI
//! `perf-gate` job compares a fresh measurement against the committed
//! `BENCH_main.json`, failing on a >10% cycles/sec regression for any
//! model.
//!
//! Measurement protocol (steady state, not cold start):
//!
//! 1. A warm-up run executes until [`WARMUP_RETIREMENTS`] instructions
//!    have retired; everything before that point (allocator warm-up, host
//!    cache/branch-predictor training, workload generation) is excluded
//!    from timing. A kernel that retires fewer instructions than the
//!    threshold has no steady state to measure — that is a hard error,
//!    not a silent short sample.
//! 2. Timed repetitions of the full run then accumulate simulated cycles
//!    and retired instructions until at least [`MIN_SAMPLE`] of wall
//!    clock has elapsed, so rates are averaged over a window long enough
//!    to be stable.
//! 3. The whole measurement repeats [`MEASURE_PASSES`] times and the
//!    median pass (by cycles/sec) is recorded, so a single noisy
//!    scheduling hiccup cannot skew a trajectory point or trip the gate.
//!
//! Each entry also records the run's simulator self-instrumentation —
//! `select_visits` (issue-select examinations) and `alloc_count`
//! (in-flight container growth events) — alongside `retired`, so the
//! per-instruction cost of issue selection and the zero-steady-state-
//! allocation invariant are tracked in the same trajectory. The document
//! carries a host fingerprint (CPU model + core count); [`cli_main`]'s
//! `check` warns when it compares measurements from different hosts.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use ff_baselines::{InOrder, OutOfOrder, Runahead};
use ff_engine::{ExecutionModel, MachineConfig, Observes, PipelineProbe, RetireEvent, SimCase};
use ff_harness::json::Json;
use ff_multipass::Multipass;
use ff_workloads::{Scale, Workload};

/// Retirements excluded from the front of every measurement.
pub const WARMUP_RETIREMENTS: u64 = 2_000;

/// Minimum wall-clock window a rate is averaged over.
pub const MIN_SAMPLE: Duration = Duration::from_millis(200);

/// Default regression tolerance for [`compare`]: 10%.
pub const DEFAULT_TOLERANCE: f64 = 0.10;

/// Measurement passes per grid point; the median pass is recorded.
pub const MEASURE_PASSES: usize = 3;

/// Schema version of the `BENCH_*.json` files. Format 2 added the host
/// fingerprint and the per-entry `retired`/`select_visits`/`alloc_count`
/// counters.
pub const BENCH_FORMAT: u64 = 2;

/// The kernels every model is measured on. A mix of load-dominated
/// (`mcf`, `gap`) and compute-dominated (`art`, `mesa`) workloads, all
/// comfortably larger than the warm-up threshold at test scale.
pub const KERNELS: [&str; 4] = ["mcf", "gap", "art", "mesa"];

/// The execution models the perf gate covers.
pub const MODELS: [&str; 4] = ["inorder", "runahead", "ooo", "multipass"];

fn build_model(name: &str, machine: MachineConfig) -> Box<dyn ExecutionModel> {
    match name {
        "inorder" => Box::new(InOrder::new(machine)),
        "runahead" => Box::new(Runahead::new(machine)),
        "ooo" => Box::new(OutOfOrder::new(machine)),
        "multipass" => Box::new(Multipass::new(machine)),
        other => panic!("unknown model `{other}`"),
    }
}

/// One measured (model, kernel) throughput sample.
#[derive(Clone, Debug, PartialEq)]
pub struct Rate {
    /// Execution model name (one of [`MODELS`]).
    pub model: String,
    /// Kernel name (one of [`KERNELS`]).
    pub kernel: String,
    /// Tick mode name: `event` for every fresh measurement. Older
    /// documents (`BENCH_main.json`) also hold `polling` entries, which
    /// [`per_model_geomean`] skips.
    pub tick: String,
    /// Simulated cycles per wall-clock second, steady state.
    pub cycles_per_sec: f64,
    /// Retired instructions per wall-clock second, steady state.
    pub insts_per_sec: f64,
    /// Full simulation repetitions inside the timed window.
    pub reps: u64,
    /// Instructions retired by one full run (deterministic per grid
    /// point; the denominator for the per-instruction counters below).
    pub retired: u64,
    /// Issue-select entries examined over one full run (tick-mode
    /// invariant simulator self-instrumentation).
    pub select_visits: u64,
    /// In-flight container growth events over one full run. Flat after
    /// warm-up; growth proportional to `retired` means a container is
    /// being reallocated on the hot path.
    pub alloc_count: u64,
}

/// Marks the wall-clock instant and simulated cycle at which the warm-up
/// threshold was crossed.
struct WarmupProbe {
    threshold: u64,
    seen: u64,
    mark: Option<(Instant, u64)>,
}

impl PipelineProbe for WarmupProbe {
    fn observes(&self) -> Observes {
        Observes::Retirements
    }

    fn on_retire(&mut self, event: &RetireEvent) {
        self.seen += 1;
        if self.seen == self.threshold {
            self.mark = Some((Instant::now(), event.cycle));
        }
    }
}

/// One pass of the steady-state measurement core.
#[derive(Debug)]
struct Sample {
    cycles_per_sec: f64,
    insts_per_sec: f64,
    reps: u64,
    retired: u64,
    select_visits: u64,
    alloc_count: u64,
}

/// Steady-state measurement core: warm-up guard plus timed repetitions.
/// Split out of [`measure_one`] so the guard is testable on programs
/// smaller than the production threshold.
fn steady_rate(
    m: &mut dyn ExecutionModel,
    case: &SimCase<'_>,
    warmup: u64,
    min_sample: Duration,
) -> Result<Sample, String> {
    // Warm-up run: the first `warmup` retirements train the host
    // (allocator, caches, branch predictors) and are excluded.
    let mut warm = WarmupProbe { threshold: warmup, seen: 0, mark: None };
    let first = m.run_observed(case, &mut warm).map_err(|e| e.to_string())?;
    let Some((start, warm_cycle)) = warm.mark else {
        return Err(format!(
            "kernel retired only {} instructions — fewer than the warm-up \
             threshold {warmup}; it has no steady state to measure",
            first.stats.retired
        ));
    };
    let mut cycles = first.stats.cycles - warm_cycle;
    let mut insts = first.stats.retired - warmup;
    // Self-instrumentation is deterministic per grid point, so one run's
    // counters describe every repetition.
    let retired = first.stats.retired;
    let select_visits = first.activity.select_visits;
    let alloc_count = first.activity.alloc_count;

    // Steady state: whole-run repetitions until the sample window is
    // long enough for a stable average.
    let mut reps = 0u64;
    while start.elapsed() < min_sample {
        let r = m.try_run(case).map_err(|e| e.to_string())?;
        cycles += r.stats.cycles;
        insts += r.stats.retired;
        reps += 1;
    }
    let secs = start.elapsed().as_secs_f64();
    Ok(Sample {
        cycles_per_sec: cycles as f64 / secs,
        insts_per_sec: insts as f64 / secs,
        reps,
        retired,
        select_visits,
        alloc_count,
    })
}

/// Measures steady-state simulator throughput for one grid point:
/// [`MEASURE_PASSES`] independent passes, recording the median pass by
/// cycles/sec so one scheduling hiccup cannot skew the trajectory.
///
/// # Errors
///
/// Fails when the kernel does not exist or retires fewer instructions
/// than the warm-up threshold (no steady state to measure).
pub fn measure_one(model: &str, kernel: &str) -> Result<Rate, String> {
    let w = Workload::by_name(kernel, Scale::Test)
        .ok_or_else(|| format!("unknown kernel `{kernel}`"))?;
    let machine = MachineConfig::itanium2_base();
    let case = SimCase::new(&w.program, w.mem.clone());
    let mut passes = Vec::with_capacity(MEASURE_PASSES);
    for _ in 0..MEASURE_PASSES {
        let mut m = build_model(model, machine);
        passes.push(
            steady_rate(&mut *m, &case, WARMUP_RETIREMENTS, MIN_SAMPLE)
                .map_err(|e| format!("kernel `{kernel}`: {e}"))?,
        );
    }
    passes.sort_by(|a, b| a.cycles_per_sec.total_cmp(&b.cycles_per_sec));
    let median = passes.swap_remove(passes.len() / 2);
    Ok(Rate {
        model: model.to_string(),
        kernel: kernel.to_string(),
        tick: "event".to_string(),
        cycles_per_sec: median.cycles_per_sec,
        insts_per_sec: median.insts_per_sec,
        reps: median.reps,
        retired: median.retired,
        select_visits: median.select_visits,
        alloc_count: median.alloc_count,
    })
}

/// Measures the full grid: every model x kernel.
///
/// # Errors
///
/// Propagates the first [`measure_one`] failure.
pub fn measure_all() -> Result<Vec<Rate>, String> {
    let mut out = Vec::new();
    for model in MODELS {
        for kernel in KERNELS {
            out.push(measure_one(model, kernel)?);
        }
    }
    Ok(out)
}

/// Host fingerprint recorded in every `BENCH_*.json`: the CPU model
/// (from `/proc/cpuinfo`, when readable) plus the logical core count.
/// Cycles/sec is a property of the (simulator, host) pair, so the gate
/// warns when it compares documents from different fingerprints.
pub fn host_fingerprint() -> String {
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1).map(|m| m.trim().to_string()))
        })
        .filter(|m| !m.is_empty())
        .unwrap_or_else(|| "unknown-cpu".to_string());
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0);
    format!("{model} ({cores} cores)")
}

/// Renders measurements to the `BENCH_*.json` document.
pub fn render_json(describe: &str, host: &str, rates: &[Rate]) -> String {
    let entries = rates
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("model", Json::Str(r.model.clone())),
                ("kernel", Json::Str(r.kernel.clone())),
                ("tick", Json::Str(r.tick.clone())),
                ("cycles_per_sec", Json::F64(r.cycles_per_sec)),
                ("insts_per_sec", Json::F64(r.insts_per_sec)),
                ("reps", Json::U64(r.reps)),
                ("retired", Json::U64(r.retired)),
                ("select_visits", Json::U64(r.select_visits)),
                ("alloc_count", Json::U64(r.alloc_count)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("format", Json::U64(BENCH_FORMAT)),
        ("describe", Json::Str(describe.to_string())),
        ("host", Json::Str(host.to_string())),
        ("warmup_retirements", Json::U64(WARMUP_RETIREMENTS)),
        ("measure_passes", Json::U64(MEASURE_PASSES as u64)),
        ("entries", Json::Arr(entries)),
    ])
    .render()
}

fn str_field(obj: &Json, key: &str) -> Result<String, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field `{key}`"))
}

fn f64_field(obj: &Json, key: &str) -> Result<f64, String> {
    obj.get(key).and_then(Json::as_f64).ok_or_else(|| format!("missing number field `{key}`"))
}

/// Parses a `BENCH_*.json` document back into measurements.
///
/// # Errors
///
/// Fails on malformed JSON or a missing/mistyped field.
pub fn parse_json(text: &str) -> Result<Vec<Rate>, String> {
    let doc = Json::parse(text)?;
    let format = doc.get("format").and_then(Json::as_u64).ok_or("missing format")?;
    if format != BENCH_FORMAT {
        return Err(format!("unsupported bench format {format} (expected {BENCH_FORMAT})"));
    }
    let entries = doc.get("entries").and_then(Json::as_arr).ok_or("missing entries")?;
    entries
        .iter()
        .map(|e| {
            Ok(Rate {
                model: str_field(e, "model")?,
                kernel: str_field(e, "kernel")?,
                tick: str_field(e, "tick")?,
                cycles_per_sec: f64_field(e, "cycles_per_sec")?,
                insts_per_sec: f64_field(e, "insts_per_sec")?,
                reps: e.get("reps").and_then(Json::as_u64).ok_or("missing reps")?,
                retired: e.get("retired").and_then(Json::as_u64).ok_or("missing retired")?,
                select_visits: e
                    .get("select_visits")
                    .and_then(Json::as_u64)
                    .ok_or("missing select_visits")?,
                alloc_count: e
                    .get("alloc_count")
                    .and_then(Json::as_u64)
                    .ok_or("missing alloc_count")?,
            })
        })
        .collect()
}

/// The host fingerprint recorded in a `BENCH_*.json` document.
///
/// # Errors
///
/// Fails on malformed JSON or a missing `host` field.
pub fn parse_host(text: &str) -> Result<String, String> {
    let doc = Json::parse(text)?;
    str_field(&doc, "host")
}

/// Per-model geometric mean of `cycles_per_sec` over every kernel, for
/// the shipping (event-driven) tick mode.
pub fn per_model_geomean(rates: &[Rate]) -> Vec<(String, f64)> {
    MODELS
        .iter()
        .filter_map(|&model| {
            let samples: Vec<f64> = rates
                .iter()
                .filter(|r| r.model == model && r.tick == "event")
                .map(|r| r.cycles_per_sec)
                .collect();
            if samples.is_empty() {
                return None;
            }
            let log_mean = samples.iter().map(|v| v.ln()).sum::<f64>() / samples.len() as f64;
            Some((model.to_string(), log_mean.exp()))
        })
        .collect()
}

/// Compares a fresh measurement against a committed baseline.
///
/// # Errors
///
/// One message per model whose event-driven cycles/sec geomean regressed
/// by more than `tolerance` (a fraction, e.g. `0.10`).
pub fn compare(baseline: &[Rate], current: &[Rate], tolerance: f64) -> Result<(), Vec<String>> {
    let base = per_model_geomean(baseline);
    let cur = per_model_geomean(current);
    let mut regressions = Vec::new();
    for (model, b) in &base {
        let Some((_, c)) = cur.iter().find(|(m, _)| m == model) else {
            regressions.push(format!("model `{model}` missing from current measurement"));
            continue;
        };
        if *c < b * (1.0 - tolerance) {
            regressions.push(format!(
                "{model}: {c:.0} cycles/sec vs baseline {b:.0} \
                 ({:+.1}% > {:.0}% tolerance)",
                (c / b - 1.0) * 100.0,
                tolerance * 100.0
            ));
        }
    }
    if regressions.is_empty() {
        Ok(())
    } else {
        Err(regressions)
    }
}

/// The repository root (two levels above this crate's manifest).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
}

/// Resolves a CLI path argument against the repository root when it is
/// relative. `cargo bench` runs the binary with the *package* directory
/// as its cwd, but `BENCH_*.json` trajectories live at the repo root —
/// anchoring there makes `--out BENCH_main.json` and
/// `--baseline BENCH_main.json` mean the committed file regardless of
/// how the binary was launched. Absolute paths pass through untouched.
fn resolve_path(p: &str) -> PathBuf {
    let path = Path::new(p);
    if path.is_absolute() {
        path.to_path_buf()
    } else {
        repo_root().join(path)
    }
}

/// `git describe --always --dirty` of the repository, or `dev` when git
/// is unavailable. Path separators are sanitized so the result is always
/// a valid file-name component.
pub fn git_describe() -> String {
    let out = Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .current_dir(repo_root())
        .output();
    match out {
        Ok(o) if o.status.success() => {
            let s = String::from_utf8_lossy(&o.stdout).trim().replace('/', "-");
            if s.is_empty() {
                "dev".to_string()
            } else {
                s
            }
        }
        _ => "dev".to_string(),
    }
}

fn print_table(rates: &[Rate]) {
    println!(
        "{:<10} {:<6} {:<8} {:>15} {:>15} {:>6} {:>12} {:>7}",
        "model", "kernel", "tick", "cycles/sec", "insts/sec", "reps", "visits/inst", "allocs"
    );
    for r in rates {
        let vpi = if r.retired > 0 { r.select_visits as f64 / r.retired as f64 } else { 0.0 };
        println!(
            "{:<10} {:<6} {:<8} {:>15.0} {:>15.0} {:>6} {:>12.2} {:>7}",
            r.model,
            r.kernel,
            r.tick,
            r.cycles_per_sec,
            r.insts_per_sec,
            r.reps,
            vpi,
            r.alloc_count
        );
    }
    println!();
    println!("per-model geomean (event-driven):");
    for (model, v) in per_model_geomean(rates) {
        println!("  {model:<10} {v:>15.0} cycles/sec");
    }
}

fn measure_and_write(out: Option<&str>) -> Result<Vec<Rate>, String> {
    let rates = measure_all()?;
    print_table(&rates);
    let describe = git_describe();
    let path = match out {
        Some(p) => resolve_path(p),
        None => repo_root().join(format!("BENCH_{describe}.json")),
    };
    std::fs::write(&path, render_json(&describe, &host_fingerprint(), &rates) + "\n")
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    Ok(rates)
}

/// CLI entry point shared by the bench target. Returns the process exit
/// code. Recognized usage (after cargo's own flags):
///
/// * `measure [--out FILE]` — measure and write `BENCH_<describe>.json`
///   (the default when no subcommand is given, so plain `cargo bench`
///   still records a trajectory point).
/// * `check --baseline FILE [--current FILE] [--tolerance FRAC]` —
///   measure (or load `--current`) and fail with exit code 1 when any
///   model's event-driven cycles/sec geomean regressed by more than the
///   tolerance vs the baseline file.
/// * `single MODEL KERNEL` — one grid point, printed only (used to
///   validate the warm-up guard).
pub fn cli_main(argv: &[String]) -> i32 {
    // Cargo's libtest-compatible flags (`--bench`, `--exact`, ...) are
    // not ours; drop them.
    let args: Vec<&str> =
        argv.iter().map(String::as_str).filter(|a| !a.starts_with("--bench")).collect();
    let sub = args.first().copied().unwrap_or("measure");
    let flag = |name: &str| -> Option<&str> {
        args.iter().position(|a| *a == name).and_then(|i| args.get(i + 1).copied())
    };
    match sub {
        "measure" => match measure_and_write(flag("--out")) {
            Ok(_) => 0,
            Err(e) => {
                eprintln!("error: {e}");
                1
            }
        },
        "check" => {
            let Some(baseline_path) = flag("--baseline") else {
                eprintln!("error: check requires --baseline FILE");
                return 2;
            };
            let tolerance = match flag("--tolerance").map(str::parse::<f64>) {
                None => DEFAULT_TOLERANCE,
                Some(Ok(t)) => t,
                Some(Err(e)) => {
                    eprintln!("error: bad --tolerance: {e}");
                    return 2;
                }
            };
            let baseline_text = match std::fs::read_to_string(resolve_path(baseline_path))
                .map_err(|e| format!("reading {baseline_path}: {e}"))
            {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: {e}");
                    return 2;
                }
            };
            let baseline = match parse_json(&baseline_text) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("error: {e}");
                    return 2;
                }
            };
            // Cross-host comparisons are advisory, not gating: the rates
            // measure the (simulator, host) pair.
            if let Ok(base_host) = parse_host(&baseline_text) {
                let here = host_fingerprint();
                if base_host != here {
                    eprintln!(
                        "warning: baseline host `{base_host}` differs from this host \
                         `{here}` — absolute rates are not comparable across hosts"
                    );
                }
            }
            let current = match flag("--current") {
                Some(p) => match std::fs::read_to_string(resolve_path(p))
                    .map_err(|e| format!("reading {p}: {e}"))
                    .and_then(|t| parse_json(&t))
                {
                    Ok(c) => c,
                    Err(e) => {
                        eprintln!("error: {e}");
                        return 2;
                    }
                },
                None => match measure_and_write(None) {
                    Ok(c) => c,
                    Err(e) => {
                        eprintln!("error: {e}");
                        return 1;
                    }
                },
            };
            match compare(&baseline, &current, tolerance) {
                Ok(()) => {
                    println!(
                        "perf-gate: OK (no model regressed by more than {:.0}%)",
                        tolerance * 100.0
                    );
                    0
                }
                Err(regressions) => {
                    eprintln!("perf-gate: FAIL");
                    for r in regressions {
                        eprintln!("  {r}");
                    }
                    1
                }
            }
        }
        "single" => {
            let (Some(model), Some(kernel)) = (args.get(1), args.get(2)) else {
                eprintln!("usage: single MODEL KERNEL");
                return 2;
            };
            match measure_one(model, kernel) {
                Ok(r) => {
                    print_table(std::slice::from_ref(&r));
                    0
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    1
                }
            }
        }
        other => {
            eprintln!("error: unknown subcommand `{other}` (expected measure|check|single)");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rate(model: &str, kernel: &str, tick: &str, cps: f64) -> Rate {
        Rate {
            model: model.into(),
            kernel: kernel.into(),
            tick: tick.into(),
            cycles_per_sec: cps,
            insts_per_sec: cps / 3.0,
            reps: 5,
            retired: 10_000,
            select_visits: 12_345,
            alloc_count: 4,
        }
    }

    #[test]
    fn json_round_trips() {
        let rates = vec![
            rate("inorder", "mcf", "event", 1.5e6),
            rate("multipass", "gap", "polling", 2.0e6),
        ];
        let text = render_json("v1.2-3-gabc", "test-cpu (8 cores)", &rates);
        let back = parse_json(&text).unwrap();
        assert_eq!(back, rates);
        assert_eq!(parse_host(&text).unwrap(), "test-cpu (8 cores)");
    }

    #[test]
    fn fingerprint_is_nonempty_and_counts_cores() {
        let h = host_fingerprint();
        assert!(h.contains("cores"), "{h}");
    }

    #[test]
    fn geomean_uses_only_event_entries() {
        let rates = vec![
            rate("inorder", "mcf", "event", 1.0e6),
            rate("inorder", "gap", "event", 4.0e6),
            rate("inorder", "mcf", "polling", 9.9e9),
        ];
        let g = per_model_geomean(&rates);
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].0, "inorder");
        assert!((g[0].1 - 2.0e6).abs() < 1.0, "geomean of 1M and 4M is 2M, got {}", g[0].1);
    }

    #[test]
    fn compare_flags_regressions_beyond_tolerance() {
        let baseline = vec![rate("inorder", "mcf", "event", 1.0e6)];
        // 5% slower: within the 10% tolerance.
        assert!(compare(&baseline, &[rate("inorder", "mcf", "event", 0.95e6)], 0.10).is_ok());
        // 20% slower: regression.
        let err = compare(&baseline, &[rate("inorder", "mcf", "event", 0.8e6)], 0.10).unwrap_err();
        assert_eq!(err.len(), 1);
        assert!(err[0].contains("inorder"), "{}", err[0]);
        // Missing model: regression.
        assert!(compare(&baseline, &[], 0.10).is_err());
    }

    #[test]
    fn compare_allows_improvements() {
        let baseline = vec![rate("multipass", "art", "event", 1.0e6)];
        assert!(compare(&baseline, &[rate("multipass", "art", "event", 5.0e6)], 0.10).is_ok());
    }

    #[test]
    fn unknown_kernels_are_rejected() {
        assert!(measure_one("inorder", "nosuch").is_err());
    }

    #[test]
    fn tiny_kernels_fail_the_warmup_guard_loudly() {
        use ff_isa::{Inst, MemoryImage, Op, Program};
        // A three-instruction program cannot cross any realistic warm-up
        // threshold: the guard must refuse to time it instead of
        // reporting a bogus cold-start rate.
        let mut p = Program::new();
        let b = p.add_block();
        p.push(b, Inst::new(Op::Nop));
        p.push(b, Inst::new(Op::Nop));
        p.push(b, Inst::new(Op::Halt));
        let case = SimCase::new(&p, MemoryImage::new());
        let mut m = build_model("inorder", MachineConfig::itanium2_base());
        let err = steady_rate(&mut *m, &case, 100, Duration::from_millis(1)).unwrap_err();
        assert!(err.contains("warm-up threshold 100"), "{err}");
    }

    #[test]
    fn describe_is_filename_safe() {
        let d = git_describe();
        assert!(!d.is_empty());
        assert!(!d.contains('/'), "{d}");
    }
}
