//! Crash bundles: a replayable record of a failed campaign job.
//!
//! When a simulation job exhausts its attempts with a panic, timeout, or
//! invariant violation, the campaign writes a small JSON bundle under
//! `<out_dir>/bundles/` carrying the exact grid coordinates (model,
//! hierarchy, benchmark, seed, scale — enough to regenerate the workload
//! deterministically via `Workload::by_name_seeded`), the classified
//! error, any sentinel violations, and the last retirements observed
//! before the failure.
//!
//! Campaign attempts run unobserved, so a job that succeeds records
//! nothing. The trail and the violations come from a deterministic
//! replay: [`attempt_job`](crate::campaign::attempt_job) re-runs a failed
//! attempt once under a [`RetireRing`] of [`BUNDLE_RETIREMENTS`], and a
//! probe never changes a run, so the replay fails at the same point with
//! the same trail a live recording would have kept.
//!
//! `examples/compare_divergence.rs --bundle <path>`
//! consumes a bundle to replay the job against the golden interpreter and
//! print the `ff-debug` first-divergence triage report.

use std::path::{Path, PathBuf};

use ff_engine::RetireRing;

use crate::error::JobError;
use crate::job::{scale_name, JobKind, JobSpec};
use crate::json::Json;

/// Subdirectory of the campaign output directory holding crash bundles.
pub const BUNDLE_DIR: &str = "bundles";

/// How many trailing retirements a bundle retains.
pub const BUNDLE_RETIREMENTS: usize = 32;

/// A replayable record of one failed simulation job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrashBundle {
    /// The job id ([`JobSpec::id`]).
    pub job_id: String,
    /// Model name ([`ff_experiments::ModelKind::name`]).
    pub model: String,
    /// Hierarchy name ([`ff_experiments::HierKind::name`]).
    pub hier: String,
    /// Benchmark name.
    pub bench: String,
    /// Workload-generator seed.
    pub seed: u64,
    /// Scale name (`test`/`paper`).
    pub scale: String,
    /// The watchdog budget the job ran under, if any.
    pub cycle_budget: Option<u64>,
    /// The classified failure.
    pub error: JobError,
    /// Sentinel violations observed during the failing attempt.
    pub violations: Vec<String>,
    /// Total dynamic instructions retired before the failure.
    pub retired_total: u64,
    /// The last retirements before the failure, oldest first (rendered
    /// [`ff_engine::RetireEvent`] lines).
    pub last_retirements: Vec<String>,
}

impl CrashBundle {
    /// Builds a bundle for a failed simulation job from the replay of its
    /// failing attempt: the violations it reported and the `ring` it
    /// retired into. Report jobs have nothing to replay and yield `None`.
    pub fn for_failure(
        spec: &JobSpec,
        cycle_budget: Option<u64>,
        error: &JobError,
        violations: &[String],
        ring: &RetireRing,
    ) -> Option<CrashBundle> {
        let JobKind::Sim { model, hier, bench, seed } = &spec.kind else {
            return None;
        };
        Some(CrashBundle {
            job_id: spec.id(),
            model: model.name().to_string(),
            hier: hier.name().to_string(),
            bench: (*bench).to_string(),
            seed: *seed,
            scale: scale_name(spec.scale).to_string(),
            cycle_budget,
            error: error.clone(),
            violations: violations.to_vec(),
            retired_total: ring.total(),
            last_retirements: ring.events().map(|e| e.to_string()).collect(),
        })
    }

    /// The bundle's file name inside [`BUNDLE_DIR`].
    pub fn filename(&self) -> String {
        format!(
            "bundle-{}-{}-{}-s{}-{}.json",
            self.bench, self.model, self.hier, self.seed, self.scale
        )
    }

    fn to_json(&self) -> Json {
        let strings = |v: &[String]| Json::Arr(v.iter().map(|s| Json::Str(s.clone())).collect());
        Json::obj(vec![
            ("job_id", Json::Str(self.job_id.clone())),
            ("model", Json::Str(self.model.clone())),
            ("hier", Json::Str(self.hier.clone())),
            ("bench", Json::Str(self.bench.clone())),
            ("seed", Json::U64(self.seed)),
            ("scale", Json::Str(self.scale.clone())),
            (
                "cycle_budget",
                match self.cycle_budget {
                    Some(b) => Json::U64(b),
                    None => Json::Null,
                },
            ),
            ("error_kind", Json::Str(self.error.kind.name().into())),
            ("error", Json::Str(self.error.message.clone())),
            ("violations", strings(&self.violations)),
            ("retired_total", Json::U64(self.retired_total)),
            ("last_retirements", strings(&self.last_retirements)),
        ])
    }

    /// Writes the bundle under `out_dir/bundles/`, returning its path.
    ///
    /// # Errors
    ///
    /// On failure to create the bundle directory or write the file.
    pub fn write(&self, out_dir: &Path) -> std::io::Result<PathBuf> {
        let dir = out_dir.join(BUNDLE_DIR);
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(self.filename());
        std::fs::write(&path, self.to_json().render())?;
        Ok(path)
    }

    /// Reads a bundle file.
    ///
    /// # Errors
    ///
    /// On a missing, unparsable, or structurally invalid bundle.
    pub fn read(path: &Path) -> Result<CrashBundle, String> {
        use crate::error::JobErrorKind;
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
        let str_field = |key: &str| {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string `{key}`"))
        };
        let strings = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .map(|a| a.iter().filter_map(Json::as_str).map(str::to_string).collect())
                .unwrap_or_default()
        };
        let kind_name = str_field("error_kind")?;
        let kind = JobErrorKind::parse(&kind_name)
            .ok_or_else(|| format!("unknown error kind `{kind_name}`"))?;
        Ok(CrashBundle {
            job_id: str_field("job_id")?,
            model: str_field("model")?,
            hier: str_field("hier")?,
            bench: str_field("bench")?,
            seed: doc.get("seed").and_then(Json::as_u64).ok_or("missing integer `seed`")?,
            scale: str_field("scale")?,
            cycle_budget: doc.get("cycle_budget").and_then(Json::as_u64),
            error: JobError { kind, message: str_field("error")? },
            violations: strings("violations"),
            retired_total: doc.get("retired_total").and_then(Json::as_u64).unwrap_or(0),
            last_retirements: strings("last_retirements"),
        })
    }
}

/// The paths of every crash bundle under `out_dir`, sorted by file name.
/// An absent bundle directory is an empty list (a clean campaign never
/// creates it).
pub fn list_bundles(out_dir: &Path) -> Vec<PathBuf> {
    let dir = out_dir.join(BUNDLE_DIR);
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return Vec::new();
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    paths
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_experiments::{HierKind, ModelKind};
    use ff_workloads::Scale;

    fn sample() -> CrashBundle {
        let spec = JobSpec::sim(ModelKind::Multipass, HierKind::Config1, "mcf", 2, Scale::Test);
        let ring = RetireRing::new(4);
        CrashBundle::for_failure(
            &spec,
            Some(10),
            &JobError::timeout("cycle budget exceeded: 10 cycles simulated, 0 retired"),
            &["[mshr] cycle 7: leak".to_string()],
            &ring,
        )
        .expect("sim jobs produce bundles")
    }

    #[test]
    fn bundles_round_trip_through_disk() {
        let dir = std::env::temp_dir().join(format!("ff-bundle-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let b = sample();
        let path = b.write(&dir).unwrap();
        assert!(path.starts_with(dir.join(BUNDLE_DIR)));
        let back = CrashBundle::read(&path).unwrap();
        assert_eq!(back, b);
        assert_eq!(list_bundles(&dir), vec![path]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn report_jobs_yield_no_bundle() {
        let spec = JobSpec::report("unroll_effect", Scale::Test);
        let ring = RetireRing::new(4);
        assert!(CrashBundle::for_failure(&spec, None, &JobError::panic("x"), &[], &ring).is_none());
    }

    #[test]
    fn missing_bundle_dir_lists_empty() {
        let dir = std::env::temp_dir().join("ff-bundle-nonexistent");
        assert!(list_bundles(&dir).is_empty());
    }
}
