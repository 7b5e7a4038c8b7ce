//! Campaign execution: plan expansion, checkpointed parallel running,
//! retries, the per-job watchdog, and graceful degradation — panics are
//! isolated at the job boundary, failures are classified into the
//! [`JobError`] taxonomy, repeat offenders are quarantined, and every
//! terminal failure leaves a replayable [`CrashBundle`].
//!
//! The job lifecycle is shared with `ff-server`: both front ends check
//! the memo cache with [`ShardedStore::contains`], gate on the
//! [`Quarantine`] ledger only under `--quarantine-after`, and resolve a
//! miss through [`execute_job`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use ff_engine::{NullProbe, Observes, PipelineProbe, RetireEvent, RetireRing};
use ff_experiments::{reports, HierKind, ModelKind, Suite};
use ff_sentinel::{Reporter, Sentinel, SentinelSuite};
use ff_workloads::{Scale, Workload};

use crate::artifact::{render_report_artifact, render_sim_artifact};
use crate::bundle::{CrashBundle, BUNDLE_RETIREMENTS};
use crate::error::{JobError, JobErrorKind};
use crate::job::{JobKind, JobSpec, REPORT_NAMES};
use crate::pool::run_jobs;
use crate::quarantine::Quarantine;
use crate::store::ShardedStore;

/// Extra seeds (beyond the canonical seed 0) the full campaign runs for
/// the seed-sensitivity study, on the models it compares.
pub const SENSITIVITY_SEEDS: [u64; 3] = [1, 2, 3];

/// The models the seed-sensitivity study compares.
pub const SENSITIVITY_MODELS: [ModelKind; 2] = [ModelKind::InOrder, ModelKind::Multipass];

/// How a campaign run treats one job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Executed this run and wrote its artifact.
    Ok,
    /// Skipped: a valid artifact with a matching config hash already
    /// existed (checkpoint/resume, or an `ff-server` memoization hit).
    Cached,
    /// All attempts failed; no artifact written.
    Failed,
    /// Skipped without running: the quarantine ledger shows this config
    /// hash failing in `--quarantine-after` consecutive prior runs.
    Quarantined,
    /// Not yet executed. Batch campaigns never report this; it appears in
    /// the checkpoint manifests `ff-server` writes at graceful shutdown
    /// for jobs still queued or running.
    Pending,
}

impl JobStatus {
    /// Lower-case status name (manifest field).
    pub fn name(self) -> &'static str {
        match self {
            JobStatus::Ok => "ok",
            JobStatus::Cached => "cached",
            JobStatus::Failed => "failed",
            JobStatus::Quarantined => "quarantined",
            JobStatus::Pending => "pending",
        }
    }
}

/// The record of one job after a campaign run.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// The job.
    pub spec: JobSpec,
    /// How it ended.
    pub status: JobStatus,
    /// The last classified error, for failed or quarantined jobs.
    pub error: Option<JobError>,
    /// Wall time spent executing (0 for cached jobs).
    pub wall_ms: u64,
    /// Attempts made (0 for cached or quarantined jobs).
    pub attempts: u32,
}

impl JobOutcome {
    /// The outcome of a job that made no attempt: cached, quarantined,
    /// pending, or lost with its worker.
    pub fn unrun(spec: &JobSpec, status: JobStatus, error: Option<JobError>) -> JobOutcome {
        JobOutcome { spec: spec.clone(), status, error, wall_ms: 0, attempts: 0 }
    }
}

/// The result of one campaign run.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Per-job outcomes, in plan order.
    pub outcomes: Vec<JobOutcome>,
    /// Total wall time of the run in seconds.
    pub wall_s: f64,
    /// Worker threads used.
    pub workers: usize,
    /// Workload scale.
    pub scale: Scale,
}

impl CampaignReport {
    /// Jobs executed this run.
    pub fn ok(&self) -> usize {
        self.outcomes.iter().filter(|o| o.status == JobStatus::Ok).count()
    }

    /// Jobs skipped because their artifact was already checkpointed.
    pub fn cached(&self) -> usize {
        self.outcomes.iter().filter(|o| o.status == JobStatus::Cached).count()
    }

    /// Jobs that exhausted their attempts.
    pub fn failed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.status == JobStatus::Failed).count()
    }

    /// Jobs skipped by the quarantine ledger.
    pub fn quarantined(&self) -> usize {
        self.outcomes.iter().filter(|o| o.status == JobStatus::Quarantined).count()
    }

    /// The failed outcomes.
    pub fn failures(&self) -> Vec<&JobOutcome> {
        self.outcomes.iter().filter(|o| o.status == JobStatus::Failed).collect()
    }

    /// The quarantined outcomes.
    pub fn quarantined_jobs(&self) -> Vec<&JobOutcome> {
        self.outcomes.iter().filter(|o| o.status == JobStatus::Quarantined).collect()
    }
}

/// Deterministic fault injection for the checkpoint/resume and
/// panic-isolation tests: every job whose id contains `id_substring`
/// fails its first `times` attempts, by error return or by panic.
#[derive(Clone, Debug, Default)]
pub struct FailureInjection {
    /// Substring of [`JobSpec::id`] selecting the victim jobs.
    pub id_substring: String,
    /// Attempts to fail before succeeding.
    pub times: u32,
    /// Fail by panicking inside the compute closure instead of returning
    /// an error, to exercise the panic-isolation path.
    pub panic: bool,
}

/// The execution-affecting knobs of one job attempt — everything that
/// changes *how* a simulation runs but not *what* it computes. Shared by
/// the batch runner ([`run_campaign`]) and the `ff-server` workers, so a
/// served artifact is byte-identical to a CLI-produced one by
/// construction: both call [`attempt_job`] with the same `ExecOptions`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecOptions {
    /// Per-job watchdog: abort a simulation after this many cycles and
    /// mark it `failed: timeout` instead of hanging the campaign.
    pub cycle_budget: Option<u64>,
    /// Run every simulation under the full `ff-sentinel` invariant
    /// checker set; a violation fails the job as `invariant-violation`.
    pub sentinels: bool,
}

/// Options for one campaign run.
#[derive(Clone, Debug)]
pub struct CampaignOptions {
    /// Workload scale.
    pub scale: Scale,
    /// Worker threads (`--jobs`).
    pub workers: usize,
    /// Attempts per job (>= 1).
    pub attempts: u32,
    /// How each attempt runs: the watchdog budget and sentinels.
    pub exec: ExecOptions,
    /// Artifact directory.
    pub out_dir: PathBuf,
    /// Re-run jobs even when a valid artifact exists; also bypasses the
    /// quarantine ledger so a fixed config gets its retrial.
    pub force: bool,
    /// Emit live progress/ETA lines on stderr.
    pub progress: bool,
    /// Skip jobs that failed this many consecutive prior runs
    /// (`--quarantine-after N`). `None` disables the ledger entirely.
    pub quarantine_after: Option<u32>,
    /// Test-only fault injection.
    pub inject: Option<FailureInjection>,
}

impl CampaignOptions {
    /// Sensible defaults for `scale` writing into `out_dir`.
    pub fn new(scale: Scale, out_dir: impl Into<PathBuf>) -> Self {
        CampaignOptions {
            scale,
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            attempts: 1,
            exec: ExecOptions::default(),
            out_dir: out_dir.into(),
            force: false,
            progress: false,
            quarantine_after: None,
            inject: None,
        }
    }
}

/// Expands the full `run --all` plan for `scale`: the complete
/// (model × hierarchy × benchmark) grid at seed 0, the extra
/// seed-sensitivity points, and the standalone report jobs — everything
/// needed to regenerate every file under `results/`.
pub fn full_grid(scale: Scale) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    // The report jobs are by far the longest (each runs its own config
    // sweep); scheduling them first lets them overlap the whole grid
    // instead of serializing at the tail of the campaign.
    for name in REPORT_NAMES {
        jobs.push(JobSpec::report(name, scale));
    }
    for model in ModelKind::ALL {
        for hier in HierKind::ALL {
            for bench in Workload::NAMES {
                jobs.push(JobSpec::sim(model, hier, bench, 0, scale));
            }
        }
    }
    for seed in SENSITIVITY_SEEDS {
        for model in SENSITIVITY_MODELS {
            for bench in Workload::NAMES {
                jobs.push(JobSpec::sim(model, HierKind::Base, bench, seed, scale));
            }
        }
    }
    jobs
}

/// [`full_grid`] for `scale` with each job's [`JobSpec::config_hash`],
/// built on first use and then shared by the whole process. A campaign's
/// plan is a subsequence of it (see [`crate::CampaignRequest::expand`]),
/// so a long-running server's campaigns index this one copy instead of
/// each holding and hashing its own.
pub fn hashed_grid(scale: Scale) -> &'static [(JobSpec, u64)] {
    static GRIDS: [OnceLock<Vec<(JobSpec, u64)>>; 2] = [OnceLock::new(), OnceLock::new()];
    let slot = match scale {
        Scale::Test => 0,
        Scale::Paper => 1,
    };
    GRIDS[slot].get_or_init(|| {
        full_grid(scale)
            .into_iter()
            .map(|spec| {
                let hash = spec.config_hash();
                (spec, hash)
            })
            .collect()
    })
}

/// The job of either scale's [`hashed_grid`] whose config hash is `hash`,
/// found in a hash-ordered index over both grids, built on first use.
pub(crate) fn grid_spec(hash: u64) -> Option<&'static JobSpec> {
    static INDEX: OnceLock<Vec<(u64, &'static JobSpec)>> = OnceLock::new();
    let index = INDEX.get_or_init(|| {
        let mut index: Vec<_> = [Scale::Test, Scale::Paper]
            .into_iter()
            .flat_map(|scale| hashed_grid(scale).iter().map(|(spec, hash)| (*hash, spec)))
            .collect();
        index.sort_unstable_by_key(|&(hash, _)| hash);
        index
    });
    let at = index.binary_search_by_key(&hash, |&(hash, _)| hash).ok()?;
    Some(index[at].1)
}

/// A sim-grid filter (`--filter model=MP bench=mcf`). Empty lists match
/// everything; report jobs pass only an unconstrained filter.
#[derive(Clone, Debug, Default)]
pub struct JobFilter {
    /// Models to keep.
    pub models: Vec<ModelKind>,
    /// Hierarchies to keep.
    pub hiers: Vec<HierKind>,
    /// Benchmarks to keep.
    pub benches: Vec<String>,
    /// Seeds to keep.
    pub seeds: Vec<u64>,
}

impl JobFilter {
    /// Whether any constraint is set.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
            && self.hiers.is_empty()
            && self.benches.is_empty()
            && self.seeds.is_empty()
    }

    /// Whether `spec` passes the filter.
    pub fn matches(&self, spec: &JobSpec) -> bool {
        match &spec.kind {
            JobKind::Sim { model, hier, bench, seed } => {
                (self.models.is_empty() || self.models.contains(model))
                    && (self.hiers.is_empty() || self.hiers.contains(hier))
                    && (self.benches.is_empty() || self.benches.iter().any(|b| b == bench))
                    && (self.seeds.is_empty() || self.seeds.contains(seed))
            }
            // Reports aggregate the whole suite; they only run unfiltered.
            JobKind::Report { .. } => self.is_empty(),
        }
    }
}

/// What a failed attempt leaves behind for the crash-bundle writer: the
/// trailing retirements and any sentinel violations. Filled only by the
/// deterministic replay of a failed attempt (see [`attempt_job`]), so a
/// bundle only ever describes the final, failing attempt.
struct AttemptDebris {
    ring: RetireRing,
    violations: Vec<String>,
}

impl AttemptDebris {
    fn new() -> Self {
        AttemptDebris { ring: RetireRing::new(BUNDLE_RETIREMENTS), violations: Vec::new() }
    }
}

/// The record of one panic-isolated job attempt: the rendered artifact on
/// success, a classified [`JobError`] otherwise, plus the crash-bundle
/// debris (trailing retirements, sentinel violations) of the failed
/// attempt's replay.
pub struct Attempt {
    /// The rendered artifact text, or the classified failure.
    pub result: Result<String, JobError>,
    debris: AttemptDebris,
}

impl Attempt {
    /// An attempt carrying `result` and no crash-bundle debris, for
    /// injected executors (scheduler tests, latched fakes) that bypass
    /// [`attempt_job`].
    pub fn synthetic(result: Result<String, JobError>) -> Attempt {
        Attempt { result, debris: AttemptDebris::new() }
    }

    /// Writes a replayable crash bundle under `out_dir/bundles/` when this
    /// attempt failed with a cause worth replaying (anything the
    /// simulation itself produced; transient `Other` errors have nothing
    /// to replay). Returns the bundle path if one was written.
    fn write_crash_bundle(
        &self,
        out_dir: &Path,
        spec: &JobSpec,
        cycle_budget: Option<u64>,
    ) -> Option<PathBuf> {
        let err = self.result.as_ref().err()?;
        if err.kind == JobErrorKind::Other {
            return None;
        }
        let bundle = CrashBundle::for_failure(
            spec,
            cycle_budget,
            err,
            &self.debris.violations,
            &self.debris.ring,
        )?;
        match bundle.write(out_dir) {
            Ok(path) => Some(path),
            Err(e) => {
                eprintln!("warning: could not write crash bundle for {}: {e}", spec.id());
                None
            }
        }
    }
}

/// Hands the retirement stream inside a `--sentinels` suite on to the
/// run's own observer (the crash-bundle ring of a replay), so the run
/// still takes a single probe.
struct Retirements<'p>(&'p mut dyn PipelineProbe);

impl Sentinel for Retirements<'_> {
    fn name(&self) -> &'static str {
        "retirements"
    }

    fn on_retire(&mut self, event: &RetireEvent, _: &mut Reporter<'_>) {
        self.0.on_retire(event);
    }
}

fn compute_artifact(
    spec: &JobSpec,
    exec: &ExecOptions,
    observer: &mut dyn PipelineProbe,
    violations: &mut Vec<String>,
) -> Result<String, JobError> {
    match &spec.kind {
        JobKind::Sim { model, hier, bench, seed } => {
            // Each job generates its own workload (a few ms) rather than
            // keeping one per worker: the case takes the input image, and
            // the run's state shares its unwritten pages copy-on-write.
            let w = Workload::by_name_seeded(bench, spec.scale, *seed)
                .expect("plan uses known benchmarks");
            let mut case = ff_engine::SimCase::new(&w.program, w.mem);
            if let Some(budget) = exec.cycle_budget {
                case = case.with_cycle_budget(budget);
            }
            let mut m = Suite::build_model(*model, *hier);
            let outcome = if exec.sentinels {
                let mut suite = SentinelSuite::with_golden(&case);
                if observer.observes() >= Observes::Retirements {
                    suite.add(Retirements(observer));
                }
                let report = suite.check(m.as_mut(), &case);
                if !report.violations.is_empty() {
                    *violations = report.violations.iter().map(|v| v.to_string()).collect();
                    let first = &report.violations[0];
                    let extra = report.violations.len() - 1;
                    let msg = if extra == 0 {
                        first.to_string()
                    } else {
                        format!("{first} (+{extra} more)")
                    };
                    return Err(JobError::invariant(msg));
                }
                report.outcome
            } else {
                m.run_observed(&case, observer)
            };
            match outcome {
                Ok(result) => Ok(render_sim_artifact(spec, &result)),
                Err(e) => Err(JobError::timeout(e.to_string())),
            }
        }
        JobKind::Report { name } => {
            let text = match *name {
                "ablation_structures" => reports::ablation_structures(spec.scale),
                "unroll_effect" => reports::unroll_effect(),
                other => return Err(JobError::other(format!("unknown report job `{other}`"))),
            };
            Ok(render_report_artifact(spec, &text))
        }
    }
}

/// One panic-isolated attempt at `spec`: the single code path every
/// simulation in the repo funnels through, whether scheduled by the
/// `ff-campaign` batch pool or an `ff-server` worker. A panic inside the
/// compute closure is caught here and classified as
/// [`JobErrorKind::Panic`]; the caller's thread never unwinds.
///
/// The attempt runs unobserved, so a job that succeeds pays nothing for
/// crash bundles. An attempt that fails with a replayable cause (any kind
/// but [`JobErrorKind::Other`]) is run once more, the same way, under a
/// [`RetireRing`] of [`BUNDLE_RETIREMENTS`] to collect the bundle's
/// trailing retirements and sentinel violations. A probe never changes a
/// run (`tests/observer_transparency.rs`), so the replay
/// fails exactly where the attempt did and the bundle matches one recorded
/// live. The attempt's own result is the one reported.
///
/// `inject` carries the test-only fault injection together with the
/// 1-based attempt number (the injection fails the first
/// [`FailureInjection::times`] attempts); the replay sees the same
/// injection.
pub fn attempt_job(
    spec: &JobSpec,
    exec: &ExecOptions,
    inject: Option<(&FailureInjection, u32)>,
) -> Attempt {
    let result = run_isolated(spec, exec, inject, &mut NullProbe, &mut Vec::new());
    let mut debris = AttemptDebris::new();
    if result.as_ref().is_err_and(|e| e.kind != JobErrorKind::Other) {
        let _ = run_isolated(spec, exec, inject, &mut debris.ring, &mut debris.violations);
    }
    Attempt { result, debris }
}

/// Runs `spec` once inside the unwind boundary, reporting retirements to
/// `observer` and sentinel violations to `violations`.
fn run_isolated(
    spec: &JobSpec,
    exec: &ExecOptions,
    inject: Option<(&FailureInjection, u32)>,
    observer: &mut dyn PipelineProbe,
    violations: &mut Vec<String>,
) -> Result<String, JobError> {
    catch_unwind(AssertUnwindSafe(|| {
        // The injection lives inside the unwind boundary so injected
        // panics exercise the same isolation path as real ones.
        if let Some((f, attempt)) = inject {
            if spec.id().contains(&f.id_substring) && attempt <= f.times {
                if f.panic {
                    panic!("injected panic (attempt {attempt})");
                }
                return Err(JobError::other(format!("injected failure (attempt {attempt})")));
            }
        }
        compute_artifact(spec, exec, observer, violations)
    }))
    .unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic with non-string payload".to_string());
        Err(JobError::panic(msg))
    })
}

/// Runs up to `attempts` attempts at `spec` through `attempt` (called
/// with the 1-based attempt number) and publishes the first success into
/// `store`. A failed publish counts as a failed attempt. When every
/// attempt fails, the last one leaves its crash bundle next to the store.
///
/// This is the one attempt → publish → crash-bundle loop: `ff-campaign
/// run` passes [`attempt_job`] with its [`FailureInjection`], and
/// `ff-server` passes its executor.
pub fn execute_job(
    store: &ShardedStore,
    spec: &JobSpec,
    attempts: u32,
    exec: &ExecOptions,
    mut attempt: impl FnMut(u32) -> Attempt,
) -> JobOutcome {
    let started = Instant::now();
    let outcome = |status, error, attempts| JobOutcome {
        spec: spec.clone(),
        status,
        error,
        wall_ms: started.elapsed().as_millis() as u64,
        attempts,
    };
    let mut made = 0;
    loop {
        made += 1;
        let last = attempt(made);
        let error = match &last.result {
            Ok(text) => match store.publish(spec, text) {
                Ok(_) => return outcome(JobStatus::Ok, None, made),
                Err(e) => JobError::other(format!("write artifact: {e}")),
            },
            Err(e) => e.clone(),
        };
        if made >= attempts.max(1) {
            last.write_crash_bundle(store.root(), spec, exec.cycle_budget);
            return outcome(JobStatus::Failed, Some(error), made);
        }
    }
}

fn eta_secs(done: usize, total: usize, elapsed_s: f64) -> f64 {
    if done == 0 {
        0.0
    } else {
        elapsed_s / done as f64 * (total - done) as f64
    }
}

/// Runs `jobs` under `opts`: checkpoint skip, retries, watchdog, panic
/// isolation, quarantine, live progress, artifact writes. The manifest is
/// written separately by [`crate::manifest::write_manifest`] so callers
/// can stamp run metadata.
///
/// # Errors
///
/// Only on failure to open the artifact directory as a [`ShardedStore`];
/// per-job failures are reported in the returned [`CampaignReport`].
pub fn run_campaign(jobs: &[JobSpec], opts: &CampaignOptions) -> std::io::Result<CampaignReport> {
    // Opening the store sweeps the orphaned `.tmp-*` files crashed (or
    // chaos-killed) writers leave, so they can't accumulate forever.
    let store = ShardedStore::open(&opts.out_dir)?;
    let swept = store.counters().tmp_swept.load(Ordering::Relaxed);
    if swept > 0 {
        eprintln!("swept {swept} orphaned .tmp file(s) from {}", opts.out_dir.display());
    }
    let started = Instant::now();
    let done = AtomicUsize::new(0);
    let total = jobs.len();
    // The quarantine decision is a pre-run snapshot: whether a job runs
    // depends only on prior campaigns, never on sibling jobs racing in
    // this one, so parallel and serial runs behave identically.
    let ledger = opts.quarantine_after.map(|_| Quarantine::load(&opts.out_dir));
    let skips: Vec<Option<JobError>> = jobs
        .iter()
        .map(|spec| match (&ledger, opts.quarantine_after) {
            (Some(q), Some(threshold)) if !opts.force => q.gate(spec, threshold),
            _ => None,
        })
        .collect();
    let raw = run_jobs(
        jobs,
        opts.workers,
        |_| (),
        |_, i, spec| {
            let outcome = if let Some(skip) = &skips[i] {
                JobOutcome::unrun(spec, JobStatus::Quarantined, Some(skip.clone()))
            } else if !opts.force && store.contains(spec) {
                JobOutcome::unrun(spec, JobStatus::Cached, None)
            } else {
                execute_job(&store, spec, opts.attempts, &opts.exec, |n| {
                    attempt_job(spec, &opts.exec, opts.inject.as_ref().map(|f| (f, n)))
                })
            };
            let n = done.fetch_add(1, Ordering::Relaxed) + 1;
            if opts.progress {
                let elapsed = started.elapsed().as_secs_f64();
                eprintln!(
                    "[{n}/{total}] {} {} {}ms eta {:.0}s",
                    outcome.spec.id(),
                    outcome.status.name(),
                    outcome.wall_ms,
                    eta_secs(n, total, elapsed),
                );
            }
            outcome
        },
    );
    // A worker dying outside the per-job unwind boundary still yields a
    // classified outcome instead of aborting the whole campaign.
    let outcomes: Vec<JobOutcome> = raw
        .into_iter()
        .zip(jobs)
        .map(|(slot, spec)| {
            slot.unwrap_or_else(|| {
                let lost = JobError::panic("worker thread crashed outside the job boundary");
                JobOutcome::unrun(spec, JobStatus::Failed, Some(lost))
            })
        })
        .collect();
    if let Some(mut q) = ledger {
        for o in &outcomes {
            q.record(&o.spec, o.status);
        }
        if let Err(e) = q.save(&opts.out_dir) {
            eprintln!("warning: could not save quarantine ledger: {e}");
        }
    }
    Ok(CampaignReport {
        outcomes,
        wall_s: started.elapsed().as_secs_f64(),
        workers: opts.workers,
        scale: opts.scale,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_grid_covers_every_results_file_input() {
        let jobs = full_grid(Scale::Test);
        // 7 models × 3 hierarchies × 12 benches + 3 seeds × 2 models × 12
        // benches + 2 reports.
        assert_eq!(jobs.len(), 7 * 3 * 12 + 3 * 2 * 12 + 2);
        let ids: std::collections::BTreeSet<String> = jobs.iter().map(|j| j.id()).collect();
        assert_eq!(ids.len(), jobs.len(), "plan has duplicate jobs");
        assert!(ids.contains("mcf/MP/base/s0@test"));
        assert!(ids.contains("gzip/inorder/base/s3@test"));
        assert!(ids.contains("report/ablation_structures@test"));
    }

    #[test]
    fn filter_selects_sim_subsets_and_drops_reports() {
        let f = JobFilter {
            models: vec![ModelKind::Multipass],
            benches: vec!["mcf".into()],
            ..JobFilter::default()
        };
        let kept: Vec<JobSpec> =
            full_grid(Scale::Test).into_iter().filter(|j| f.matches(j)).collect();
        // MP × mcf: 3 hierarchies at seed 0 + 3 sensitivity seeds at base.
        assert_eq!(kept.len(), 3 + 3);
        assert!(kept.iter().all(|j| !matches!(j.kind, JobKind::Report { .. })));
        let unfiltered = JobFilter::default();
        assert!(full_grid(Scale::Test).iter().all(|j| unfiltered.matches(j)));
    }

    #[test]
    fn eta_interpolates_linearly() {
        assert_eq!(eta_secs(0, 10, 5.0), 0.0);
        assert!((eta_secs(5, 10, 5.0) - 5.0).abs() < 1e-12);
        assert_eq!(eta_secs(10, 10, 7.0), 0.0);
    }
}
