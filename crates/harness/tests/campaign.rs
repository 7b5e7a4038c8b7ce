//! Campaign integration tests: parallel/serial determinism,
//! checkpoint/resume, the watchdog, panic isolation, quarantine, and
//! crash bundles.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use ff_engine::{RetireRing, SimCase};
use ff_experiments::{HierKind, ModelKind, Suite};
use ff_harness::bundle::BUNDLE_RETIREMENTS;
use ff_harness::{
    attempt_job, full_grid, list_bundles, manifest::render_manifest, run_campaign,
    store::ShardedStore, CampaignOptions, CrashBundle, ExecOptions, FailureInjection, JobErrorKind,
    JobSpec, JobStatus,
};
use ff_workloads::{Scale, Workload};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ff-campaign-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Collects every artifact in the store, keyed by file name — manifests,
/// quarantine ledgers, crash bundles, and `corrupt/` specimens are not
/// artifacts and are excluded.
fn artifact_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    let mut dirs = vec![dir.to_path_buf()];
    while let Some(d) = dirs.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else { continue };
        for e in entries.map(|e| e.unwrap()) {
            let name = e.file_name().to_string_lossy().into_owned();
            if e.path().is_dir() {
                // Shard directories are two hex chars; skip bundles/ etc.
                if name.len() == 2 && name.chars().all(|c| c.is_ascii_hexdigit()) {
                    dirs.push(e.path());
                }
            } else if (name.starts_with("sim-") || name.starts_with("report-"))
                && name.ends_with(".json")
            {
                out.insert(name, std::fs::read(e.path()).unwrap());
            }
        }
    }
    out
}

/// `--jobs 4` must produce bit-for-bit the artifacts of `--jobs 1`: same
/// file set, same bytes (stats, activity, memory counters all included),
/// for all seven models.
#[test]
fn parallel_equals_serial() {
    let jobs: Vec<JobSpec> = ModelKind::ALL
        .into_iter()
        .flat_map(|model| {
            ["mcf", "gzip", "art"]
                .into_iter()
                .map(move |bench| JobSpec::sim(model, HierKind::Base, bench, 0, Scale::Test))
        })
        .collect();
    assert_eq!(jobs.len(), 21);

    let serial_dir = temp_dir("serial");
    let mut serial_opts = CampaignOptions::new(Scale::Test, &serial_dir);
    serial_opts.workers = 1;
    let serial = run_campaign(&jobs, &serial_opts).unwrap();
    assert_eq!(serial.failed(), 0);

    let parallel_dir = temp_dir("parallel");
    let mut parallel_opts = CampaignOptions::new(Scale::Test, &parallel_dir);
    parallel_opts.workers = 4;
    let parallel = run_campaign(&jobs, &parallel_opts).unwrap();
    assert_eq!(parallel.failed(), 0);
    assert_eq!(parallel.ok(), 21);

    let serial_files = artifact_bytes(&serial_dir);
    let parallel_files = artifact_bytes(&parallel_dir);
    assert_eq!(serial_files.len(), 21);
    assert_eq!(serial_files.keys().collect::<Vec<_>>(), parallel_files.keys().collect::<Vec<_>>());
    for (name, bytes) in &serial_files {
        assert_eq!(bytes, &parallel_files[name], "artifact {name} differs between -j1 and -j4");
    }

    std::fs::remove_dir_all(&serial_dir).unwrap();
    std::fs::remove_dir_all(&parallel_dir).unwrap();
}

/// A campaign interrupted by failures resumes where it left off: only the
/// jobs without artifacts execute on the second run, and a config-hash
/// mismatch forces a re-run even when a file exists.
#[test]
fn checkpoint_resume_reruns_only_missing_jobs() {
    let dir = temp_dir("resume");
    let jobs: Vec<JobSpec> = ["gzip", "mcf", "art", "twolf", "mesa", "gap"]
        .into_iter()
        .map(|bench| JobSpec::sim(ModelKind::InOrder, HierKind::Base, bench, 0, Scale::Test))
        .collect();

    // First run: every mcf/art job fails all its attempts ("killed after
    // K jobs").
    let mut opts = CampaignOptions::new(Scale::Test, &dir);
    opts.workers = 2;
    opts.inject =
        Some(FailureInjection { id_substring: "mcf".into(), times: u32::MAX, panic: false });
    let first = run_campaign(&jobs, &opts).unwrap();
    assert_eq!(first.failed(), 1);
    assert_eq!(first.ok(), 5);
    let failed_ids: Vec<String> = first.failures().iter().map(|o| o.spec.id()).collect();
    assert_eq!(failed_ids, vec!["mcf/inorder/base/s0@test".to_string()]);
    assert_eq!(artifact_bytes(&dir).len(), 5, "failed job must leave no artifact");

    // Second run, no injection: completed artifacts are reused, only the
    // failed job executes.
    opts.inject = None;
    let second = run_campaign(&jobs, &opts).unwrap();
    assert_eq!(second.failed(), 0);
    assert_eq!(second.cached(), 5);
    assert_eq!(second.ok(), 1);
    let executed: Vec<String> =
        second.outcomes.iter().filter(|o| o.status == JobStatus::Ok).map(|o| o.spec.id()).collect();
    assert_eq!(executed, vec!["mcf/inorder/base/s0@test".to_string()]);

    // Corrupt one artifact's recorded config hash: resume must detect the
    // mismatch and recompute that job.
    let victim = jobs[0].clone();
    let path = ff_harness::store::sharded_path(&dir, &victim);
    let text = std::fs::read_to_string(&path).unwrap();
    let hash = format!("{:016x}", victim.config_hash());
    std::fs::write(&path, text.replace(&hash, "0000000000000000")).unwrap();
    let third = run_campaign(&jobs, &opts).unwrap();
    assert_eq!(third.cached(), 5);
    assert_eq!(third.ok(), 1);
    assert_eq!(third.outcomes[0].status, JobStatus::Ok, "hash mismatch must force a re-run");
    // And the recomputed artifact carries the correct hash again.
    assert!(std::fs::read_to_string(&path).unwrap().contains(&hash));

    std::fs::remove_dir_all(&dir).unwrap();
}

/// An artifact without its checksum footer is corrupt even when its
/// payload is intact JSON: resume quarantines it into the `corrupt/`
/// ledger and re-simulates it as a miss, restoring the sealed bytes.
#[test]
fn footerless_artifact_is_quarantined_and_resimulated() {
    let dir = temp_dir("footerless");
    let jobs: Vec<JobSpec> = ["mcf", "gzip"]
        .into_iter()
        .map(|bench| JobSpec::sim(ModelKind::InOrder, HierKind::Base, bench, 0, Scale::Test))
        .collect();
    let mut opts = CampaignOptions::new(Scale::Test, &dir);
    opts.workers = 1;
    let first = run_campaign(&jobs, &opts).unwrap();
    assert_eq!(first.ok(), 2);
    let sealed = artifact_bytes(&dir);

    // Strip the footer, leaving exactly the payload the seal covered.
    let victim = ff_harness::store::sharded_path(&dir, &jobs[0]);
    let text = std::fs::read_to_string(&victim).unwrap();
    let footer = text.find(ff_harness::integrity::FOOTER_TAG).unwrap();
    std::fs::write(&victim, &text[..footer]).unwrap();

    let resumed = run_campaign(&jobs, &opts).unwrap();
    assert_eq!(resumed.cached(), 1, "the intact artifact stays a hit");
    assert_eq!(resumed.ok(), 1, "the footerless artifact re-simulates");
    let ledger = dir.join(ff_harness::integrity::CORRUPT_DIR);
    assert!(ledger.join(jobs[0].artifact_filename()).is_file(), "specimen kept in the ledger");
    assert_eq!(artifact_bytes(&dir), sealed, "re-simulation restores the sealed bytes");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Retries: a job that fails its first attempts succeeds once the
/// injection budget is exhausted, and the manifest-visible attempt count
/// reflects the retries.
#[test]
fn retries_recover_transient_failures() {
    let dir = temp_dir("retry");
    let jobs = vec![JobSpec::sim(ModelKind::InOrder, HierKind::Base, "vortex", 0, Scale::Test)];
    let mut opts = CampaignOptions::new(Scale::Test, &dir);
    opts.workers = 1;
    opts.attempts = 3;
    opts.inject = Some(FailureInjection { id_substring: "vortex".into(), times: 2, panic: false });
    let report = run_campaign(&jobs, &opts).unwrap();
    assert_eq!(report.failed(), 0);
    assert_eq!(report.outcomes[0].attempts, 3);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The watchdog: a tiny cycle budget aborts every simulation as a
/// `timeout` failure instead of hanging or panicking the campaign.
#[test]
fn watchdog_times_out_runaway_jobs() {
    let dir = temp_dir("watchdog");
    let jobs = vec![
        JobSpec::sim(ModelKind::Multipass, HierKind::Base, "mcf", 0, Scale::Test),
        JobSpec::sim(ModelKind::InOrder, HierKind::Base, "gzip", 0, Scale::Test),
    ];
    let mut opts = CampaignOptions::new(Scale::Test, &dir);
    opts.workers = 2;
    opts.exec.cycle_budget = Some(10);
    let report = run_campaign(&jobs, &opts).unwrap();
    assert_eq!(report.failed(), 2);
    for outcome in report.failures() {
        let err = outcome.error.as_ref().unwrap();
        assert_eq!(err.kind, JobErrorKind::Timeout);
        let text = err.to_string();
        assert!(text.starts_with("timeout:"), "{text}");
        assert!(text.contains("cycle budget exceeded"), "{text}");
    }
    assert!(artifact_bytes(&dir).is_empty());
    // Each timed-out simulation leaves a replayable crash bundle.
    let bundles = list_bundles(&dir);
    assert_eq!(bundles.len(), 2);
    let bundle = CrashBundle::read(&bundles[0]).unwrap();
    assert_eq!(bundle.error.kind, JobErrorKind::Timeout);
    assert_eq!(bundle.cycle_budget, Some(10));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Panic isolation: a job that panics is recorded as a classified
/// `panic` failure with a crash bundle, while every other job on every
/// worker completes normally.
#[test]
fn a_panicking_job_degrades_gracefully() {
    let dir = temp_dir("panic");
    let jobs: Vec<JobSpec> = ["mcf", "gzip", "art", "twolf"]
        .into_iter()
        .map(|bench| JobSpec::sim(ModelKind::InOrder, HierKind::Base, bench, 0, Scale::Test))
        .collect();
    let mut opts = CampaignOptions::new(Scale::Test, &dir);
    opts.workers = 2;
    opts.inject =
        Some(FailureInjection { id_substring: "mcf".into(), times: u32::MAX, panic: true });
    // Quiet the default panic-backtrace printer for the expected panic.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let report = run_campaign(&jobs, &opts).unwrap();
    std::panic::set_hook(prev);

    assert_eq!(report.ok(), 3, "the surviving jobs must all complete");
    assert_eq!(report.failed(), 1);
    let failure = report.failures()[0];
    assert_eq!(failure.spec.id(), "mcf/inorder/base/s0@test");
    let err = failure.error.as_ref().unwrap();
    assert_eq!(err.kind, JobErrorKind::Panic);
    assert!(err.message.contains("injected panic"), "{err}");

    // The taxonomy reaches the manifest...
    let manifest = render_manifest(&report, "test");
    assert!(manifest.contains("\"error_kind\": \"panic\""), "{manifest}");
    // ...and the failure leaves a replayable bundle.
    let bundles = list_bundles(&dir);
    assert_eq!(bundles.len(), 1);
    let bundle = CrashBundle::read(&bundles[0]).unwrap();
    assert_eq!(bundle.bench, "mcf");
    assert_eq!(bundle.error.kind, JobErrorKind::Panic);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Crash-bundle fidelity: campaign attempts run unobserved, yet a failed
/// job's bundle carries the same trail an observed run records live. The
/// timed-out job's `retired_total` and `last_retirements` equal a direct
/// `run_observed` of the same spec and budget under a `RetireRing` of
/// `BUNDLE_RETIREMENTS`, with and without `--sentinels` (whose replay
/// feeds the ring from inside the sentinel suite), and an injected panic
/// still leaves its (empty-trailed) bundle.
#[test]
fn failed_job_bundles_carry_the_trail_of_an_observed_run() {
    let budget = 2_000;
    let w = Workload::by_name_seeded("mcf", Scale::Test, 0).unwrap();
    let case = SimCase::new(&w.program, w.mem.clone()).with_cycle_budget(budget);
    let mut ring = RetireRing::new(BUNDLE_RETIREMENTS);
    let direct =
        Suite::build_model(ModelKind::Multipass, HierKind::Base).run_observed(&case, &mut ring);
    let err = direct.expect_err("the budget must cut the direct run short too");
    assert!(ring.total() > BUNDLE_RETIREMENTS as u64, "budget too small to test the trail");
    let direct_trail: Vec<String> = ring.events().map(|e| e.to_string()).collect();

    for sentinels in [false, true] {
        let dir = temp_dir(&format!("fidelity-{sentinels}"));
        let jobs = vec![
            JobSpec::sim(ModelKind::Multipass, HierKind::Base, "mcf", 0, Scale::Test),
            JobSpec::sim(ModelKind::InOrder, HierKind::Base, "gzip", 0, Scale::Test),
        ];
        let mut opts = CampaignOptions::new(Scale::Test, &dir);
        opts.workers = 1;
        opts.exec.cycle_budget = Some(budget);
        opts.exec.sentinels = sentinels;
        opts.inject =
            Some(FailureInjection { id_substring: "gzip".into(), times: u32::MAX, panic: true });
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let report = run_campaign(&jobs, &opts).unwrap();
        std::panic::set_hook(prev);
        assert_eq!(report.failed(), 2);

        let bundles: Vec<CrashBundle> =
            list_bundles(&dir).iter().map(|p| CrashBundle::read(p).unwrap()).collect();
        assert_eq!(bundles.len(), 2);
        let timed_out = bundles.iter().find(|b| b.bench == "mcf").expect("timeout bundle");
        let panicked = bundles.iter().find(|b| b.bench == "gzip").expect("panic bundle");

        assert_eq!(timed_out.error.kind, JobErrorKind::Timeout);
        assert_eq!(timed_out.error.message, err.to_string());
        assert_eq!(timed_out.retired_total, ring.total(), "sentinels: {sentinels}");
        assert_eq!(timed_out.last_retirements, direct_trail, "sentinels: {sentinels}");
        assert!(timed_out.violations.is_empty());

        // The injection panics before the simulation starts, so the replay
        // retires nothing either.
        assert_eq!(panicked.error.kind, JobErrorKind::Panic);
        assert!(panicked.error.message.contains("injected panic"), "{:?}", panicked.error);
        assert_eq!(panicked.retired_total, 0);
        assert!(panicked.last_retirements.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Quarantine lifecycle: two consecutive failed runs put a config on the
/// bench, `--force` gives it its retrial, and a success clears its
/// strikes.
#[test]
fn quarantine_benches_repeat_offenders_and_force_recovers_them() {
    let dir = temp_dir("quarantine");
    let jobs = vec![JobSpec::sim(ModelKind::InOrder, HierKind::Base, "gap", 0, Scale::Test)];
    let mut opts = CampaignOptions::new(Scale::Test, &dir);
    opts.workers = 1;
    opts.quarantine_after = Some(2);
    opts.inject =
        Some(FailureInjection { id_substring: "gap".into(), times: u32::MAX, panic: false });

    // Two failing runs accumulate two strikes.
    for run in 1..=2 {
        let report = run_campaign(&jobs, &opts).unwrap();
        assert_eq!(report.failed(), 1, "run {run}");
        assert_eq!(report.quarantined(), 0, "run {run}");
    }
    // The third run skips the job without executing it.
    let third = run_campaign(&jobs, &opts).unwrap();
    assert_eq!(third.quarantined(), 1);
    assert_eq!(third.failed(), 0);
    assert_eq!(third.outcomes[0].attempts, 0);
    let err = third.outcomes[0].error.as_ref().unwrap().to_string();
    assert!(err.contains("quarantined after 2"), "{err}");

    // --force bypasses the quarantine; with the fault gone the job
    // succeeds and its strikes clear.
    opts.inject = None;
    opts.force = true;
    let fourth = run_campaign(&jobs, &opts).unwrap();
    assert_eq!(fourth.ok(), 1);
    assert_eq!(fourth.quarantined(), 0);

    // Back to a normal run: the artifact is cached, nothing quarantined.
    opts.force = false;
    let fifth = run_campaign(&jobs, &opts).unwrap();
    assert_eq!(fifth.cached(), 1);
    assert_eq!(fifth.quarantined(), 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `--sentinels` is observation-only on clean runs: the artifact bytes
/// are identical with the full checker set on or off.
#[test]
fn sentinels_do_not_perturb_clean_artifacts() {
    let jobs = vec![JobSpec::sim(ModelKind::Multipass, HierKind::Base, "mcf", 0, Scale::Test)];

    let plain_dir = temp_dir("plain");
    let mut plain_opts = CampaignOptions::new(Scale::Test, &plain_dir);
    plain_opts.workers = 1;
    let plain = run_campaign(&jobs, &plain_opts).unwrap();
    assert_eq!(plain.ok(), 1);

    let sentinel_dir = temp_dir("sentinel");
    let mut sentinel_opts = CampaignOptions::new(Scale::Test, &sentinel_dir);
    sentinel_opts.workers = 1;
    sentinel_opts.exec.sentinels = true;
    let checked = run_campaign(&jobs, &sentinel_opts).unwrap();
    assert_eq!(checked.ok(), 1, "a clean run must pass the full checker set");
    assert!(list_bundles(&sentinel_dir).is_empty());

    assert_eq!(artifact_bytes(&plain_dir), artifact_bytes(&sentinel_dir));
    std::fs::remove_dir_all(&plain_dir).unwrap();
    std::fs::remove_dir_all(&sentinel_dir).unwrap();
}

/// The full plan is well formed at both scales (no duplicate content
/// addresses; scales never collide in one directory).
#[test]
fn full_grid_hashes_are_unique_across_scales() {
    let mut hashes = std::collections::BTreeSet::new();
    for scale in [Scale::Test, Scale::Paper] {
        for job in full_grid(scale) {
            assert!(hashes.insert(job.config_hash()), "duplicate hash for {}", job.id());
        }
    }
}

/// A worker serves jobs of both scales (an `ff-server` worker lives for
/// the whole service): a paper-scale job that follows the test-scale job
/// of the same benchmark and seed on one worker must simulate the
/// paper-scale program, not the test-scale one.
#[test]
fn one_worker_runs_each_scale_on_its_own_workload() {
    let job = |scale| JobSpec::sim(ModelKind::InOrder, HierKind::Base, "gzip", 0, scale);
    let dir = temp_dir("scales");
    let mut opts = CampaignOptions::new(Scale::Test, &dir);
    opts.workers = 1;
    let report = run_campaign(&[job(Scale::Test), job(Scale::Paper)], &opts).unwrap();
    assert_eq!(report.ok(), 2);
    let store = ShardedStore::open(&dir).unwrap();
    let test = store.read(&job(Scale::Test)).unwrap();
    let paper = store.read(&job(Scale::Paper)).unwrap();
    let fresh = attempt_job(&job(Scale::Paper), &ExecOptions::default(), None).result.unwrap();
    assert_eq!(paper, fresh);
    assert_ne!(paper, test);
    std::fs::remove_dir_all(&dir).unwrap();
}
