//! Crash-safety chaos suite: seeded I/O faults against real campaign
//! runs, proving the store heals to byte-identical artifacts without
//! re-simulating intact entries.
//!
//! Each scenario follows the same shape: run a campaign with (or after)
//! an injected fault, `fsck`/re-run, and assert (a) the final artifact
//! bytes equal a fault-free control run's bytes and (b) the report's
//! `cached` count proves every intact artifact was reused, never
//! re-simulated.
//!
//! The chaos policy slot is process-global, so scenarios that *install* a
//! policy serialize on the [`chaos::ChaosGuard`] they hold; manual-damage
//! scenarios (truncation, bit flips applied with plain `std::fs`) need no
//! policy and run freely.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ff_experiments::{HierKind, ModelKind};
use ff_harness::chaos::{self, Fault, FsOp, NthOp};
use ff_harness::integrity;
use ff_harness::json::Json;
use ff_harness::store::{sharded_path, ShardedStore};
use ff_harness::{run_campaign, CampaignOptions, CampaignReport, JobSpec};
use ff_workloads::Scale;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ff-chaos-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn jobs(benches: &[&'static str]) -> Vec<JobSpec> {
    benches
        .iter()
        .map(|bench| JobSpec::sim(ModelKind::InOrder, HierKind::Base, bench, 0, Scale::Test))
        .collect()
}

fn run(dir: &Path, jobs: &[JobSpec]) -> CampaignReport {
    let mut opts = CampaignOptions::new(Scale::Test, dir);
    opts.workers = 1; // deterministic job order => deterministic fault site
    opts.progress = false;
    run_campaign(jobs, &opts).unwrap()
}

/// Every artifact in the store, keyed by file name (sealed bytes,
/// checksum footer included).
fn artifact_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    let mut dirs = vec![dir.to_path_buf()];
    while let Some(d) = dirs.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else { continue };
        for e in entries.map(|e| e.unwrap()) {
            let name = e.file_name().to_string_lossy().into_owned();
            if e.path().is_dir() {
                if name.len() == 2 && name.chars().all(|c| c.is_ascii_hexdigit()) {
                    dirs.push(e.path());
                }
            } else if name.starts_with("sim-") && name.ends_with(".json") {
                out.insert(name, std::fs::read(e.path()).unwrap());
            }
        }
    }
    out
}

fn tmp_files(dir: &Path) -> usize {
    let mut n = 0;
    let mut dirs = vec![dir.to_path_buf()];
    while let Some(d) = dirs.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else { continue };
        for e in entries.map(|e| e.unwrap()) {
            if e.path().is_dir() {
                dirs.push(e.path());
            } else if e.file_name().to_string_lossy().starts_with(".tmp-") {
                n += 1;
            }
        }
    }
    n
}

/// Kill-during-write: the second artifact's temp-file write dies midway.
/// The job fails, the final name never appears (rename never ran), and
/// the re-run reuses both intact artifacts while re-simulating only the
/// victim — converging on the control run's exact bytes.
#[test]
fn kill_during_write_recovers_to_byte_identical_artifacts() {
    let control_dir = temp_dir("torn-control");
    let plan = jobs(&["gzip", "mcf", "art"]);
    let control = run(&control_dir, &plan);
    assert_eq!(control.ok(), 3);
    let want = artifact_bytes(&control_dir);

    let dir = temp_dir("torn");
    {
        let _guard = chaos::install(Arc::new(NthOp::new(
            FsOp::Write,
            Fault::TornWrite { keep_pct: 40 },
            dir.to_string_lossy().into_owned(),
            2,
        )));
        let wounded = run(&dir, &plan);
        assert_eq!(wounded.ok(), 2, "two jobs land before/after the kill");
        assert_eq!(wounded.failed(), 1);
        let err = wounded.failures()[0].error.as_ref().unwrap().to_string();
        assert!(err.contains("torn write"), "{err}");
    }
    // The kill happened on the temp file: no torn *artifact* exists, and
    // the partial temp file is still lying around.
    assert_eq!(artifact_bytes(&dir).len(), 2);
    assert_eq!(tmp_files(&dir), 1, "the killed writer leaves its partial temp file");

    let healed = run(&dir, &plan);
    assert_eq!(healed.cached(), 2, "intact artifacts must not re-simulate");
    assert_eq!(healed.ok(), 1, "only the victim re-simulates");
    assert_eq!(tmp_files(&dir), 0, "the orphaned temp file is swept before the run");
    assert_eq!(artifact_bytes(&dir), want, "recovery must converge on the control bytes");

    std::fs::remove_dir_all(&control_dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Disk-full during publish: the job fails cleanly; once space "returns"
/// (the policy is gone) the next run completes and matches the control.
#[test]
fn disk_full_fails_the_job_and_the_next_run_heals() {
    let plan = jobs(&["twolf", "gap"]);
    let control_dir = temp_dir("full-control");
    run(&control_dir, &plan);
    let want = artifact_bytes(&control_dir);

    let dir = temp_dir("full");
    {
        let _guard = chaos::install(Arc::new(NthOp::new(
            FsOp::Write,
            Fault::DiskFull,
            dir.to_string_lossy().into_owned(),
            1,
        )));
        let wounded = run(&dir, &plan);
        assert_eq!(wounded.failed(), 1);
        let err = wounded.failures()[0].error.as_ref().unwrap().to_string();
        assert!(err.contains("no space left"), "{err}");
    }
    let healed = run(&dir, &plan);
    assert_eq!((healed.cached(), healed.ok()), (1, 1));
    assert_eq!(artifact_bytes(&dir), want);

    std::fs::remove_dir_all(&control_dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Silent post-publish corruption — a truncated tail on one artifact, a
/// flipped bit on another. `fsck` quarantines exactly the damaged two
/// into `corrupt/` (with ledger lines), and the re-run re-simulates only
/// them, converging on the original bytes.
#[test]
fn truncation_and_bit_flips_are_quarantined_and_resimulated() {
    let dir = temp_dir("silent");
    let plan = jobs(&["gzip", "mcf", "art"]);
    let first = run(&dir, &plan);
    assert_eq!(first.ok(), 3);
    let want = artifact_bytes(&dir);

    // Damage two of the three, with plain fs calls (the store must catch
    // corruption however it arrives, not only via its own wrappers).
    let truncated = sharded_path(&dir, &plan[0]);
    let bytes = std::fs::read(&truncated).unwrap();
    std::fs::write(&truncated, &bytes[..bytes.len() * 3 / 5]).unwrap();
    let flipped = sharded_path(&dir, &plan[1]);
    let mut bytes = std::fs::read(&flipped).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&flipped, &bytes).unwrap();

    let report = integrity::fsck(&dir).unwrap();
    assert_eq!(report.ok, 1, "fsck: {}", report.summary());
    assert_eq!(report.corrupt.len(), 2, "fsck: {}", report.summary());
    assert!(!report.clean());
    // Quarantined out of the store, preserved for forensics, ledgered.
    assert!(!truncated.exists());
    assert!(!flipped.exists());
    let corrupt_dir = dir.join(integrity::CORRUPT_DIR);
    assert_eq!(std::fs::read_dir(&corrupt_dir).unwrap().count(), 3, "2 files + ledger");
    let ledger = std::fs::read_to_string(corrupt_dir.join(integrity::LEDGER_NAME)).unwrap();
    assert_eq!(ledger.lines().count(), 2);
    for line in ledger.lines() {
        let entry = Json::parse(line).expect("ledger lines are JSON");
        assert!(entry.get("reason").is_some(), "{line}");
    }

    let healed = run(&dir, &plan);
    assert_eq!(healed.cached(), 1, "the intact artifact must not re-simulate");
    assert_eq!(healed.ok(), 2);
    assert_eq!(artifact_bytes(&dir), want);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Even *without* an explicit fsck, a damaged artifact reads as a memo
/// miss on the next run (self-healing resume) — and through the
/// [`ShardedStore`] it reads as absent rather than ever serving partial
/// content.
#[test]
fn a_damaged_artifact_is_a_memo_miss_not_a_served_partial() {
    let dir = temp_dir("self-heal");
    let plan = jobs(&["mesa"]);
    run(&dir, &plan);
    let want = artifact_bytes(&dir);

    let victim = sharded_path(&dir, &plan[0]);
    let bytes = std::fs::read(&victim).unwrap();
    std::fs::write(&victim, &bytes[..bytes.len() / 3]).unwrap();

    {
        let store = ShardedStore::open(&dir).unwrap();
        assert!(store.read(&plan[0]).is_none(), "a torn artifact must never be served");
        assert!(!store.contains(&plan[0]), "corrupt == memo miss");
        assert_eq!(store.counters().corrupt_detected.load(std::sync::atomic::Ordering::Relaxed), 1);
    }

    // No fsck step: the campaign's own resume path re-simulates.
    let healed = run(&dir, &plan);
    assert_eq!((healed.cached(), healed.ok()), (0, 1));
    assert_eq!(artifact_bytes(&dir), want);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Property test over torn-write/truncation points: for a seeded sample
/// of cut positions (plus the boundary-adjacent ones), a store holding
/// only the prefix either reports the artifact absent or returns the
/// complete original payload — never a partial document.
#[test]
fn no_truncation_point_ever_serves_a_partial_artifact() {
    let dir = temp_dir("prop-src");
    let plan = jobs(&["vpr"]);
    run(&dir, &plan);
    let spec = &plan[0];
    let sealed = std::fs::read(sharded_path(&dir, spec)).unwrap();
    let full_payload = ShardedStore::open(&dir).unwrap().read(spec).expect("intact read");
    let full_doc = Json::parse(&full_payload).expect("payload parses");
    std::fs::remove_dir_all(&dir).unwrap();

    // Seeded sample of interior cut points + every cut within 64 bytes of
    // the end (the footer boundary, where acceptance decisions happen).
    let mut cuts: Vec<usize> = (sealed.len().saturating_sub(64)..sealed.len()).collect();
    let mut x: u64 = 0x1ea_f11c4;
    for _ in 0..100 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        cuts.push((x % sealed.len() as u64) as usize);
    }

    let probe_dir = temp_dir("prop-probe");
    let path = sharded_path(&probe_dir, spec);
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    for cut in cuts {
        std::fs::write(&path, &sealed[..cut]).unwrap();
        let store = ShardedStore::open(&probe_dir).unwrap();
        match store.read(spec) {
            // Detected: the prefix was quarantined; put the next one back.
            None => {}
            // Accepted: must be the *complete* document (a cut may only
            // strip the footer and trailing whitespace, never content).
            Some(payload) => {
                let doc = Json::parse(&payload)
                    .unwrap_or_else(|e| panic!("cut at {cut} served unparsable payload: {e}"));
                assert_eq!(doc, full_doc, "cut at {cut} served a different document");
            }
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir_all(probe_dir.join(integrity::CORRUPT_DIR));
    }
    std::fs::remove_dir_all(&probe_dir).unwrap();
}

/// A seeded chaos storm over repeated resumes: with torn writes, disk
/// fulls, and fsync failures all firing, repeatedly resuming the campaign
/// eventually completes every job, and the surviving store is
/// byte-identical to a calm run. (Silent rename corruption is exercised
/// separately above; here every fault is crash-like.)
#[test]
fn repeated_resumes_under_a_seeded_fault_storm_converge() {
    let plan = jobs(&["gzip", "mcf"]);
    let control_dir = temp_dir("storm-control");
    run(&control_dir, &plan);
    let want = artifact_bytes(&control_dir);

    let dir = temp_dir("storm");
    {
        let mut policy = chaos::SeededChaos::new(0xbad_5eed);
        policy.torn_every = 3;
        policy.diskfull_every = 5;
        policy.fsync_every = 4;
        let _guard = chaos::install(Arc::new(policy.scoped(dir.to_string_lossy().into_owned())));
        let mut done = false;
        for _resume in 0..20 {
            let report = run(&dir, &plan);
            if report.failed() == 0 {
                done = true;
                break;
            }
        }
        assert!(done, "20 resumes under a 1-in-3 fault storm must converge");
    }
    assert_eq!(artifact_bytes(&dir), want);
    let final_run = run(&dir, &plan);
    assert_eq!(final_run.cached(), 2);

    std::fs::remove_dir_all(&control_dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}
