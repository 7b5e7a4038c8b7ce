//! The `ff-server` start-up scan over a crash-damaged store: the one walk
//! that opens the store sweeps every orphaned writer temp file (in the
//! root, in a shard and in a campaign's checkpoint directory) and
//! quarantines a bit-flipped artifact before the scheduler trusts the
//! memo cache, counting both in the store's `/healthz` counters.

use std::path::PathBuf;
use std::sync::atomic::Ordering;

use ff_experiments::{HierKind, ModelKind};
use ff_harness::integrity::{CORRUPT_DIR, LEDGER_NAME};
use ff_harness::{JobSpec, ShardedStore};
use ff_server::{SchedulerOptions, Server, CAMPAIGNS_DIR};
use ff_workloads::Scale;

/// A fresh store directory under the system temp dir, removed when the
/// test ends, whether it passes or panics.
struct TempStore(PathBuf);

impl Drop for TempStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn server_start_sweeps_every_orphan_and_quarantines_a_bit_flip() {
    let dir = TempStore(std::env::temp_dir().join(format!("ff-startup-{}", std::process::id())));
    let root = &dir.0;
    let _ = std::fs::remove_dir_all(root);

    let intact = JobSpec::sim(ModelKind::InOrder, HierKind::Base, "gzip", 0, Scale::Test);
    let flipped = JobSpec::sim(ModelKind::InOrder, HierKind::Base, "mcf", 0, Scale::Test);
    let store = ShardedStore::open(root).expect("open");
    let intact_path = store.publish(&intact, "{\"intact\": 1}\n").expect("publish");
    let flipped_path = store.publish(&flipped, "{\"flipped\": 1}\n").expect("publish");
    drop(store);

    // One flipped bit in the payload ('f' becomes 'g'), the footer intact.
    let mut bytes = std::fs::read(&flipped_path).expect("read");
    bytes[2] ^= 0x01;
    std::fs::write(&flipped_path, &bytes).expect("flip");
    // Torn writers' temp files, as a crash leaves them: one in the root,
    // one in a shard and one in a campaign's checkpoint directory (a
    // crash mid-submit, before `request.json` was renamed into place).
    let campaign = root.join(CAMPAIGNS_DIR).join("c9");
    std::fs::create_dir_all(&campaign).expect("campaign dir");
    let orphans = [
        root.join(".tmp-1-0-manifest.json"),
        intact_path.with_file_name(format!(".tmp-1-1-{}", intact.artifact_filename())),
        campaign.join(".tmp-1-2-request.json"),
    ];
    for orphan in &orphans {
        std::fs::write(orphan, "{\"torn").expect("plant orphan");
    }

    let opts = SchedulerOptions { workers: 1, ..SchedulerOptions::default() };
    let server = Server::start("127.0.0.1:0", root, opts).expect("server starts");
    let scheduler = server.service().scheduler();
    let counters = scheduler.store().counters();
    assert_eq!(counters.tmp_swept.load(Ordering::Relaxed), 3, "every orphan is counted");
    assert_eq!(counters.corrupt_detected.load(Ordering::Relaxed), 1);
    // The scan verifies with its own reads; serving reads are counted
    // from here on.
    assert_eq!(counters.sealed_reads.load(Ordering::Relaxed), 0);
    for orphan in &orphans {
        assert!(!orphan.exists(), "{} was not swept", orphan.display());
    }
    assert!(!flipped_path.exists(), "the bit-flipped artifact must be quarantined");
    let specimen = root.join(CORRUPT_DIR).join(flipped.artifact_filename());
    assert!(specimen.exists(), "the specimen is kept in the ledger directory");
    let ledger = std::fs::read_to_string(root.join(CORRUPT_DIR).join(LEDGER_NAME)).expect("ledger");
    assert!(ledger.contains("checksum mismatch"), "{ledger}");
    // The intact artifact is untouched and still a memo hit; the torn
    // checkpoint left no campaign to resume.
    assert!(scheduler.store().contains(&intact));
    assert!(!scheduler.store().contains(&flipped));
    assert!(scheduler.status("c9").is_none());
    server.shutdown();
}
