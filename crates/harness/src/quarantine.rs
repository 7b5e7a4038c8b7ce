//! The repeat-failure quarantine ledger.
//!
//! A config that fails every campaign run (a genuinely wedged grid point,
//! a panic-inducing model bug) would otherwise burn its full watchdog
//! budget on every resume. With `--quarantine-after N`, the campaign
//! keeps a `quarantine.json` ledger of *consecutive* failed runs per
//! **config hash**; a config at or past the threshold is skipped as
//! [`crate::JobStatus::Quarantined`] instead of executed. Any successful
//! (or cached) run clears a config's strikes, and `--force` bypasses the
//! quarantine to give a fixed config its retrial.
//!
//! `ff-campaign run` and `ff-server` apply one rule: without
//! `--quarantine-after` neither reads nor writes the ledger; with it,
//! [`Quarantine::gate`] decides and words the skip, and
//! [`Quarantine::record`] counts the outcome. The batch runner gates on
//! a snapshot taken before the run (so `--jobs 4` equals `--jobs 1`);
//! the server gates live, as each job is claimed.
//!
//! Keying by config hash (not by per-campaign job index or id string)
//! makes the ledger multi-tenant: when several campaigns share one
//! artifact store — the `ff-server` case — a config quarantined by one
//! campaign is skipped, and reported as quarantined rather than failed,
//! when any other campaign resubmits the same grid point.

use std::collections::BTreeMap;
use std::path::Path;

use crate::campaign::JobStatus;
use crate::error::JobError;
use crate::job::JobSpec;
use crate::json::Json;

/// The ledger file name inside the campaign output directory.
pub const QUARANTINE_NAME: &str = "quarantine.json";

#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Entry {
    strikes: u64,
    /// Human-readable job id of the last recorded failure, kept so
    /// operators can read the ledger without reverse-hashing.
    id: String,
}

/// Consecutive-failure strikes per config hash, persisted across campaign
/// runs (and across campaigns: any campaign touching the same store sees
/// the same ledger).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Quarantine {
    strikes: BTreeMap<u64, Entry>,
}

impl Quarantine {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads the ledger from `dir`. A missing or corrupt file is an empty
    /// ledger, and an entry whose key is not a hex config hash is skipped —
    /// quarantine degrades gracefully, it never blocks a run.
    pub fn load(dir: &Path) -> Quarantine {
        let Ok(text) = std::fs::read_to_string(dir.join(QUARANTINE_NAME)) else {
            return Quarantine::new();
        };
        let Ok(doc) = Json::parse(&text) else {
            return Quarantine::new();
        };
        let mut strikes = BTreeMap::new();
        if let Some(Json::Obj(pairs)) = doc.get("strikes") {
            for (hash_hex, entry) in pairs {
                let Ok(hash) = u64::from_str_radix(hash_hex, 16) else { continue };
                let Some(n) = entry.get("strikes").and_then(Json::as_u64) else { continue };
                let id = entry.get("id").and_then(Json::as_str).unwrap_or("").to_string();
                strikes.insert(hash, Entry { strikes: n, id });
            }
        }
        Quarantine { strikes }
    }

    /// Consecutive failed runs recorded for `spec`'s config hash.
    pub fn strikes(&self, spec: &JobSpec) -> u64 {
        self.strikes.get(&spec.config_hash()).map_or(0, |e| e.strikes)
    }

    /// The skip for `spec` when its config has accumulated at least
    /// `threshold` consecutive failures: the error both front ends report
    /// for a quarantined job.
    pub fn gate(&self, spec: &JobSpec, threshold: u32) -> Option<JobError> {
        let strikes = self.strikes(spec);
        (strikes >= u64::from(threshold.max(1))).then(|| {
            JobError::other(format!("quarantined after {strikes} consecutive failed runs"))
        })
    }

    /// Records how one job of `spec` ended: a failure adds a strike, a
    /// success or a memo hit clears them, and a job that did not run
    /// (quarantined or pending) leaves them as they are.
    pub fn record(&mut self, spec: &JobSpec, status: JobStatus) {
        match status {
            JobStatus::Failed => {
                let entry = self.strikes.entry(spec.config_hash()).or_default();
                entry.strikes += 1;
                entry.id = spec.id();
            }
            JobStatus::Ok | JobStatus::Cached => {
                self.strikes.remove(&spec.config_hash());
            }
            JobStatus::Quarantined | JobStatus::Pending => {}
        }
    }

    /// Writes the ledger into `dir`, durably (tmp + fsync + rename): a
    /// crash mid-save leaves the previous ledger intact, never a torn
    /// one.
    ///
    /// # Errors
    ///
    /// On failure to write the file.
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        let pairs: Vec<(String, Json)> = self
            .strikes
            .iter()
            .map(|(hash, e)| {
                (
                    format!("{hash:016x}"),
                    Json::obj(vec![
                        ("strikes", Json::U64(e.strikes)),
                        ("id", Json::Str(e.id.clone())),
                    ]),
                )
            })
            .collect();
        let doc = Json::obj(vec![("strikes", Json::Obj(pairs))]);
        crate::store::durable_write(&dir.join(QUARANTINE_NAME), &doc.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_experiments::{HierKind, ModelKind};
    use ff_workloads::Scale;

    fn spec(bench: &'static str) -> JobSpec {
        JobSpec::sim(ModelKind::Multipass, HierKind::Base, bench, 0, Scale::Test)
    }

    #[test]
    fn strikes_accumulate_and_clear() {
        let mut q = Quarantine::new();
        let a = spec("mcf");
        let b = spec("gzip");
        q.record(&a, JobStatus::Failed);
        q.record(&a, JobStatus::Failed);
        q.record(&b, JobStatus::Failed);
        q.record(&b, JobStatus::Quarantined);
        assert_eq!(q.strikes(&a), 2);
        let skip = q.gate(&a, 2).expect("two strikes reach the threshold");
        assert_eq!(skip.to_string(), "other: quarantined after 2 consecutive failed runs");
        assert!(q.gate(&a, 3).is_none());
        assert!(q.gate(&b, 2).is_none());
        q.record(&a, JobStatus::Cached);
        assert_eq!(q.strikes(&a), 0);
        assert!(q.gate(&a, 1).is_none());
    }

    #[test]
    fn keyed_by_config_hash_not_campaign_position() {
        // The same grid point submitted by two different campaigns (any
        // job index, any plan order) shares one strike counter.
        let mut q = Quarantine::new();
        let campaign_one_job_7 = spec("mcf");
        let campaign_two_job_0 =
            JobSpec::sim(ModelKind::Multipass, HierKind::Base, "mcf", 0, Scale::Test);
        q.record(&campaign_one_job_7, JobStatus::Failed);
        q.record(&campaign_one_job_7, JobStatus::Failed);
        assert!(
            q.gate(&campaign_two_job_0, 2).is_some(),
            "hash-keyed strikes must cross campaigns"
        );
        assert_eq!(q.strikes(&campaign_two_job_0), 2);
    }

    #[test]
    fn ledger_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("ff-quarantine-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut q = Quarantine::new();
        q.record(&spec("mcf"), JobStatus::Failed);
        q.record(&spec("mcf"), JobStatus::Failed);
        q.save(&dir).unwrap();
        let back = Quarantine::load(&dir);
        assert_eq!(back, q);
        // The persisted form names the offender for human readers.
        let text = std::fs::read_to_string(dir.join(QUARANTINE_NAME)).unwrap();
        assert!(text.contains("mcf/MP/base/s0@test"), "{text}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_or_corrupt_ledger_is_empty() {
        let dir = std::env::temp_dir().join(format!("ff-quarantine-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(Quarantine::load(&dir), Quarantine::new());
        std::fs::write(dir.join(QUARANTINE_NAME), "not json").unwrap();
        assert_eq!(Quarantine::load(&dir), Quarantine::new());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
