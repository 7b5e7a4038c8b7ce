//! The sharded, memoizing artifact store.
//!
//! Artifacts are content-addressed by [`JobSpec::config_hash`] and laid
//! out in 256 shard directories named by the hash's first two hex chars
//! (`<root>/ab/sim-…-ab12….json`), so a long-running service never puts
//! millions of files in one directory and per-shard locks never contend
//! across shards.
//!
//! Two types live here:
//!
//! * [`ShardedStore`] — the write side and the memo check, behind
//!   per-shard mutexes. `ff-campaign run` opens its `--out` directory as
//!   one and `ff-server` opens its `--store` as one, so both front ends
//!   share one layout, one publish path (sealed, tmp-file + atomic
//!   rename, so readers never observe a torn artifact) and one memo check
//!   ([`ShardedStore::contains`]);
//! * [`ArtifactStore`] — the read side: a local artifact directory or a
//!   campaign server as a [`ResultSource`], so the figure/table
//!   experiments in `ff-experiments` render the same reports from stored
//!   artifacts that `Suite` renders from live simulations.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use ff_engine::RunResult;
use ff_experiments::{HierKind, ModelKind, ResultSource};
use ff_workloads::{Scale, Workload};

use crate::artifact::{parse_report_artifact, parse_sim_artifact};
use crate::chaos;
use crate::integrity::{self, ReadError};
use crate::job::JobSpec;
use crate::remote::{fetch_artifact, ServerUrl};

/// Number of shard directories (two hex chars of the config hash).
pub const SHARD_COUNT: usize = 256;

/// The shard directory name (`"00"`..`"ff"`) for a config hash: the top
/// byte, i.e. the first two hex chars of the filename-embedded hash.
pub fn shard_name(hash: u64) -> String {
    format!("{:02x}", (hash >> 56) as u8)
}

/// The artifact path for `spec` in the sharded layout.
pub fn sharded_path(root: &Path, spec: &JobSpec) -> PathBuf {
    root.join(shard_name(spec.config_hash())).join(spec.artifact_filename())
}

/// Finds an artifact by config hash alone (the `GET /jobs/{hash}` lookup):
/// scans the hash's shard directory for an artifact file name (see
/// [`artifact_hash_of`]) embedding `hash`. A [`durable_write`] temp file
/// ends the same way but is never an artifact.
pub fn find_by_hash(root: &Path, hash: u64) -> Option<PathBuf> {
    let entries = std::fs::read_dir(root.join(shard_name(hash))).ok()?;
    for entry in entries.flatten() {
        let name = entry.file_name();
        if artifact_hash_of(&name.to_string_lossy()) == Some(hash) && entry.path().is_file() {
            return Some(entry.path());
        }
    }
    None
}

static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Writes `text` to `path` durably and atomically: the bytes land in a
/// `.tmp-*` sibling, are fsynced, renamed over the final name, and the
/// parent directory is fsynced so the rename itself survives a crash. A
/// concurrent reader sees either no file or a complete one; a crash at
/// any point leaves at worst an orphaned temp file, swept by the next
/// [`ShardedStore::open`]. All I/O routes through [`chaos`], so the
/// chaos suite exercises exactly this code path.
///
/// # Errors
///
/// On failure to write, fsync, or rename (an injected torn write
/// surfaces here as an error with the partial temp file left behind,
/// exactly like a killed process).
pub fn durable_write(path: &Path, text: &str) -> std::io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty()).unwrap_or(Path::new("."));
    let name = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
    let tmp = dir.join(format!(
        ".tmp-{}-{}-{}",
        std::process::id(),
        TMP_COUNTER.fetch_add(1, Ordering::Relaxed),
        name,
    ));
    chaos::write(&tmp, text.as_bytes())?;
    chaos::fsync_file(&tmp)?;
    chaos::rename(&tmp, path)?;
    chaos::fsync_dir(dir);
    Ok(())
}

/// Removes orphaned `.tmp-*` files (crashed or torn writers) from the
/// store root and every shard directory, returning how many were swept.
/// Racing an in-flight writer is harmless-but-lossy: the writer's
/// rename fails, the job reports a write error, and the retry loop or
/// next resume re-produces the artifact.
///
/// # Errors
///
/// On a filesystem error scanning directories.
fn sweep_tmp(root: &Path) -> std::io::Result<usize> {
    let mut swept = 0;
    let mut dirs = vec![root.to_path_buf()];
    if let Ok(entries) = std::fs::read_dir(root) {
        for entry in entries.flatten() {
            if entry.path().is_dir() {
                dirs.push(entry.path());
            }
        }
    }
    for dir in dirs {
        let Ok(entries) = std::fs::read_dir(&dir) else { continue };
        for entry in entries.flatten() {
            let name = entry.file_name();
            if integrity::is_tmp_name(&name.to_string_lossy()) && entry.path().is_file() {
                std::fs::remove_file(entry.path())?;
                swept += 1;
            }
        }
    }
    Ok(swept)
}

/// Parses a config hash that must be *exactly* 16 lowercase hex chars —
/// the only shape the server and store accept before touching the
/// filesystem, so path-traversal-shaped or abbreviated hashes are
/// rejected up front rather than probed against the disk.
pub fn parse_hash16(text: &str) -> Option<u64> {
    if text.len() != 16 || !text.bytes().all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b)) {
        return None;
    }
    u64::from_str_radix(text, 16).ok()
}

/// Whether a file name looks like an artifact (`sim-…-{16 hex}.json` or
/// `report-…-{16 hex}.json`), returning its embedded config hash.
pub fn artifact_hash_of(name: &str) -> Option<u64> {
    if !name.starts_with("sim-") && !name.starts_with("report-") {
        return None;
    }
    let stem = name.strip_suffix(".json")?;
    let (_, hex) = stem.rsplit_once('-')?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// The sharded artifact layout behind per-shard mutexes: the memo cache
/// both `ff-campaign run` and `ff-server` resolve jobs against. Lookups
/// and publishes for
/// the same shard serialize; different shards never contend. (In-flight
/// deduplication — two concurrent requests for the same hash simulating
/// once — is the scheduler's job; the store guarantees only that a
/// published artifact is complete and that a lookup racing a publish sees
/// one or the other.)
pub struct ShardedStore {
    root: PathBuf,
    locks: Vec<Mutex<()>>,
    counters: StoreCounters,
}

/// Integrity observability for one [`ShardedStore`], surfaced by
/// `ff-server`'s `/healthz`.
#[derive(Debug, Default)]
pub struct StoreCounters {
    /// Reads that verified a checksum footer.
    pub sealed_reads: AtomicU64,
    /// Corrupt artifacts detected (and moved to the `corrupt/` ledger).
    pub corrupt_detected: AtomicU64,
    /// Orphaned `.tmp-*` files swept at open.
    pub tmp_swept: AtomicU64,
}

impl StoreCounters {
    /// The counters as a JSON object (the `"store"` section of
    /// `ff-server`'s `/healthz`).
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::obj(vec![
            ("sealed_reads", Json::U64(self.sealed_reads.load(Ordering::Relaxed))),
            ("corrupt_detected", Json::U64(self.corrupt_detected.load(Ordering::Relaxed))),
            ("tmp_swept", Json::U64(self.tmp_swept.load(Ordering::Relaxed))),
        ])
    }
}

impl ShardedStore {
    /// Opens (creating if needed) the store rooted at `root`, sweeping
    /// any orphaned `.tmp-*` files left by crashed writers.
    ///
    /// # Errors
    ///
    /// On failure to create the root directory or scan it for the sweep.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        let swept = sweep_tmp(&root)?;
        let counters = StoreCounters::default();
        counters.tmp_swept.store(swept as u64, Ordering::Relaxed);
        Ok(ShardedStore {
            root,
            locks: (0..SHARD_COUNT).map(|_| Mutex::new(())).collect(),
            counters,
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The store's integrity counters.
    pub fn counters(&self) -> &StoreCounters {
        &self.counters
    }

    fn lock(&self, hash: u64) -> std::sync::MutexGuard<'_, ()> {
        let guard = self.locks[(hash >> 56) as usize].lock();
        // A poisoned shard lock only means another thread panicked while
        // holding it; the layout itself is rename-atomic, so proceed.
        guard.unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Verifies and strips the integrity footer of the artifact at
    /// `path`. A corrupt file is moved to the `corrupt/` ledger
    /// (self-healing: the next lookup is a memoization miss that
    /// re-simulates) and reads as absent. Caller holds the shard lock.
    fn read_verified_locked(&self, path: &Path) -> Option<String> {
        match integrity::read_verified(path) {
            Ok((payload, _)) => {
                self.counters.sealed_reads.fetch_add(1, Ordering::Relaxed);
                Some(payload)
            }
            Err(ReadError::Io(_)) => None,
            Err(ReadError::Corrupt(reason)) => {
                self.counters.corrupt_detected.fetch_add(1, Ordering::Relaxed);
                let _ = integrity::quarantine_corrupt(&self.root, path, &reason);
                None
            }
        }
    }

    /// Whether a *verified* artifact for `spec` exists. A corrupt entry
    /// counts as absent — and is healed away — so memoization can never
    /// serve damaged bytes.
    pub fn contains(&self, spec: &JobSpec) -> bool {
        self.read(spec).is_some()
    }

    /// Reads the artifact for `spec`, if present and intact.
    pub fn read(&self, spec: &JobSpec) -> Option<String> {
        let _guard = self.lock(spec.config_hash());
        self.read_verified_locked(&sharded_path(&self.root, spec))
    }

    /// Reads an artifact by config hash alone, verifying integrity.
    pub fn read_by_hash(&self, hash: u64) -> Option<String> {
        let _guard = self.lock(hash);
        self.read_verified_locked(&find_by_hash(&self.root, hash)?)
    }

    /// Runs a full integrity scan over the store (see
    /// [`integrity::fsck`]), folding what it finds into the counters.
    ///
    /// # Errors
    ///
    /// On a filesystem error scanning the store.
    pub fn fsck(&self) -> std::io::Result<integrity::FsckReport> {
        // Serialize against every shard by taking no per-shard locks but
        // relying on rename-atomicity: fsck only ever moves whole files
        // that fail verification, which a concurrent publish replaces
        // wholesale anyway.
        let report = integrity::fsck(&self.root)?;
        self.counters.corrupt_detected.fetch_add(report.corrupt.len() as u64, Ordering::Relaxed);
        self.counters.tmp_swept.fetch_add(report.orphan_tmp as u64, Ordering::Relaxed);
        Ok(report)
    }

    /// Publishes `text` as the artifact for `spec`, sealed with an
    /// integrity footer ([`integrity::seal`]) and written durably
    /// ([`durable_write`]): a concurrent reader sees either no artifact or
    /// a complete, checksummed one, never a torn write, and the artifact
    /// survives a crash immediately after the call returns.
    ///
    /// # Errors
    ///
    /// On failure to create the shard directory or write/fsync/rename the
    /// file.
    pub fn publish(&self, spec: &JobSpec, text: &str) -> std::io::Result<PathBuf> {
        let _guard = self.lock(spec.config_hash());
        let path = sharded_path(&self.root, spec);
        std::fs::create_dir_all(path.parent().expect("sharded path has a parent"))?;
        durable_write(&path, &integrity::seal(text))?;
        Ok(path)
    }
}

/// Where an [`ArtifactStore`] reads a spec's artifact text from.
enum Origin {
    /// A local artifact directory in the sharded layout, read verified.
    Dir(PathBuf),
    /// A campaign server's store, read through `GET /jobs/{hash}`.
    Server(ServerUrl),
}

/// Stored artifacts as a [`ResultSource`], memoized per grid point: a
/// local artifact directory ([`ArtifactStore::new`]) or a campaign
/// server's store ([`ArtifactStore::remote`]) — submit once, render
/// anywhere. The origins differ only in how a spec's text is fetched and
/// which command a missing artifact asks for.
pub struct ArtifactStore {
    origin: Origin,
    scale: Scale,
    cache: BTreeMap<(ModelKind, HierKind, &'static str, u64), RunResult>,
}

impl ArtifactStore {
    /// Opens (without scanning) the artifact directory for `scale`.
    pub fn new(dir: impl Into<PathBuf>, scale: Scale) -> Self {
        ArtifactStore { origin: Origin::Dir(dir.into()), scale, cache: BTreeMap::new() }
    }

    /// Reads artifacts for `scale` from the campaign server at `url`.
    pub fn remote(url: ServerUrl, scale: Scale) -> Self {
        ArtifactStore { origin: Origin::Server(url), scale, cache: BTreeMap::new() }
    }

    /// The stored artifact text for `spec`.
    ///
    /// # Errors
    ///
    /// Describes the missing or corrupt artifact, including the command
    /// that would produce it.
    fn fetch(&self, spec: &JobSpec) -> Result<String, String> {
        match &self.origin {
            Origin::Dir(dir) => {
                let path = sharded_path(dir, spec);
                integrity::read_verified(&path).map(|(text, _)| text).map_err(|e| match e {
                    ReadError::Io(e) => format!(
                        "no artifact for {} at {} ({e}); run `ff-campaign run --all --scale {}` first",
                        spec.id(),
                        path.display(),
                        crate::job::scale_name(self.scale),
                    ),
                    ReadError::Corrupt(reason) => format!(
                        "corrupt artifact {}: {reason}; run `ff-campaign fsck` to quarantine and re-simulate",
                        path.display(),
                    ),
                })
            }
            Origin::Server(url) => fetch_artifact(url, &format!("{:016x}", spec.config_hash()))
                .map_err(|e| {
                    format!(
                        "no artifact for {} on {url} ({e}); submit the campaign first \
                         (`ff-campaign submit --server {url}`)",
                        spec.id(),
                    )
                }),
        }
    }

    /// Loads the simulation result for one grid point.
    ///
    /// # Errors
    ///
    /// Describes the missing/corrupt artifact, including the command that
    /// would produce it.
    pub fn try_result_seeded(
        &mut self,
        model: ModelKind,
        hier: HierKind,
        bench: &'static str,
        seed: u64,
    ) -> Result<&RunResult, String> {
        let key = (model, hier, bench, seed);
        if !self.cache.contains_key(&key) {
            let spec = JobSpec::sim(model, hier, bench, seed, self.scale);
            let result = parse_sim_artifact(&spec, &self.fetch(&spec)?)
                .map_err(|e| format!("corrupt artifact for {}: {e}", spec.id()))?;
            self.cache.insert(key, result);
        }
        Ok(&self.cache[&key])
    }
}

impl ResultSource for ArtifactStore {
    fn benchmarks(&self) -> Vec<&'static str> {
        Workload::NAMES.to_vec()
    }

    fn result(&mut self, model: ModelKind, hier: HierKind, bench: &'static str) -> &RunResult {
        self.result_seeded(model, hier, bench, 0)
    }

    fn result_seeded(
        &mut self,
        model: ModelKind,
        hier: HierKind,
        bench: &'static str,
        seed: u64,
    ) -> &RunResult {
        self.try_result_seeded(model, hier, bench, seed).unwrap_or_else(|e| panic!("{e}"))
    }

    fn report_text(&mut self, name: &'static str) -> Result<String, String> {
        let spec = JobSpec::report(name, self.scale);
        parse_report_artifact(&spec, &self.fetch(&spec)?)
            .map_err(|e| format!("corrupt artifact for {}: {e}", spec.id()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::render_sim_artifact;
    use ff_experiments::Suite;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ff-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn store_round_trips_a_live_result_from_the_sharded_layout() {
        let dir = temp_dir("roundtrip");
        let w = Workload::by_name("mesa", Scale::Test).unwrap();
        let live = Suite::execute(ModelKind::InOrder, HierKind::Base, &w);
        let spec = JobSpec::sim(ModelKind::InOrder, HierKind::Base, "mesa", 0, Scale::Test);
        ShardedStore::open(&dir)
            .unwrap()
            .publish(&spec, &render_sim_artifact(&spec, &live))
            .unwrap();

        let mut store = ArtifactStore::new(&dir, Scale::Test);
        let loaded = store.result(ModelKind::InOrder, HierKind::Base, "mesa");
        assert_eq!(loaded.stats, live.stats);
        // Artifacts deliberately exclude the simulator's self-instrumentation
        // counters, so the round trip zeroes them; everything else survives.
        let mut expected = live.activity;
        expected.select_visits = 0;
        expected.alloc_count = 0;
        assert_eq!(loaded.activity, expected);
        assert_eq!(loaded.mem_stats, live.mem_stats);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lookups_search_only_the_hash_shard() {
        let dir = temp_dir("byhash");
        let spec = JobSpec::sim(ModelKind::Ooo, HierKind::Base, "mcf", 0, Scale::Test);
        let hash = spec.config_hash();
        assert!(find_by_hash(&dir, hash).is_none());
        let store = ShardedStore::open(&dir).unwrap();
        assert_eq!(store.publish(&spec, "{}\n").unwrap(), sharded_path(&dir, &spec));
        assert_eq!(find_by_hash(&dir, hash), Some(sharded_path(&dir, &spec)));
        // A copy directly under the root is not part of the layout.
        std::fs::remove_file(sharded_path(&dir, &spec)).unwrap();
        std::fs::write(dir.join(spec.artifact_filename()), integrity::seal("{}\n")).unwrap();
        assert!(find_by_hash(&dir, hash).is_none());
        assert!(!store.contains(&spec));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sharded_store_publishes_and_reads_under_locks() {
        let dir = temp_dir("shared");
        let store = ShardedStore::open(&dir).unwrap();
        let spec = JobSpec::sim(ModelKind::Multipass, HierKind::Base, "gzip", 0, Scale::Test);
        assert!(!store.contains(&spec));
        assert!(store.read(&spec).is_none());
        store.publish(&spec, "{\"x\": 1}\n").unwrap();
        assert!(store.contains(&spec));
        assert_eq!(store.read(&spec).unwrap(), "{\"x\": 1}\n");
        assert_eq!(store.read_by_hash(spec.config_hash()).unwrap(), "{\"x\": 1}\n");
        assert!(store.read_by_hash(0xdead_beef).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_by_hash_skips_orphaned_tmp_files() {
        let dir = temp_dir("orphan");
        let store = ShardedStore::open(&dir).unwrap();
        let spec = JobSpec::sim(ModelKind::InOrder, HierKind::Base, "vpr", 0, Scale::Test);
        let path = store.publish(&spec, "{\"x\": 1}\n").unwrap();
        // Torn writes of the same artifact, as a killed writer leaves them
        // behind a live store (the sweep only runs at open).
        for n in 0..8 {
            let orphan = format!(".tmp-1-{n}-{}", spec.artifact_filename());
            std::fs::write(path.with_file_name(orphan), "{\"x\"").unwrap();
        }
        assert_eq!(find_by_hash(&dir, spec.config_hash()), Some(path));
        assert_eq!(store.read_by_hash(spec.config_hash()).unwrap(), "{\"x\": 1}\n");
        assert_eq!(store.counters().corrupt_detected.load(Ordering::Relaxed), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_names_cover_the_hash_prefix() {
        assert_eq!(shard_name(0x0000_0000_0000_0000), "00");
        assert_eq!(shard_name(0xab12_3456_789a_bcde), "ab");
        assert_eq!(shard_name(0xff00_0000_0000_0001), "ff");
        let spec = JobSpec::sim(ModelKind::Ooo, HierKind::Config2, "art", 3, Scale::Paper);
        let f = spec.artifact_filename();
        // The shard name is the filename-embedded hash's first two chars.
        let hex = format!("{:016x}", spec.config_hash());
        assert_eq!(shard_name(spec.config_hash()), hex[..2].to_string());
        assert!(f.contains(&hex));
    }

    #[test]
    fn parse_hash16_accepts_only_exact_lowercase_hex() {
        assert_eq!(parse_hash16("00000000deadbeef"), Some(0xdead_beef));
        assert_eq!(parse_hash16("ffffffffffffffff"), Some(u64::MAX));
        for bad in [
            "deadbeef",
            "00000000DEADBEEF",
            "../../../../etc/p",
            "0000000deadbeef!",
            "00000000deadbeef0",
            "",
        ] {
            assert_eq!(parse_hash16(bad), None, "{bad:?} must be rejected");
        }
    }

    #[test]
    fn open_sweeps_orphaned_tmp_files_and_counts_them() {
        let dir = temp_dir("sweep");
        let shard = dir.join("ab");
        std::fs::create_dir_all(&shard).unwrap();
        std::fs::write(dir.join(".tmp-1-0-sim-x.json"), "partial").unwrap();
        std::fs::write(shard.join(".tmp-2-1-sim-y.json"), "partial").unwrap();
        std::fs::write(dir.join("manifest.json"), "{}\n").unwrap();
        let store = ShardedStore::open(&dir).unwrap();
        assert_eq!(store.counters().tmp_swept.load(Ordering::Relaxed), 2);
        assert!(!dir.join(".tmp-1-0-sim-x.json").exists());
        assert!(!shard.join(".tmp-2-1-sim-y.json").exists());
        assert!(dir.join("manifest.json").exists(), "bystanders survive the sweep");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_artifact_reads_as_absent_and_is_quarantined() {
        let dir = temp_dir("selfheal");
        let store = ShardedStore::open(&dir).unwrap();
        let spec = JobSpec::sim(ModelKind::Multipass, HierKind::Config1, "gzip", 1, Scale::Test);
        let path = store.publish(&spec, "{\"x\": 42}\n").unwrap();
        assert!(store.contains(&spec));
        // Silently truncate the sealed artifact on disk.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 10]).unwrap();
        assert!(store.read(&spec).is_none(), "truncated artifact must not be served");
        assert!(!path.exists(), "corrupt artifact must be healed away");
        assert!(!store.contains(&spec), "healed entry is a memoization miss");
        assert_eq!(store.counters().corrupt_detected.load(Ordering::Relaxed), 1);
        let ledger_dir = dir.join(crate::integrity::CORRUPT_DIR);
        assert!(ledger_dir.join(spec.artifact_filename()).exists(), "specimen kept in ledger");
        // Republish: the store is whole again.
        store.publish(&spec, "{\"x\": 42}\n").unwrap();
        assert_eq!(store.read(&spec).unwrap(), "{\"x\": 42}\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_write_is_atomic_and_leaves_no_tmp() {
        let dir = temp_dir("durable");
        let path = dir.join("file.json");
        durable_write(&path, "{\"a\": 1}\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"a\": 1}\n");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "no temp debris after a clean write");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_artifact_error_names_the_campaign_command() {
        let mut store = ArtifactStore::new("/nonexistent-ff-campaign-dir", Scale::Test);
        let err = store.try_result_seeded(ModelKind::Ooo, HierKind::Base, "mcf", 0).unwrap_err();
        assert!(err.contains("ff-campaign run --all"), "{err}");
        assert!(err.contains("mcf/ooo/base/s0@test"), "{err}");
    }
}
