//! Parallel experiment campaign runner for the flea-flicker simulator.
//!
//! `ff-harness` turns the (model × hierarchy × benchmark × scale × seed)
//! experiment space into independent jobs and runs them on a
//! work-stealing pool of scoped threads, with:
//!
//! * **checkpoint/resume** — each completed job is a content-addressed
//!   JSON artifact ([`job::JobSpec::config_hash`]); re-running a campaign
//!   skips jobs whose artifact already exists, checksum intact, in the
//!   [`store::ShardedStore`] its `--out` directory is opened as;
//! * **watchdogs** — a per-job cycle budget aborts runaway simulations as
//!   `failed: timeout` instead of hanging the campaign
//!   ([`ff_engine::RunError::CycleBudgetExceeded`]);
//! * **retries** — transient failures re-attempt up to `--retries` times;
//! * **panic isolation** — a panicking job is caught at the job boundary
//!   ([`pool::run_jobs`]), classified as [`error::JobErrorKind::Panic`],
//!   and recorded in the manifest; the other workers keep running;
//! * **sentinels** — `--sentinels` runs every simulation under the full
//!   `ff-sentinel` invariant-checker set, failing jobs whose runs violate
//!   a pipeline invariant even when they produce plausible numbers;
//! * **quarantine** — `--quarantine-after N` skips configs that failed
//!   `N` consecutive prior runs ([`quarantine::Quarantine`]), so one
//!   wedged grid point cannot burn its watchdog budget on every resume;
//! * **crash bundles** — every terminal simulation failure writes a
//!   replayable [`bundle::CrashBundle`] (grid coordinates, classified
//!   error, last retirements) consumable by the `ff-debug` triage flow;
//! * **reproducible manifests** — `manifest.json` records config hashes,
//!   seeds, scale, git revision, per-job wall time, and worker count;
//! * **a sharded, memoizing artifact store** — artifacts are
//!   content-addressed by config hash and sharded across 256 directories
//!   by hash prefix; [`store::ShardedStore`] is the one memo check and
//!   publish path ([`store`]);
//! * **artifact-backed rendering** — [`store::ArtifactStore`] implements
//!   [`ff_experiments::ResultSource`] over a local artifact directory or
//!   a campaign server's store, so every figure/table under `results/`
//!   re-renders from stored artifacts without re-simulating
//!   ([`render_results::render_all`]);
//! * **a service protocol** — [`remote`] holds the `ff-server` wire
//!   protocol and a std-only HTTP client, and [`http`] the HTTP/1.1
//!   message framing that client and `ff-server` share.
//!
//! The `ff-campaign` binary is the CLI front end; the long-running
//! service lives in the `ff-server` crate. Both resolve a job through the
//! same lifecycle — [`store::ShardedStore::contains`] as the memo check,
//! the [`Quarantine`] gate only under `--quarantine-after`, and
//! [`execute_job`] for the attempts, publish and crash bundle — so a
//! served artifact is byte-identical to a CLI-produced one. See
//! `EXPERIMENTS.md`.
//!
//! Artifacts are byte-deterministic: a `--jobs 4` campaign produces
//! bit-for-bit the same files as `--jobs 1` (pinned by the
//! `parallel_equals_serial` integration test). Determinism comes from job
//! independence — workers race only for *which* job to pull next, never
//! over a job's inputs or outputs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod bundle;
pub mod campaign;
pub mod chaos;
pub mod error;
pub mod http;
pub mod integrity;
pub mod job;
pub mod json;
pub mod manifest;
pub mod pool;
pub mod quarantine;
pub mod remote;
pub mod render_results;
pub mod store;

pub use bundle::{list_bundles, CrashBundle};
pub use campaign::{
    attempt_job, execute_job, full_grid, run_campaign, Attempt, CampaignOptions, CampaignReport,
    ExecOptions, FailureInjection, JobFilter, JobOutcome, JobStatus,
};
pub use error::{JobError, JobErrorKind};
pub use integrity::FsckReport;
pub use job::{JobKind, JobSpec, FORMAT_VERSION};
pub use manifest::{read_manifest, write_manifest, ManifestSummary};
pub use quarantine::Quarantine;
pub use remote::{CampaignRequest, CampaignStatus, RetryPolicy, ServerUrl};
pub use render_results::render_all;
pub use store::{durable_write, parse_hash16, ArtifactStore, ShardedStore};
