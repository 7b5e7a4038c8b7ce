//! The workloads, what each submits, and the pieces every run shares:
//! the scratch directory, the result record, peak RSS, host steal.

use std::path::{Path, PathBuf};

use ff_harness::campaign::JobFilter;
use ff_harness::job::{scale_name, JobSpec};
use ff_harness::remote::CampaignRequest;
use ff_server::SchedulerOptions;
use ff_workloads::Scale;

/// Simulation workers in every workload (the campaign pool and the
/// server's scheduler alike).
pub const WORKERS: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A cold `run --all --scale paper`, rendered to `results/`.
    CampaignPaper,
    /// The test-scale sim grid resubmitted to a server over a warm store,
    /// plus `GET /jobs/{hash}` of every artifact.
    ServeWarm,
}

impl Kind {
    pub const ALL: [Kind; 2] = [Kind::CampaignPaper, Kind::ServeWarm];

    pub fn name(self) -> &'static str {
        match self {
            Kind::CampaignPaper => "campaign-paper",
            Kind::ServeWarm => "serve-warm",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    pub fn scale(self) -> Scale {
        match self {
            Kind::CampaignPaper => Scale::Paper,
            Kind::ServeWarm => Scale::Test,
        }
    }

    pub fn scale_name(self) -> &'static str {
        scale_name(self.scale())
    }

    /// The campaign this workload runs: the full `run --all` plan at
    /// paper scale, or the test-scale sim grid without report jobs.
    pub fn request(self) -> CampaignRequest {
        CampaignRequest {
            scale: self.scale(),
            filter: JobFilter::default(),
            reports: self == Kind::CampaignPaper,
        }
    }

    pub fn jobs(self) -> Vec<JobSpec> {
        self.request().expand()
    }
}

pub fn scheduler_options() -> SchedulerOptions {
    SchedulerOptions { workers: WORKERS, ..SchedulerOptions::default() }
}

/// A scratch directory under the working directory, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(tag: &str) -> std::io::Result<WorkDir> {
        let dir = PathBuf::from(".bench_work").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either (fails harmlessly while
        // another run still uses it).
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// One metric of a run's result line.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run measured and whether its outputs were right.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Extra figures printed in the human-readable table only.
    pub notes: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.to_string(), value, unit });
    }

    pub fn note(&mut self, name: &str, value: f64, unit: &'static str) {
        self.notes.push(Metric { name: name.to_string(), value, unit });
    }

    /// Records a failed correctness check.
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            self.problems.push(e);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Restarts this process's peak-RSS counter (`VmHWM`) from the current
/// resident set, so that [`rss_peak_mb`] reports the peak since now.
pub fn reset_rss_peak() {
    // "5" resets the peak (Linux ≥ 4.0); without it the peak simply
    // covers more of the run.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cumulative `(steal, total)` CPU ticks of the machine (`/proc/stat`).
/// Steal is time a virtual CPU was ready but the hypervisor ran someone
/// else: on a shared host it is the main source of run-to-run noise.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().take(8).sum())
}

/// The verified payload (checksum footer stripped) of each artifact in
/// `hashes`, as `GET /jobs/{hash}` must serve it.
pub fn payloads(root: &Path, hashes: &[u64]) -> Result<Vec<String>, String> {
    hashes
        .iter()
        .map(|&hash| {
            let path = ff_harness::store::find_by_hash(root, hash)
                .ok_or_else(|| format!("artifact {hash:016x} missing"))?;
            ff_harness::integrity::read_verified(&path)
                .map(|(payload, _)| payload)
                .map_err(|e| format!("{}: {e}", path.display()))
        })
        .collect()
}
