//! End-to-end runs (tracing off): what a user of each path waits for.
//!
//! serve-warm, and the GET phase of campaign-paper, run as a
//! fixed number of windows of identical work. Each window records the
//! host's CPU steal over it (see [`cpu_ticks`]), and latencies are taken
//! from the quieter half of the windows: on a shared virtual machine the
//! hypervisor's steal moves a 0.1 ms request's tail tenfold, and it comes
//! and goes within seconds. `--seconds` sizes the work, so that both
//! sides of a comparison do the same work and a faster program simply
//! finishes sooner; only on a host slowed past `DEADLINE_FACTOR` does a
//! run cut its work short.

use std::time::{Duration, Instant};

use ff_harness::campaign::{run_campaign, CampaignOptions};
use ff_harness::job::JobSpec;
use ff_harness::{render_all, write_manifest, ArtifactStore};
use ff_server::Server;

use crate::client::{check_statuses, Client, Health, Rng};
use crate::digest::{check_golden, digest, read_store};
use crate::stats::{median, percentile, sorted, supported_percentile};
use crate::workload::{
    cpu_ticks, payloads, reset_rss_peak, rss_peak_mb, scheduler_options, Kind, Report, WorkDir,
    WORKERS,
};

/// The end-to-end metrics every run reports, in output order. The GET
/// p99 is printed but not among them: it follows the host's CPU steal
/// (0.21 ms with none, 2–10 ms at 30%) and no bound can hold it.
pub const METRICS: [&str; 4] = ["setup_s", "campaign_s", "get_job_p50_ms", "rss_peak_mb"];

/// Set-ups timed per run; the run reports their median. A campaign
/// set-up is ~0.1 ms and a server start ~7 ms, both short enough for one
/// descheduled thread to double them, so they are timed many times.
const SETUP_REPS: usize = 41;

/// serve-warm rounds per window (a round is ~50 ms).
const WARM_ROUNDS_PER_WINDOW: usize = 10;

/// serve-warm windows per `--seconds` (a window is ten ~50 ms rounds).
const WARM_WINDOWS_PER_S: f64 = 2.0;

/// The fewest windows serve-warm runs, however short `--seconds` is.
const MIN_WINDOWS: usize = 6;

/// serve-warm stops starting windows (past `MIN_WINDOWS`) once it
/// has run this many times `--seconds`, so a heavily loaded host cannot
/// stretch a run without bound.
const DEADLINE_FACTOR: u32 = 2;

/// campaign-paper GET phase: windows of `PAPER_PASSES` passes over its
/// 326 artifacts, ~5 s in all, so that one second of a busy host does
/// not set the run's figure.
const PAPER_WINDOWS: usize = 20;
const PAPER_PASSES: usize = 8;

/// One window of identical work, the host steal while it ran, and the
/// process's peak RSS over it.
#[derive(Default)]
struct Window {
    steal: f64,
    rss_mb: f64,
    gets: Vec<f64>,
    campaign: Vec<f64>,
}

/// Starts a window: resets the peak-RSS counter, reads the CPU ticks.
fn open_window() -> (Window, (u64, u64)) {
    reset_rss_peak();
    (Window::default(), cpu_ticks())
}

/// Ends a window begun at `ticks`.
fn close_window(mut w: Window, ticks: (u64, u64), windows: &mut Vec<Window>) {
    w.steal = steal_since(ticks);
    w.rss_mb = rss_peak_mb();
    windows.push(w);
}

/// The share of CPU ticks stolen by the hypervisor since `since`.
fn steal_since(since: (u64, u64)) -> f64 {
    let (steal, total) = cpu_ticks();
    (steal - since.0) as f64 / (total - since.1).max(1) as f64
}

/// The quieter half of `windows` (by host steal, ties in run order).
fn quiet_half(mut windows: Vec<Window>) -> Vec<Window> {
    windows.sort_by(|a, b| a.steal.total_cmp(&b.steal));
    windows.truncate(windows.len().div_ceil(2));
    windows
}

/// How many serve-warm windows to run, and until when to start new ones.
struct Plan {
    windows: usize,
    deadline: Instant,
}

impl Plan {
    fn new(seconds: u64) -> Plan {
        Plan {
            windows: ((seconds as f64 * WARM_WINDOWS_PER_S) as usize).max(MIN_WINDOWS),
            deadline: Instant::now() + Duration::from_secs(seconds) * DEADLINE_FACTOR,
        }
    }

    fn more(&self, done: usize) -> bool {
        done < MIN_WINDOWS || (done < self.windows && Instant::now() < self.deadline)
    }
}

pub fn run(kind: Kind, seed: u64, seconds: u64) -> Result<Report, String> {
    let work = WorkDir::new(kind.name()).map_err(|e| format!("scratch directory: {e}"))?;
    let mut report = Report::default();
    let windows = match kind {
        Kind::CampaignPaper => campaign_paper(&work, seed, &mut report)?,
        Kind::ServeWarm => serve_warm(&work, seed, Plan::new(seconds), &mut report)?,
    };
    let n = windows.len();
    let mean_steal = windows.iter().map(|w| w.steal).sum::<f64>() / n as f64;
    let rss: Vec<f64> = windows.iter().map(|w| w.rss_mb).collect();
    let kept = quiet_half(windows);
    report.note("windows", n as f64, "count");
    report.note("window_steal_mean", mean_steal, "ratio");
    report.note("kept_window_steal_max", kept.last().map_or(0.0, |w| w.steal), "ratio");
    let campaign: Vec<f64> = kept.iter().flat_map(|w| w.campaign.iter().copied()).collect();
    if !campaign.is_empty() {
        report.metric("campaign_s", median(&campaign), "s");
    }
    let ms: Vec<f64> = kept.iter().flat_map(|w| w.gets.iter().map(|s| s * 1e3)).collect();
    let ms = sorted(&ms);
    let top = supported_percentile(ms.len()).unwrap_or(0.0);
    if top < 99.0 {
        return Err(format!("only {} GET samples in the kept windows; a p99 needs 1000", ms.len()));
    }
    report.metric("get_job_p50_ms", percentile(&ms, 50.0), "ms");
    report.note("get_job_p99_ms", percentile(&ms, 99.0), "ms");
    report.note(&format!("get_job_p{top}_ms"), percentile(&ms, top), "ms");
    report.note("get_job_samples", ms.len() as f64, "count");
    if !report.metrics.iter().any(|m| m.name == "rss_peak_mb") {
        // The lower quartile of the per-window peaks: for stretches of a
        // run the allocator's arenas keep ~6 MiB of freed memory resident
        // on top of what a round needs, so the run's absolute peak, or
        // even the median window, jumps between two levels.
        report.metric("rss_peak_mb", percentile(&sorted(&rss), 25.0), "MiB");
    }
    report.note("error_ratio", report.failed as f64 / report.attempted.max(1) as f64, "ratio");
    report.metrics.sort_by_key(|m| METRICS.iter().position(|&n| n == m.name));
    debug_assert!(report.metrics.iter().map(|m| m.name.as_str()).eq(METRICS));
    Ok(report)
}

fn hashes(jobs: &[JobSpec]) -> Vec<u64> {
    jobs.iter().map(JobSpec::config_hash).collect()
}

/// Checks the sealed on-disk artifacts under `root` against the golden
/// digest, and returns their payloads for the served-bytes check.
fn check_store(kind: Kind, root: &std::path::Path, hashes: &[u64]) -> Result<Vec<String>, String> {
    check_golden(kind.scale_name(), &digest(&read_store(root, hashes)?))?;
    payloads(root, hashes)
}

/// GETs every artifact once in a seeded order, checking each body
/// against the store's payload.
fn get_all(
    client: &mut Client,
    rng: &mut Rng,
    hashes: &[u64],
    want: &[String],
    window: &mut Window,
    report: &mut Report,
) {
    let mut order: Vec<usize> = (0..hashes.len()).collect();
    rng.shuffle(&mut order);
    for i in order {
        let (body, secs) = client.get_job(hashes[i]);
        window.gets.push(secs);
        if body.is_some_and(|b| b != want[i]) {
            report.problems.push(format!("GET /jobs/{:016x} differs from the store", hashes[i]));
        }
    }
}

fn finish_client(client: Client, report: &mut Report) {
    report.attempted += client.attempted;
    report.failed += client.failed;
    report.problems.extend(client.errors);
}

/// Cold `run --all --scale paper`: plan, run, manifest, render. Then a
/// server over the finished store answers `GET /jobs` for every artifact.
fn campaign_paper(work: &WorkDir, seed: u64, report: &mut Report) -> Result<Vec<Window>, String> {
    let kind = Kind::CampaignPaper;
    let scale = kind.scale();
    let options = |dir| CampaignOptions { workers: WORKERS, ..CampaignOptions::new(scale, dir) };
    // Set-up: plan expansion plus the runner's fixed cost (store
    // directory, orphan sweep, pool start) with no jobs to run.
    let mut setup = Vec::new();
    for rep in 0..SETUP_REPS {
        let dir = work.join(&format!("setup-{rep}"));
        let t = Instant::now();
        let jobs = kind.jobs();
        run_campaign(&[], &options(dir)).map_err(|e| format!("campaign set-up: {e}"))?;
        setup.push(t.elapsed().as_secs_f64());
        std::hint::black_box(jobs);
    }
    report.metric("setup_s", median(&setup), "s");

    let store = work.join("store");
    let results = work.join("results");
    reset_rss_peak();
    let t = Instant::now();
    let jobs = kind.jobs();
    let run = run_campaign(&jobs, &options(store.clone())).map_err(|e| format!("campaign: {e}"))?;
    write_manifest(&store, &run).map_err(|e| format!("manifest: {e}"))?;
    let rendered = render_all(&mut ArtifactStore::new(&store, scale), scale, &results, run.wall_s);
    report.metric("campaign_s", t.elapsed().as_secs_f64(), "s");
    report.metric("rss_peak_mb", rss_peak_mb(), "MiB");

    report.attempted += jobs.len() as u64;
    report.failed += (run.failed() + run.quarantined()) as u64;
    if run.ok() != jobs.len() {
        report.problems.push(format!("{} of {} jobs ran", run.ok(), jobs.len()));
    }
    match rendered {
        Ok(files) if files.len() == ff_harness::render_results::RESULTS_FILES.len() => {
            for f in &files {
                if std::fs::metadata(f).map_or(true, |m| m.len() == 0) {
                    report.problems.push(format!("{} is empty", f.display()));
                }
            }
        }
        Ok(files) => report.problems.push(format!("rendered {} results files", files.len())),
        Err(e) => report.problems.push(format!("render: {e}")),
    }
    let hashes = hashes(&jobs);
    let want = check_store(kind, &store, &hashes)?;

    let server = Server::start("127.0.0.1:0", &store, scheduler_options())
        .map_err(|e| format!("server start: {e}"))?;
    let mut client = Client::new(server.addr());
    let mut rng = Rng::new(seed);
    let mut windows = Vec::new();
    for _ in 0..PAPER_WINDOWS {
        let (mut w, ticks) = open_window();
        for _ in 0..PAPER_PASSES {
            get_all(&mut client, &mut rng, &hashes, &want, &mut w, report);
        }
        close_window(w, ticks, &mut windows);
    }
    server.shutdown();
    finish_client(client, report);
    Ok(windows)
}

/// A warm store populated once (untimed); a server over it started
/// several times (set-up); then windows of rounds that resubmit the grid
/// (all memo hits) and GET every artifact in a seeded order.
fn serve_warm(
    work: &WorkDir,
    seed: u64,
    plan: Plan,
    report: &mut Report,
) -> Result<Vec<Window>, String> {
    let kind = Kind::ServeWarm;
    let request = kind.request();
    let jobs = kind.jobs();
    let hashes = hashes(&jobs);
    let store = work.join("store");
    let fill = CampaignOptions { workers: WORKERS, ..CampaignOptions::new(kind.scale(), &store) };
    let filled = run_campaign(&jobs, &fill).map_err(|e| format!("populate: {e}"))?;
    if filled.ok() != jobs.len() {
        return Err(format!("populate: {} of {} jobs ran", filled.ok(), jobs.len()));
    }
    let want = check_store(kind, &store, &hashes)?;

    let mut setup = Vec::new();
    let mut server = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let s = Server::start("127.0.0.1:0", &store, scheduler_options())
            .map_err(|e| format!("server start: {e}"))?;
        setup.push(t.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            s.shutdown();
        } else {
            server = Some(s);
        }
    }
    report.metric("setup_s", median(&setup), "s");
    let server = server.expect("SETUP_REPS > 0");
    let mut client = Client::new(server.addr());
    let mut rng = Rng::new(seed);
    let mut windows = Vec::new();
    let before = client.health();
    while plan.more(windows.len()) {
        let (mut w, ticks) = open_window();
        for _ in 0..WARM_ROUNDS_PER_WINDOW {
            let t = Instant::now();
            let done = client.submit(&request).and_then(|id| client.wait_done(&id));
            w.campaign.push(t.elapsed().as_secs_f64());
            if let Some((status, _)) = &done {
                report.check(check_statuses(status, jobs.len(), "hit"));
            }
            report.attempted += jobs.len() as u64;
            get_all(&mut client, &mut rng, &hashes, &want, &mut w, report);
        }
        close_window(w, ticks, &mut windows);
    }
    let after = client.health();
    if let (Some(before), Some(after)) = (before, after) {
        let rounds = (windows.len() * WARM_ROUNDS_PER_WINDOW) as u64;
        let want = Health {
            campaigns: rounds,
            campaigns_done: rounds,
            hits: rounds * jobs.len() as u64,
            ..Health::default()
        };
        if before.delta(&after) != want {
            report.problems.push(format!("warm rounds: {:?}, want {want:?}", before.delta(&after)));
        }
    }
    server.shutdown();
    finish_client(client, report);
    Ok(windows)
}
