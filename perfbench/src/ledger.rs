//! The traced replay: each workload's job list driven through the
//! program's public layer entry points on the campaign pool, with a span
//! around every call, then a read pass, a results render and a server
//! pass. Its spans give the per-layer ledger.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ff_engine::{SimCase, TickMode};
use ff_experiments::{reports, ModelKind, Suite};
use ff_harness::artifact::{parse_sim_artifact, render_report_artifact, render_sim_artifact};
use ff_harness::job::{JobKind, JobSpec, REPORT_NAMES};
use ff_harness::pool::run_jobs;
use ff_harness::store::{find_by_hash, sharded_path, ShardedStore};
use ff_harness::{durable_write, integrity, render_all, ArtifactStore};
use ff_server::{HttpOptions, HttpServer, Scheduler, Service};
use ff_workloads::Workload;

use crate::client::{check_statuses, Client, Health, Rng};
use crate::digest::{check_golden, digest};
use crate::stats::{median, percentile, sorted, supported_percentile};
use crate::trace::{append, layer_totals, self_times, trace_event_json, Span, Tracer};
use crate::workload::{scheduler_options, Kind, Report, WorkDir, WORKERS};

/// Benchmarks whose sim jobs are replayed untraced and traced to
/// measure the tracer's own cost.
const OVERHEAD_BENCHES: [&str; 3] = ["gzip", "vpr", "mcf"];

/// At most this many untraced/traced pairs, started within
/// `OVERHEAD_BUDGET` (at paper scale one pair exceeds it).
const OVERHEAD_PAIRS: usize = 7;
const OVERHEAD_BUDGET: Duration = Duration::from_secs(3);

/// `GET /jobs` samples the server pass collects: enough for a p99.9.
const LEDGER_GETS: usize = 10_000;

/// Extra `GET /campaigns/{id}` calls timed after the campaign is done.
const STATUS_REPS: usize = 31;

/// HTTP worker threads, as `ff_server::Server` starts them.
const HTTP_THREADS: usize = 4;

/// Least share of busy worker time the named layers must account for.
const MIN_LAYER_COVER: f64 = 0.95;

/// Where the trace-event file and the per-layer metrics are written.
const OUT_DIR: &str = ".bench_out";

/// Per-worker replay state: the span recorder and the workload cache
/// (each worker generates a (bench, seed) workload once, as the
/// campaign pool's `JobContext` does).
struct Worker {
    tracer: Tracer,
    workloads: BTreeMap<(&'static str, u64), Workload>,
}

/// Simulated-time counts of one sim job.
#[derive(Clone, Copy, Default)]
struct SimCounts {
    cycles: u64,
    retired: u64,
    executions: u64,
    select_visits: u64,
}

struct JobOut {
    spans: Vec<Span>,
    sealed: String,
    sim: Option<SimCounts>,
}

/// One job through generate → build → simulate (or report) → render →
/// seal → durable write, as `ff_harness::attempt_job` plus
/// `write_artifact` perform it.
fn replay_job(w: &mut Worker, index: usize, spec: &JobSpec, root: &Path) -> Result<JobOut, String> {
    let Worker { tracer, workloads } = w;
    tracer.set_job(Some(index as u32));
    let out: Result<(String, Option<SimCounts>), String> = tracer.span("job", "", |t| {
        let (text, sim) = match &spec.kind {
            JobKind::Sim { model, hier, bench, seed } => {
                let key = (*bench, *seed);
                if let Entry::Vacant(slot) = workloads.entry(key) {
                    let w = t.span("workloads.gen", "", |_| {
                        Workload::by_name_seeded(bench, spec.scale, *seed)
                    });
                    slot.insert(w.ok_or_else(|| format!("unknown benchmark {bench}"))?);
                }
                let w = &workloads[&key];
                let (mut m, case) = t.span("engine.build", "", |_| {
                    let mut m = Suite::build_model(*model, *hier);
                    m.set_tick_mode(TickMode::default());
                    (m, SimCase::new(&w.program, w.mem.clone()))
                });
                let result = t
                    .span("sim", model.name(), |_| m.try_run(&case))
                    .map_err(|e| format!("{}: {e}", spec.id()))?;
                let sim = SimCounts {
                    cycles: result.stats.cycles,
                    retired: result.stats.retired,
                    executions: result.stats.executions,
                    select_visits: result.activity.select_visits,
                };
                (t.span("artifact.render", "", |_| render_sim_artifact(spec, &result)), Some(sim))
            }
            JobKind::Report { name } => {
                let text = t.span("report", name, |_| match *name {
                    "ablation_structures" => Ok(reports::ablation_structures(spec.scale)),
                    "unroll_effect" => Ok(reports::unroll_effect()),
                    other => Err(format!("unknown report {other}")),
                })?;
                (t.span("artifact.render", "", |_| render_report_artifact(spec, &text)), None)
            }
        };
        let sealed = t.span("integrity.seal", "", |_| integrity::seal(&text));
        t.span("store.durable_write", "", |_| {
            let path = sharded_path(root, spec);
            std::fs::create_dir_all(path.parent().expect("sharded path has a parent"))?;
            durable_write(&path, &sealed)
        })
        .map_err(|e| format!("{}: write: {e}", spec.id()))?;
        Ok((sealed, sim))
    });
    tracer.set_job(None);
    let (sealed, sim) = out?;
    Ok(JobOut { spans: tracer.take(), sealed, sim })
}

/// Runs `jobs` on the campaign pool with `WORKERS` workers, writing into
/// `root`. Returns the per-job outputs (in job order) and the wall time.
fn replay(
    jobs: &[JobSpec],
    root: &Path,
    traced: bool,
    origin: Instant,
) -> Result<(Vec<JobOut>, f64), String> {
    let t = Instant::now();
    let outs = run_jobs(
        jobs,
        WORKERS,
        |wid| Worker {
            tracer: Tracer::new(traced, origin, 1 + wid as u32),
            workloads: BTreeMap::new(),
        },
        |w, i, spec| replay_job(w, i, spec, root),
    );
    let wall = t.elapsed().as_secs_f64();
    let outs = outs
        .into_iter()
        .zip(jobs)
        .map(|(o, spec)| o.unwrap_or_else(|| Err(format!("{} panicked", spec.id()))))
        .collect::<Result<Vec<_>, String>>()?;
    Ok((outs, wall))
}

/// Handler-side timings of the server pass, per route, in call order.
type Timings = Arc<Mutex<BTreeMap<&'static str, Vec<(Instant, Instant)>>>>;

fn route(method: &str, path: &str) -> &'static str {
    match (method, path) {
        ("POST", "/campaigns") => "submit",
        ("GET", p) if p.starts_with("/campaigns/") => "status",
        ("GET", p) if p.starts_with("/jobs/") => "get_job",
        _ => "other",
    }
}

/// What the server pass measured.
struct ServerPass {
    submit: Vec<f64>,
    status: Vec<f64>,
    get_job: Vec<f64>,
    client: Vec<f64>,
    transport: Vec<f64>,
    /// Health polls until done, per campaign.
    polls: f64,
    delta: Health,
}

/// Starts the `ff_server::Server` stack over `root` with a handler that
/// times `Service::handle`, submits the workload's campaign once per
/// entry of `outcomes` (the status every job must end in), waits for each
/// to finish, and GETs every artifact `LEDGER_GETS` times over in seeded
/// order. Client spans get the matching handler interval as a child, so
/// a GET's self time is its transport share.
#[allow(clippy::too_many_arguments)]
fn server_pass(
    kind: Kind,
    root: &Path,
    outcomes: &[&str],
    jobs: &[JobSpec],
    want: &[String],
    seed: u64,
    t: &mut Tracer,
    report: &mut Report,
) -> Result<ServerPass, String> {
    let store = ShardedStore::open(root).map_err(|e| format!("open store: {e}"))?;
    store.fsck().map_err(|e| format!("fsck: {e}"))?;
    let service = Arc::new(Service::new(Scheduler::start(store, scheduler_options())));
    let timings: Timings = Arc::default();
    let (svc, log) = (Arc::clone(&service), Arc::clone(&timings));
    let http = HttpServer::start_with(
        "127.0.0.1:0",
        HttpOptions { threads: HTTP_THREADS, ..HttpOptions::default() },
        Arc::clone(service.transport()),
        move |request| {
            let start = Instant::now();
            let response = svc.handle(request);
            let end = Instant::now();
            let r = route(&request.method, &request.path);
            log.lock().expect("timing log poisoned").entry(r).or_default().push((start, end));
            response
        },
    )
    .map_err(|e| format!("bind: {e}"))?;
    let mut client = Client::new(http.addr());
    // The i-th handler call of a route answers the i-th client request
    // of that route: there is one client and it waits for each reply.
    let mut seen: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut handled = |t: &mut Tracer, r: &'static str| -> Option<f64> {
        let log = timings.lock().expect("timing log poisoned");
        let n = seen.entry(r).or_insert(0);
        let (start, end) = *log.get(r)?.get(*n)?;
        *n += 1;
        t.record("service.handle", start, end);
        Some((end - start).as_secs_f64())
    };

    let before = client.health();
    let (mut submit, mut status) = (Vec::new(), Vec::new());
    let mut polls = 0;
    let mut last = None;
    for want_status in outcomes {
        let id = t.span("client.submit", "", |t| {
            let id = client.submit(&kind.request());
            submit.extend(handled(t, "submit"));
            id
        });
        let Some(id) = id else { continue };
        let done = t.span("client.wait", "", |t| {
            let done = client.wait_done(&id);
            status.extend(handled(t, "status"));
            done
        });
        if let Some((st, n)) = done {
            polls += n;
            report.check(check_statuses(&st, jobs.len(), want_status));
        }
        last = Some(id);
    }
    // The status document of the finished campaign, timed a few more
    // times for a steadier median.
    if let Some(id) = last {
        for _ in 0..STATUS_REPS {
            t.span("client.status", "", |t| {
                client.request("GET", &format!("/campaigns/{id}"), None);
                status.extend(handled(t, "status"));
            });
        }
    }
    let after = client.health();
    let delta = match (before, after) {
        (Some(b), Some(a)) => b.delta(&a),
        _ => Health::default(),
    };

    let hashes: Vec<u64> = jobs.iter().map(JobSpec::config_hash).collect();
    let mut rng = Rng::new(seed);
    let (mut get_job, mut client_s, mut transport) = (Vec::new(), Vec::new(), Vec::new());
    let mut order: Vec<usize> = (0..hashes.len()).collect();
    while client_s.len() < LEDGER_GETS {
        rng.shuffle(&mut order);
        for &i in &order {
            let body = t.span("client.get_job", "", |t| {
                let (body, secs) = client.get_job(hashes[i]);
                if let Some(h) = handled(t, "get_job") {
                    get_job.push(h);
                    client_s.push(secs);
                    transport.push(secs - h);
                }
                body
            });
            if body.is_some_and(|b| b != want[i]) {
                report
                    .problems
                    .push(format!("GET /jobs/{:016x} differs from the store", hashes[i]));
            }
        }
    }
    http.shutdown();
    service.scheduler().shutdown();
    report.attempted += client.attempted + jobs.len() as u64;
    report.failed += client.failed;
    report.problems.extend(client.errors);
    let polls = polls as f64 / outcomes.len() as f64;
    Ok(ServerPass { submit, status, get_job, client: client_s, transport, polls, delta })
}

/// Percentile `p` of `samples`, or 0 when there are none (a failed run).
fn pct(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    percentile(&sorted(samples), p)
}

fn p50(samples: &[f64]) -> f64 {
    pct(samples, 50.0)
}

/// `num / den`, or 0 when `den` is 0 (a failed run).
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Durations (seconds) of every span named `name`.
fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 / 1e9).collect()
}

/// Every per-layer metric name the ledger emits, in output order.
pub fn metric_names() -> Vec<String> {
    let mut names = Vec::new();
    for model in ModelKind::ALL {
        for field in [
            "host_s",
            "ns_per_cycle",
            "ns_per_inst",
            "cycles",
            "retired",
            "useful_frac",
            "visits_per_inst",
        ] {
            names.push(format!("sim.{}.{field}", model.name()));
        }
    }
    names.extend(
        [
            "reports.ablation_structures_s",
            "reports.unroll_effect_s",
            "store.durable_write_ms_p50",
            "store.durable_write_share",
            "integrity.seal_us_p50",
            "artifact.render_us_p50",
            "store.read_by_hash_us_p50",
            "store.contains_us_p50",
            "integrity.read_verified_us_p50",
            "artifact.parse_us_p50",
            "service.get_job_us_p50",
            "service.status_ms_p50",
            "service.submit_ms_p50",
            "scheduler.polls_per_campaign",
            "client.get_job_us_p50",
            "client.get_job_us_p99",
            "transport.get_job_us_p50",
            "transport.get_job_us_p999",
            "transport.get_job_samples",
            "scheduler.hits",
            "scheduler.misses",
            "scheduler.inflight_dedup",
            "pool.busy_frac",
            "workloads.gen_s",
            "engine.build_s",
            "experiments.render_all_s",
            "trace.overhead_frac",
            "trace.layer_cover_frac",
        ]
        .map(String::from),
    );
    names
}

pub fn run(kind: Kind, seed: u64) -> Result<Report, String> {
    let work =
        WorkDir::new(&format!("{}-trace", kind.name())).map_err(|e| format!("scratch: {e}"))?;
    let mut report = Report::default();
    let origin = Instant::now();
    let scale = kind.scale();
    let jobs = kind.jobs();

    // Tracer cost: the same sub-grid replayed untraced and traced.
    let sub: Vec<JobSpec> = jobs
        .iter()
        .filter(
            |j| matches!(&j.kind, JobKind::Sim { bench, .. } if OVERHEAD_BENCHES.contains(bench)),
        )
        .cloned()
        .collect();
    // Pairs are repeated while they are cheap (test scale), alternating
    // which side runs first: the second replay's fsyncs can wait on the
    // first one's writeback.
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while off.is_empty() || (off.len() < OVERHEAD_PAIRS && started.elapsed() < OVERHEAD_BUDGET) {
        let n = off.len();
        for traced in [n % 2 == 1, n % 2 == 0] {
            let dir = work.join(&format!("overhead-{n}-{traced}"));
            let (_, wall) = replay(&sub, &dir, traced, origin)?;
            if traced { &mut on } else { &mut off }.push(wall);
        }
    }

    // The workload's own jobs, then (for serve-warm, whose
    // campaign has none) the report jobs `render_all` needs; those are
    // left out of the shares below.
    let root = work.join("replay");
    let (outs, wall_s) = replay(&jobs, &root, true, origin)?;
    let extra: Vec<JobSpec> = REPORT_NAMES
        .iter()
        .map(|name| JobSpec::report(name, scale))
        .filter(|spec| !jobs.contains(spec))
        .collect();
    let (extra_outs, _) = replay(&extra, &root, true, origin)?;
    report.attempted += (jobs.len() + extra.len()) as u64;

    let sealed: Vec<(u64, Vec<u8>)> = jobs
        .iter()
        .zip(&outs)
        .map(|(j, o)| (j.config_hash(), o.sealed.clone().into_bytes()))
        .collect();
    report.check(check_golden(kind.scale_name(), &digest(&sealed)));

    let mut spans = Vec::new();
    for o in &outs {
        append(&mut spans, o.spans.clone());
    }
    let replay_spans = spans.len();
    for o in &extra_outs {
        // Job indices of the extra jobs continue after the workload's.
        let shifted =
            o.spans.iter().map(|s| Span { job: s.job.map(|j| j + jobs.len() as u32), ..s.clone() });
        append(&mut spans, shifted.collect());
    }

    // Read pass, results render and server pass on the main thread.
    let mut t = Tracer::new(true, origin, 0);
    let store = ShardedStore::open(&root).map_err(|e| format!("open store: {e}"))?;
    let mut want = Vec::with_capacity(jobs.len());
    for spec in &jobs {
        let hash = spec.config_hash();
        if !t.span("store.contains", "", |_| store.contains(spec)) {
            report.problems.push(format!("{} missing from the store", spec.id()));
        }
        let by_hash = t.span("store.read_by_hash", "", |_| store.read_by_hash(hash));
        let path = find_by_hash(&root, hash).ok_or_else(|| format!("{} not on disk", spec.id()))?;
        let payload = t
            .span("integrity.read_verified", "", |_| integrity::read_verified(&path))
            .map(|(payload, _)| payload)
            .map_err(|e| format!("{}: {e}", spec.id()))?;
        if by_hash.as_deref() != Some(payload.as_str()) {
            report.problems.push(format!("{}: read_by_hash differs from the file", spec.id()));
        }
        if matches!(spec.kind, JobKind::Sim { .. }) {
            if let Err(e) = t.span("artifact.parse", "", |_| parse_sim_artifact(spec, &payload)) {
                report.problems.push(format!("{}: {e}", spec.id()));
            }
        }
        want.push(payload);
    }
    let results = work.join("results");
    if let Err(e) = t.span("experiments.render_all", "", |_| {
        render_all(&mut ArtifactStore::new(&root, scale), scale, &results, wall_s)
    }) {
        report.problems.push(format!("render: {e}"));
    }
    // campaign-paper resubmits over the replayed store (all hits).
    // serve-warm fills a server's empty store through the scheduler (all
    // misses: its simulate-seal-publish path), then resubmits (all hits).
    let (server_root, outcomes) = match kind {
        Kind::CampaignPaper => (root.clone(), &["hit"][..]),
        Kind::ServeWarm => (work.join("served"), &["ok", "hit"][..]),
    };
    let pass = server_pass(kind, &server_root, outcomes, &jobs, &want, seed, &mut t, &mut report)?;
    let count = |s: &str| (outcomes.iter().filter(|&&o| o == s).count() * jobs.len()) as u64;
    let n = outcomes.len() as u64;
    let want_delta = Health {
        campaigns: n,
        campaigns_done: n,
        hits: count("hit"),
        misses: count("ok"),
        inflight_dedup: 0,
    };
    if pass.delta != want_delta {
        report.problems.push(format!("server pass: {:?}, want {want_delta:?}", pass.delta));
    }
    append(&mut spans, t.take());

    // ---- the ledger ----
    let own = &spans[..replay_spans];
    let own_self = self_times(own);
    let busy_ns: u64 = own.iter().filter(|s| s.name == "job").map(Span::dur_ns).sum();
    let layer_ns: u64 =
        own.iter().zip(&own_self).filter(|(s, _)| s.name != "job").map(|(_, &n)| n).sum();
    let totals = layer_totals(&spans);
    let total_s = |name: &str| -> f64 {
        totals.iter().filter(|((n, _), _)| *n == name).map(|(_, t)| t.dur_ns).sum::<u64>() as f64
            / 1e9
    };
    let p50_of = |name: &str| p50(&durations(&spans, name));

    let mut per_model: BTreeMap<&'static str, (SimCounts, f64)> = BTreeMap::new();
    for (o, spec) in outs.iter().zip(&jobs) {
        if let (Some(c), JobKind::Sim { model, .. }) = (o.sim, &spec.kind) {
            let host: u64 = o.spans.iter().filter(|s| s.name == "sim").map(Span::dur_ns).sum();
            let e = per_model.entry(model.name()).or_default();
            e.0.cycles += c.cycles;
            e.0.retired += c.retired;
            e.0.executions += c.executions;
            e.0.select_visits += c.select_visits;
            e.1 += host as f64 / 1e9;
        }
    }
    for model in ModelKind::ALL {
        let (c, host_s) = per_model.get(model.name()).copied().unwrap_or_default();
        let m = model.name();
        report.metric(&format!("sim.{m}.host_s"), host_s, "s");
        report.metric(&format!("sim.{m}.ns_per_cycle"), ratio(host_s * 1e9, c.cycles as f64), "ns");
        report.metric(&format!("sim.{m}.ns_per_inst"), ratio(host_s * 1e9, c.retired as f64), "ns");
        report.metric(&format!("sim.{m}.cycles"), c.cycles as f64, "count");
        report.metric(&format!("sim.{m}.retired"), c.retired as f64, "count");
        report.metric(
            &format!("sim.{m}.useful_frac"),
            ratio(c.retired as f64, c.executions as f64),
            "ratio",
        );
        report.metric(
            &format!("sim.{m}.visits_per_inst"),
            ratio(c.select_visits as f64, c.retired as f64),
            "ratio",
        );
    }
    let report_s = |name: &str| -> f64 {
        totals
            .iter()
            .filter(|((n, d), _)| *n == "report" && *d == name)
            .map(|(_, t)| t.dur_ns)
            .sum::<u64>() as f64
            / 1e9
    };
    report.metric("reports.ablation_structures_s", report_s("ablation_structures"), "s");
    report.metric("reports.unroll_effect_s", report_s("unroll_effect"), "s");
    let own_write: u64 =
        own.iter().filter(|s| s.name == "store.durable_write").map(Span::dur_ns).sum();
    report.metric(
        "store.durable_write_ms_p50",
        p50(&durations(own, "store.durable_write")) * 1e3,
        "ms",
    );
    report.metric("store.durable_write_share", ratio(own_write as f64, busy_ns as f64), "ratio");
    report.metric("integrity.seal_us_p50", p50(&durations(own, "integrity.seal")) * 1e6, "us");
    report.metric("artifact.render_us_p50", p50(&durations(own, "artifact.render")) * 1e6, "us");
    report.metric("store.read_by_hash_us_p50", p50_of("store.read_by_hash") * 1e6, "us");
    report.metric("store.contains_us_p50", p50_of("store.contains") * 1e6, "us");
    report.metric("integrity.read_verified_us_p50", p50_of("integrity.read_verified") * 1e6, "us");
    report.metric("artifact.parse_us_p50", p50_of("artifact.parse") * 1e6, "us");
    report.metric("service.get_job_us_p50", p50(&pass.get_job) * 1e6, "us");
    report.metric("service.status_ms_p50", p50(&pass.status) * 1e3, "ms");
    report.metric("service.submit_ms_p50", p50(&pass.submit) * 1e3, "ms");
    report.metric("scheduler.polls_per_campaign", pass.polls, "count");
    report.metric("client.get_job_us_p50", p50(&pass.client) * 1e6, "us");
    report.metric("client.get_job_us_p99", pct(&pass.client, 99.0) * 1e6, "us");
    let top = supported_percentile(pass.transport.len()).unwrap_or(50.0).min(99.9);
    report.metric("transport.get_job_us_p50", p50(&pass.transport) * 1e6, "us");
    report.metric("transport.get_job_us_p999", pct(&pass.transport, top) * 1e6, "us");
    report.metric("transport.get_job_samples", pass.transport.len() as f64, "count");
    report.metric("scheduler.hits", pass.delta.hits as f64, "count");
    report.metric("scheduler.misses", pass.delta.misses as f64, "count");
    report.metric("scheduler.inflight_dedup", pass.delta.inflight_dedup as f64, "count");
    report.metric("pool.busy_frac", ratio(busy_ns as f64 / 1e9, wall_s * WORKERS as f64), "ratio");
    report.metric("workloads.gen_s", total_s("workloads.gen"), "s");
    report.metric("engine.build_s", total_s("engine.build"), "s");
    report.metric("experiments.render_all_s", total_s("experiments.render_all"), "s");
    report.metric("trace.overhead_frac", ratio(median(&on), median(&off)) - 1.0, "ratio");
    let cover = ratio(layer_ns as f64, busy_ns as f64);
    report.metric("trace.layer_cover_frac", cover, "ratio");
    if cover < MIN_LAYER_COVER {
        report.problems.push(format!("named layers cover {cover:.3} of busy worker time"));
    }
    assert_eq!(report.metrics.iter().map(|m| m.name.clone()).collect::<Vec<_>>(), metric_names());

    write_outputs(kind, seed, &spans, &jobs, &extra, &report)?;
    Ok(report)
}

/// Writes `<workload>-seed<n>.trace.json` (trace events) and
/// `<workload>-seed<n>.layers.json` (the ledger plus per-layer self
/// times) under `OUT_DIR`.
fn write_outputs(
    kind: Kind,
    seed: u64,
    spans: &[Span],
    jobs: &[JobSpec],
    extra: &[JobSpec],
    report: &Report,
) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let stem = Path::new(OUT_DIR).join(format!("{}-seed{seed}", kind.name()));
    let names: Vec<String> = jobs.iter().chain(extra).map(JobSpec::id).collect();
    let trace = trace_event_json(spans, &names);
    std::fs::write(stem.with_extension("trace.json"), trace)
        .map_err(|e| format!("write trace: {e}"))?;
    let mut doc = String::from("{\n  \"metrics\": {\n");
    for (i, m) in report.metrics.iter().enumerate() {
        doc.push_str(&format!(
            "    \"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}{}\n",
            m.name,
            m.value,
            m.unit,
            if i + 1 == report.metrics.len() { "" } else { "," }
        ));
    }
    doc.push_str("  },\n  \"self_time_s\": {\n");
    let totals = layer_totals(spans);
    let rows: Vec<String> = totals
        .iter()
        .map(|((n, d), t)| {
            let key = if d.is_empty() { n.to_string() } else { format!("{n}:{d}") };
            format!(
                "    \"{key}\": {{\"calls\": {}, \"self_s\": {:?}}}",
                t.calls,
                t.self_ns as f64 / 1e9
            )
        })
        .collect();
    doc.push_str(&rows.join(",\n"));
    doc.push_str("\n  }\n}\n");
    std::fs::write(stem.with_extension("layers.json"), doc)
        .map_err(|e| format!("write layers: {e}"))?;
    Ok(())
}
