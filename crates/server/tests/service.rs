//! End-to-end HTTP tests: a real `Server` on an ephemeral port, driven
//! through the same `ff_harness::remote` client the CLI uses, running
//! real simulations at test scale — plus the transport-hardening
//! scenarios: hash-shape validation, oversized-body rejection,
//! load-shedding, retry-through-reset, and crash-damaged restarts.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ff_experiments::{HierKind, ModelKind};
use ff_harness::campaign::{attempt_job, ExecOptions, JobFilter};
use ff_harness::job::{JobKind, JobSpec};
use ff_harness::json::Json;
use ff_harness::quarantine::QUARANTINE_NAME;
use ff_harness::remote::{
    campaign_status, fetch_artifact, http_get, http_request, submit_campaign, CampaignRequest,
    ServerUrl,
};
use ff_harness::{
    run_campaign, ArtifactStore, Attempt, CampaignOptions, FailureInjection, JobError,
};
use ff_server::{Request, Scheduler, SchedulerOptions, Server, Service, CAMPAIGNS_DIR};
use ff_workloads::Scale;

/// A fresh store directory under the system temp dir, removed when the
/// test ends, whether it passes or panics.
struct TempStore(std::path::PathBuf);

impl std::ops::Deref for TempStore {
    type Target = std::path::Path;

    fn deref(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TempStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn temp_dir(tag: &str) -> TempStore {
    let dir = std::env::temp_dir().join(format!(
        "ff-server-e2e-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id(),
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    TempStore(dir)
}

fn start(store: &std::path::Path) -> (Server, ServerUrl) {
    let opts = SchedulerOptions { workers: 2, ..SchedulerOptions::default() };
    let server = Server::start("127.0.0.1:0", store, opts).expect("server starts");
    let url = ServerUrl::parse(&server.addr().to_string()).expect("addr parses");
    (server, url)
}

fn tiny_request() -> CampaignRequest {
    CampaignRequest {
        scale: Scale::Test,
        filter: JobFilter {
            models: vec![ModelKind::InOrder],
            hiers: vec![HierKind::Base],
            benches: vec!["gzip".to_string(), "mcf".to_string()],
            seeds: vec![0],
        },
        reports: false,
    }
}

fn wait_done(url: &ServerUrl, id: &str) -> ff_harness::remote::CampaignStatus {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let status = campaign_status(url, id).expect("status");
        if status.done {
            return status;
        }
        assert!(Instant::now() < deadline, "campaign {id} did not finish");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Waits for an in-process scheduler's campaign and returns its status.
fn wait_scheduled(scheduler: &Scheduler, id: &str) -> Json {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let status = scheduler.status(id).expect("campaign exists");
        if matches!(status.get("done"), Some(Json::Bool(true))) {
            return status;
        }
        assert!(Instant::now() < deadline, "campaign {id} did not finish");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn counter(url: &ServerUrl, name: &str) -> u64 {
    let body = http_get(url, "/healthz").expect("healthz");
    let doc = Json::parse(&body).expect("healthz JSON");
    doc.get("counters").and_then(|c| c.get(name)).and_then(Json::as_u64).unwrap_or(u64::MAX)
}

#[test]
fn http_submission_memoizes_and_serves_byte_identical_artifacts() {
    let store = temp_dir("memo");
    let (server, url) = start(&store);

    let request = tiny_request();
    let (first, total) = submit_campaign(&url, &request).expect("submit");
    assert_eq!(total, 2);
    let status = wait_done(&url, &first);
    assert_eq!(status.counts.get("ok"), Some(&2), "counts: {:?}", status.counts);
    assert_eq!(counter(&url, "misses"), 2);

    // Every artifact the server serves must be byte-identical to what a
    // direct in-process run of the same job produces.
    let exec = ExecOptions::default();
    for job in &status.jobs {
        let served = fetch_artifact(&url, &job.hash).expect("fetch");
        let spec =
            request.expand().into_iter().find(|s| s.id() == job.id).expect("job spec in expansion");
        let direct = attempt_job(&spec, &exec, None).result.expect("direct run");
        assert_eq!(served, direct, "artifact for {} must match a direct run", job.id);
    }

    // Resubmitting the identical request is a fresh campaign that costs
    // zero simulations: every job is a memo hit.
    let (second, _) = submit_campaign(&url, &request).expect("resubmit");
    assert_ne!(first, second);
    let status = wait_done(&url, &second);
    assert_eq!(status.counts.get("hit"), Some(&2), "counts: {:?}", status.counts);
    assert_eq!(counter(&url, "misses"), 2, "resubmission must not simulate");
    assert_eq!(counter(&url, "hits"), 2);

    // Rendering reads the same results from the store directory and
    // through the server, and a missing point names the command to run.
    let mut local = ArtifactStore::new(&*store, Scale::Test);
    let mut remote = ArtifactStore::remote(url.clone(), Scale::Test);
    let point = (ModelKind::InOrder, HierKind::Base, "mcf", 0);
    let on_disk = local.try_result_seeded(point.0, point.1, point.2, point.3).expect("local");
    let served = remote.try_result_seeded(point.0, point.1, point.2, point.3).expect("remote");
    assert_eq!(served.stats, on_disk.stats);
    let missing = remote.try_result_seeded(ModelKind::Ooo, HierKind::Base, "mcf", 0).unwrap_err();
    assert!(missing.contains("submit the campaign first"), "{missing}");

    server.shutdown();
}

#[test]
fn unknown_routes_and_bad_requests_report_json_errors() {
    let store = temp_dir("errors");
    let (server, url) = start(&store);

    let (code, body) = http_request(&url, "GET", "/nope", None).expect("request");
    assert_eq!(code, 404);
    assert!(body.contains("error"), "body: {body}");

    let (code, _) = http_request(&url, "GET", "/campaigns/c999", None).expect("request");
    assert_eq!(code, 404);

    let (code, _) = http_request(&url, "GET", "/jobs/not-hex", None).expect("request");
    assert_eq!(code, 400);

    let (code, _) =
        http_request(&url, "POST", "/campaigns", Some("{\"scale\": \"bogus\"}")).expect("request");
    assert_eq!(code, 400);

    let (code, _) = http_request(&url, "DELETE", "/campaigns", None).expect("request");
    assert_eq!(code, 405);

    server.shutdown();
}

/// A campaign whose filter matches no job can never succeed, so it is a
/// client error (`400`, no `Retry-After`); only a stopping server answers
/// `503` with a `Retry-After`.
#[test]
fn an_empty_campaign_is_a_400_and_only_a_stopping_server_says_retry() {
    let store = temp_dir("empty");
    let empty = r#"{"scale":"test","filter":{"seeds":[9]}}"#;
    let (server, url) = start(&store);
    let (code, body) = http_request(&url, "POST", "/campaigns", Some(empty)).expect("request");
    assert_eq!(code, 400, "body: {body}");
    assert!(body.contains("matches no jobs"), "body: {body}");
    server.shutdown();

    let post = |body: &str| Request {
        method: "POST".to_string(),
        path: "/campaigns".to_string(),
        body: body.to_string(),
    };
    let service = Service::new(Scheduler::start(
        ff_harness::store::ShardedStore::open(&*store).expect("store"),
        SchedulerOptions { workers: 1, ..SchedulerOptions::default() },
    ));
    let response = service.handle(&post(empty));
    assert_eq!((response.status, response.retry_after), (400, None));
    service.scheduler().shutdown();
    let response = service.handle(&post(&tiny_request().to_json().render()));
    assert_eq!((response.status, response.retry_after), (503, Some(2)), "{}", response.body);
}

#[test]
fn shutdown_checkpoints_and_a_restarted_server_resumes_from_the_store() {
    let store = temp_dir("restart");
    let (server, url) = start(&store);
    let request = tiny_request();
    let (id, _) = submit_campaign(&url, &request).expect("submit");
    wait_done(&url, &id);
    server.shutdown();

    let manifest = store.join(CAMPAIGNS_DIR).join(&id).join("manifest.json");
    assert!(manifest.exists(), "graceful shutdown must write a checkpoint manifest");

    // The restarted server resumes the checkpointed campaign under its
    // original id; the artifacts already published make every job a memo
    // hit, so the resume costs zero simulations.
    let (server, url) = start(&store);
    let status = wait_done(&url, &id);
    assert_eq!(status.counts.get("hit"), Some(&2), "counts: {:?}", status.counts);
    assert_eq!(counter(&url, "misses"), 0, "resume must not re-simulate");
    server.shutdown();
}

#[test]
fn the_server_memoizes_artifacts_published_by_a_direct_cli_style_run() {
    let store = temp_dir("cross");
    let request = tiny_request();

    // A past `ff-campaign run --out <store>` fills the store first.
    let opts = CampaignOptions { workers: 2, ..CampaignOptions::new(Scale::Test, &*store) };
    assert_eq!(run_campaign(&request.expand(), &opts).expect("campaign").ok(), 2);

    let (server, url) = start(&store);
    let (id, _) = submit_campaign(&url, &request).expect("submit");
    let status = wait_done(&url, &id);
    assert_eq!(status.counts.get("hit"), Some(&2), "counts: {:?}", status.counts);
    assert_eq!(counter(&url, "misses"), 0, "existing artifacts must be reused");

    // And the served bytes are exactly the stored bytes.
    for job in &status.jobs {
        let spec: Vec<JobSpec> = request.expand();
        let spec = spec.into_iter().find(|s| s.id() == job.id).expect("spec");
        assert!(matches!(spec.kind, JobKind::Sim { .. }));
        let served = fetch_artifact(&url, &job.hash).expect("fetch");
        let stored = ff_harness::store::ShardedStore::open(&*store)
            .expect("store")
            .read(&spec)
            .expect("stored artifact");
        assert_eq!(served, stored);
    }
    server.shutdown();
}

/// One quarantine rule for both front ends. The ledger
/// `ff-campaign run --quarantine-after 2` leaves in a store blocks the
/// same config on a scheduler over that store, with the message the
/// batch runner reports; and a scheduler without `--quarantine-after`
/// runs a failing job without writing a ledger.
#[test]
fn the_cli_quarantine_ledger_gates_the_server_only_under_the_flag() {
    let store = temp_dir("quarantine");
    let request = CampaignRequest {
        filter: JobFilter { benches: vec!["gap".to_string()], ..tiny_request().filter },
        ..tiny_request()
    };
    let jobs = request.expand();
    let mut opts = CampaignOptions::new(Scale::Test, &*store);
    opts.workers = 1;
    opts.quarantine_after = Some(2);
    opts.inject =
        Some(FailureInjection { id_substring: "gap".into(), times: u32::MAX, panic: false });
    for _ in 0..2 {
        assert_eq!(run_campaign(&jobs, &opts).expect("campaign").failed(), 1);
    }
    let batch = run_campaign(&jobs, &opts).expect("campaign");
    assert_eq!(batch.quarantined(), 1);
    let batch_error = batch.outcomes[0].error.as_ref().expect("quarantine error").to_string();

    let failing = |runs: Arc<AtomicUsize>| -> Box<ff_server::scheduler::Executor> {
        Box::new(move |_spec, _exec| {
            runs.fetch_add(1, Ordering::SeqCst);
            Attempt::synthetic(Err(JobError::other("synthetic failure")))
        })
    };
    let runs = Arc::new(AtomicUsize::new(0));
    let gated = Scheduler::start_with_executor(
        ff_harness::store::ShardedStore::open(&*store).expect("store"),
        SchedulerOptions { workers: 1, quarantine_after: Some(2), ..SchedulerOptions::default() },
        failing(Arc::clone(&runs)),
    );
    let (id, _) = gated.submit(&request).expect("submit");
    let status = wait_scheduled(&gated, &id);
    gated.shutdown();
    let job = &status.get("jobs").and_then(Json::as_arr).expect("jobs")[0];
    assert_eq!(job.get("status").and_then(Json::as_str), Some("quarantined"));
    assert_eq!(job.get("error").and_then(Json::as_str), Some(batch_error.as_str()));
    assert_eq!(runs.load(Ordering::SeqCst), 0, "a quarantined config must not run");

    let fresh = temp_dir("no-quarantine");
    let ungated = Scheduler::start_with_executor(
        ff_harness::store::ShardedStore::open(&*fresh).expect("store"),
        SchedulerOptions { workers: 1, ..SchedulerOptions::default() },
        failing(Arc::clone(&runs)),
    );
    let (id, _) = ungated.submit(&request).expect("submit");
    let status = wait_scheduled(&ungated, &id);
    ungated.shutdown();
    assert_eq!(status.get("counts").and_then(|c| c.get("failed")).and_then(Json::as_u64), Some(1));
    assert_eq!(runs.load(Ordering::SeqCst), 1);
    assert!(!fresh.join(QUARANTINE_NAME).exists(), "no ledger without --quarantine-after");
}

/// A healthz field from a named section (`"counters"`, `"transport"`,
/// `"store"`).
fn health_field(url: &ServerUrl, section: &str, name: &str) -> u64 {
    let body = http_get(url, "/healthz").expect("healthz");
    let doc = Json::parse(&body).expect("healthz JSON");
    doc.get(section).and_then(|c| c.get(name)).and_then(Json::as_u64).unwrap_or(u64::MAX)
}

/// `GET /jobs/{hash}` validates the hash's *shape* before any store
/// lookup: anything but exactly 16 lowercase hex is a 400 (never a 404
/// from a bogus probe, never a confused path join), and a well-formed
/// but absent hash is a 404.
#[test]
fn malformed_job_hashes_are_rejected_with_400_before_any_lookup() {
    let store = temp_dir("hashshape");
    let (server, url) = start(&store);

    for bad in [
        "abc",                    // too short
        "0123456789abcdef0",      // too long
        "0123456789ABCDEF",       // uppercase hex
        "0123456789abcdeg",       // non-hex
        "..%2f..%2fetc%2fpasswd", // traversal, encoded
    ] {
        let (code, body) =
            http_request(&url, "GET", &format!("/jobs/{bad}"), None).expect("request");
        assert_eq!(code, 400, "hash `{bad}` must be a shape error, body: {body}");
        assert!(body.contains("16 lowercase hex"), "body: {body}");
    }
    // Raw traversal: the extra slashes make it a different (unknown)
    // route, not a store probe.
    let (code, _) = http_request(&url, "GET", "/jobs/../../etc/passwd", None).expect("request");
    assert!(code == 400 || code == 404, "traversal must not be served, got {code}");

    // Well-formed but absent: a clean 404.
    let (code, body) = http_request(&url, "GET", "/jobs/00000000000000aa", None).expect("request");
    assert_eq!(code, 404, "body: {body}");
    server.shutdown();
}

/// An oversized `Content-Length` is answered with `413 Payload Too
/// Large` from the headers alone — the server never reads the body, so
/// the test sends none.
#[test]
fn oversized_bodies_are_rejected_with_413_before_reading() {
    let store = temp_dir("oversize");
    let (server, url) = start(&store);

    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let claimed = 2 * 1024 * 1024; // 2 MiB > the 1 MiB cap
    write!(
        stream,
        "POST /campaigns HTTP/1.1\r\nHost: test\r\nContent-Length: {claimed}\r\nConnection: close\r\n\r\n"
    )
    .expect("send headers");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    assert!(response.starts_with("HTTP/1.1 413 "), "response: {response}");
    assert!(response.contains("exceeds"), "response: {response}");

    assert_eq!(health_field(&url, "transport", "oversized"), 1);
    assert!(health_field(&url, "transport", "http_4xx") >= 1);
    server.shutdown();
}

/// With one worker wedged and a one-deep accept queue full, the accept
/// thread sheds the next connection with `503` + `Retry-After` instead
/// of queueing without bound — and counts the shed.
#[test]
fn a_full_accept_queue_sheds_load_with_503_and_retry_after() {
    use std::sync::atomic::AtomicBool;

    use ff_server::{HttpOptions, HttpServer, Response, TransportCounters};

    let entered = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    let (entered_h, release_h) = (Arc::clone(&entered), Arc::clone(&release));
    let counters = Arc::new(TransportCounters::default());
    let http = HttpServer::start_with(
        "127.0.0.1:0",
        HttpOptions { threads: 1, queue_cap: 1 },
        Arc::clone(&counters),
        move |_req| {
            entered_h.store(true, Ordering::SeqCst);
            while !release_h.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            Response::ok("{}".to_string())
        },
    )
    .expect("http server");
    let url = ServerUrl::parse(&http.addr().to_string()).expect("url");

    // A: claims the lone worker and blocks inside the handler.
    let url_a = url.clone();
    let a = std::thread::spawn(move || http_request(&url_a, "GET", "/a", None));
    let deadline = Instant::now() + Duration::from_secs(10);
    while !entered.load(Ordering::SeqCst) {
        assert!(Instant::now() < deadline, "first request never reached the handler");
        std::thread::sleep(Duration::from_millis(1));
    }
    // B: fills the one-deep queue. Once `connect` returns, B sits in the
    // listener's accept queue, so the accept thread takes it before C.
    let mut b = TcpStream::connect(http.addr()).expect("connect B");
    b.write_all(b"GET /b HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n").expect("send B");

    // C: must be shed by the accept thread, with the backoff hint.
    let mut stream = TcpStream::connect(http.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    stream.write_all(b"GET /c HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n").expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    assert!(response.starts_with("HTTP/1.1 503 "), "response: {response}");
    assert!(response.contains("Retry-After: 1"), "response: {response}");
    assert!(response.contains("capacity"), "response: {response}");
    assert_eq!(counters.shed.load(Ordering::SeqCst), 1);

    release.store(true, Ordering::SeqCst);
    assert_eq!(a.join().unwrap().expect("A completes").0, 200);
    let mut response = String::new();
    b.read_to_string(&mut response).expect("read B");
    assert!(response.starts_with("HTTP/1.1 200 "), "response: {response}");
    http.shutdown();
}

/// The retrying client survives connections reset mid-response: a
/// fault-injecting proxy kills the first two replies partway through,
/// the third passes, and `http_get` (idempotent, retried) returns the
/// intact document. The truncation is *detected* (Content-Length
/// mismatch), never silently accepted.
#[test]
fn the_client_retries_through_connection_resets() {
    use ff_harness::chaos::TcpProxy;
    use ff_harness::remote::{http_get_with, RetryPolicy};

    let store = temp_dir("reset");
    let (server, url) = start(&store);
    let direct = http_get(&url, "/healthz").expect("direct healthz");

    let proxy = TcpProxy::start(server.addr(), 2, 40).expect("proxy");
    let proxied_url = ServerUrl::parse(&proxy.addr().to_string()).expect("url");

    // Without retries, the truncated reply is a hard, *detected* error.
    let err = http_request(&proxied_url, "GET", "/healthz", None)
        .expect_err("a reset mid-body must not parse as success");
    assert!(
        err.contains("truncated") || err.contains("malformed"),
        "the cut must be detected, got: {err}"
    );

    // With retries (attempt 2 also resets, attempt 3 passes), the client
    // converges on the same bytes the direct route serves, modulo the
    // transport counters that tick per request.
    let policy = RetryPolicy { attempts: 4, base_delay_ms: 1, max_delay_ms: 20, seed: 7 };
    let body = http_get_with(&proxied_url, "/healthz", &policy).expect("retried GET succeeds");
    assert_eq!(proxy.connections(), 3, "two resets + one clean pass");
    let doc = Json::parse(&body).expect("intact JSON after retries");
    assert_eq!(doc.get("status"), Json::parse(&direct).unwrap().get("status"));

    proxy.shutdown();
    server.shutdown();
}

/// Crash damage across a restart: one artifact silently truncated, one
/// campaign checkpoint corrupted. The restarted server quarantines the
/// artifact in its startup scan, skips the unreadable checkpoint without
/// panicking, and a resubmission re-simulates *only* the damaged config
/// — the intact artifact stays a memo hit and every served byte matches
/// the store.
#[test]
fn a_restart_over_crash_damage_heals_without_resimulating_intact_artifacts() {
    let store = temp_dir("crashdamage");
    let (server, url) = start(&store);
    let request = tiny_request();
    let (id, _) = submit_campaign(&url, &request).expect("submit");
    wait_done(&url, &id);
    server.shutdown();

    // Silently truncate one artifact (crash damage the rename-atomicity
    // protocol cannot prevent)...
    let specs = request.expand();
    let victim = ff_harness::store::sharded_path(&store, &specs[0]);
    let bytes = std::fs::read(&victim).expect("victim artifact");
    std::fs::write(&victim, &bytes[..bytes.len() / 2]).expect("truncate");
    // ...and corrupt the campaign's resume checkpoint.
    let checkpoint = store.join(CAMPAIGNS_DIR).join(&id).join("request.json");
    std::fs::write(&checkpoint, "{ definitely not json").expect("corrupt checkpoint");

    let (server, url) = start(&store);
    // The unreadable checkpoint is skipped, not resumed and not fatal.
    assert!(
        campaign_status(&url, &id).is_err(),
        "a corrupt checkpoint must not resurrect the campaign"
    );
    // The startup scan quarantined the damaged artifact.
    assert_eq!(health_field(&url, "store", "corrupt_detected"), 1);
    assert!(store.join("corrupt").is_dir(), "quarantine ledger directory exists");

    let (id2, _) = submit_campaign(&url, &request).expect("resubmit");
    assert_ne!(id2, id, "the unreadable checkpoint's id must not be handed out again");
    let status = wait_done(&url, &id2);
    assert_eq!(status.counts.get("hit"), Some(&1), "counts: {:?}", status.counts);
    assert_eq!(status.counts.get("ok"), Some(&1), "counts: {:?}", status.counts);
    assert_eq!(counter(&url, "misses"), 1, "only the damaged config re-simulates");
    assert_eq!(counter(&url, "hits"), 1);

    // Served bytes equal stored bytes for both configs; transport
    // counters saw this session's traffic.
    for job in &status.jobs {
        let served = fetch_artifact(&url, &job.hash).expect("fetch");
        let spec = specs.iter().find(|s| s.id() == job.id).expect("spec");
        let stored = ff_harness::store::ShardedStore::open(&*store)
            .expect("store")
            .read(spec)
            .expect("stored artifact");
        assert_eq!(served, stored, "served bytes must match the healed store");
    }
    assert!(health_field(&url, "transport", "requests") > 0);
    server.shutdown();
}
