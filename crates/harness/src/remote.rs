//! The campaign-service wire protocol and client.
//!
//! `ff-server` accepts campaign specs over HTTP/JSON and serves artifacts
//! from its sharded memoization store; this module is the *client* half
//! plus the protocol types both sides share, so the CLI
//! (`ff-campaign submit/status/fetch/render --server URL`) and the
//! service agree on one spec format and one job-expansion code path
//! ([`CampaignRequest::expand`] is the same `full_grid` + [`JobFilter`]
//! the batch runner uses — identical specs, identical config hashes,
//! identical artifacts). Rendering from a server goes through
//! [`crate::store::ArtifactStore::remote`], the same [`ff_experiments::ResultSource`]
//! that renders a local artifact directory.
//!
//! Everything is hand-rolled over `std::net::TcpStream` — the build
//! environment is offline, so no HTTP or serde dependencies.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use ff_experiments::{HierKind, ModelKind};
use ff_workloads::{Scale, Workload};

use crate::campaign::{full_grid, JobFilter};
use crate::job::{parse_scale, scale_name, JobKind, JobSpec};
use crate::json::Json;

/// A campaign submission: which slice of the experiment grid to run, at
/// which scale. This is the `POST /campaigns` body, and also exactly what
/// `ff-campaign run` expands locally — one spec format for both paths.
#[derive(Clone, Debug)]
pub struct CampaignRequest {
    /// Workload scale.
    pub scale: Scale,
    /// Sim-grid filter; empty lists match everything.
    pub filter: JobFilter,
    /// Include the standalone report jobs (only meaningful with an
    /// unconstrained filter, matching [`JobFilter::matches`]).
    pub reports: bool,
}

fn str_arr(values: &[String]) -> Json {
    Json::Arr(values.iter().map(|s| Json::Str(s.clone())).collect())
}

impl CampaignRequest {
    /// Expands the request into its job plan — the same
    /// `full_grid` + filter expansion `ff-campaign run` performs, so a
    /// submitted campaign's config hashes match a local run's exactly.
    pub fn expand(&self) -> Vec<JobSpec> {
        full_grid(self.scale).into_iter().filter(|j| self.selects(j)).collect()
    }

    /// Whether `spec`, a job of `full_grid(self.scale)`, is in the plan.
    pub fn selects(&self, spec: &JobSpec) -> bool {
        self.filter.matches(spec) && (self.reports || !matches!(spec.kind, JobKind::Report { .. }))
    }

    /// Renders the request as its wire JSON.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("scale", Json::Str(scale_name(self.scale).into())),
            ("reports", Json::Bool(self.reports)),
            (
                "filter",
                Json::obj(vec![
                    (
                        "models",
                        str_arr(
                            &self
                                .filter
                                .models
                                .iter()
                                .map(|m| m.name().to_string())
                                .collect::<Vec<_>>(),
                        ),
                    ),
                    (
                        "hiers",
                        str_arr(
                            &self
                                .filter
                                .hiers
                                .iter()
                                .map(|h| h.name().to_string())
                                .collect::<Vec<_>>(),
                        ),
                    ),
                    ("benches", str_arr(&self.filter.benches)),
                    ("seeds", Json::Arr(self.filter.seeds.iter().map(|&s| Json::U64(s)).collect())),
                ]),
            ),
        ])
    }

    /// Parses a wire-JSON campaign request.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending field (bad scale,
    /// unknown model/hierarchy/benchmark name, malformed seed).
    pub fn from_json(doc: &Json) -> Result<CampaignRequest, String> {
        let scale_str =
            doc.get("scale").and_then(Json::as_str).ok_or("missing string field `scale`")?;
        let scale = parse_scale(scale_str).ok_or_else(|| format!("bad scale `{scale_str}`"))?;
        let reports = match doc.get("reports") {
            Some(Json::Bool(b)) => *b,
            None => false,
            Some(_) => return Err("`reports` must be a boolean".to_string()),
        };
        let mut filter = JobFilter::default();
        if let Some(f) = doc.get("filter") {
            for m in f.get("models").and_then(Json::as_arr).unwrap_or(&[]) {
                let name = m.as_str().ok_or("`filter.models` entries must be strings")?;
                filter
                    .models
                    .push(ModelKind::parse(name).ok_or_else(|| format!("unknown model `{name}`"))?);
            }
            for h in f.get("hiers").and_then(Json::as_arr).unwrap_or(&[]) {
                let name = h.as_str().ok_or("`filter.hiers` entries must be strings")?;
                filter
                    .hiers
                    .push(HierKind::parse(name).ok_or_else(|| format!("unknown hier `{name}`"))?);
            }
            for b in f.get("benches").and_then(Json::as_arr).unwrap_or(&[]) {
                let name = b.as_str().ok_or("`filter.benches` entries must be strings")?;
                if !Workload::NAMES.contains(&name) {
                    return Err(format!("unknown benchmark `{name}`"));
                }
                filter.benches.push(name.to_string());
            }
            for s in f.get("seeds").and_then(Json::as_arr).unwrap_or(&[]) {
                filter.seeds.push(s.as_u64().ok_or("`filter.seeds` entries must be integers")?);
            }
        }
        Ok(CampaignRequest { scale, filter, reports })
    }
}

/// One job's line in a `GET /campaigns/{id}` response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobBrief {
    /// Human-readable job id.
    pub id: String,
    /// 16-hex config hash (the `GET /jobs/{hash}` address).
    pub hash: String,
    /// Server-side job status: `queued`, `running`, `ok`, `hit`,
    /// `dedup`, `failed`, or `quarantined`.
    pub status: String,
    /// Error text for failed/quarantined jobs.
    pub error: Option<String>,
}

/// A parsed `GET /campaigns/{id}` response.
#[derive(Clone, Debug, Default)]
pub struct CampaignStatus {
    /// The campaign id.
    pub id: String,
    /// Whether every job reached a terminal state.
    pub done: bool,
    /// Workload scale.
    pub scale: String,
    /// Per-status job counts.
    pub counts: BTreeMap<String, u64>,
    /// Every job with its current status.
    pub jobs: Vec<JobBrief>,
}

impl CampaignStatus {
    /// Parses a campaign status document.
    ///
    /// # Errors
    ///
    /// On a structurally invalid document.
    pub fn from_json(doc: &Json) -> Result<CampaignStatus, String> {
        let id = doc.get("id").and_then(Json::as_str).ok_or("missing `id`")?.to_string();
        let done = matches!(doc.get("done"), Some(Json::Bool(true)));
        let scale = doc.get("scale").and_then(Json::as_str).unwrap_or("unknown").to_string();
        let mut counts = BTreeMap::new();
        if let Some(Json::Obj(pairs)) = doc.get("counts") {
            for (k, v) in pairs {
                counts.insert(k.clone(), v.as_u64().unwrap_or(0));
            }
        }
        let jobs = doc
            .get("jobs")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|j| {
                Ok(JobBrief {
                    id: j.get("id").and_then(Json::as_str).ok_or("job missing `id`")?.to_string(),
                    hash: j
                        .get("hash")
                        .and_then(Json::as_str)
                        .ok_or("job missing `hash`")?
                        .to_string(),
                    status: j
                        .get("status")
                        .and_then(Json::as_str)
                        .ok_or("job missing `status`")?
                        .to_string(),
                    error: j.get("error").and_then(Json::as_str).map(str::to_string),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(CampaignStatus { id, done, scale, counts, jobs })
    }

    /// Jobs that failed (terminal, no artifact).
    pub fn failed(&self) -> Vec<&JobBrief> {
        self.jobs.iter().filter(|j| j.status == "failed").collect()
    }
}

/// A parsed `http://host:port` (or bare `host:port`) server address.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServerUrl {
    /// Host name or IP.
    pub host: String,
    /// TCP port.
    pub port: u16,
}

impl ServerUrl {
    /// Parses a server URL.
    ///
    /// # Errors
    ///
    /// On a missing port or unparsable authority.
    pub fn parse(s: &str) -> Result<ServerUrl, String> {
        let rest = s.strip_prefix("http://").unwrap_or(s);
        let rest = rest.strip_suffix('/').unwrap_or(rest);
        let (host, port) =
            rest.rsplit_once(':').ok_or_else(|| format!("server URL `{s}` needs host:port"))?;
        let port = port.parse::<u16>().map_err(|_| format!("bad port in server URL `{s}`"))?;
        if host.is_empty() {
            return Err(format!("server URL `{s}` needs a host"));
        }
        Ok(ServerUrl { host: host.to_string(), port })
    }

    /// The `host:port` authority string.
    pub fn authority(&self) -> String {
        format!("{}:{}", self.host, self.port)
    }
}

impl std::fmt::Display for ServerUrl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "http://{}", self.authority())
    }
}

/// Timeout for each client request (connect, read, write).
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// A parsed HTTP response: status, body, and the transport-hardening
/// headers the client honors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HttpResponse {
    /// HTTP status code.
    pub code: u16,
    /// Response body.
    pub body: String,
    /// The server's `Retry-After` (seconds), when present — the
    /// load-shedding backpressure signal the retry loop honors.
    pub retry_after: Option<u64>,
}

/// Parses a complete raw HTTP/1.1 response. Verifies the body against
/// `Content-Length` when the server sent one, so a connection reset
/// mid-body surfaces as a (retryable) transport error rather than a
/// silently truncated artifact.
///
/// # Errors
///
/// On a malformed head, bad status line, or a body/`Content-Length`
/// mismatch.
fn parse_response(text: &str) -> Result<HttpResponse, String> {
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| "malformed response (no header/body split)".to_string())?;
    let status_line = head.lines().next().unwrap_or("");
    let code = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line `{status_line}`"))?;
    let mut content_length = None;
    let mut retry_after = None;
    for line in head.lines().skip(1) {
        let Some((name, value)) = line.split_once(':') else { continue };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse::<usize>().ok();
        } else if name.eq_ignore_ascii_case("retry-after") {
            retry_after = value.parse::<u64>().ok();
        }
    }
    if let Some(expected) = content_length {
        if body.len() != expected {
            return Err(format!(
                "truncated response: Content-Length {expected}, got {} bytes (connection reset?)",
                body.len(),
            ));
        }
    }
    Ok(HttpResponse { code, body: body.to_string(), retry_after })
}

/// Performs one HTTP/1.1 request against the campaign service.
///
/// # Errors
///
/// On connect/IO failure, an unparsable response, or a body truncated
/// against its `Content-Length`.
fn http_request_once(
    url: &ServerUrl,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<HttpResponse, String> {
    let addr = url
        .authority()
        .to_socket_addrs()
        .map_err(|e| format!("resolve {}: {e}", url.authority()))?
        .next()
        .ok_or_else(|| format!("resolve {}: no address", url.authority()))?;
    let mut stream = TcpStream::connect_timeout(&addr, CLIENT_TIMEOUT)
        .map_err(|e| format!("connect {url}: {e}"))?;
    stream.set_read_timeout(Some(CLIENT_TIMEOUT)).map_err(|e| e.to_string())?;
    stream.set_write_timeout(Some(CLIENT_TIMEOUT)).map_err(|e| e.to_string())?;
    let body = body.unwrap_or("");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        url.authority(),
        body.len(),
    );
    stream.write_all(request.as_bytes()).map_err(|e| format!("send to {url}: {e}"))?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| format!("read from {url}: {e}"))?;
    let text = String::from_utf8(raw).map_err(|_| format!("non-UTF-8 response from {url}"))?;
    parse_response(&text).map_err(|e| format!("{e} from {url}"))
}

/// Performs one HTTP/1.1 request against the campaign service, returning
/// `(status code, body)`. No retries: callers that want the hardened
/// retry loop use [`http_get`] / [`http_get_with`].
///
/// # Errors
///
/// On connect/IO failure or an unparsable response.
pub fn http_request(
    url: &ServerUrl,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), String> {
    let r = http_request_once(url, method, path, body)?;
    Ok((r.code, r.body))
}

/// Retry policy for idempotent requests: bounded attempts with
/// exponential backoff and seeded (deterministic) jitter.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total attempts (>= 1); 1 disables retries.
    pub attempts: u32,
    /// First backoff delay; doubles per retry.
    pub base_delay_ms: u64,
    /// Upper bound on any single delay.
    pub max_delay_ms: u64,
    /// Jitter seed, so two clients retrying the same outage do not
    /// thundering-herd in lockstep while tests stay reproducible.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { attempts: 4, base_delay_ms: 50, max_delay_ms: 2_000, seed: 0x5eed }
    }
}

/// How long to sleep before retry number `attempt` (0-based): exponential
/// backoff plus seeded jitter, floored by the server's `Retry-After`
/// request (capped at 10s so a confused server cannot stall the client),
/// capped by the policy's max. Pure — unit tests exercise it without
/// sleeping.
pub fn backoff_delay_ms(policy: &RetryPolicy, attempt: u32, retry_after_s: Option<u64>) -> u64 {
    let exp = policy.base_delay_ms.saturating_mul(1u64 << attempt.min(16));
    // One xorshift64 round over (seed, attempt) for deterministic jitter.
    let mut x = policy.seed ^ u64::from(attempt + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    let jitter = x % policy.base_delay_ms.max(1);
    let delay = exp.saturating_add(jitter).min(policy.max_delay_ms);
    match retry_after_s {
        Some(s) => delay.max(s.min(10).saturating_mul(1000)),
        None => delay,
    }
}

/// `GET path` under `policy`, expecting a 200 response. GET is
/// idempotent, so transport failures (connect refused, reset mid-body)
/// and 503 load-shed responses are retried with exponential backoff,
/// honoring the server's `Retry-After`. Any other status fails fast.
///
/// # Errors
///
/// On a non-retryable status, or when every attempt failed (the error
/// carries the last failure and the attempt count).
pub fn http_get_with(url: &ServerUrl, path: &str, policy: &RetryPolicy) -> Result<String, String> {
    let attempts = policy.attempts.max(1);
    let mut last = String::new();
    let mut retry_after = None;
    for attempt in 0..attempts {
        if attempt > 0 {
            std::thread::sleep(Duration::from_millis(backoff_delay_ms(
                policy,
                attempt - 1,
                retry_after,
            )));
        }
        match http_request_once(url, "GET", path, None) {
            Ok(r) if r.code == 200 => return Ok(r.body),
            Ok(r) if r.code == 503 => {
                last = format!("GET {path}: HTTP 503: {}", server_error(&r.body));
                retry_after = r.retry_after;
            }
            Ok(r) => return Err(format!("GET {path}: HTTP {}: {}", r.code, server_error(&r.body))),
            Err(e) => {
                last = e;
                retry_after = None;
            }
        }
    }
    Err(format!("{last} (after {attempts} attempts)"))
}

/// `GET path` under the default [`RetryPolicy`], expecting a 200.
///
/// # Errors
///
/// See [`http_get_with`].
pub fn http_get(url: &ServerUrl, path: &str) -> Result<String, String> {
    http_get_with(url, path, &RetryPolicy::default())
}

/// `POST path` with a JSON body, expecting a 200/201 response. POST is
/// *not* idempotent (a lost response could mean a duplicate campaign),
/// so it never retries; callers see the failure and decide.
///
/// # Errors
///
/// On transport failure or an error status.
pub fn http_post(url: &ServerUrl, path: &str, body: &str) -> Result<String, String> {
    let (code, response) = http_request(url, "POST", path, Some(body))?;
    if code >= 300 {
        return Err(format!("POST {path}: HTTP {code}: {}", server_error(&response)));
    }
    Ok(response)
}

/// Extracts the `error` field of a JSON error body, or the raw body.
fn server_error(body: &str) -> String {
    Json::parse(body)
        .ok()
        .and_then(|doc| doc.get("error").and_then(Json::as_str).map(str::to_string))
        .unwrap_or_else(|| body.trim().to_string())
}

/// Submits a campaign request, returning the parsed submission response
/// `(campaign id, total jobs)`.
///
/// # Errors
///
/// On transport failure or a server-side rejection.
pub fn submit_campaign(url: &ServerUrl, req: &CampaignRequest) -> Result<(String, u64), String> {
    let body = http_post(url, "/campaigns", &req.to_json().render())?;
    let doc = Json::parse(&body).map_err(|e| format!("bad submit response: {e}"))?;
    let id =
        doc.get("id").and_then(Json::as_str).ok_or("submit response missing `id`")?.to_string();
    let total = doc.get("total").and_then(Json::as_u64).unwrap_or(0);
    Ok((id, total))
}

/// Fetches a campaign's status.
///
/// # Errors
///
/// On transport failure or an unknown campaign id.
pub fn campaign_status(url: &ServerUrl, id: &str) -> Result<CampaignStatus, String> {
    let body = http_get(url, &format!("/campaigns/{id}"))?;
    let doc = Json::parse(&body).map_err(|e| format!("bad status response: {e}"))?;
    CampaignStatus::from_json(&doc)
}

/// Fetches one artifact by its 16-hex config hash.
///
/// # Errors
///
/// On transport failure or a hash the server has no artifact for.
pub fn fetch_artifact(url: &ServerUrl, hash: &str) -> Result<String, String> {
    http_get(url, &format!("/jobs/{hash}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_request_round_trips_through_wire_json() {
        let req = CampaignRequest {
            scale: Scale::Test,
            filter: JobFilter {
                models: vec![ModelKind::Multipass, ModelKind::InOrder],
                hiers: vec![HierKind::Base],
                benches: vec!["mcf".into(), "gzip".into()],
                seeds: vec![0, 2],
            },
            reports: false,
        };
        let text = req.to_json().render();
        let back = CampaignRequest::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.scale, req.scale);
        assert_eq!(back.filter.models, req.filter.models);
        assert_eq!(back.filter.hiers, req.filter.hiers);
        assert_eq!(back.filter.benches, req.filter.benches);
        assert_eq!(back.filter.seeds, req.filter.seeds);
        assert_eq!(back.reports, req.reports);
        // Expansion is shared with the batch runner: same plan both ways.
        let jobs = back.expand();
        assert_eq!(jobs.len(), req.expand().len());
        assert!(!jobs.is_empty());
        assert!(jobs.iter().all(|j| !matches!(j.kind, JobKind::Report { .. })));
    }

    #[test]
    fn bad_requests_name_the_offending_field() {
        for (body, needle) in [
            (r#"{"reports": false}"#, "scale"),
            (r#"{"scale": "huge"}"#, "bad scale"),
            (r#"{"scale": "test", "filter": {"models": ["warp9"]}}"#, "unknown model"),
            (r#"{"scale": "test", "filter": {"benches": ["doom"]}}"#, "unknown benchmark"),
            (r#"{"scale": "test", "filter": {"seeds": ["zero"]}}"#, "seeds"),
        ] {
            let err = CampaignRequest::from_json(&Json::parse(body).unwrap()).unwrap_err();
            assert!(err.contains(needle), "{body} -> {err}");
        }
    }

    #[test]
    fn server_urls_parse_with_and_without_scheme() {
        let u = ServerUrl::parse("http://127.0.0.1:7878").unwrap();
        assert_eq!(u, ServerUrl { host: "127.0.0.1".into(), port: 7878 });
        assert_eq!(ServerUrl::parse("localhost:80/").unwrap().authority(), "localhost:80");
        assert_eq!(u.to_string(), "http://127.0.0.1:7878");
        for bad in ["127.0.0.1", "http://:7878", "host:notaport"] {
            assert!(ServerUrl::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn parse_response_reads_status_and_retry_after() {
        let r = parse_response(
            "HTTP/1.1 503 Service Unavailable\r\nRetry-After: 2\r\nContent-Length: 2\r\n\r\nno",
        )
        .unwrap();
        assert_eq!((r.code, r.retry_after, r.body.as_str()), (503, Some(2), "no"));
        let r = parse_response("HTTP/1.1 200 OK\r\n\r\nhello").unwrap();
        assert_eq!((r.code, r.retry_after, r.body.as_str()), (200, None, "hello"));
    }

    #[test]
    fn parse_response_rejects_bodies_truncated_against_content_length() {
        let err =
            parse_response("HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\npartial").unwrap_err();
        assert!(err.contains("truncated response"), "{err}");
        assert!(parse_response("no header split at all").is_err());
        assert!(parse_response("BOGUS\r\n\r\nbody").is_err());
    }

    #[test]
    fn backoff_grows_exponentially_with_bounded_jitter_and_cap() {
        let p = RetryPolicy { attempts: 5, base_delay_ms: 100, max_delay_ms: 1_000, seed: 42 };
        let d: Vec<u64> = (0..5).map(|a| backoff_delay_ms(&p, a, None)).collect();
        for (a, &delay) in d.iter().enumerate() {
            let exp = 100u64 << a;
            assert!(delay >= exp.min(1_000), "attempt {a}: {delay} below exponential floor");
            assert!(delay <= (exp + 100).min(1_000), "attempt {a}: {delay} above jittered cap");
        }
        assert_eq!(d[4], 1_000, "cap must bind eventually");
        // Deterministic for a fixed seed, different across seeds.
        assert_eq!(backoff_delay_ms(&p, 1, None), backoff_delay_ms(&p, 1, None));
        let q = RetryPolicy { seed: 43, ..p.clone() };
        assert_ne!(
            (0..5).map(|a| backoff_delay_ms(&p, a, None)).collect::<Vec<_>>(),
            (0..5).map(|a| backoff_delay_ms(&q, a, None)).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn backoff_honors_retry_after_with_a_sanity_cap() {
        let p = RetryPolicy { attempts: 3, base_delay_ms: 10, max_delay_ms: 100, seed: 1 };
        assert!(backoff_delay_ms(&p, 0, Some(2)) >= 2_000, "Retry-After floors the delay");
        assert!(backoff_delay_ms(&p, 0, Some(9999)) <= 10_000, "absurd Retry-After is capped");
    }

    #[test]
    fn campaign_status_parses_counts_and_failures() {
        let body = r#"{
            "id": "c1", "done": true, "scale": "test",
            "counts": {"ok": 1, "hit": 2, "failed": 1},
            "jobs": [
                {"id": "mcf/MP/base/s0@test", "hash": "00ff", "status": "ok"},
                {"id": "gzip/MP/base/s0@test", "hash": "01ff", "status": "failed",
                 "error": "timeout: cycle budget exceeded"}
            ]
        }"#;
        let status = CampaignStatus::from_json(&Json::parse(body).unwrap()).unwrap();
        assert!(status.done);
        assert_eq!(status.counts["hit"], 2);
        assert_eq!(status.jobs.len(), 2);
        let failed = status.failed();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].error.as_deref(), Some("timeout: cycle budget exceeded"));
    }
}
