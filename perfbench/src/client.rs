//! The closed-loop load generator: one client thread, one connection at
//! a time, over the repository's own `ff_harness::remote` HTTP client.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use ff_harness::json::Json;
use ff_harness::remote::{http_request, CampaignRequest, CampaignStatus, ServerUrl};

/// Scheduler counters read from `GET /healthz`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Health {
    pub campaigns: u64,
    pub campaigns_done: u64,
    pub hits: u64,
    pub misses: u64,
    pub inflight_dedup: u64,
}

impl Health {
    /// Counter growth from `self` to `later`.
    pub fn delta(&self, later: &Health) -> Health {
        Health {
            campaigns: later.campaigns - self.campaigns,
            campaigns_done: later.campaigns_done - self.campaigns_done,
            hits: later.hits - self.hits,
            misses: later.misses - self.misses,
            inflight_dedup: later.inflight_dedup - self.inflight_dedup,
        }
    }
}

/// One client, counting every request it makes and every one that
/// failed (transport error or a non-2xx status).
pub struct Client {
    url: ServerUrl,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        let url = ServerUrl::parse(&format!("http://{addr}")).expect("a socket address is a URL");
        Client { url, attempted: 0, failed: 0, errors: Vec::new() }
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    /// One request; `None` (and a counted failure) unless it returned 2xx.
    pub fn request(&mut self, method: &str, path: &str, body: Option<&str>) -> Option<String> {
        self.attempted += 1;
        match http_request(&self.url, method, path, body) {
            Ok((code, text)) if (200..300).contains(&code) => Some(text),
            Ok((code, text)) => {
                self.fail(format!("{method} {path}: HTTP {code}: {}", text.trim()));
                None
            }
            Err(e) => {
                self.fail(format!("{method} {path}: {e}"));
                None
            }
        }
    }

    /// `GET /jobs/{hash}` and its latency in seconds.
    pub fn get_job(&mut self, hash: u64) -> (Option<String>, f64) {
        let path = format!("/jobs/{hash:016x}");
        let t = Instant::now();
        let body = self.request("GET", &path, None);
        (body, t.elapsed().as_secs_f64())
    }

    pub fn submit(&mut self, request: &CampaignRequest) -> Option<String> {
        let body = self.request("POST", "/campaigns", Some(&request.to_json().render()))?;
        let id = Json::parse(&body).ok()?.get("id")?.as_str()?.to_string();
        Some(id)
    }

    /// Waits for campaign `id` to finish: polls `GET /healthz` (a few
    /// counters, cheap) until every campaign on the server is done,
    /// pausing 1/64 of the time waited so far (20 µs–10 ms) between
    /// polls, which bounds the quantization error of a submit → done time
    /// at ~1.6%. Then fetches the campaign's status document once.
    /// Returns the status and the number of health polls.
    pub fn wait_done(&mut self, id: &str) -> Option<(CampaignStatus, u64)> {
        let started = Instant::now();
        let mut polls = 0;
        loop {
            polls += 1;
            let h = self.health()?;
            if h.campaigns_done == h.campaigns {
                break;
            }
            let pause = (started.elapsed() / 64)
                .clamp(Duration::from_micros(20), Duration::from_millis(10));
            std::thread::sleep(pause);
        }
        let body = self.request("GET", &format!("/campaigns/{id}"), None)?;
        match Json::parse(&body).and_then(|doc| CampaignStatus::from_json(&doc)) {
            Ok(s) if s.done => Some((s, polls)),
            Ok(_) => {
                self.fail(format!("campaign {id} not done once every campaign was"));
                None
            }
            Err(e) => {
                self.fail(format!("bad status document: {e}"));
                None
            }
        }
    }

    pub fn health(&mut self) -> Option<Health> {
        let doc = Json::parse(&self.request("GET", "/healthz", None)?).ok()?;
        let counters = doc.get("counters")?;
        let get = |k: &str| counters.get(k).and_then(Json::as_u64);
        Some(Health {
            campaigns: doc.get("campaigns")?.as_u64()?,
            campaigns_done: doc.get("campaigns_done")?.as_u64()?,
            hits: get("hits")?,
            misses: get("misses")?,
            inflight_dedup: get("inflight_dedup")?,
        })
    }
}

/// Checks a finished campaign: every job ended in `want` (`ok` for a
/// cold store, `hit` for a warm one) and the campaign has `total` jobs.
pub fn check_statuses(status: &CampaignStatus, total: usize, want: &str) -> Result<(), String> {
    if status.jobs.len() != total {
        return Err(format!("campaign {} has {} jobs, want {total}", status.id, status.jobs.len()));
    }
    match status.jobs.iter().find(|j| j.status != want) {
        Some(j) => Err(format!(
            "campaign {}: job {} is `{}`, want `{want}`{}",
            status.id,
            j.id,
            j.status,
            j.error.as_deref().map(|e| format!(" ({e})")).unwrap_or_default()
        )),
        None => Ok(()),
    }
}

/// A seeded xorshift64* generator for request orders.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}
