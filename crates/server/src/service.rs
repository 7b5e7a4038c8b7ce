//! Route dispatch: maps the HTTP surface onto the [`Scheduler`].
//!
//! | Route                 | Meaning                                        |
//! |-----------------------|------------------------------------------------|
//! | `POST /campaigns`     | Submit a campaign request; returns `{id, total}` |
//! | `GET /campaigns/{id}` | Campaign status document                       |
//! | `GET /jobs/{hash}`    | The artifact for a 16-hex config hash          |
//! | `GET /healthz`        | Liveness plus memoization/transport/store counters |
//! | `POST /shutdown`      | Ask the server to checkpoint and exit          |
//!
//! Every body is JSON; errors are `{"error": "..."}` with a 4xx/5xx
//! status, which `ff_harness::remote` surfaces to the client verbatim.
//!
//! The `{hash}` in `GET /jobs/{hash}` is validated to be *exactly* 16
//! lowercase hex characters before any filesystem path is formed from
//! it: a malformed hash (too short, uppercase, `../` traversal attempts)
//! is a `400`, never a `404` from a bogus lookup or a `500` from a
//! confused path join.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use ff_harness::json::Json;
use ff_harness::remote::CampaignRequest;

use crate::http::{Request, Response, TransportCounters};
use crate::scheduler::{Scheduler, SubmitError};

/// Shared service state: the scheduler, the transport counters the HTTP
/// layer ticks, plus the shutdown latch the binary's main loop polls.
pub struct Service {
    scheduler: Arc<Scheduler>,
    transport: Arc<TransportCounters>,
    wants_shutdown: AtomicBool,
}

impl Service {
    /// Wraps `scheduler` for route dispatch.
    pub fn new(scheduler: Arc<Scheduler>) -> Service {
        Service {
            scheduler,
            transport: Arc::new(TransportCounters::default()),
            wants_shutdown: AtomicBool::new(false),
        }
    }

    /// The scheduler behind this service.
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.scheduler
    }

    /// The transport counters; hand a clone of this `Arc` to
    /// [`crate::http::HttpServer::start_with`] so the HTTP layer ticks
    /// the same counters `/healthz` reports.
    pub fn transport(&self) -> &Arc<TransportCounters> {
        &self.transport
    }

    /// Whether a `POST /shutdown` has been received.
    pub fn wants_shutdown(&self) -> bool {
        self.wants_shutdown.load(Ordering::SeqCst)
    }

    /// Dispatches one request.
    pub fn handle(&self, request: &Request) -> Response {
        let path = request.path.trim_end_matches('/');
        match (request.method.as_str(), path) {
            ("POST", "/campaigns") => self.submit(&request.body),
            ("GET", "/healthz") => Response::ok(self.health().render()),
            ("POST", "/shutdown") => {
                self.wants_shutdown.store(true, Ordering::SeqCst);
                Response::ok(Json::obj(vec![("status", Json::Str("stopping".into()))]).render())
            }
            ("GET", _) if path.starts_with("/campaigns/") => {
                self.campaign(&path["/campaigns/".len()..])
            }
            ("GET", _) if path.starts_with("/jobs/") => self.job(&path["/jobs/".len()..]),
            ("GET" | "POST", _) => Response::error(404, "no such route"),
            _ => Response::error(405, "method not allowed"),
        }
    }

    /// The `/healthz` document: the scheduler's liveness/memoization
    /// section extended with transport and store-integrity counters.
    fn health(&self) -> Json {
        let mut doc = self.scheduler.health();
        if let Json::Obj(fields) = &mut doc {
            fields.push(("transport".to_string(), self.transport.to_json()));
            fields.push(("store".to_string(), self.scheduler.store().counters().to_json()));
        }
        doc
    }

    fn submit(&self, body: &str) -> Response {
        let doc = match Json::parse(body) {
            Ok(doc) => doc,
            Err(e) => return Response::error(400, &format!("bad JSON body: {e}")),
        };
        let request = match CampaignRequest::from_json(&doc) {
            Ok(request) => request,
            Err(e) => return Response::error(400, &e),
        };
        match self.scheduler.submit(&request) {
            Ok((id, total)) => Response::with_status(
                201,
                Json::obj(vec![("id", Json::Str(id)), ("total", Json::U64(total as u64))]).render(),
            ),
            // A request that matches no job is the client's error.
            Err(e @ SubmitError::NoJobs) => Response::error(400, &e.to_string()),
            // A stopping server rejects every submission; a retry against
            // a restarted server can succeed, so advertise a short
            // Retry-After.
            Err(e @ SubmitError::Stopping) => Response::unavailable(&e.to_string(), 2),
        }
    }

    fn campaign(&self, id: &str) -> Response {
        match self.scheduler.status(id) {
            Some(doc) => Response::ok(doc.render()),
            None => Response::error(404, &format!("unknown campaign `{id}`")),
        }
    }

    fn job(&self, hash_text: &str) -> Response {
        // Shape-validate before any store lookup: the hash becomes a
        // filesystem path component downstream.
        let Some(hash) = ff_harness::parse_hash16(hash_text) else {
            return Response::error(
                400,
                &format!("`{hash_text}` is not a config hash (expect exactly 16 lowercase hex)"),
            );
        };
        match self.scheduler.store().read_by_hash(hash) {
            // The artifact is itself a JSON document; serve it verbatim so
            // fetched bytes match the store's bytes exactly.
            Some(text) => Response::ok(text),
            None => Response::error(404, &format!("no artifact for config hash {hash_text}")),
        }
    }
}
