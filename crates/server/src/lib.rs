//! # ff-server: the long-running campaign service
//!
//! A daemon that turns the batch campaign runner into a multi-tenant
//! service: clients `POST` campaign specs, a fair round-robin scheduler
//! drains them on a panic-isolated worker pool, and every artifact lands
//! in a sharded, content-addressed store that doubles as a global
//! memoization cache — resubmitting any previously-simulated config
//! (from any campaign, or from a past CLI run against the same store)
//! costs a directory probe, not a simulation.
//!
//! The stack, bottom up:
//!
//! * [`http`] — a hand-rolled `std::net` HTTP/1.1 layer (the build
//!   environment is offline; no hyper/tokio): threads, handler slots,
//!   keep-alive and shutdown, over the message codec in
//!   [`ff_harness::http`] that the client shares.
//! * [`scheduler`] — campaign expansion, round-robin fairness, in-flight
//!   deduplication, memoization counters, the shared quarantine ledger
//!   (only under `--quarantine-after`), and graceful-shutdown
//!   checkpointing in the batch manifest format.
//! * [`service`] — the five JSON routes.
//!
//! The client side lives in `ff_harness::remote` and is shared with the
//! `ff-campaign` CLI (`submit` / `status` / `fetch` / `render --server`).
//! Server-executed jobs go through the same lifecycle as `ff-campaign
//! run` — the [`ff_harness::ShardedStore::contains`] memo check, the one
//! quarantine rule, and [`ff_harness::execute_job`] around
//! [`ff_harness::attempt_job`] — so artifacts are byte-identical either
//! way.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
pub mod scheduler;
pub mod service;

use std::sync::Arc;

pub use http::{HttpOptions, HttpServer, Request, Response, TransportCounters};
pub use scheduler::{Counters, Scheduler, SchedulerOptions, SubmitError, CAMPAIGNS_DIR};
pub use service::Service;

use ff_harness::store::ShardedStore;

/// How many HTTP worker threads serve requests. Requests are cheap
/// (simulation happens on the scheduler's pool), so a small fixed pool
/// suffices.
const HTTP_THREADS: usize = 4;

/// A running campaign server: HTTP front end plus scheduler back end.
pub struct Server {
    http: HttpServer,
    service: Arc<Service>,
}

impl Server {
    /// Starts a server over the store at `store_root`, listening on
    /// `addr` (use port 0 for an ephemeral port). Campaigns checkpointed
    /// by a previous run of this store resume automatically.
    ///
    /// # Errors
    ///
    /// On failure to open the store or bind the address.
    pub fn start(
        addr: &str,
        store_root: impl Into<std::path::PathBuf>,
        opts: SchedulerOptions,
    ) -> std::io::Result<Server> {
        // Startup integrity scan, in the walk that opens the store:
        // sweep orphaned temp files and quarantine anything corrupt
        // *before* the scheduler starts trusting the memo cache, so a
        // damaged artifact reads as a miss and re-simulates instead of
        // being served. A clean store scans silently.
        let (store, scan) = ShardedStore::open_verified(store_root)?;
        if !scan.clean() {
            eprintln!("ff-server: store integrity scan: {}", scan.summary());
        }
        let scheduler = Scheduler::start(store, opts);
        let service = Arc::new(Service::new(scheduler));
        let handler_service = Arc::clone(&service);
        let http = HttpServer::start_with(
            addr,
            HttpOptions { threads: HTTP_THREADS, ..HttpOptions::default() },
            Arc::clone(service.transport()),
            move |request| handler_service.handle(request),
        )?;
        Ok(Server { http, service })
    }

    /// The bound socket address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.http.addr()
    }

    /// The service (exposes the scheduler and the shutdown latch).
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Whether a client has requested shutdown via `POST /shutdown`.
    pub fn wants_shutdown(&self) -> bool {
        self.service.wants_shutdown()
    }

    /// Graceful shutdown: stop the HTTP front end, let in-flight
    /// simulations finish, and checkpoint every campaign's manifest.
    pub fn shutdown(self) {
        self.http.shutdown();
        self.service.scheduler().shutdown();
    }
}
