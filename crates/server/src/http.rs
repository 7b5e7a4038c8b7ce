//! Connection management for `ff-server`'s HTTP/1.1 layer over
//! `std::net`: a fixed set of threads that each accept and serve their
//! own connections, the handler slots and the bounded queue, shedding,
//! keep-alive and shutdown. Reading a request and writing a reply is
//! [`ff_harness::http`], the message codec the `ff_harness::remote`
//! client shares, so both ends frame messages by one set of rules.
//!
//! **Connection lifetime.** A reply keeps its connection open
//! (`Connection: keep-alive`) only when the request asked for it with
//! `Connection: keep-alive`, the server is not stopping, and no accepted
//! connection is waiting for a handler slot; otherwise it says
//! `Connection: close` and the connection closes. A kept connection holds
//! its handler slot while it waits for the next request, at most
//! [`KEEP_ALIVE_IDLE`] for that request's first byte. A client that sends
//! `Connection: close`, or no `Connection` header, gets one reply and a
//! close.
//!
//! What it *does* harden against, because a long-running service meets
//! them in practice:
//!
//! * **oversized requests** — a body whose `Content-Length` passes
//!   [`MAX_BODY`](ff_harness::http::MAX_BODY) is rejected with
//!   `413 Payload Too Large` before it is read, and a request line plus
//!   headers longer than [`MAX_HEAD`](ff_harness::http::MAX_HEAD) with
//!   `431 Request Header Fields Too Large`, so no request can balloon
//!   memory; either reply closes the connection;
//! * **slow requests** — a request must arrive in full within
//!   [`REQUEST_DEADLINE`] of its start (accept, or its first byte on a
//!   kept connection), or it is answered `408 Request Timeout` and the
//!   connection closes, so a client that stalls mid-request holds a
//!   handler slot for at most that long;
//! * **overload** — at most `threads` connections are served at once, and
//!   accepted connections beyond those wait in a *bounded* queue; when
//!   the queue is full the thread that accepted the connection sheds it
//!   with `503 Service Unavailable` plus a `Retry-After` header instead
//!   of letting the backlog grow without bound (the `ff_harness::remote`
//!   client honors the header and retries idempotent requests);
//! * **observability** — every connection, request, shed, and error class
//!   ticks a [`TransportCounters`] field, surfaced on `GET /healthz`.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ff_harness::http::{read_request, write_response, DeadlineReader, HttpError, REQUEST_DEADLINE};
pub use ff_harness::http::{Request, Response};
use ff_harness::json::Json;

/// Per-connection write timeout: a client that stops reading must never
/// wedge an HTTP worker for good. Reads are bounded by
/// [`REQUEST_DEADLINE`] instead.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// How long a kept-alive connection may wait for its next request, holding
/// its handler slot, before the server closes it. The clients that reuse
/// connections send their next request within 10 ms (perfbench's
/// closed-loop client pauses at most 10 ms between polls; a render or a
/// fetch GETs back to back), so 100 ms keeps their connections open.
/// `ff-campaign submit --wait` polls every 200 ms, so its connection
/// closes between polls instead of idling in a handler slot for most of
/// each period. The bound is also the longest a queued connection waits
/// behind an idle one, and the longest `shutdown` waits for one.
pub const KEEP_ALIVE_IDLE: Duration = Duration::from_millis(100);

/// How long, and how many bytes, an early reply drains of the unread
/// request before closing (see [`close_unread`]).
const DRAIN_TIMEOUT: Duration = Duration::from_millis(100);
const DRAIN_LIMIT: u64 = 64 * 1024;

/// Default bound on the accept queue: connections beyond
/// `queue_cap + threads` in flight are shed with 503.
const DEFAULT_QUEUE_CAP: usize = 64;

/// The `Retry-After` seconds advertised when shedding load. Campaign
/// submissions are seconds-long operations, so 1 s is enough for the
/// queue to drain without making well-behaved clients laggy.
const SHED_RETRY_AFTER_S: u64 = 1;

/// Request/error counters for the transport layer, surfaced on
/// `GET /healthz` under `"transport"`.
#[derive(Debug, Default)]
pub struct TransportCounters {
    /// Accepted connections a handler slot served (shed ones count in
    /// `shed` instead). A kept-alive connection serves several requests,
    /// so `requests - connections` is the number of requests that reused
    /// a connection.
    pub connections: AtomicU64,
    /// Requests read, parsed or not; equal to `connections` when every
    /// client sends one request per connection.
    pub requests: AtomicU64,
    /// Responses written with a 4xx status (including 408s, 413s and
    /// 431s).
    pub http_4xx: AtomicU64,
    /// Responses written with a 5xx status (excluding sheds).
    pub http_5xx: AtomicU64,
    /// Connections shed with 503 by the thread that accepted them,
    /// because every handler slot was busy and the queue was full.
    pub shed: AtomicU64,
    /// Requests rejected with 413 for an oversized body.
    pub oversized: AtomicU64,
}

impl TransportCounters {
    /// The counters as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("connections", Json::U64(self.connections.load(Ordering::Relaxed))),
            ("requests", Json::U64(self.requests.load(Ordering::Relaxed))),
            ("http_4xx", Json::U64(self.http_4xx.load(Ordering::Relaxed))),
            ("http_5xx", Json::U64(self.http_5xx.load(Ordering::Relaxed))),
            ("shed", Json::U64(self.shed.load(Ordering::Relaxed))),
            ("oversized", Json::U64(self.oversized.load(Ordering::Relaxed))),
        ])
    }

    fn record_status(&self, status: u16) {
        match status {
            400..=499 => self.http_4xx.fetch_add(1, Ordering::Relaxed),
            500..=599 => self.http_5xx.fetch_add(1, Ordering::Relaxed),
            _ => 0,
        };
    }
}

/// Closes a connection whose request was answered before it was fully
/// read (a 503 shed, a 408, a 413 or a 431). Closing a socket with unread
/// input makes the kernel send RST, which can discard the response before
/// the client reads it; so half-close the write side (the client sees the
/// response, then EOF) and drain the input, bounded in time and bytes,
/// first.
fn close_unread(stream: TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let drain = DeadlineReader { stream, deadline: Instant::now() + DRAIN_TIMEOUT };
    let _ = io::copy(&mut drain.take(DRAIN_LIMIT), &mut io::sink());
}

/// Tuning knobs for [`HttpServer::start_with`].
#[derive(Clone, Debug)]
pub struct HttpOptions {
    /// Connections served at once. The server runs one thread more than
    /// this, all accepting, so a connection that arrives while every
    /// handler is busy is still queued or shed at once.
    pub threads: usize,
    /// Accepted connections that may queue before load-shedding kicks in.
    pub queue_cap: usize,
}

impl Default for HttpOptions {
    fn default() -> Self {
        HttpOptions { threads: 4, queue_cap: DEFAULT_QUEUE_CAP }
    }
}

/// `threads + 1` identical threads, each blocking in `accept` on its own
/// handle to the one listener, so the kernel wakes exactly one thread per
/// connection and that thread serves it: read a request, call the
/// handler, write the response, and either close or, on a kept-alive
/// connection, wait for the next request (see the module docs). At most
/// `threads` connections are served at once; a thread that accepts while
/// all of them are busy queues the connection (at most `queue_cap`), or,
/// when the queue is full, answers `503` with `Retry-After` itself rather
/// than queueing without bound. A thread that finishes a connection
/// serves the queue before it accepts again.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

/// Handler slots taken and the accepted connections waiting for one.
/// Both change under one lock, so a queued connection always has a busy
/// thread that will pop it: the queue is non-empty only while every slot
/// is taken, and a slot is given up only when the queue is empty.
struct Slots {
    busy: usize,
    /// Each connection with the instant it was accepted, when its first
    /// request's deadline starts.
    queue: VecDeque<(TcpStream, Instant)>,
}

/// What every accepting thread shares.
struct Pool<H> {
    stop: Arc<AtomicBool>,
    threads: usize,
    queue_cap: usize,
    counters: Arc<TransportCounters>,
    slots: Mutex<Slots>,
    handler: H,
}

impl<H: Fn(&Request) -> Response> Pool<H> {
    fn slots(&self) -> MutexGuard<'_, Slots> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// One accepting thread's loop, until [`HttpServer::shutdown`].
    fn run(&self, listener: &TcpListener) {
        while !self.stop.load(Ordering::SeqCst) {
            let Ok((stream, _)) = listener.accept() else { continue };
            let accepted = Instant::now();
            if self.stop.load(Ordering::SeqCst) {
                return;
            }
            let mut next = self.admit(stream, accepted);
            while let Some((stream, accepted)) = next {
                self.serve(stream, accepted);
                next = self.release();
            }
        }
    }

    /// Takes a free handler slot for `stream` and hands it back to be
    /// served, or queues it, or sheds it when the queue is full.
    fn admit(&self, mut stream: TcpStream, accepted: Instant) -> Option<(TcpStream, Instant)> {
        let mut slots = self.slots();
        if slots.busy < self.threads {
            slots.busy += 1;
            return Some((stream, accepted));
        }
        if slots.queue.len() < self.queue_cap {
            slots.queue.push_back((stream, accepted));
            return None;
        }
        drop(slots);
        // Writing the small 503 is cheap, and no handler is free to do it.
        self.counters.shed.fetch_add(1, Ordering::Relaxed);
        let _ = write_response(
            &mut stream,
            &Response::unavailable("server is at capacity; retry shortly", SHED_RETRY_AFTER_S),
            false,
        );
        close_unread(stream);
        None
    }

    /// Passes this thread's slot to the oldest queued connection, or gives
    /// it up when none waits. A stopping server drops the queue.
    fn release(&self) -> Option<(TcpStream, Instant)> {
        let mut slots = self.slots();
        if self.stop.load(Ordering::SeqCst) {
            slots.queue.clear();
        }
        let next = slots.queue.pop_front();
        if next.is_none() {
            slots.busy -= 1;
        }
        next
    }

    /// Whether a reply may keep its connection: the server is not stopping
    /// and no accepted connection waits for this thread's slot.
    fn may_keep(&self) -> bool {
        !self.stop.load(Ordering::SeqCst) && self.slots().queue.is_empty()
    }

    /// Serves `stream`'s requests in order until a reply closes it or it
    /// waits longer than [`KEEP_ALIVE_IDLE`] for its next request. The
    /// first request's deadline starts at `accepted`.
    fn serve(&self, stream: TcpStream, accepted: Instant) {
        self.counters.connections.fetch_add(1, Ordering::Relaxed);
        // Each reply is one write, sent at once rather than held back
        // until the peer ACKs the previous one.
        let _ = stream.set_nodelay(true);
        if stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_err() {
            return;
        }
        // One buffer for the connection's lifetime: bytes it reads ahead
        // belong to the next request.
        let deadline = accepted + REQUEST_DEADLINE;
        let mut reader = BufReader::new(DeadlineReader { stream, deadline });
        loop {
            self.counters.requests.fetch_add(1, Ordering::Relaxed);
            let (response, keep, unread) = match read_request(&mut reader) {
                Ok((request, keep_alive)) => {
                    ((self.handler)(&request), keep_alive && self.may_keep(), false)
                }
                Err(HttpError(status, msg)) => {
                    if status == 413 {
                        self.counters.oversized.fetch_add(1, Ordering::Relaxed);
                    }
                    // A 408, 413 or 431 answers before the request is
                    // read to its end.
                    (Response::error(status, &msg), false, status != 400)
                }
            };
            self.counters.record_status(response.status);
            let _ = write_response(&mut reader.get_mut().stream, &response, keep);
            if unread {
                close_unread(reader.into_inner().stream);
                return;
            }
            if !keep || !next_request_arrives(&mut reader) {
                return;
            }
        }
    }
}

/// Waits at most [`KEEP_ALIVE_IDLE`] for the first byte of a kept
/// connection's next request, and starts that request's deadline; false
/// when the client closed the connection, stayed quiet, or failed.
fn next_request_arrives(reader: &mut BufReader<DeadlineReader>) -> bool {
    reader.get_mut().deadline = Instant::now() + KEEP_ALIVE_IDLE;
    let arrived = reader.fill_buf().is_ok_and(|next| !next.is_empty());
    reader.get_mut().deadline = Instant::now() + REQUEST_DEADLINE;
    arrived
}

impl HttpServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// `opts.threads` concurrent handlers dispatching to `handler`, with
    /// the queue bound of `opts` and shared transport counters (`ff-server`
    /// surfaces them on `/healthz`).
    ///
    /// # Errors
    ///
    /// On failure to bind.
    pub fn start_with<H>(
        addr: &str,
        opts: HttpOptions,
        counters: Arc<TransportCounters>,
        handler: H,
    ) -> std::io::Result<HttpServer>
    where
        H: Fn(&Request) -> Response + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let threads = opts.threads.max(1);
        let stop = Arc::new(AtomicBool::new(false));
        let pool = Arc::new(Pool {
            stop: Arc::clone(&stop),
            threads,
            queue_cap: opts.queue_cap.max(1),
            counters,
            slots: Mutex::new(Slots { busy: 0, queue: VecDeque::new() }),
            handler,
        });
        let listeners =
            (0..threads).map(|_| listener.try_clone()).collect::<Result<Vec<_>, _>>()?;
        let threads = listeners
            .into_iter()
            .chain([listener])
            .map(|listener| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || pool.run(&listener))
            })
            .collect();
        Ok(HttpServer { addr: local, stop, threads })
    }

    /// The bound address (reports the real port when started with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins every thread. In-flight requests
    /// complete and their replies close; a kept-alive connection waiting
    /// for its next request closes within [`KEEP_ALIVE_IDLE`]; a request
    /// still arriving is answered `408` by its deadline; queued
    /// connections are dropped. So it joins within [`REQUEST_DEADLINE`]
    /// plus [`KEEP_ALIVE_IDLE`] of a stalled client, plus any handler
    /// call in flight.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Every thread blocks in accept(), or returns to it after its
        // connection; one throwaway connection each unblocks them all to
        // observe the stop flag.
        for _ in 0..self.threads.len() {
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        }
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}
