//! A hand-rolled HTTP/1.1 server layer over `std::net`.
//!
//! The build environment is offline (no hyper, no tokio), and the
//! campaign service needs exactly four routes with small JSON bodies, so
//! this implements the minimal subset the `ff-harness` client speaks:
//! `Content-Length` bodies, one write per reply, and a fixed set of
//! threads that each accept and serve their own connections. No chunked
//! encoding, no TLS — additions the protocol does not need.
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
//!   [`MAX_BODY`] is rejected with `413 Payload Too Large` before it is
//!   read, and a request line plus headers longer than [`MAX_HEAD`] with
//!   `431 Request Header Fields Too Large`, so no request can balloon
//!   memory; either reply closes the connection;
//! * **overload** — at most `threads` connections are served at once, and
//!   accepted connections beyond those wait in a *bounded* queue; when
//!   the queue is full the thread that accepted the connection sheds it
//!   with `503 Service Unavailable` plus a `Retry-After` header instead
//!   of letting the backlog grow without bound (the `ff_harness::remote`
//!   client honors the header and retries idempotent requests);
//! * **observability** — every connection, request, shed, and error class
//!   ticks a [`TransportCounters`] field, surfaced on `GET /healthz`.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Take, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ff_harness::json::Json;

/// Per-connection read/write timeout: a stalled client must never wedge
/// an HTTP worker for good.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

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
const DRAIN_LIMIT: usize = 64 * 1024;

/// Largest accepted request body (a full-grid campaign request is < 2 KiB;
/// anything near this bound is hostile or corrupt).
pub const MAX_BODY: usize = 1 << 20;

/// Largest accepted request head, the request line plus every header (a
/// client's head is < 200 bytes).
pub const MAX_HEAD: usize = 16 * 1024;

/// Default bound on the accept queue: connections beyond
/// `queue_cap + threads` in flight are shed with 503.
const DEFAULT_QUEUE_CAP: usize = 64;

/// The `Retry-After` seconds advertised when shedding load. Campaign
/// submissions are seconds-long operations, so 1 s is enough for the
/// queue to drain without making well-behaved clients laggy.
const SHED_RETRY_AFTER_S: u64 = 1;

/// A parsed HTTP request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Upper-case method (`GET`, `POST`).
    pub method: String,
    /// Request path, query string stripped.
    pub path: String,
    /// Decoded body (empty when absent).
    pub body: String,
}

/// A response: status code, JSON body text, and an optional
/// `Retry-After` hint for 503s.
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body text (already-rendered JSON).
    pub body: String,
    /// Seconds to advertise in a `Retry-After` header, when present.
    pub retry_after: Option<u64>,
}

impl Response {
    /// A 200 response with `body`.
    pub fn ok(body: String) -> Response {
        Response { status: 200, body, retry_after: None }
    }

    /// A response with `status` and `body` (no `Retry-After`).
    pub fn with_status(status: u16, body: String) -> Response {
        Response { status, body, retry_after: None }
    }

    /// An error response with a `{"error": msg}` body.
    pub fn error(status: u16, msg: &str) -> Response {
        let body = Json::obj(vec![("error", Json::Str(msg.to_string()))]).render();
        Response { status, body, retry_after: None }
    }

    /// A `503 Service Unavailable` carrying a `Retry-After: seconds`
    /// header, which the retrying client honors as a backoff floor.
    pub fn unavailable(msg: &str, retry_after_s: u64) -> Response {
        Response { retry_after: Some(retry_after_s), ..Response::error(503, msg) }
    }
}

fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

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
    /// Responses written with a 4xx status (including 413s and 431s).
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

/// Why [`read_request`] rejected a connection; decides the error status.
#[derive(Debug)]
pub enum RequestError {
    /// `Content-Length` exceeded [`MAX_BODY`] → `413`.
    TooLarge(String),
    /// The request line and headers exceeded [`MAX_HEAD`] → `431`.
    HeadTooLarge(String),
    /// Anything else malformed → `400`.
    Malformed(String),
}

/// Reads one request from a connection's reader, and whether it asked to
/// keep the connection (`Connection: keep-alive`). The reader is the
/// connection's one buffer, so bytes it reads ahead of this request stay
/// there for the next.
///
/// # Errors
///
/// [`RequestError::TooLarge`] when the declared body exceeds
/// [`MAX_BODY`] (answered with 413 before reading the body),
/// [`RequestError::HeadTooLarge`] when the head runs past [`MAX_HEAD`]
/// (answered with 431), and [`RequestError::Malformed`] on a bad request
/// line, bad header, or IO failure (answered with 400).
pub fn read_request<R: BufRead>(reader: &mut R) -> Result<(Request, bool), RequestError> {
    let bad = |msg: String| RequestError::Malformed(msg);
    let mut head = reader.take(MAX_HEAD as u64);
    let mut line = String::new();
    read_head_line(&mut head, &mut line)?;
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or_else(|| bad("empty request line".into()))?.to_ascii_uppercase();
    let target = parts.next().ok_or_else(|| bad("request line missing target".into()))?;
    let path = target.split('?').next().unwrap_or(target).to_string();
    let mut content_length = 0usize;
    let mut keep_alive = false;
    loop {
        let mut header = String::new();
        read_head_line(&mut head, &mut header)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length =
                    value.trim().parse().map_err(|_| bad("bad Content-Length".into()))?;
            } else if name.eq_ignore_ascii_case("connection") {
                keep_alive = value.split(',').any(|t| t.trim().eq_ignore_ascii_case("keep-alive"));
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(RequestError::TooLarge(format!(
            "body of {content_length} bytes exceeds the {MAX_BODY}-byte limit"
        )));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|e| bad(e.to_string()))?;
    let body = String::from_utf8(body).map_err(|_| bad("non-UTF-8 body".into()))?;
    Ok((Request { method, path, body }, keep_alive))
}

/// Appends one line of the request head to `line`, failing once the head
/// has used up its [`MAX_HEAD`] bytes without ending the line.
fn read_head_line<R: BufRead>(
    head: &mut Take<&mut R>,
    line: &mut String,
) -> Result<(), RequestError> {
    head.read_line(line).map_err(|e| RequestError::Malformed(e.to_string()))?;
    if head.limit() == 0 && !line.ends_with('\n') {
        return Err(RequestError::HeadTooLarge(format!(
            "request head exceeds the {MAX_HEAD}-byte limit"
        )));
    }
    Ok(())
}

/// Writes `response` to `stream` in one write, saying whether the
/// connection stays open (best effort: a vanished client is not an error
/// worth propagating). One write keeps head and body in one segment; two
/// would leave the body waiting, under Nagle's algorithm, for the peer to
/// ACK the head, which a delayed ACK can hold back for tens of
/// milliseconds on a kept-alive connection.
pub fn write_response(stream: &mut TcpStream, response: &Response, keep_alive: bool) {
    let mut reply = String::with_capacity(160 + response.body.len());
    let _ = write!(
        reply,
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
        response.status,
        status_text(response.status),
        response.body.len(),
    );
    if let Some(seconds) = response.retry_after {
        let _ = write!(reply, "Retry-After: {seconds}\r\n");
    }
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let _ = write!(reply, "Connection: {connection}\r\n\r\n");
    reply.push_str(&response.body);
    let _ = stream.write_all(reply.as_bytes());
}

/// Closes a connection whose request was answered before it was fully
/// read (a 503 shed, a 413 or a 431). Closing a socket with unread input
/// makes the kernel send RST, which can discard the response before the
/// client reads it; so half-close the write side (the client sees the
/// response, then EOF) and drain the input, bounded in time and bytes,
/// first.
fn close_unread(mut stream: TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    let mut drained = 0;
    let mut buf = [0u8; 4096];
    while drained < DRAIN_LIMIT {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(n) => drained += n,
        }
    }
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
    queue: VecDeque<TcpStream>,
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
            if self.stop.load(Ordering::SeqCst) {
                return;
            }
            let mut next = self.admit(stream);
            while let Some(stream) = next {
                self.serve(stream);
                next = self.release();
            }
        }
    }

    /// Takes a free handler slot for `stream` and hands it back to be
    /// served, or queues it, or sheds it when the queue is full.
    fn admit(&self, mut stream: TcpStream) -> Option<TcpStream> {
        let mut slots = self.slots();
        if slots.busy < self.threads {
            slots.busy += 1;
            return Some(stream);
        }
        if slots.queue.len() < self.queue_cap {
            slots.queue.push_back(stream);
            return None;
        }
        drop(slots);
        // Writing the small 503 is cheap, and no handler is free to do it.
        self.counters.shed.fetch_add(1, Ordering::Relaxed);
        write_response(
            &mut stream,
            &Response::unavailable("server is at capacity; retry shortly", SHED_RETRY_AFTER_S),
            false,
        );
        close_unread(stream);
        None
    }

    /// Passes this thread's slot to the oldest queued connection, or gives
    /// it up when none waits. A stopping server drops the queue.
    fn release(&self) -> Option<TcpStream> {
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
    /// waits longer than [`KEEP_ALIVE_IDLE`] for its next request.
    fn serve(&self, stream: TcpStream) {
        self.counters.connections.fetch_add(1, Ordering::Relaxed);
        // Each reply is one write, sent at once rather than held back
        // until the peer ACKs the previous one.
        let _ = stream.set_nodelay(true);
        let timeouts = stream
            .set_read_timeout(Some(IO_TIMEOUT))
            .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)));
        if timeouts.is_err() {
            return;
        }
        // One buffer for the connection's lifetime: bytes it reads ahead
        // belong to the next request.
        let mut reader = BufReader::new(stream);
        loop {
            self.counters.requests.fetch_add(1, Ordering::Relaxed);
            let request = read_request(&mut reader);
            // A 413 or 431 answers before the request is read to its end.
            let unread =
                matches!(request, Err(RequestError::TooLarge(_) | RequestError::HeadTooLarge(_)));
            let (response, keep) = match request {
                Ok((request, keep_alive)) => {
                    ((self.handler)(&request), keep_alive && self.may_keep())
                }
                Err(RequestError::TooLarge(msg)) => {
                    self.counters.oversized.fetch_add(1, Ordering::Relaxed);
                    (Response::error(413, &msg), false)
                }
                Err(RequestError::HeadTooLarge(msg)) => (Response::error(431, &msg), false),
                Err(RequestError::Malformed(msg)) => (Response::error(400, &msg), false),
            };
            self.counters.record_status(response.status);
            write_response(reader.get_mut(), &response, keep);
            if unread {
                close_unread(reader.into_inner());
                return;
            }
            if !keep || !next_request_arrives(&mut reader) {
                return;
            }
        }
    }
}

/// Waits at most [`KEEP_ALIVE_IDLE`] for the first byte of a kept
/// connection's next request; false when the client closed the
/// connection, stayed quiet, or failed.
fn next_request_arrives(reader: &mut BufReader<TcpStream>) -> bool {
    if !reader.buffer().is_empty() {
        return true;
    }
    reader.get_ref().set_read_timeout(Some(KEEP_ALIVE_IDLE)).is_ok()
        && reader.fill_buf().is_ok_and(|next| !next.is_empty())
        && reader.get_ref().set_read_timeout(Some(IO_TIMEOUT)).is_ok()
}

impl HttpServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// `threads` concurrent handlers dispatching to `handler`, with the
    /// default queue bound and throwaway counters.
    ///
    /// # Errors
    ///
    /// On failure to bind.
    pub fn start<H>(addr: &str, threads: usize, handler: H) -> std::io::Result<HttpServer>
    where
        H: Fn(&Request) -> Response + Send + Sync + 'static,
    {
        let opts = HttpOptions { threads, ..HttpOptions::default() };
        Self::start_with(addr, opts, Arc::new(TransportCounters::default()), handler)
    }

    /// [`HttpServer::start`] with explicit queue bounds and shared
    /// transport counters (the production entry point — `ff-server`
    /// surfaces the counters on `/healthz`).
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
    /// for its next request closes within [`KEEP_ALIVE_IDLE`]; queued
    /// connections are dropped.
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
