//! A hand-rolled HTTP/1.1 server layer over `std::net`.
//!
//! The build environment is offline (no hyper, no tokio), and the
//! campaign service needs exactly four routes with small JSON bodies, so
//! this implements the minimal subset the `ff-harness` client speaks:
//! `Content-Length` bodies, `Connection: close` per request, a fixed
//! accept-thread + worker-thread model. No keep-alive, no chunked
//! encoding, no TLS — additions the protocol does not need.
//!
//! What it *does* harden against, because a long-running service meets
//! them in practice:
//!
//! * **oversized bodies** — rejected with `413 Payload Too Large` before
//!   the body is read, so a hostile `Content-Length` cannot balloon
//!   memory;
//! * **overload** — accepted connections queue on a *bounded* channel;
//!   when the queue is full the accept thread sheds the connection with
//!   `503 Service Unavailable` plus a `Retry-After` header instead of
//!   letting the backlog grow without bound (the `ff_harness::remote`
//!   client honors the header and retries idempotent requests);
//! * **observability** — every request, shed, and error class ticks a
//!   [`TransportCounters`] field, surfaced on `GET /healthz`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ff_harness::json::Json;

/// Per-connection read/write timeout: a stalled client must never wedge
/// an HTTP worker for good.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// How long, and how many bytes, an early reply drains of the unread
/// request before closing (see [`close_unread`]).
const DRAIN_TIMEOUT: Duration = Duration::from_millis(100);
const DRAIN_LIMIT: usize = 64 * 1024;

/// Largest accepted request body (a full-grid campaign request is < 2 KiB;
/// anything near this bound is hostile or corrupt).
pub const MAX_BODY: usize = 1 << 20;

/// Default bound on the accept queue: connections beyond
/// `queue_cap + workers` in flight are shed with 503.
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
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Request/error counters for the transport layer, surfaced on
/// `GET /healthz` under `"transport"`.
#[derive(Debug, Default)]
pub struct TransportCounters {
    /// Connections dequeued by a worker (parsed or not).
    pub requests: AtomicU64,
    /// Responses written with a 4xx status (including 413s).
    pub http_4xx: AtomicU64,
    /// Responses written with a 5xx status (excluding sheds).
    pub http_5xx: AtomicU64,
    /// Connections shed by the accept thread with 503 (queue full).
    pub shed: AtomicU64,
    /// Requests rejected with 413 for an oversized body.
    pub oversized: AtomicU64,
}

impl TransportCounters {
    /// The counters as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
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
    /// Anything else malformed → `400`.
    Malformed(String),
}

/// Reads one request from `stream`.
///
/// # Errors
///
/// [`RequestError::TooLarge`] when the declared body exceeds
/// [`MAX_BODY`] (answered with 413 before reading the body), and
/// [`RequestError::Malformed`] on a bad request line, bad header, or IO
/// failure (answered with 400).
pub fn read_request(stream: &mut TcpStream) -> Result<Request, RequestError> {
    let bad = |msg: String| RequestError::Malformed(msg);
    stream.set_read_timeout(Some(IO_TIMEOUT)).map_err(|e| bad(e.to_string()))?;
    stream.set_write_timeout(Some(IO_TIMEOUT)).map_err(|e| bad(e.to_string()))?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).map_err(|e| bad(e.to_string()))?;
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or_else(|| bad("empty request line".into()))?.to_ascii_uppercase();
    let target = parts.next().ok_or_else(|| bad("request line missing target".into()))?;
    let path = target.split('?').next().unwrap_or(target).to_string();
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).map_err(|e| bad(e.to_string()))?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length =
                    value.trim().parse().map_err(|_| bad("bad Content-Length".into()))?;
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
    Ok(Request { method, path, body })
}

/// Writes `response` to `stream` (best effort: a vanished client is not
/// an error worth propagating).
pub fn write_response(stream: &mut TcpStream, response: &Response) {
    let retry_after =
        response.retry_after.map_or(String::new(), |seconds| format!("Retry-After: {seconds}\r\n"));
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{}Connection: close\r\n\r\n",
        response.status,
        status_text(response.status),
        response.body.len(),
        retry_after,
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(response.body.as_bytes());
    let _ = stream.flush();
}

/// Closes a connection whose request was answered before it was fully
/// read (a 503 shed or a 413). Closing a socket with unread input makes
/// the kernel send RST, which can discard the response before the client
/// reads it; so half-close the write side (the client sees the response,
/// then EOF) and drain the input, bounded in time and bytes, first.
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
    /// HTTP worker threads.
    pub threads: usize,
    /// Accepted connections that may queue before load-shedding kicks in.
    pub queue_cap: usize,
}

impl Default for HttpOptions {
    fn default() -> Self {
        HttpOptions { threads: 4, queue_cap: DEFAULT_QUEUE_CAP }
    }
}

/// The accept thread plus a fixed pool of HTTP worker threads. Accepted
/// connections queue on a *bounded* channel; each worker reads one
/// request, calls the handler, writes the response, and closes. When the
/// queue is full, the accept thread itself answers `503` with
/// `Retry-After` rather than queueing without bound.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept thread plus `threads` HTTP workers dispatching to `handler`,
    /// with the default queue bound and throwaway counters.
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
        let stop = Arc::new(AtomicBool::new(false));
        let handler = Arc::new(handler);
        let (tx, rx) = mpsc::sync_channel::<TcpStream>(opts.queue_cap.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..opts.threads.max(1))
            .map(|_| {
                let rx = Arc::clone(&rx);
                let handler = Arc::clone(&handler);
                let counters = Arc::clone(&counters);
                std::thread::spawn(move || loop {
                    // Holding the receiver lock only while dequeuing keeps
                    // workers independent once they own a connection.
                    let next = rx.lock().unwrap_or_else(|e| e.into_inner()).recv();
                    let Ok(mut stream) = next else { return };
                    counters.requests.fetch_add(1, Ordering::Relaxed);
                    let request = read_request(&mut stream);
                    // A 413 answers from the headers, leaving the body unread.
                    let unread = matches!(request, Err(RequestError::TooLarge(_)));
                    let response = match request {
                        Ok(request) => handler(&request),
                        Err(RequestError::TooLarge(msg)) => {
                            counters.oversized.fetch_add(1, Ordering::Relaxed);
                            Response::error(413, &msg)
                        }
                        Err(RequestError::Malformed(msg)) => Response::error(400, &msg),
                    };
                    counters.record_status(response.status);
                    write_response(&mut stream, &response);
                    if unread {
                        close_unread(stream);
                    }
                })
            })
            .collect();
        let accept_stop = Arc::clone(&stop);
        let accept_counters = Arc::clone(&counters);
        let accept = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                match tx.try_send(stream) {
                    Ok(()) => {}
                    Err(mpsc::TrySendError::Full(mut stream)) => {
                        // Shed from the accept thread: writing the small
                        // 503 is cheap, and blocking here would stall all
                        // accepts behind one slow backlog.
                        accept_counters.shed.fetch_add(1, Ordering::Relaxed);
                        write_response(
                            &mut stream,
                            &Response::unavailable(
                                "server is at capacity; retry shortly",
                                SHED_RETRY_AFTER_S,
                            ),
                        );
                        close_unread(stream);
                    }
                    Err(mpsc::TrySendError::Disconnected(_)) => break,
                }
            }
            // Dropping `tx` lets every idle worker's recv() fail and exit.
        });
        Ok(HttpServer { addr: local, stop, accept: Some(accept), workers })
    }

    /// The bound address (reports the real port when started with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains the workers, and joins every thread.
    /// In-flight requests complete; queued connections are dropped.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop blocks in accept(); a throwaway connection to
        // ourselves unblocks it so it can observe the stop flag.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}
