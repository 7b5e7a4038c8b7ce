//! HTTP/1.1 message framing: the one codec `ff-server` and its client
//! ([`crate::remote`]) share.
//!
//! The build environment is offline (no hyper, no tokio), and the
//! campaign service speaks a small subset of HTTP/1.1: `Content-Length`
//! bodies, no chunked encoding, no TLS. Both ends read and write messages
//! here, so they agree on every framing rule:
//!
//! * a head (start line plus headers) is read within [`MAX_HEAD`] bytes,
//!   so a peer that never ends a header line cannot grow one without
//!   bound;
//! * `Connection` is a token list, and the message asks to keep its
//!   connection when one token is `keep-alive`;
//! * an unparsable `Content-Length` is an error;
//! * a body is exactly `Content-Length` bytes (RFC 9112 §6.3), at most
//!   [`MAX_BODY`]. A request without the header has an empty body, and a
//!   reply without it runs to EOF. A body cut short of its length is an
//!   error, never a truncated message;
//! * a message is written in one `write_all`, head and body together.
//!
//! A server reads each connection through a [`DeadlineReader`], so the
//! whole request, not each read, is bounded in time
//! ([`REQUEST_DEADLINE`]); a read that times out is a 408.

use std::fmt::Write as _;
use std::io::{self, BufRead, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::json::Json;

/// Largest head either end reads, the start line plus every header (a
/// request head from [`crate::remote`] is < 200 bytes, a reply head
/// < 150).
pub const MAX_HEAD: usize = 16 * 1024;

/// Largest body either end reads (a full-grid campaign request is
/// < 2 KiB and its status document ~37 KiB; anything near this bound is
/// hostile or corrupt).
pub const MAX_BODY: usize = 1 << 20;

/// How long a server waits for one request, from its start to its last
/// body byte: from accept on a new connection, from the request's first
/// byte on a kept-alive one. Past it the request is answered
/// `408 Request Timeout`. DESIGN.md §7f justifies the value.
pub const REQUEST_DEADLINE: Duration = Duration::from_secs(2);

/// The buffer a message is read into, head first and then body: room for
/// an artifact reply (~1.7 KiB); a larger body takes one more allocation,
/// sized to its `Content-Length`.
const MESSAGE_CAPACITY: usize = 8 * 1024;

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

/// The reason phrase of a status code the service sends.
fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Why a message could not be read: the status a server answers the
/// request with (400, 408, 413 or 431), and what went wrong.
#[derive(Debug)]
pub struct HttpError(pub u16, pub String);

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.1)
    }
}

/// A server connection's socket, whose every read ends by `deadline`.
/// Each read that reaches the socket first sets its read timeout to the
/// time left; past the deadline a read takes only bytes that have already
/// arrived, so a connection that waited in the accept queue still has its
/// request read, while a stalled one fails at once.
#[derive(Debug)]
pub struct DeadlineReader {
    /// The connection.
    pub stream: TcpStream,
    /// When reads stop waiting.
    pub deadline: Instant,
}

impl Read for DeadlineReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            self.stream.set_nonblocking(true)?;
            let read = self.stream.read(buf);
            self.stream.set_nonblocking(false)?;
            return read;
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

/// A failed read: 408 when it timed out, else 400.
fn read_error(e: &io::Error) -> HttpError {
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => HttpError(408, "read timed out".into()),
        _ => HttpError(400, format!("read failed: {e}")),
    }
}

/// Reads one `what` message: a head of at most [`MAX_HEAD`] bytes, whose
/// start line `start` parses, then a body of exactly `Content-Length`
/// bytes, at most [`MAX_BODY`]. A head without `Content-Length` takes
/// `no_length` as its length, or, when that is `None`, a body that runs
/// to EOF. Returns the start line's parse, the body, whether the message
/// keeps its connection (`keep-alive`, with a delimited body) and its
/// `Retry-After`. Bytes past the message stay in `reader`.
fn read_message<R: BufRead, T>(
    reader: &mut R,
    what: &str,
    no_length: Option<usize>,
    start: impl FnOnce(&str) -> Option<T>,
) -> Result<(T, String, bool, Option<u64>), HttpError> {
    // One buffer holds the head, then the body.
    let mut raw = Vec::with_capacity(MESSAGE_CAPACITY);
    let mut head = reader.take(MAX_HEAD as u64);
    while !(raw.ends_with(b"\n\r\n") || raw.ends_with(b"\n\n")) {
        if head.read_until(b'\n', &mut raw).map_err(|e| read_error(&e))? == 0 {
            return Err(match head.limit() {
                0 => HttpError(431, format!("{what} head exceeds the {MAX_HEAD}-byte limit")),
                _ => HttpError(400, format!("malformed {what} (no header/body split)")),
            });
        }
    }
    let bad = |msg: String| HttpError(400, msg);
    let text = std::str::from_utf8(&raw).map_err(|_| bad(format!("non-UTF-8 {what} head")))?;
    let mut lines = text.lines();
    let line = lines.next().unwrap_or("");
    let start = start(line).ok_or_else(|| bad(format!("bad {what} line `{line}`")))?;
    let (mut len, mut keep_alive, mut retry_after) = (no_length, false, None);
    for (name, value) in lines.filter_map(|line| line.split_once(':')) {
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            len = Some(value.parse().map_err(|_| bad("bad Content-Length".into()))?);
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = value.split(',').any(|t| t.trim().eq_ignore_ascii_case("keep-alive"));
        } else if name.eq_ignore_ascii_case("retry-after") {
            retry_after = value.parse().ok();
        }
    }
    raw.clear();
    match len {
        Some(len) if len > MAX_BODY => {
            return Err(HttpError(
                413,
                format!("body of {len} bytes exceeds the {MAX_BODY}-byte limit"),
            ));
        }
        Some(len) => {
            raw.reserve_exact(len);
            reader.take(len as u64).read_to_end(&mut raw)
        }
        None => reader.read_to_end(&mut raw),
    }
    .map_err(|e| read_error(&e))?;
    if let Some(len) = len.filter(|&len| len != raw.len()) {
        let got = raw.len();
        return Err(bad(format!(
            "truncated {what}: Content-Length {len}, got {got} bytes (connection reset?)"
        )));
    }
    let body = String::from_utf8(raw).map_err(|_| bad(format!("non-UTF-8 {what} body")))?;
    Ok((start, body, keep_alive && len.is_some(), retry_after))
}

/// Reads one request from a connection's reader, and whether it asked to
/// keep the connection. A request without `Content-Length` has an empty
/// body. The reader is the connection's one buffer, so bytes it reads
/// ahead of this request stay there for the next.
///
/// # Errors
///
/// A 413 when the declared body exceeds [`MAX_BODY`] (before the body is
/// read), a 431 when the head runs past [`MAX_HEAD`], a 408 when a read
/// times out, and a 400 on a bad request line, a bad `Content-Length`, a
/// short body or an IO failure.
pub fn read_request<R: BufRead>(reader: &mut R) -> Result<(Request, bool), HttpError> {
    let ((method, path), body, keep_alive, _) = read_message(reader, "request", Some(0), |line| {
        let mut parts = line.split_whitespace();
        let (method, target) = (parts.next()?, parts.next()?);
        let path = target.split('?').next()?;
        Some((method.to_ascii_uppercase(), path.to_string()))
    })?;
    Ok((Request { method, path, body }, keep_alive))
}

/// Reads one response from a connection's reader, and whether the server
/// keeps the connection. A response without `Content-Length` runs to EOF.
///
/// # Errors
///
/// As [`read_request`]; a 400 also for a bad status line.
pub(crate) fn read_response<R: BufRead>(reader: &mut R) -> Result<(Response, bool), HttpError> {
    let (status, body, keep_alive, retry_after) = read_message(reader, "response", None, |line| {
        line.split_whitespace().nth(1)?.parse().ok()
    })?;
    Ok((Response { status, body, retry_after }, keep_alive))
}

/// Writes a message in one write: `start` (the start line and any headers
/// before the framing ones), then the framing headers and `body`. One
/// write keeps head and body in one segment; two would leave the body
/// waiting, under Nagle's algorithm, for the peer to ACK the head, which a
/// delayed ACK can hold back for tens of milliseconds on a kept-alive
/// connection.
fn write_message(
    w: &mut impl Write,
    start: std::fmt::Arguments<'_>,
    retry_after: Option<u64>,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    let mut message = String::with_capacity(160 + body.len());
    let len = body.len();
    let _ = write!(message, "{start}Content-Type: application/json\r\nContent-Length: {len}\r\n");
    if let Some(seconds) = retry_after {
        let _ = write!(message, "Retry-After: {seconds}\r\n");
    }
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let _ = write!(message, "Connection: {connection}\r\n\r\n{body}");
    w.write_all(message.as_bytes())
}

/// Writes `response` in one write, saying whether the connection stays
/// open.
///
/// # Errors
///
/// When the write fails.
pub fn write_response(w: &mut impl Write, response: &Response, keep_alive: bool) -> io::Result<()> {
    let (status, text) = (response.status, status_text(response.status));
    let start = format_args!("HTTP/1.1 {status} {text}\r\n");
    write_message(w, start, response.retry_after, &response.body, keep_alive)
}

/// Writes a request for `path` on `host:port` with a JSON `body` in one
/// write, asking to keep the connection when `keep_alive`.
///
/// # Errors
///
/// When the write fails.
pub(crate) fn write_request(
    w: &mut impl Write,
    method: &str,
    path: &str,
    host: &str,
    port: u16,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    let start = format_args!("{method} {path} HTTP/1.1\r\nHost: {host}:{port}\r\n");
    write_message(w, start, None, body, keep_alive)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(text: &str) -> Result<(Request, bool), HttpError> {
        read_request(&mut text.as_bytes())
    }

    fn response(text: &str) -> Result<(Response, bool), HttpError> {
        read_response(&mut text.as_bytes())
    }

    #[test]
    fn parse_response_reads_status_and_retry_after() {
        let (r, _) = response(
            "HTTP/1.1 503 Service Unavailable\r\nRetry-After: 2\r\nContent-Length: 2\r\n\r\nno",
        )
        .unwrap();
        assert_eq!((r.status, r.retry_after, r.body.as_str()), (503, Some(2), "no"));
        let (r, _) = response("HTTP/1.1 200 OK\r\n\r\nhello").unwrap();
        assert_eq!((r.status, r.retry_after, r.body.as_str()), (200, None, "hello"));
    }

    #[test]
    fn parse_response_rejects_bodies_truncated_against_content_length() {
        let err = response("HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\npartial")
            .unwrap_err()
            .to_string();
        assert!(err.contains("truncated response"), "{err}");
        assert!(response("no header split at all").is_err());
        assert!(response("BOGUS\r\n\r\nbody").is_err());
    }

    /// A reply head that never ends within `MAX_HEAD` fails once that many
    /// bytes are read, not after the whole line.
    #[test]
    fn a_reply_head_past_max_head_fails_within_max_head_bytes() {
        let text = format!("HTTP/1.1 200 OK\r\nX-Filler: {}\r\n\r\n", "a".repeat(64 * 1024));
        let mut reader = text.as_bytes();
        let err = read_response(&mut reader).unwrap_err();
        assert_eq!(err.0, 431, "{err}");
        assert!(text.len() - reader.len() <= MAX_HEAD, "read {} bytes", text.len() - reader.len());
    }

    #[test]
    fn connection_is_a_token_list_on_both_ends() {
        let (_, keep) =
            request("GET /a HTTP/1.1\r\nConnection: Keep-Alive, Upgrade\r\n\r\n").unwrap();
        assert!(keep, "request");
        let (_, keep) = response(
            "HTTP/1.1 200 OK\r\nContent-Length: 0\r\nConnection: Keep-Alive, Upgrade\r\n\r\n",
        )
        .unwrap();
        assert!(keep, "response");
        let (_, keep) = request("GET /a HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!keep, "request asking to close");
    }

    #[test]
    fn an_unparsable_content_length_is_an_error_on_both_ends() {
        let err = request("POST /c HTTP/1.1\r\nContent-Length: 12x\r\n\r\n").unwrap_err();
        assert_eq!(err.0, 400, "{err}");
        let err = response("HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\nbody").unwrap_err();
        assert!(err.to_string().contains("Content-Length"), "{err}");
    }

    /// A request without `Content-Length` has an empty body and leaves the
    /// next request's bytes unread; a request line keeps only the path.
    #[test]
    fn a_request_without_content_length_has_an_empty_body() {
        let mut reader = "get /jobs/ab?x=1 HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n".as_bytes();
        let (r, keep) = read_request(&mut reader).unwrap();
        assert_eq!(
            (r.method.as_str(), r.path.as_str(), r.body.as_str(), keep),
            ("GET", "/jobs/ab", "", false)
        );
        assert_eq!(reader, b"GET /b HTTP/1.1\r\n\r\n");
    }

    /// Request bytes the client sends and reply bytes the server sends,
    /// byte for byte.
    #[test]
    fn messages_are_written_in_the_wire_format() {
        let mut wire = Vec::new();
        write_request(&mut wire, "POST", "/campaigns", "127.0.0.1", 7878, "{}", false).unwrap();
        assert_eq!(
            String::from_utf8(wire).unwrap(),
            "POST /campaigns HTTP/1.1\r\nHost: 127.0.0.1:7878\r\nContent-Type: application/json\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}"
        );
        let mut wire = Vec::new();
        let busy = Response { status: 503, body: "{}".to_string(), retry_after: Some(1) };
        write_response(&mut wire, &busy, true).unwrap();
        assert_eq!(
            String::from_utf8(wire).unwrap(),
            "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\nContent-Length: 2\r\nRetry-After: 1\r\nConnection: keep-alive\r\n\r\n{}"
        );
    }
}
