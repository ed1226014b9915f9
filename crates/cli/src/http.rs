//! A deliberately small HTTP/1.1 subset: exactly what `slb serve` and
//! `slb query` need to speak to each other over `std::net`, hand-rolled
//! because the build environment is offline (no hyper/axum).
//!
//! Supported: request line + headers + `Content-Length`-delimited
//! bodies, JSON responses, `Connection: close` on every exchange (one
//! request per connection — the clients are local and short-lived, so
//! keep-alive buys nothing but idle-socket bookkeeping). Unsupported on
//! purpose: chunked transfer, continuations, TLS, multi-valued headers.

use std::io::{BufRead, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Maximum accepted size of the request head (request line + headers).
const MAX_HEAD: usize = 16 * 1024;
/// Maximum accepted body size.
const MAX_BODY: usize = 1024 * 1024;

/// A [`Read`] adapter over a [`TcpStream`] that enforces one **total
/// wall-clock deadline** across every read, not a per-read timeout.
///
/// A per-read timeout alone leaves a slow-loris hole: a client dripping
/// one byte per timeout window holds a connection (and its worker)
/// forever while each individual read "succeeds in time". This adapter
/// closes it by shrinking the socket's read timeout to the *remaining*
/// budget before every raw read, so the sum of all reads can never
/// exceed the deadline. Once the budget is spent, reads fail with
/// [`std::io::ErrorKind::TimedOut`].
pub struct DeadlineStream<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl<'a> DeadlineStream<'a> {
    /// Wraps `stream`, enforcing `deadline` across all future reads.
    pub fn new(stream: &'a TcpStream, deadline: Instant) -> Self {
        DeadlineStream { stream, deadline }
    }

    /// Time left before the deadline (`None` once it has passed).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline.checked_duration_since(Instant::now())
    }
}

impl Read for DeadlineStream<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let Some(remaining) = self.remaining() else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "request deadline exceeded",
            ));
        };
        self.stream.set_read_timeout(Some(remaining))?;
        match self.stream.read(buf) {
            // Platform-dependent spelling of "the timeout elapsed".
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "request deadline exceeded",
                ))
            }
            other => other,
        }
    }
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, uppercased as received (`GET`, `POST`, ...).
    pub method: String,
    /// Request target as received (path + optional query string).
    pub path: String,
    /// Decoded body (empty when the request carried none).
    pub body: String,
}

/// Why [`read_request`] produced no request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadError {
    /// The request's wall-clock deadline passed before it was read in
    /// full (a [`DeadlineStream`] read failed with
    /// [`std::io::ErrorKind::TimedOut`]). The server answers `503`.
    Deadline,
    /// The bytes are not a request this server accepts, or the socket
    /// failed mid-request. The server answers `400` with this message.
    Malformed(String),
}

impl ReadError {
    /// Classifies a failed read: a timeout is the deadline, anything
    /// else is described under `context`.
    fn from_io(e: &std::io::Error, context: &str) -> ReadError {
        if e.kind() == std::io::ErrorKind::TimedOut {
            ReadError::Deadline
        } else {
            ReadError::Malformed(format!("{context}: {e}"))
        }
    }
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Deadline => f.write_str("request deadline exceeded"),
            ReadError::Malformed(message) => f.write_str(message),
        }
    }
}

impl std::error::Error for ReadError {}

impl From<&str> for ReadError {
    fn from(message: &str) -> Self {
        ReadError::Malformed(message.to_string())
    }
}

impl From<String> for ReadError {
    fn from(message: String) -> Self {
        ReadError::Malformed(message)
    }
}

/// Reads one request from `reader`.
///
/// Returns `Ok(None)` on a clean end-of-stream before any request byte
/// (the client closed an idle connection — not an error).
///
/// # Errors
///
/// [`ReadError::Deadline`] when a read times out (the server turns it
/// into a 503), otherwise [`ReadError::Malformed`] describing the
/// malformation (a 400).
pub fn read_request(reader: &mut impl BufRead) -> Result<Option<Request>, ReadError> {
    let request_line = match read_line(reader, MAX_HEAD)? {
        None => return Ok(None),
        Some(line) if line.is_empty() => return Err("empty request line".into()),
        Some(line) => line,
    };
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or_default().to_string();
    let path = parts
        .next()
        .ok_or_else(|| format!("malformed request line '{request_line}'"))?
        .to_string();
    let version = parts
        .next()
        .ok_or_else(|| format!("malformed request line '{request_line}'"))?;
    if !version.starts_with("HTTP/1.") || parts.next().is_some() {
        return Err(format!("unsupported protocol '{version}'").into());
    }

    let mut content_length = 0usize;
    let mut head_bytes = request_line.len();
    loop {
        let line =
            read_line(reader, MAX_HEAD)?.ok_or("connection closed inside request headers")?;
        head_bytes += line.len() + 2;
        if head_bytes > MAX_HEAD {
            return Err("request head too large".into());
        }
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(format!("malformed header line '{line}'").into());
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| format!("bad content-length '{}'", value.trim()))?;
            if content_length > MAX_BODY {
                return Err(format!("body of {content_length} bytes exceeds limit").into());
            }
        }
    }

    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| ReadError::from_io(&e, &format!("reading {content_length}-byte body")))?;
    let body = String::from_utf8(body).map_err(|_| "body is not valid UTF-8")?;
    Ok(Some(Request { method, path, body }))
}

/// Reads one CRLF (or bare-LF) terminated line, without the terminator.
/// `Ok(None)` = end of stream before any byte.
fn read_line(reader: &mut impl BufRead, limit: usize) -> Result<Option<String>, ReadError> {
    let mut line = Vec::new();
    let n = reader
        .by_ref()
        .take(limit as u64 + 1)
        .read_until(b'\n', &mut line)
        .map_err(|e| ReadError::from_io(&e, "reading request"))?;
    if n == 0 {
        return Ok(None);
    }
    if line.last() != Some(&b'\n') {
        return Err("request line not terminated within limit".into());
    }
    line.pop();
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line)
        .map(Some)
        .map_err(|_| "request head is not valid UTF-8".into())
}

/// The canonical reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes one complete JSON response and flushes. Every response closes
/// the connection (see the module docs).
///
/// # Errors
///
/// Propagates socket write errors (the server logs and drops them — the
/// client is gone either way).
pub fn write_response(stream: &mut impl Write, status: u16, body: &str) -> std::io::Result<()> {
    write_response_extra(stream, status, &[], body)
}

/// [`write_response`] with additional response headers (e.g.
/// `Retry-After` on a 503). Header names and values must already be
/// valid HTTP header text; this is an internal server, not a proxy.
///
/// # Errors
///
/// Propagates socket write errors.
pub fn write_response_extra(
    stream: &mut impl Write,
    status: u16,
    extra: &[(&str, &str)],
    body: &str,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
        reason(status),
        body.len(),
    );
    for (name, value) in extra {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    write!(stream, "{head}\r\n{body}")?;
    stream.flush()
}

/// Reads one response from `reader`: `(status, body)`.
///
/// # Errors
///
/// Returns a message when the response is malformed or truncated.
pub fn read_response(reader: &mut impl BufRead) -> Result<(u16, String), String> {
    read_response_full(reader).map(|(status, _headers, body)| (status, body))
}

/// A parsed response: status, headers (lowercased names), body.
pub type FullResponse = (u16, Vec<(String, String)>, String);

/// Reads one response from `reader`, keeping the headers:
/// `(status, headers, body)`. Header names are lowercased; the retrying
/// client uses this to honor `Retry-After` on a 503.
///
/// # Errors
///
/// Returns a message when the response is malformed or truncated.
pub fn read_response_full(reader: &mut impl BufRead) -> Result<FullResponse, String> {
    let status_line = read_line(reader, MAX_HEAD)
        .map_err(|e| e.to_string())?
        .ok_or("empty response")?;
    let mut parts = status_line.split(' ');
    let version = parts.next().unwrap_or_default();
    if !version.starts_with("HTTP/1.") {
        return Err(format!("malformed status line '{status_line}'"));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line '{status_line}'"))?;

    let mut content_length: Option<usize> = None;
    let mut headers = Vec::new();
    loop {
        let line = read_line(reader, MAX_HEAD)
            .map_err(|e| e.to_string())?
            .ok_or("connection closed inside headers")?;
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                content_length = value.parse().ok();
            }
            headers.push((name, value));
        }
    }

    let body = match content_length {
        Some(n) if n > MAX_BODY => return Err(format!("response body of {n} bytes")),
        Some(n) => {
            let mut buf = vec![0u8; n];
            reader
                .read_exact(&mut buf)
                .map_err(|e| format!("reading {n}-byte response body: {e}"))?;
            buf
        }
        // Connection-close delimited (this server always sends a
        // length, but be liberal in what we accept).
        None => {
            let mut buf = Vec::new();
            reader
                .read_to_end(&mut buf)
                .map_err(|e| format!("reading response body: {e}"))?;
            buf
        }
    };
    let body = String::from_utf8(body).map_err(|_| "response body is not valid UTF-8")?;
    Ok((status, headers, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Option<Request>, ReadError> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_post_with_body() {
        let req =
            parse("POST /v1/query HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\n{\"kind\":1}x")
                .unwrap()
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/query");
        assert_eq!(req.body, "{\"kind\":1}x");
    }

    #[test]
    fn parses_bodyless_get_and_clean_eof() {
        let req = parse("GET /healthz HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert_eq!((req.method.as_str(), req.body.as_str()), ("GET", ""));
        assert_eq!(parse("").unwrap(), None);
    }

    #[test]
    fn read_past_its_deadline_is_a_deadline_error() {
        use std::net::TcpListener;

        // A client that connects and then says nothing: the read times
        // out, and the error is typed, whatever its message says.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let silent = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let deadline = Instant::now() + Duration::from_millis(50);
        let mut reader = BufReader::new(DeadlineStream::new(&stream, deadline));
        assert_eq!(read_request(&mut reader), Err(ReadError::Deadline));
        // Once spent, the deadline fails the next read without waiting.
        let mut reader = BufReader::new(DeadlineStream::new(&stream, deadline));
        assert_eq!(read_request(&mut reader), Err(ReadError::Deadline));
        drop(silent);
    }

    #[test]
    fn malformed_requests_are_errors() {
        assert!(parse("GET\r\n\r\n").is_err());
        assert!(parse("GET / SMTP/1.0\r\n\r\n").is_err());
        assert!(parse("GET / HTTP/1.1\r\nbad header\r\n\r\n").is_err());
        assert!(parse("GET / HTTP/1.1\r\nContent-Length: zebra\r\n\r\n").is_err());
        // A truncated body is malformed, not a deadline: only a timed-out
        // read is the deadline.
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: 99\r\n\r\nshort"),
            Err(ReadError::Malformed(_))
        ));
        let huge = format!("GET / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 1);
        assert!(parse(&huge).is_err());
    }

    #[test]
    fn response_roundtrip() {
        let mut wire = Vec::new();
        write_response(&mut wire, 200, "{\"ok\":true}").unwrap();
        let (status, body) = read_response(&mut BufReader::new(wire.as_slice())).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "{\"ok\":true}");
        assert_eq!(reason(404), "Not Found");
        assert_eq!(reason(503), "Service Unavailable");
    }

    #[test]
    fn extra_headers_roundtrip() {
        let mut wire = Vec::new();
        write_response_extra(&mut wire, 503, &[("Retry-After", "1")], "{}").unwrap();
        let raw = String::from_utf8(wire.clone()).unwrap();
        assert!(raw.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        let (status, headers, body) =
            read_response_full(&mut BufReader::new(wire.as_slice())).unwrap();
        assert_eq!(status, 503);
        assert_eq!(body, "{}");
        let retry = headers.iter().find(|(n, _)| n == "retry-after");
        assert_eq!(retry.map(|(_, v)| v.as_str()), Some("1"));
    }

    /// The slow-loris case the deadline exists for: a client dripping
    /// bytes with pauses shorter than any per-read timeout still cannot
    /// hold the reader past the total wall deadline.
    #[test]
    fn deadline_stream_bounds_a_dripping_writer() {
        use std::net::TcpListener;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let dripper = std::thread::spawn(move || {
            let mut conn = std::net::TcpStream::connect(addr).unwrap();
            // One byte every 40ms: each read succeeds quickly, but the
            // request never completes. Stop when the server gives up.
            for b in b"POST /v1/query HTTP/1.1\r\nContent-Length: 999\r\n\r\n..." {
                if conn.write_all(&[*b]).is_err() {
                    break;
                }
                conn.flush().ok();
                std::thread::sleep(Duration::from_millis(40));
            }
        });

        let (stream, _) = listener.accept().unwrap();
        let started = Instant::now();
        let deadline = started + Duration::from_millis(300);
        let mut reader = BufReader::new(DeadlineStream::new(&stream, deadline));
        let err = read_request(&mut reader).unwrap_err();
        assert_eq!(err, ReadError::Deadline, "unexpected error: {err}");
        let elapsed = started.elapsed();
        assert!(
            elapsed >= Duration::from_millis(290) && elapsed < Duration::from_secs(5),
            "deadline not enforced near 300ms: {elapsed:?}"
        );
        drop(stream); // hang up so the dripper's next write fails
        dripper.join().unwrap();

        // A request that completes inside the deadline is untouched.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut conn = std::net::TcpStream::connect(addr).unwrap();
            conn.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        });
        let (stream, _) = listener.accept().unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut reader = BufReader::new(DeadlineStream::new(&stream, deadline));
        let req = read_request(&mut reader).unwrap().unwrap();
        assert_eq!(req.path, "/healthz");
        writer.join().unwrap();
    }
}
