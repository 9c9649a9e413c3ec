//! HTTP/1.1 wire protocol: request framing, response writing, and the
//! connection state machine rules the server and client share.
//!
//! Scope is exactly what a JSON API over loopback/LAN needs: request-line +
//! headers + `Content-Length` body framing, keep-alive, and hard limits on
//! header and body size. Chunked transfer encoding is rejected rather than
//! implemented. Every framing violation maps to one of two recovery modes:
//!
//! * **fatal** — the byte stream can no longer be re-synchronized (torn
//!   request line, oversized or malformed framing): respond once and close;
//! * **recoverable** — framing was intact but the request is semantically
//!   bad (handled a layer up: bad JSON, unknown route): respond and keep
//!   the connection.
//!
//! ## One framer
//!
//! [`frame`] is the only code that decides where a request ends. It is a
//! stateless function of the bytes buffered so far, so the event loop calls
//! it on a connection's buffer as that grows and [`read_request`] feeds it
//! from a `BufRead`; neither has a framing rule of its own. What it answers,
//! by what is buffered (the *head* is the request line and header lines up
//! to and including the first empty line):
//!
//! | buffered | stream still open | peer finished sending (`eof`) |
//! |----------|-------------------|-------------------------------|
//! | nothing | need more | closed |
//! | head unfinished, at most `max_head_bytes` | need more | fatal |
//! | head unfinished after `max_head_bytes` | fatal | fatal |
//! | head finished, breaks a rule | fatal | the same |
//! | head finished and valid, declared body short | need more | fatal |
//! | head and declared body | request + bytes consumed | the same |
//!
//! *Need more* is `None`, *closed* is [`ReadOutcome::Disconnected`]. A fatal
//! answer is a 400 (413 for a `Content-Length` beyond `max_body_bytes`) that
//! names the first rule broken among the lines that arrived, in wire order;
//! an unfinished head that broke none is `malformed request head`. A
//! violation is answered the moment the head finishes — never after waiting
//! for a body the head has no right to — and never before: a request is
//! judged whole, so its answer does not depend on how the bytes were split
//! across reads.
//!
//! Responses carry a fixed, deterministic header set (no `Date`), so a
//! response's bytes depend only on status, body, and keep-alive flag —
//! which is what lets the equivalence suite assert byte-identical output.

use std::io::{self, BufRead, Read, Write};

/// Framing limits; requests beyond them are refused.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum bytes of request line + headers (terminator included).
    pub max_head_bytes: usize,
    /// Maximum request body bytes ([`StatusCode::PAYLOAD_TOO_LARGE`] beyond).
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_head_bytes: 8 * 1024,
            max_body_bytes: 1024 * 1024,
        }
    }
}

/// The status codes this API emits.
pub struct StatusCode;

impl StatusCode {
    /// 200.
    pub const OK: u16 = 200;
    /// 400.
    pub const BAD_REQUEST: u16 = 400;
    /// 404.
    pub const NOT_FOUND: u16 = 404;
    /// 413.
    pub const PAYLOAD_TOO_LARGE: u16 = 413;
    /// 502 (router fronts: an upstream shard failed).
    pub const BAD_GATEWAY: u16 = 502;

    /// Canonical reason phrase.
    pub fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            413 => "Payload Too Large",
            502 => "Bad Gateway",
            _ => "Unknown",
        }
    }
}

/// One parsed request.
#[derive(Debug, Default)]
pub struct Request {
    /// Method verbatim (e.g. `GET`).
    pub method: String,
    /// Path without the query string (e.g. `/v1/recommend/3`).
    pub path: String,
    /// Raw query string after `?`, if any (e.g. `n=5`).
    pub query: Option<String>,
    /// Body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
    /// `Idempotency-Key` header value, if the client sent one (exactly-once
    /// ingestion; ignored by every other endpoint).
    pub idempotency_key: Option<String>,
}

/// What reading one request off a connection produced.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A well-framed request (it may still be semantically invalid).
    Request(Request),
    /// The peer closed (or went idle past the read timeout) between
    /// requests — normal end of a keep-alive session; nothing to send.
    Disconnected,
    /// The byte stream violated framing. Send the error response, then
    /// close: the stream cannot be re-synchronized.
    Fatal {
        /// Status to answer with before closing.
        status: u16,
        /// Human-readable cause (becomes the JSON error body).
        message: &'static str,
    },
}

/// A broken framing rule: the status to answer with and the cause.
type Violation = (u16, &'static str);

const fn bad_request(message: &'static str) -> Violation {
    (StatusCode::BAD_REQUEST, message)
}

/// Frame one request from the front of `buf`, the bytes a connection has
/// delivered and not yet consumed. `None` means the request is still
/// arriving; otherwise the outcome and how many bytes of `buf` it used up
/// (a request's length — what follows is the next pipelined request — and 0
/// for the other two). `eof` says the peer finished sending, so `buf` is all
/// there will ever be and the answer is never `None`. The module docs
/// tabulate which answer is given when. Stateless: call it again with a
/// longer `buf` after a `None`, and with the remainder after a request.
pub fn frame(buf: &[u8], limits: Limits, eof: bool) -> Option<(ReadOutcome, usize)> {
    if buf.is_empty() {
        return eof.then_some((ReadOutcome::Disconnected, 0));
    }
    let mut req = Request::default();
    let mut content_length = None;
    let mut verdict = Ok(());
    let mut head_len = 0;
    let mut finished = false;
    // A head may be `max_head_bytes` long, empty line included; bytes past
    // that are never read as head.
    let window = &buf[..buf.len().min(limits.max_head_bytes)];
    for (i, raw) in window.split_inclusive(|&b| b == b'\n').enumerate() {
        let Some(line) = raw.strip_suffix(b"\n") else {
            break; // the line is still arriving
        };
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        head_len += raw.len();
        if i > 0 && line.is_empty() {
            finished = true;
            break;
        }
        if verdict.is_ok() {
            verdict = if i == 0 {
                request_line(line, &mut req)
            } else {
                header_line(line, &mut req, &mut content_length, limits.max_body_bytes)
            };
        }
    }
    if !finished {
        if !eof && buf.len() <= limits.max_head_bytes {
            return None;
        }
        verdict = verdict.and(Err(bad_request("malformed request head")));
    }
    let end = head_len.saturating_add(content_length.unwrap_or(0));
    let body = buf.get(head_len..end);
    if body.is_none() && eof {
        verdict = verdict.and(Err(bad_request("body shorter than content-length")));
    }
    match (verdict, body) {
        (Err((status, message)), _) => Some((ReadOutcome::Fatal { status, message }, 0)),
        (Ok(()), Some(body)) => {
            req.body = body.to_vec();
            Some((ReadOutcome::Request(req), end))
        }
        (Ok(()), None) => None,
    }
}

fn is_token(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b))
}

/// `METHOD /path?query HTTP/1.x` into `req`; the version sets the
/// keep-alive default a `Connection` header may then override.
fn request_line(line: &[u8], req: &mut Request) -> Result<(), Violation> {
    let line = std::str::from_utf8(line).map_err(|_| bad_request("request line is not UTF-8"))?;
    let mut parts = line.split(' ');
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(bad_request("malformed request line"));
    };
    if !is_token(method) {
        return Err(bad_request("malformed method"));
    }
    req.keep_alive = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(bad_request("unsupported HTTP version")),
    };
    if !target.starts_with('/') {
        return Err(bad_request("request target must be absolute path"));
    }
    let (path, query) = match target.split_once('?') {
        Some((path, query)) => (path, Some(query.to_string())),
        None => (target, None),
    };
    req.method = method.to_string();
    req.path = path.to_string();
    req.query = query;
    Ok(())
}

/// One request header line into `req` / `content_length`.
fn header_line(
    line: &[u8],
    req: &mut Request,
    content_length: &mut Option<usize>,
    max_body: usize,
) -> Result<(), Violation> {
    let (name, value) = header_field(line)?;
    body_framing_field(name, value, content_length, max_body)?;
    if name.eq_ignore_ascii_case("idempotency-key") && !value.is_empty() {
        req.idempotency_key = Some(value.to_string());
    } else if name.eq_ignore_ascii_case("connection") {
        let has = |token: &str| {
            value
                .split(',')
                .any(|t| t.trim().eq_ignore_ascii_case(token))
        };
        if has("close") {
            req.keep_alive = false;
        } else if has("keep-alive") {
            req.keep_alive = true;
        }
    }
    Ok(())
}

/// Split one header line into its name and trimmed value.
fn header_field(line: &[u8]) -> Result<(&str, &str), Violation> {
    let line = std::str::from_utf8(line).map_err(|_| bad_request("header is not UTF-8"))?;
    let (name, value) = line
        .split_once(':')
        .ok_or(bad_request("malformed header"))?;
    if !is_token(name) {
        return Err(bad_request("malformed header name"));
    }
    Ok((name, value.trim()))
}

/// The body-framing rule, the same for a request and for a peer's response
/// so the two ingresses cannot drift: `Content-Length` is decimal digits
/// only, at most `max`, and appears once; `Transfer-Encoding` is refused.
/// Any other field passes. (The 413 is worded for a request;
/// [`read_response`] rewords it.)
fn body_framing_field(
    name: &str,
    value: &str,
    content_length: &mut Option<usize>,
    max: usize,
) -> Result<(), Violation> {
    if name.eq_ignore_ascii_case("transfer-encoding") {
        return Err(bad_request("transfer-encoding not supported"));
    }
    if !name.eq_ignore_ascii_case("content-length") {
        return Ok(());
    }
    // Digits only — `u64::from_str` would accept a leading '+', and any
    // framing disagreement with a standards-conformant intermediary is a
    // smuggling vector.
    if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
        return Err(bad_request("invalid content-length"));
    }
    match value.parse::<u64>() {
        Err(_) => Err(bad_request("invalid content-length")),
        // Too large to even drain within budget: refuse + close.
        Ok(len) if len > max as u64 => {
            Err((StatusCode::PAYLOAD_TOO_LARGE, "request body too large"))
        }
        Ok(len) => match content_length.replace(len as usize) {
            Some(_) => Err(bad_request("duplicate content-length")),
            None => Ok(()),
        },
    }
}

/// Read one request off a blocking reader: feed [`frame`] until it decides,
/// consuming exactly the request's bytes so a pipelined successor stays
/// unread. A read error ends the stream like a close does. `reader` must
/// wrap a stream with a read timeout if idle connections should ever be
/// reclaimed.
pub fn read_request<R: BufRead>(reader: &mut R, limits: Limits) -> ReadOutcome {
    // Every byte taken from the reader so far.
    let mut held = Vec::new();
    loop {
        let fresh = match reader.fill_buf() {
            Ok(chunk) => {
                held.extend_from_slice(chunk);
                chunk.len()
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => 0,
        };
        match frame(&held, limits, fresh == 0) {
            None => reader.consume(fresh),
            Some((outcome, consumed)) => {
                // Of the last chunk, only what the request itself used.
                reader.consume(fresh.saturating_sub(held.len() - consumed));
                return outcome;
            }
        }
    }
}

/// Write one response with the fixed deterministic header set.
pub fn write_response(
    w: &mut impl Write,
    status: u16,
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    write_response_with_type(w, status, "application/json", body, keep_alive)
}

/// [`write_response`] with an explicit `Content-Type` — the metrics
/// endpoint answers Prometheus text exposition, everything else JSON. Same
/// deterministic header set (no `Date`).
pub fn write_response_with_type(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        status,
        StatusCode::reason(status),
        content_type,
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    w.write_all(head.as_bytes())?;
    w.write_all(body)?;
    w.flush()
}

/// A parsed response (client side).
#[derive(Debug)]
pub struct Response {
    /// Status code from the status line.
    pub status: u16,
    /// Whether the server will keep the connection open.
    pub keep_alive: bool,
    /// Body bytes.
    pub body: Vec<u8>,
}

/// Largest response body a client will buffer; a peer declaring more is
/// answering garbage, and the caller gets an error instead of the process
/// attempting an arbitrary allocation.
pub const MAX_RESPONSE_BODY: usize = 16 * 1024 * 1024;

/// Read one line (through `\n`) of a response head, enforcing the remaining
/// head budget. Returns the line without its terminator, or `None` for a
/// clean EOF before any byte.
fn read_line<R: BufRead>(reader: &mut R, budget: &mut usize) -> io::Result<Option<Vec<u8>>> {
    let mut line = Vec::new();
    let n = reader
        .take(*budget as u64 + 1)
        .read_until(b'\n', &mut line)?;
    if n == 0 {
        return Ok(None);
    }
    if n > *budget {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "head too large"));
    }
    *budget -= n;
    if line.last() == Some(&b'\n') {
        line.pop();
        if line.last() == Some(&b'\r') {
            line.pop();
        }
        Ok(Some(line))
    } else {
        // EOF mid-line: torn head.
        Err(io::Error::new(io::ErrorKind::UnexpectedEof, "torn head"))
    }
}

/// Read one response off a client connection. A peer's answer is an ingress
/// like any other: its header lines pass the same field and body-framing
/// rules as a request's, and a violation is `InvalidData`.
pub fn read_response<R: BufRead>(reader: &mut R) -> io::Result<Response> {
    let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
    let mut budget = 64 * 1024;
    let line = read_line(reader, &mut budget)?.ok_or_else(|| bad("no status line"))?;
    let line = String::from_utf8(line).map_err(|_| bad("status line not UTF-8"))?;
    let mut parts = line.splitn(3, ' ');
    let (Some(version), Some(code), _) = (parts.next(), parts.next(), parts.next()) else {
        return Err(bad("malformed status line"));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(bad("not an HTTP response"));
    }
    let status: u16 = code.parse().map_err(|_| bad("malformed status code"))?;
    let mut content_length = None;
    let mut keep_alive = true;
    loop {
        let line = read_line(reader, &mut budget)?.ok_or_else(|| bad("truncated head"))?;
        if line.is_empty() {
            break;
        }
        let (name, value) = header_field(&line).map_err(|(_, m)| bad(m))?;
        body_framing_field(name, value, &mut content_length, MAX_RESPONSE_BODY).map_err(
            |(status, m)| match status {
                StatusCode::PAYLOAD_TOO_LARGE => bad("response body too large"),
                _ => bad(m),
            },
        )?;
        if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        }
    }
    let mut body = vec![0u8; content_length.unwrap_or(0)];
    reader.read_exact(&mut body)?;
    Ok(Response {
        status,
        keep_alive,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::BufReader;

    fn parse(bytes: &[u8]) -> ReadOutcome {
        read_request(&mut BufReader::new(bytes), Limits::default())
    }

    /// Heads that break a framing rule, with the status each is refused by.
    const FATAL_HEADS: [(&[u8], u16); 9] = [
        (b"GARBAGE\r\n\r\n", StatusCode::BAD_REQUEST),
        (b"GET /x\r\n\r\n", StatusCode::BAD_REQUEST),
        (b"GET /x HTTP/2.0\r\n\r\n", StatusCode::BAD_REQUEST),
        (
            b"GET /x HTTP/1.1\r\nBad Header\r\n\r\n",
            StatusCode::BAD_REQUEST,
        ),
        (
            b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            StatusCode::BAD_REQUEST,
        ),
        (
            // u64::from_str would take the '+'; strict framing must not
            // (request-smuggling disagreement with conformant proxies).
            b"POST /x HTTP/1.1\r\nContent-Length: +4\r\n\r\nabcd",
            StatusCode::BAD_REQUEST,
        ),
        (
            b"POST /x HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nabcd",
            StatusCode::BAD_REQUEST,
        ),
        (
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            StatusCode::BAD_REQUEST,
        ),
        (
            b"POST /x HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n",
            StatusCode::PAYLOAD_TOO_LARGE,
        ),
    ];

    /// A stream that ends before the body its head declared.
    const SHORT_BODY: &[u8] = b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort";

    /// Well-framed streams and the body length the first request declares:
    /// both newline dialects, with and without a pipelined successor.
    const VALID: [(&[u8], usize); 6] = [
        (b"GET /v1/recommend/3?n=5 HTTP/1.1\r\nHost: x\r\n\r\n", 0),
        (
            b"POST /v1/recommend:batch HTTP/1.1\r\nContent-Length: 13\r\n\r\n{\"users\":[1]}",
            13,
        ),
        (
            b"POST /v1/ingest HTTP/1.1\r\nIdempotency-Key: order-42\r\nContent-Length: 2\r\n\r\n{}",
            2,
        ),
        (
            b"POST /v1/ingest HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcdGET /v1/healthz HTTP/1.1\r\n\r\n",
            4,
        ),
        (b"GET /v1/healthz HTTP/1.0\n\nGET /v1/stats HTTP/1.1\n\n", 0),
        (
            b"POST /x HTTP/1.1\nContent-Length: 4\r\n\nabcdGET /y HTTP/1.1\r\n\r\n",
            4,
        ),
    ];

    #[test]
    fn parses_get_with_query_and_keep_alive_default() {
        let out = parse(b"GET /v1/recommend/3?n=5 HTTP/1.1\r\nHost: x\r\n\r\n");
        let ReadOutcome::Request(r) = out else {
            panic!("expected request, got {out:?}");
        };
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/v1/recommend/3");
        assert_eq!(r.query.as_deref(), Some("n=5"));
        assert!(r.keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert!(r.body.is_empty());
    }

    #[test]
    fn parses_post_body_by_content_length_and_leaves_pipelined_bytes() {
        let bytes =
            b"POST /v1/ingest HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcdGET /v1/healthz HTTP/1.1\r\n\r\n";
        let mut reader = BufReader::new(&bytes[..]);
        let ReadOutcome::Request(r) = read_request(&mut reader, Limits::default()) else {
            panic!("first request");
        };
        assert_eq!(r.body, b"abcd");
        let ReadOutcome::Request(r2) = read_request(&mut reader, Limits::default()) else {
            panic!("pipelined request");
        };
        assert_eq!(r2.path, "/v1/healthz");
    }

    #[test]
    fn framing_violations_are_fatal() {
        let short_body = (SHORT_BODY, StatusCode::BAD_REQUEST);
        for (bytes, want) in FATAL_HEADS.into_iter().chain([short_body]) {
            match parse(bytes) {
                ReadOutcome::Fatal { status, .. } => {
                    assert_eq!(status, want, "{:?}", String::from_utf8_lossy(bytes))
                }
                other => panic!(
                    "{:?}: expected fatal, got {other:?}",
                    String::from_utf8_lossy(bytes)
                ),
            }
        }
    }

    #[test]
    fn response_framing_violations_are_invalid_data() {
        let too_large = format!(
            "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n",
            MAX_RESPONSE_BODY + 1
        );
        let cases: [&[u8]; 6] = [
            b"HTTP/1.1 200 OK\r\nContent-Length: +4\r\n\r\nabcd",
            b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\nContent-Length: 2\r\n\r\nabcd",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nabcd\r\n0\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: 4 4\r\n\r\nabcd",
            b"HTTP/1.1 200 OK\r\nBad Header\r\n\r\n",
            too_large.as_bytes(),
        ];
        for bytes in cases {
            let err = read_response(&mut BufReader::new(bytes))
                .expect_err(&String::from_utf8_lossy(bytes));
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidData,
                "{:?}",
                String::from_utf8_lossy(bytes)
            );
        }
    }

    /// Offset just past the first empty line — the tests' own, naive notion
    /// of where a head ends.
    fn head_len(bytes: &[u8]) -> usize {
        (1..bytes.len())
            .find_map(|i| {
                let rest = &bytes[i..];
                let empty = [&b"\n\n"[..], b"\n\r\n"]
                    .into_iter()
                    .find(|t| rest.starts_with(t))?;
                Some(i + empty.len())
            })
            .expect("corpus heads are finished")
    }

    /// However a stream is split across reads, the framer says *need more*
    /// strictly before the point where the request (or its violation) is
    /// whole, and the whole stream's answer from there on; a peer that stops
    /// sending before that point gets the torn-head / short-body answer.
    #[test]
    fn every_split_point_gets_need_more_then_the_whole_stream_answer() {
        let limits = Limits::default();
        let show = |f: Option<(ReadOutcome, usize)>| format!("{f:?}");
        let fatal_heads = FATAL_HEADS.iter().map(|&(bytes, _)| (bytes, 0));
        for (bytes, body_len) in VALID
            .into_iter()
            .chain(fatal_heads)
            .chain([(SHORT_BODY, 10)])
        {
            let name = String::from_utf8_lossy(bytes);
            let head = head_len(bytes);
            let decided = head + body_len;
            let whole = show(frame(bytes, limits, true));
            let head_fatal = match frame(bytes, limits, true) {
                Some((ReadOutcome::Fatal { message, .. }, 0)) if body_len == 0 => Some(message),
                Some((ReadOutcome::Request(_), consumed)) => {
                    assert_eq!(consumed, decided, "{name}: a request is head + body");
                    None
                }
                _ => None,
            };
            assert_eq!(show(frame(&[], limits, false)), "None");
            assert_eq!(show(frame(&[], limits, true)), "Some((Disconnected, 0))");
            for cut in 1..=bytes.len() {
                let prefix = &bytes[..cut];
                let (open, closed) = (frame(prefix, limits, false), frame(prefix, limits, true));
                if cut >= decided {
                    assert_eq!(show(open), whole, "{name} cut at {cut}");
                    assert_eq!(show(closed), whole, "{name} cut at {cut}, eof");
                    continue;
                }
                assert!(open.is_none(), "{name} cut at {cut}: {open:?}");
                let Some((ReadOutcome::Fatal { status, message }, 0)) = closed else {
                    panic!("{name} cut at {cut}, eof: expected fatal, got {closed:?}");
                };
                if cut >= head {
                    assert_eq!(
                        message, "body shorter than content-length",
                        "{name} at {cut}"
                    );
                } else {
                    // A torn head: the violation already on the wire, if
                    // its line arrived whole, else the torn head itself.
                    assert!(
                        message == "malformed request head" || Some(message) == head_fatal,
                        "{name} cut at {cut}, eof: {message}"
                    );
                }
                assert!(
                    status == StatusCode::BAD_REQUEST || Some(message) == head_fatal,
                    "{name} cut at {cut}, eof: {status}"
                );
            }
        }
    }

    /// `read_request` has no rule of its own: fed a byte at a time it gives
    /// the framer's answer for the whole stream, and stops reading exactly
    /// where the request ends.
    #[test]
    fn read_request_a_byte_at_a_time_equals_frame_and_leaves_the_remainder() {
        let limits = Limits::default();
        let streams = VALID
            .iter()
            .map(|&(bytes, _)| bytes)
            .chain(FATAL_HEADS.iter().map(|&(bytes, _)| bytes))
            .chain([SHORT_BODY, b"", b"GET /v1/reco"]);
        for bytes in streams {
            let name = String::from_utf8_lossy(bytes);
            let mut reader = BufReader::with_capacity(1, bytes);
            let got = read_request(&mut reader, limits);
            let (want, consumed) = frame(bytes, limits, true).expect("a finished stream");
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{name}");
            if matches!(got, ReadOutcome::Request(_)) {
                let mut rest = Vec::new();
                reader.read_to_end(&mut rest).unwrap();
                assert_eq!(rest, &bytes[consumed..], "{name}: pipelined remainder");
            }
        }
    }

    /// Pieces a hostile or broken peer might send, for the random streams
    /// below: request-shaped fragments next to raw bytes.
    const FRAGMENTS: [&[u8]; 16] = [
        b"GET /x HTTP/1.1\r\n",
        b"POST /y?n=1 HTTP/1.0\n",
        b"GET /x HTTP/1.1\r\n\r\n",
        b"Content-Length: 3\r\n\r\n",
        b"Content-Length: 3\r\n",
        b"Content-Length: ",
        b"Transfer-Encoding: chunked\r\n",
        b"Connection: close\r\n",
        b"Host: h\n",
        b"\r\n",
        b"\n",
        b"\r",
        b"abc",
        b"3",
        b"+",
        b": ",
    ];

    proptest! {
        /// Random streams cut at every point: never a panic, never more
        /// consumed than was buffered, never *need more* from a finished
        /// stream, and an answer once given is the answer for every longer
        /// buffer too.
        #[test]
        fn random_streams_are_framed_safely_at_every_split_point(
            pieces in collection::vec((0usize..18, 0u32..256), 0..12),
        ) {
            let limits = Limits { max_head_bytes: 64, max_body_bytes: 8 };
            let mut bytes = Vec::new();
            for (pick, raw) in pieces {
                match FRAGMENTS.get(pick) {
                    Some(fragment) => bytes.extend_from_slice(fragment),
                    None => bytes.push(raw as u8),
                }
            }
            let whole = format!("{:?}", frame(&bytes, limits, false));
            for cut in 0..=bytes.len() {
                let prefix = &bytes[..cut];
                let closed = frame(prefix, limits, true);
                prop_assert!(closed.is_some(), "{prefix:?}: need more at eof");
                let open = frame(prefix, limits, false);
                if let Some((_, consumed)) = &open {
                    prop_assert!(*consumed <= cut, "{prefix:?}: consumed {consumed}");
                    let open = format!("{open:?}");
                    prop_assert_eq!(&open, &format!("{closed:?}"), "{:?}", prefix);
                    prop_assert_eq!(&open, &whole, "{:?} then {:?}", prefix, &bytes[cut..]);
                }
            }
        }
    }

    #[test]
    fn oversized_head_is_fatal() {
        let mut bytes = b"GET /x HTTP/1.1\r\n".to_vec();
        bytes.extend(std::iter::repeat_n(b'a', 9000));
        assert!(matches!(parse(&bytes), ReadOutcome::Fatal { .. }));

        // The budget is exact and counts the empty line: a head of
        // `max_head_bytes` is served, one byte more is refused — as soon as
        // that byte is buffered, finished or not.
        let max = Limits::default().max_head_bytes;
        let head_of = |len: usize| {
            let mut head = b"GET /x HTTP/1.1\r\nX-Pad: ".to_vec();
            head.resize(len - 4, b'a');
            head.extend_from_slice(b"\r\n\r\n");
            head
        };
        let limits = Limits::default();
        let served = frame(&head_of(max), limits, false);
        assert!(matches!(served, Some((ReadOutcome::Request(_), n)) if n == max));
        let over = head_of(max + 1);
        assert!(frame(&over[..max], limits, false).is_none());
        for buffered in [&over[..], &bytes[..max + 1]] {
            match frame(buffered, limits, false) {
                Some((ReadOutcome::Fatal { status, message }, 0)) => {
                    assert_eq!((status, message), (400, "malformed request head"))
                }
                other => panic!("expected fatal, got {other:?}"),
            }
        }
    }

    #[test]
    fn empty_stream_is_a_clean_disconnect() {
        assert!(matches!(parse(b""), ReadOutcome::Disconnected));
    }

    #[test]
    fn idempotency_key_header_is_captured() {
        let out = parse(
            b"POST /v1/ingest HTTP/1.1\r\nIdempotency-Key: order-42\r\nContent-Length: 2\r\n\r\n{}",
        );
        let ReadOutcome::Request(r) = out else {
            panic!("expected request, got {out:?}");
        };
        assert_eq!(r.idempotency_key.as_deref(), Some("order-42"));
        // Absent header → no key; an empty value is treated as absent.
        let ReadOutcome::Request(r) = parse(b"GET /v1/healthz HTTP/1.1\r\n\r\n") else {
            panic!()
        };
        assert!(r.idempotency_key.is_none());
        let ReadOutcome::Request(r) =
            parse(b"POST /v1/ingest HTTP/1.1\r\nIdempotency-Key:\r\nContent-Length: 0\r\n\r\n")
        else {
            panic!()
        };
        assert!(r.idempotency_key.is_none());
    }

    #[test]
    fn connection_close_is_honored() {
        let out = parse(b"GET /v1/healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        let ReadOutcome::Request(r) = out else {
            panic!()
        };
        assert!(!r.keep_alive);
    }

    #[test]
    fn response_round_trips_through_client_parser() {
        let mut wire = Vec::new();
        write_response(&mut wire, 200, b"{\"ok\":true}", true).unwrap();
        let resp = read_response(&mut BufReader::new(&wire[..])).unwrap();
        assert_eq!(resp.status, 200);
        assert!(resp.keep_alive);
        assert_eq!(resp.body, b"{\"ok\":true}");
        let text = String::from_utf8(wire).unwrap();
        assert!(
            !text.to_ascii_lowercase().contains("date:"),
            "responses must be byte-deterministic (no Date header)"
        );
    }
}
