//! Blocking HTTP/1.1 client: a keep-alive connection wrapper plus the
//! [`RemoteShard`] typed client a router node uses to dispatch a θ-band to
//! a peer serving a `bundle.shardK.ganc` slice over the same protocol.

use crate::http1::{self, Response};
use crate::transport::{BatchAnswer, IngestBatchAnswer, IngestEntry, PeerTransport, SingleAnswer};
use crate::{wire, BackendError};
use ganc_dataset::{ItemId, UserId};
use ganc_obs::WindowWire;
use ganc_serve::{IngestAck, RequestOptions};
use std::fmt::Write as _;
use std::io::{self, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use tinyjson::Value;

/// Reconnect backoff penalty after the first failed dial.
const BACKOFF_FLOOR: Duration = Duration::from_millis(50);
/// Reconnect backoff ceiling (penalty doubles per consecutive failure).
const BACKOFF_CAP: Duration = Duration::from_secs(2);
/// Per-operation read timeout.
const READ_TIMEOUT: Duration = Duration::from_secs(10);
/// Dial timeout.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// Dial penalty after a failed connect: while `until` is in the future,
/// connect attempts fail immediately instead of re-dialing the dead peer.
struct Backoff {
    delay: Duration,
    until: Instant,
}

/// A keep-alive HTTP/1.1 connection to one server; reconnects lazily after
/// an IO failure or a `Connection: close`.
///
/// Dead peers fail *fast*: dials are bounded by a connect timeout (so an
/// unroutable peer cannot hang a router dispatch thread for the OS's
/// minutes-long default), and consecutive dial failures arm a capped
/// doubling backoff during which further attempts error immediately —
/// which is what lets a replicated band fail over instead of queueing
/// behind a black-holed connect.
pub struct HttpClient {
    addr: String,
    backoff: Option<Backoff>,
    conn: Option<BufReader<TcpStream>>,
}

impl HttpClient {
    /// Client for `addr` (e.g. `"127.0.0.1:8080"`); connects on first use.
    pub fn new(addr: impl Into<String>) -> HttpClient {
        HttpClient {
            addr: addr.into(),
            backoff: None,
            conn: None,
        }
    }

    fn connect(&mut self) -> io::Result<BufReader<TcpStream>> {
        if let Some(b) = &self.backoff {
            if Instant::now() < b.until {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "{}: reconnect backoff armed for {:?} after a failed dial",
                        self.addr, b.delay
                    ),
                ));
            }
        }
        match self.try_connect() {
            Ok(conn) => {
                self.backoff = None;
                Ok(conn)
            }
            Err(e) => {
                let delay = self
                    .backoff
                    .as_ref()
                    .map_or(BACKOFF_FLOOR, |b| (b.delay * 2).min(BACKOFF_CAP));
                self.backoff = Some(Backoff {
                    delay,
                    until: Instant::now() + delay,
                });
                Err(e)
            }
        }
    }

    fn try_connect(&self) -> io::Result<BufReader<TcpStream>> {
        let mut last: Option<io::Error> = None;
        for addr in self.addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT) {
                Ok(stream) => {
                    stream.set_read_timeout(Some(READ_TIMEOUT))?;
                    stream.set_nodelay(true)?;
                    return Ok(BufReader::new(stream));
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("{}: address resolved to nothing", self.addr),
            )
        }))
    }

    /// Issue one request on the persistent connection. If a *reused*
    /// connection turns out dead (the server reaped it between requests),
    /// GETs are retried once on a fresh connection; non-idempotent methods
    /// (ingest, refit) are never auto-resent — the server may have applied
    /// the request before the response was lost, and a blind replay would
    /// double-apply it. A POST the caller *knows* is read-only (the batch
    /// recommend) goes through [`HttpClient::request_idempotent`] instead.
    pub fn request(
        &mut self,
        method: &str,
        path_and_query: &str,
        body: Option<&str>,
    ) -> io::Result<Response> {
        self.request_full(method, path_and_query, body, method == "GET", None)
    }

    /// Like [`HttpClient::request`], but the caller vouches the request is
    /// safe to re-send, so a dead reused connection gets one retry
    /// regardless of method.
    pub fn request_idempotent(
        &mut self,
        method: &str,
        path_and_query: &str,
        body: Option<&str>,
    ) -> io::Result<Response> {
        self.request_full(method, path_and_query, body, true, None)
    }

    /// A request carrying an `Idempotency-Key` header. The key is what
    /// makes a resend safe (the server's dedup window absorbs a replay of
    /// an already-acknowledged request), so keyed requests get the
    /// dead-reused-connection retry that plain POSTs are denied.
    ///
    /// The key is interpolated into the request head, so a key failing
    /// [`ganc_serve::wal::validate_key`] (CR/LF, control bytes, oversized)
    /// would be header injection against the peer — such keys are refused
    /// here with `InvalidInput`, before any IO.
    pub fn request_keyed(
        &mut self,
        method: &str,
        path_and_query: &str,
        body: Option<&str>,
        key: &str,
    ) -> io::Result<Response> {
        ganc_serve::wal::validate_key(key)
            .map_err(|msg| io::Error::new(io::ErrorKind::InvalidInput, msg))?;
        self.request_full(method, path_and_query, body, true, Some(key))
    }

    fn request_full(
        &mut self,
        method: &str,
        path_and_query: &str,
        body: Option<&str>,
        idempotent: bool,
        key: Option<&str>,
    ) -> io::Result<Response> {
        for attempt in 0..2 {
            let had_conn = self.conn.is_some();
            if self.conn.is_none() {
                self.conn = Some(self.connect()?);
            }
            let conn = self.conn.as_mut().unwrap();
            let result = send_request(conn, method, path_and_query, body, key)
                .and_then(|()| http1::read_response(conn));
            match result {
                Ok(resp) => {
                    if !resp.keep_alive {
                        self.conn = None;
                    }
                    return Ok(resp);
                }
                Err(e) => {
                    self.conn = None;
                    if attempt == 1 || !had_conn || !idempotent {
                        return Err(e);
                    }
                }
            }
        }
        unreachable!("loop returns on success or final error")
    }
}

fn send_request(
    conn: &mut BufReader<TcpStream>,
    method: &str,
    path_and_query: &str,
    body: Option<&str>,
    key: Option<&str>,
) -> io::Result<()> {
    let body = body.unwrap_or("");
    // Backstop behind `request_keyed`'s ingress check: nothing that can
    // break header framing is ever written into the head.
    if let Some(k) = key {
        ganc_serve::wal::validate_key(k)
            .map_err(|msg| io::Error::new(io::ErrorKind::InvalidInput, msg))?;
    }
    let stream = conn.get_mut();
    stream.write_all(&request_bytes(method, path_and_query, body, key))?;
    stream.flush()
}

/// One request's bytes, head then body, for a single write: the socket is
/// `TCP_NODELAY`, so a head and a body written apart leave as two segments.
/// A body-less GET carries no content headers.
fn request_bytes(method: &str, path_and_query: &str, body: &str, key: Option<&str>) -> Vec<u8> {
    // The head's fixed text is about 120 bytes.
    let variable = path_and_query.len() + key.map_or(0, str::len) + body.len();
    let mut out = String::with_capacity(128 + variable);
    // Writing into a `String` cannot fail.
    let _ = write!(out, "{method} {path_and_query} HTTP/1.1\r\n");
    if !(body.is_empty() && method == "GET") {
        let len = body.len();
        let _ = write!(
            out,
            "Content-Type: application/json\r\nContent-Length: {len}\r\n"
        );
    }
    if let Some(k) = key {
        let _ = write!(out, "Idempotency-Key: {k}\r\n");
    }
    out.push_str("Connection: keep-alive\r\n\r\n");
    out.push_str(body);
    out.into_bytes()
}

/// Typed client for a peer node serving one θ-band slice (or any other
/// ganc-http server): the transport that turns PR 3's per-node
/// `bundle.shardK.ganc` artifacts into a working multi-node deployment.
pub struct RemoteShard {
    client: Mutex<HttpClient>,
    addr: String,
}

impl RemoteShard {
    /// Client for the peer at `addr`; verifies liveness with one
    /// `GET /v1/healthz` round-trip.
    pub fn connect(addr: impl Into<String>) -> Result<RemoteShard, BackendError> {
        let addr = addr.into();
        let shard = RemoteShard {
            client: Mutex::new(HttpClient::new(addr.clone())),
            addr,
        };
        shard.generation()?;
        Ok(shard)
    }

    /// The peer's address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// One round-trip under `send`; the answer's JSON, or the error a
    /// non-200 answer encodes.
    fn call(
        &self,
        send: impl FnOnce(&mut HttpClient) -> io::Result<Response>,
    ) -> Result<Value, BackendError> {
        let resp = send(&mut self.client.lock().unwrap())
            .map_err(|e| BackendError::Transport(format!("{}: {e}", self.addr)))?;
        wire::answer_json(&resp)
    }
}

/// A `RemoteShard` *is* the production peer transport; the router only
/// ever sees the trait, so injection doubles (`tests/doubles`) and the
/// coalescing wrapper ([`crate::CoalescedShard`]) slot in without the
/// router changing. Every body and query string is [`crate::wire`]'s.
impl PeerTransport for RemoteShard {
    fn label(&self) -> String {
        self.addr.clone()
    }

    /// `GET /v1/recommend/{user}` on the peer.
    fn recommend_with_traced(&self, user: UserId, opts: &RequestOptions) -> SingleAnswer {
        let path = wire::recommend_path(user, opts);
        wire::recommend_answer_from(&self.call(|c| c.request("GET", &path, None))?)
    }

    /// `POST /v1/recommend:batch` on the peer. Per-user errors come back
    /// in-slot; the whole batch shares one generation.
    fn recommend_batch_with_traced(&self, users: &[UserId], opts: &RequestOptions) -> BatchAnswer {
        let body = tinyjson::to_string(&wire::batch_request(users, opts));
        // Read-only despite being a POST: safe to retry on a dead reused
        // connection, so an idle deployment doesn't 502 its first batch.
        let answer =
            self.call(|c| c.request_idempotent("POST", "/v1/recommend:batch", Some(&body)))?;
        wire::batch_answer_from(&answer, users.len())
    }

    /// `POST /v1/ingest` with an optional `Idempotency-Key` header. Keyed
    /// ingests ride the retry-safe request path — the key is exactly what
    /// makes a resend of a possibly-applied ingest a no-op; unkeyed ones
    /// keep the never-auto-resent rule.
    fn ingest_keyed(
        &self,
        key: Option<&str>,
        user: UserId,
        item: ItemId,
        rating: f32,
    ) -> Result<IngestAck, BackendError> {
        let body = tinyjson::to_string(&wire::ingest_request(None, user, item, rating));
        let answer = self.call(|c| match key {
            Some(k) => c.request_keyed("POST", "/v1/ingest", Some(&body), k),
            None => c.request("POST", "/v1/ingest", Some(&body)),
        })?;
        Ok(wire::ingest_ack_from(&answer))
    }

    /// `POST /v1/ingest:batch` on the peer: one wire call, per-slot
    /// results (a rejected entry does not fail its companions).
    fn ingest_batch(&self, entries: &[IngestEntry]) -> IngestBatchAnswer {
        let body = tinyjson::to_string(&wire::ingest_batch_request(entries));
        // Retry-safe as a whole: every entry that already landed on the
        // peer dedups by its key, so a resend after a torn connection
        // cannot double-apply (unkeyed entries are the caller's risk and
        // the router always generates keys for fan-out).
        let answer =
            self.call(|c| c.request_idempotent("POST", "/v1/ingest:batch", Some(&body)))?;
        wire::ingest_batch_answer_from(&answer, entries.len())
    }

    /// The peer's current bundle generation (`GET /v1/healthz`).
    fn generation(&self) -> Result<u64, BackendError> {
        wire::generation_from(&self.call(|c| c.request("GET", "/v1/healthz", None))?)
    }

    /// The peer's rolling window summary (`GET /v1/window`), or `None`
    /// when the peer's front exposes no window.
    fn window_wire(&self) -> Result<Option<WindowWire>, BackendError> {
        wire::window_from(&self.call(|c| c.request("GET", "/v1/window", None))?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bind an ephemeral port, then drop the listener: dialing it is
    /// refused immediately, so these tests never wait on a real timeout.
    fn dead_addr() -> String {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        drop(listener);
        addr
    }

    #[test]
    fn failed_dial_arms_capped_doubling_backoff_and_fails_fast() {
        let mut client = HttpClient::new(dead_addr());
        let first = client.connect().unwrap_err();
        assert!(
            !first.to_string().contains("backoff"),
            "first dial must be a real attempt: {first}"
        );
        // Inside the penalty window the retry fails without touching the
        // network at all.
        let second = client.connect().unwrap_err();
        assert_eq!(second.kind(), io::ErrorKind::TimedOut);
        assert!(second.to_string().contains("backoff"), "{second}");
        let mut delay = client.backoff.as_ref().unwrap().delay;
        assert_eq!(delay, BACKOFF_FLOOR);
        for _ in 0..10 {
            // Expire the window so the next call really dials (and fails).
            client.backoff.as_mut().unwrap().until = Instant::now() - Duration::from_millis(1);
            client.connect().unwrap_err();
            let next = client.backoff.as_ref().unwrap().delay;
            assert_eq!(next, (delay * 2).min(BACKOFF_CAP));
            delay = next;
        }
        assert_eq!(delay, BACKOFF_CAP);
    }

    #[test]
    fn request_keyed_refuses_injection_keys_before_dialing() {
        // A CR/LF in the idempotency key would splice an attacker-chosen
        // header into the request head. Refusal must happen before any
        // network IO — no connection, no backoff state.
        let mut client = HttpClient::new(dead_addr());
        for bad in [
            "evil\r\nX-Smuggled: 1",
            "nul\0key",
            "with space",
            &"x".repeat(200),
            "",
        ] {
            let err = client
                .request_keyed("POST", "/v1/ingest", Some("{}"), bad)
                .expect_err("injection key accepted");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{bad:?}");
        }
        assert!(client.conn.is_none(), "refusal must precede dialing");
        assert!(client.backoff.is_none(), "no dial, no backoff penalty");
    }

    /// The reference: the head and the body formatted apart, then joined.
    fn head_then_body(method: &str, path: &str, body: &str, key: Option<&str>) -> Vec<u8> {
        let key_header = key
            .map(|k| format!("Idempotency-Key: {k}\r\n"))
            .unwrap_or_default();
        let head = if body.is_empty() && method == "GET" {
            format!("{method} {path} HTTP/1.1\r\n{key_header}Connection: keep-alive\r\n\r\n")
        } else {
            format!(
                "{method} {path} HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{key_header}Connection: keep-alive\r\n\r\n",
                body.len()
            )
        };
        [head.as_bytes(), body.as_bytes()].concat()
    }

    #[test]
    fn one_write_carries_the_head_then_the_body_byte_for_byte() {
        let ingest = r#"{"user":3,"item":7}"#;
        let cases = [
            ("GET", "/v1/recommend/12", "", None),
            ("GET", "/v1/recommend/12?n=5&mode=ganc", "", None),
            ("GET", "/v1/healthz", "", Some("k-1")),
            ("GET", "/v1/odd", "{}", None),
            ("POST", "/v1/ingest", ingest, None),
            ("POST", "/v1/ingest", ingest, Some("batch-42_x")),
            ("POST", "/v1/recommend:batch", r#"{"users":[1,2,3]}"#, None),
            ("POST", "/v1/refit", "", None),
            ("POST", "/v1/ingest", "é✓", Some("k")),
        ];
        for (method, path, body, key) in cases {
            assert_eq!(
                request_bytes(method, path, body, key),
                head_then_body(method, path, body, key),
                "{method} {path} {body:?} {key:?}"
            );
        }
    }

    #[test]
    fn successful_dial_resets_the_backoff() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let mut client = HttpClient::new(addr);
        client.backoff = Some(Backoff {
            delay: BACKOFF_CAP,
            until: Instant::now() - Duration::from_millis(1),
        });
        client.connect().unwrap();
        assert!(client.backoff.is_none(), "a live peer clears the penalty");
    }
}
