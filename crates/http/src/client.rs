//! Blocking HTTP/1.1 client: a keep-alive connection wrapper plus the
//! [`RemoteShard`] typed client a router node uses to dispatch a θ-band to
//! a peer serving a `bundle.shardK.ganc` slice over the same protocol.

use crate::http1::{self, Response};
use crate::transport::{BatchAnswer, IngestBatchAnswer, IngestEntry, PeerTransport, SingleAnswer};
use crate::BackendError;
use ganc_dataset::{ItemId, UserId};
use ganc_obs::WindowWire;
use ganc_serve::{IngestAck, RequestOptions, ServeError};
use std::io::{self, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tinyjson::Value;

/// Reconnect backoff penalty after the first failed dial.
const BACKOFF_FLOOR: Duration = Duration::from_millis(50);
/// Reconnect backoff ceiling (penalty doubles per consecutive failure).
const BACKOFF_CAP: Duration = Duration::from_secs(2);

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
    timeout: Duration,
    connect_timeout: Duration,
    backoff: Option<Backoff>,
    conn: Option<BufReader<TcpStream>>,
}

impl HttpClient {
    /// Client for `addr` (e.g. `"127.0.0.1:8080"`); connects on first use.
    pub fn new(addr: impl Into<String>) -> HttpClient {
        HttpClient {
            addr: addr.into(),
            timeout: Duration::from_secs(10),
            connect_timeout: Duration::from_secs(2),
            backoff: None,
            conn: None,
        }
    }

    /// Replace the per-operation read timeout (default 10s).
    pub fn with_timeout(mut self, timeout: Duration) -> HttpClient {
        self.timeout = timeout;
        self
    }

    /// Replace the dial timeout (default 2s).
    pub fn with_connect_timeout(mut self, timeout: Duration) -> HttpClient {
        self.connect_timeout = timeout;
        self
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
            match TcpStream::connect_timeout(&addr, self.connect_timeout) {
                Ok(stream) => {
                    stream.set_read_timeout(Some(self.timeout))?;
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
    let key_header = key
        .map(|k| format!("Idempotency-Key: {k}\r\n"))
        .unwrap_or_default();
    let head = if body.is_empty() && method == "GET" {
        format!("{method} {path_and_query} HTTP/1.1\r\n{key_header}Connection: keep-alive\r\n\r\n")
    } else {
        format!(
            "{method} {path_and_query} HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{key_header}Connection: keep-alive\r\n\r\n",
            body.len()
        )
    };
    let stream = conn.get_mut();
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Parse a JSON response body, mapping malformed payloads to transport
/// errors.
fn parse_json(resp: &Response) -> Result<Value, BackendError> {
    let text = std::str::from_utf8(&resp.body)
        .map_err(|_| BackendError::Transport("peer sent non-UTF-8 body".to_string()))?;
    tinyjson::from_str(text)
        .map_err(|e| BackendError::Transport(format!("peer sent invalid JSON: {e}")))
}

/// Map a non-200 JSON error body to the structured error it encodes.
/// Error bodies carry machine-readable fields (`unknown_user` /
/// `unknown_item`) precisely so this mapping never parses prose.
fn error_from_body(resp: &Response) -> BackendError {
    if let Ok(v) = parse_json(resp) {
        match serve_error_from(&v) {
            Ok(Some(e)) => return BackendError::Serve(e),
            Ok(None) => {}
            Err(e) => return e,
        }
        if let Some(msg) = v["error"].as_str() {
            return BackendError::Transport(format!("peer error {}: {msg}", resp.status));
        }
    }
    BackendError::Transport(format!("peer error {}", resp.status))
}

/// Per-request overrides as the query-string suffix the server parses:
/// `?theta=…&exclude=1,2,3&rerank=pra`, empty for default options. θ uses
/// Rust's shortest-round-trip float formatting, so the peer's
/// `parse::<f64>()` recovers the exact bits and the served list is
/// byte-identical to an in-process override at that θ.
fn override_query(opts: &RequestOptions) -> String {
    let mut parts: Vec<String> = Vec::new();
    if let Some(t) = opts.theta {
        parts.push(format!("theta={t}"));
    }
    if !opts.exclude.is_empty() {
        let ids: Vec<String> = opts.exclude.iter().map(|i| i.to_string()).collect();
        parts.push(format!("exclude={}", ids.join(",")));
    }
    if let Some(m) = opts.rerank {
        parts.push(format!("rerank={}", m.as_str()));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("?{}", parts.join("&"))
    }
}

/// A peer-supplied user or item id: `None` when `v` is not an integer,
/// and — as the server does for ids in a request — refused when it does
/// not fit the id type, so `4294967297` is never served as id 1.
fn id_from(v: &Value) -> Result<Option<u32>, BackendError> {
    v.as_u64()
        .map(|i| {
            u32::try_from(i)
                .map_err(|_| BackendError::Transport(format!("peer sent out-of-range id {i}")))
        })
        .transpose()
}

/// The typed rejection an error body or a batch slot carries, if any.
fn serve_error_from(v: &Value) -> Result<Option<ServeError>, BackendError> {
    if let Some(u) = id_from(&v["unknown_user"])? {
        return Ok(Some(ServeError::UnknownUser(UserId(u))));
    }
    if let Some(i) = id_from(&v["unknown_item"])? {
        return Ok(Some(ServeError::UnknownItem(ItemId(i))));
    }
    Ok(None)
}

fn ids_from(v: &Value, what: &str) -> Result<Vec<u32>, BackendError> {
    v.as_array()
        .ok_or_else(|| BackendError::Transport(format!("missing {what} array")))?
        .iter()
        .map(|id| {
            id_from(id)?.ok_or_else(|| BackendError::Transport(format!("non-integer {what} id")))
        })
        .collect()
}

fn items_from(v: &Value) -> Result<Vec<ItemId>, BackendError> {
    Ok(ids_from(v, "items")?.into_iter().map(ItemId).collect())
}

/// Decode a `POST /v1/recommend:batch` answer for `n` users.
fn batch_from(v: &Value, n: usize) -> BatchAnswer {
    let generation = v["generation"]
        .as_u64()
        .ok_or_else(|| BackendError::Transport("missing generation".to_string()))?;
    let results = v["results"]
        .as_array()
        .ok_or_else(|| BackendError::Transport("missing results".to_string()))?;
    if results.len() != n {
        return Err(BackendError::Transport(format!(
            "peer answered {} slots for {n} users",
            results.len()
        )));
    }
    let mut out = Vec::with_capacity(n);
    for slot in results {
        out.push(match serve_error_from(slot)? {
            Some(e) => Err(e),
            None => Ok(Arc::new(items_from(&slot["items"])?)),
        });
    }
    Ok((out, generation))
}

/// Decode a `POST /v1/ingest:batch` answer for `n` entries.
fn ingest_batch_from(v: &Value, n: usize) -> IngestBatchAnswer {
    let results = v["results"]
        .as_array()
        .ok_or_else(|| BackendError::Transport("missing results".to_string()))?;
    if results.len() != n {
        return Err(BackendError::Transport(format!(
            "peer answered {} slots for {n} entries",
            results.len()
        )));
    }
    let mut out = Vec::with_capacity(n);
    for slot in results {
        out.push(if let Some(e) = serve_error_from(slot)? {
            Err(e)
        } else if slot["durability"].as_bool() == Some(true) {
            Err(ServeError::Durability)
        } else if slot["status"].as_str() == Some("deduplicated") {
            Ok(IngestAck::Deduplicated)
        } else {
            Ok(IngestAck::Applied)
        });
    }
    Ok(out)
}

/// Decode the `window` object of a `GET /v1/window` answer.
fn window_from(w: &Value) -> Result<WindowWire, BackendError> {
    let field = |name: &str| -> Result<u64, BackendError> {
        w[name]
            .as_u64()
            .ok_or_else(|| BackendError::Transport(format!("window missing {name}")))
    };
    Ok(WindowWire {
        n_items: field("n_items")? as usize,
        lists: field("lists")?,
        items: field("items")?,
        novelty_microbits: field("novelty_microbits")?,
        tail_hits: field("tail_hits")?,
        distinct: ids_from(&w["distinct"], "distinct")?,
    })
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
        RemoteShard::connect_with(HttpClient::new(addr.clone()), addr)
    }

    /// Like [`RemoteShard::connect`], but over a caller-configured client
    /// — e.g. tightened read/connect timeouts for a replicated band where
    /// a hung peer should fail over fast.
    pub fn connect_with(
        client: HttpClient,
        addr: impl Into<String>,
    ) -> Result<RemoteShard, BackendError> {
        let shard = RemoteShard {
            client: Mutex::new(client),
            addr: addr.into(),
        };
        shard.generation()?;
        Ok(shard)
    }

    /// The peer's address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    fn call(&self, method: &str, path: &str, body: Option<&str>) -> Result<Response, BackendError> {
        self.client
            .lock()
            .unwrap()
            .request(method, path, body)
            .map_err(|e| BackendError::Transport(format!("{}: {e}", self.addr)))
    }

    /// For read-only calls that happen to be POSTs: retry-safe on a
    /// reaped keep-alive connection.
    fn call_idempotent(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<Response, BackendError> {
        self.client
            .lock()
            .unwrap()
            .request_idempotent(method, path, body)
            .map_err(|e| BackendError::Transport(format!("{}: {e}", self.addr)))
    }
}

/// A `RemoteShard` *is* the production peer transport; the router only
/// ever sees the trait, so injection doubles ([`crate::testing`]) and the
/// coalescing wrapper ([`crate::CoalescedShard`]) slot in without the
/// router changing.
impl PeerTransport for RemoteShard {
    fn label(&self) -> String {
        self.addr.clone()
    }

    /// `GET /v1/recommend/{user}?theta=…&exclude=…&rerank=…` on the peer;
    /// default options add no query string at all.
    fn recommend_with_traced(&self, user: UserId, opts: &RequestOptions) -> SingleAnswer {
        let path = format!("/v1/recommend/{}{}", user.0, override_query(opts));
        let resp = self.call("GET", &path, None)?;
        if resp.status != 200 {
            return Err(error_from_body(&resp));
        }
        let v = parse_json(&resp)?;
        let generation = v["generation"]
            .as_u64()
            .ok_or_else(|| BackendError::Transport("missing generation".to_string()))?;
        Ok((Arc::new(items_from(&v["items"])?), generation))
    }

    /// `POST /v1/recommend:batch` on the peer, with optional override body
    /// fields (`theta`, `exclude`, `rerank` — present only when set, so
    /// default options send the plain `{"users":[...]}` body). Per-user
    /// errors come back in-slot; the whole batch shares one generation.
    fn recommend_batch_with_traced(&self, users: &[UserId], opts: &RequestOptions) -> BatchAnswer {
        let ids = Value::Array(users.iter().map(|u| Value::from(u.0)).collect());
        let mut payload = tinyjson::obj! { "users" => ids };
        if let Some(t) = opts.theta {
            payload.insert("theta", Value::from(t));
        }
        if !opts.exclude.is_empty() {
            payload.insert(
                "exclude",
                Value::Array(opts.exclude.iter().map(|&i| Value::from(i)).collect()),
            );
        }
        if let Some(m) = opts.rerank {
            payload.insert("rerank", Value::from(m.as_str().to_string()));
        }
        let body = tinyjson::to_string(&payload);
        // Read-only despite being a POST: safe to retry on a dead reused
        // connection, so an idle deployment doesn't 502 its first batch.
        let resp = self.call_idempotent("POST", "/v1/recommend:batch", Some(&body))?;
        if resp.status != 200 {
            return Err(error_from_body(&resp));
        }
        batch_from(&parse_json(&resp)?, users.len())
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
        let body = tinyjson::to_string(&tinyjson::obj! {
            "user" => user.0,
            "item" => item.0,
            "rating" => rating as f64,
        });
        let resp = {
            let mut client = self.client.lock().unwrap();
            let result = match key {
                Some(k) => client.request_keyed("POST", "/v1/ingest", Some(&body), k),
                None => client.request("POST", "/v1/ingest", Some(&body)),
            };
            result.map_err(|e| BackendError::Transport(format!("{}: {e}", self.addr)))?
        };
        if resp.status != 200 {
            return Err(error_from_body(&resp));
        }
        let v = parse_json(&resp)?;
        Ok(match v["deduplicated"].as_bool() {
            Some(true) => IngestAck::Deduplicated,
            _ => IngestAck::Applied,
        })
    }

    /// `POST /v1/ingest:batch` on the peer: one wire call, per-slot
    /// results (a rejected entry does not fail its companions).
    fn ingest_batch(&self, entries: &[IngestEntry]) -> IngestBatchAnswer {
        let rows = Value::Array(
            entries
                .iter()
                .map(|e| {
                    let mut row = tinyjson::obj! {
                        "user" => e.user.0,
                        "item" => e.item.0,
                        "rating" => e.rating as f64,
                    };
                    if let Some(k) = &e.key {
                        row.insert("key", Value::from(k.clone()));
                    }
                    row
                })
                .collect(),
        );
        let body = tinyjson::to_string(&tinyjson::obj! { "entries" => rows });
        // Retry-safe as a whole: every entry that already landed on the
        // peer dedups by its key, so a resend after a torn connection
        // cannot double-apply (unkeyed entries are the caller's risk and
        // the router always generates keys for fan-out).
        let resp = self.call_idempotent("POST", "/v1/ingest:batch", Some(&body))?;
        if resp.status != 200 {
            return Err(error_from_body(&resp));
        }
        ingest_batch_from(&parse_json(&resp)?, entries.len())
    }

    /// The peer's current bundle generation (`GET /v1/healthz`).
    fn generation(&self) -> Result<u64, BackendError> {
        let resp = self.call("GET", "/v1/healthz", None)?;
        if resp.status != 200 {
            return Err(error_from_body(&resp));
        }
        parse_json(&resp)?["generation"]
            .as_u64()
            .ok_or_else(|| BackendError::Transport("missing generation".to_string()))
    }

    /// The peer's rolling window summary (`GET /v1/window`), or `None`
    /// when the peer's front exposes no window (`{"window":null}`).
    fn window_wire(&self) -> Result<Option<WindowWire>, BackendError> {
        let resp = self.call("GET", "/v1/window", None)?;
        if resp.status != 200 {
            return Err(error_from_body(&resp));
        }
        let v = parse_json(&resp)?;
        let w = &v["window"];
        if w.is_null() {
            return Ok(None);
        }
        window_from(w).map(Some)
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
        let mut client =
            HttpClient::new(dead_addr()).with_connect_timeout(Duration::from_millis(200));
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

    /// Every peer-supplied id is range-checked, one field at a time.
    #[test]
    fn out_of_range_ids_from_a_peer_fail_closed() {
        // ID = 2^32 + 1, which `as u32` would have served as id 1.
        let fill = |text: &str| text.replace("ID", "4294967297");
        let json = |text: &str| tinyjson::from_str(&fill(text)).unwrap();
        let error_body = |text: &str| {
            error_from_body(&Response {
                status: 404,
                keep_alive: true,
                body: fill(text).into_bytes(),
            })
        };
        let decodes: [(&str, Result<(), BackendError>); 8] = [
            ("items", items_from(&json("[3,ID]")).map(drop)),
            (
                "error body unknown_user",
                Err(error_body(r#"{"error":"x","unknown_user":ID}"#)),
            ),
            (
                "error body unknown_item",
                Err(error_body(r#"{"error":"x","unknown_item":ID}"#)),
            ),
            (
                "batch slot unknown_user",
                batch_from(
                    &json(r#"{"generation":0,"results":[{"items":[1]},{"unknown_user":ID}]}"#),
                    2,
                )
                .map(drop),
            ),
            (
                "batch slot items",
                batch_from(&json(r#"{"generation":0,"results":[{"items":[ID]}]}"#), 1).map(drop),
            ),
            (
                "ingest slot unknown_user",
                ingest_batch_from(&json(r#"{"results":[{"unknown_user":ID}]}"#), 1).map(drop),
            ),
            (
                "ingest slot unknown_item",
                ingest_batch_from(&json(r#"{"results":[{"unknown_item":ID}]}"#), 1).map(drop),
            ),
            (
                "window distinct",
                window_from(&json(
                    r#"{"n_items":9,"lists":1,"items":2,"novelty_microbits":3,"tail_hits":0,"distinct":[4,ID]}"#,
                ))
                .map(drop),
            ),
        ];
        for (field, outcome) in decodes {
            match outcome {
                Err(BackendError::Transport(msg)) => {
                    assert!(msg.contains("out-of-range"), "{field}: {msg}")
                }
                other => panic!("{field}: expected a transport error, got {other:?}"),
            }
        }
        // The largest id that fits still decodes.
        assert_eq!(
            items_from(&json("[4294967295]")).unwrap(),
            [ItemId(u32::MAX)]
        );
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
