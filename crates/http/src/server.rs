//! The HTTP server's transport machinery: an event-driven front-end over
//! `std::net::TcpListener` — listener, connection state machines, worker
//! pool, timeouts. What a request *means* (the route table, the handlers,
//! the mounted [`Frontend`]) is [`crate::app`]; this module frames bytes,
//! decides which thread answers, and flushes what `App::respond` wrote.
//!
//! ## Architecture: one event loop, a worker pool, and an inline hit path
//!
//! A single event-loop thread owns the listener and every connection
//! through a readiness poller ([`polling::Poller`], oneshot delivery). It
//! accepts, reads non-blockingly into per-connection buffers, and asks
//! [`http1::frame`] about each buffer as it grows: *need more*, one
//! *request* and the bytes it occupied, a *fatal* framing violation, or a
//! stream its peer *closed*. Where a request ends is decided there and nowhere in
//! this module, which only moves bytes and acts on the answer;
//! `tests/deployment_oracle.rs` and `tests/http_protocol.rs` pin the
//! resulting response bytes and close-vs-keep decisions.
//!
//! A complete request is answered in one of two places, by the same code
//! (`App::respond` in [`crate::app`]: route, serialize, one `write`, stage
//! timings, request counter, trace event):
//!
//! * **On a worker.** The request is handed to a small pool that computes
//!   and writes the response straight to the socket (safe: oneshot
//!   delivery disarmed the fd when its readable event fired, so the loop
//!   won't touch it until the worker posts a completion). A worker never
//!   blocks on a slow peer — an `EWOULDBLOCK` hands the unwritten tail
//!   back to the event loop, which finishes the flush on write readiness.
//!   Misses, overrides, unknown users, writes, batches and every other
//!   endpoint go this way.
//! * **On the loop thread itself**, when the answer is already in hand. A
//!   `GET /v1/recommend/{user}` at default options (`?n=` included — it
//!   only truncates) first asks the backend's non-blocking
//!   [`crate::PeerTransport::recommend_cached`] probe; a cached list is answered
//!   where it was found, because the two cross-thread wake-ups of a
//!   hand-off (job channel + futex out, completion + pipe notify + poller
//!   re-arm back) cost several hundred times the ≈ 50 ns the LRU hit
//!   does. `ganc_http_inline_total` counts these.
//!
//! Two rules keep the inline path safe on the one thread every connection
//! depends on:
//!
//! 1. **The loop thread never waits on a lock that can be held across
//!    compute or I/O.** The probe only `try_*`-locks what the blocking
//!    path locks (a sharded ingest holds its outer write lock across a WAL
//!    append that may `fsync`); a failed try is a worker dispatch, never a
//!    spin or a wait.
//! 2. **Inline answers come in a bounded, iterative burst.** Pipelined
//!    requests are framed in a loop, not by recursion, and after
//!    `INLINE_BURST` consecutive inline answers on one connection the
//!    next request goes to a worker regardless — so a client pipelining
//!    tens of thousands of cached GETs can neither grow the loop's stack
//!    nor keep other connections from their turn.
//!
//! Concurrent connections are bounded by file descriptors, not by
//! `workers`: 10k idle keep-alive connections cost one `HashMap` entry
//! each (deadline sweeps and the per-state gauges run once per poll tick,
//! not per event), while `workers` sizes only the compute concurrency.
//!
//! ## Connection state machine
//!
//! Each connection is `Reading` (buffering a request), `Dispatched` (a
//! worker owns it), `Writing` (the loop is flushing a response tail), or
//! `Draining` (a fatal error was answered; discarding already-sent input
//! so the close doesn't RST the error response away). Framing violations
//! (torn heads, bad `Content-Length`, oversized bodies) answer once and
//! close — the stream cannot be re-synchronized. Well-framed but invalid
//! requests (bad JSON, unknown route, unknown ids) answer 400/404 and keep
//! the connection, so a client burst survives its own mistakes.
//! `tests/http_protocol.rs` fuzzes exactly this contract.
//!
//! ## Timeouts
//!
//! All deadlines read the observability hub's clock, so tests drive them
//! with a `ManualClock` and zero sleeps. `read_timeout` is the *progress*
//! timeout: a connection that neither delivers nor accepts a byte for this
//! long is evicted (idle keep-alive reclaim). `request_deadline` caps a
//! single request's total head+body read time, so a slow-loris peer
//! trickling one byte per progress window is still evicted. Evictions
//! close silently (no response), bump `ganc_http_conn_evicted_total` and
//! leave a `conn_evict` trace event with the reason.

use crate::app::{App, Frontend, RefitHook};
use crate::http1::{self, Limits, ReadOutcome, Request};
use crate::wire::{self, RecommendQuery};
use ganc_dataset::ItemId;
use ganc_obs::{Counter, Gauge, ObsHub, TraceData};
use polling::{Event, Poller};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Clone)]
pub struct ServerConfig {
    /// Compute worker threads (handler dispatch + response serialization).
    /// This bounds concurrent *request processing*, not concurrent
    /// connections — idle keep-alive connections are owned by the event
    /// loop and cost no worker.
    pub workers: usize,
    /// Framing limits (oversized heads → 400, oversized bodies → 413).
    pub limits: Limits,
    /// Requests served per connection before the server closes it.
    pub keep_alive_requests: u32,
    /// Progress timeout: a connection that neither delivers nor accepts a
    /// byte for this long is evicted. For an idle keep-alive connection
    /// this is the reclaim timer; mid-request it bounds each stall.
    /// Deadlines read the observability hub's clock (`ManualClock`-driven
    /// in tests).
    pub read_timeout: Duration,
    /// Slow-loris cap: total time one request may spend being read (head +
    /// body, from its first byte to its last). A peer trickling a byte per
    /// `read_timeout` window dodges the progress timeout; it cannot dodge
    /// this one.
    pub request_deadline: Duration,
    /// Concurrent-connection ceiling. Accepts beyond it are closed
    /// immediately (counted + traced as `capacity` evictions) instead of
    /// queueing unboundedly toward fd exhaustion.
    pub max_connections: usize,
    /// Observability hub every request records into (metrics, trace ring,
    /// request-stage timing). `None` creates a fresh wall-clock hub at
    /// bind time; tests inject a `ManualClock` hub here to make timing and
    /// window expiry deterministic.
    pub obs: Option<Arc<ObsHub>>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            // Compute-only pool: track cores, not expected connections —
            // connection concurrency is the event loop's job now.
            workers: std::thread::available_parallelism().map_or(4, |p| p.get().clamp(2, 16)),
            limits: Limits::default(),
            keep_alive_requests: 100_000,
            read_timeout: Duration::from_secs(5),
            request_deadline: Duration::from_secs(30),
            max_connections: 16_384,
            obs: None,
        }
    }
}

/// A running HTTP server; dropping it drains in-flight requests, stops the
/// event loop, and joins every worker.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    poller: Arc<Poller>,
    event_loop: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl HttpServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving
    /// `frontend`. `refit` enables `POST /admin/refit` (sharded fronts
    /// only — the refit path needs the ingest log the sharded engine
    /// keeps).
    pub fn bind(
        frontend: Frontend,
        refit: Option<RefitHook>,
        cfg: ServerConfig,
        addr: &str,
    ) -> io::Result<HttpServer> {
        let app = Arc::new(App::new(frontend, refit, cfg.clone())?);
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let poller = Arc::new(Poller::new()?);
        poller.add(&listener, Event::readable(LISTENER_KEY))?;
        let (tx, rx): (Sender<Job>, Receiver<Job>) = channel();
        let rx = Arc::new(Mutex::new(rx));
        let completions = Arc::new(Mutex::new(Vec::new()));

        let workers = (0..cfg.workers.max(1))
            .map(|_| {
                let rx = Arc::clone(&rx);
                let app = Arc::clone(&app);
                let stop = Arc::clone(&stop);
                let completions = Arc::clone(&completions);
                let poller = Arc::clone(&poller);
                std::thread::spawn(move || loop {
                    let job = match rx.lock().unwrap().recv() {
                        Ok(job) => job,
                        Err(_) => return, // event loop gone, queue drained
                    };
                    let done = app.respond_guarded(&job, &stop);
                    completions.lock().unwrap().push(done);
                    let _ = poller.notify();
                })
            })
            .collect();

        let event_loop = {
            let stop = Arc::clone(&stop);
            let poller = Arc::clone(&poller);
            std::thread::spawn(move || {
                EventLoop::new(app, listener, poller, tx, completions, stop).run();
            })
        };

        Ok(HttpServer {
            addr,
            stop,
            poller,
            event_loop: Some(event_loop),
            workers,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful drain: stop accepting, close idle connections, let
    /// in-flight requests finish (bounded by a wall-clock cap), then join
    /// the event loop and all workers.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = self.poller.notify();
        if let Some(event_loop) = self.event_loop.take() {
            let _ = event_loop.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Poller key reserved for the listener; connection keys start above it.
const LISTENER_KEY: usize = 0;
/// Bytes of already-sent input drained after a fatal-framing response, so
/// closing the socket doesn't RST the response away before the client
/// reads it (a 413'd client deserves to see its 413).
const FATAL_DRAIN_BYTES: usize = 1024 * 1024;
/// Per-`read(2)` scratch size on the event loop.
const READ_CHUNK: usize = 16 * 1024;
/// Read-buffer capacity a connection keeps once its buffer empties; what a
/// large body grew beyond this goes back to the allocator instead of
/// staying pinned for the connection's keep-alive lifetime.
const READ_BUF_RETAINED: usize = 4 * READ_CHUNK;
/// Wall-clock cap on the graceful shutdown drain. Real time, not hub
/// time — a `ManualClock` never advances during shutdown.
const DRAIN_CAP: Duration = Duration::from_secs(5);
/// Poll tick while connections exist: deadline checks observe a
/// `ManualClock` advance within one tick without any socket activity. Also
/// the wall-time period of the per-connection housekeeping scans (deadline
/// sweep, state gauges), which would otherwise cost every request O(open
/// connections).
const POLL_TICK: Duration = Duration::from_millis(10);
/// Most consecutive requests one connection may have answered inline (on
/// the event-loop thread) per readiness event or completion; the next one
/// is handed to a worker even if cached, which returns the loop to its
/// poller and every other connection.
const INLINE_BURST: u32 = 32;

/// What the event loop does once a response flush completes.
enum AfterWrite {
    /// Keep-alive: look for the next (possibly pipelined) request.
    Advance,
    /// Response said `Connection: close`.
    Close,
    /// A fatal-framing response: drain already-sent input, then close.
    Drain,
}

/// Per-connection state. `Dispatched` means a worker owns the socket (its
/// fd is disarmed by oneshot delivery); every other state is owned by the
/// event loop.
enum ConnState {
    Reading,
    Dispatched,
    Writing {
        buf: Vec<u8>,
        pos: usize,
        then: AfterWrite,
    },
    Draining {
        budget: usize,
    },
}

impl ConnState {
    fn tag(&self) -> usize {
        match self {
            ConnState::Reading => 0,
            ConnState::Dispatched => 1,
            ConnState::Writing { .. } => 2,
            ConnState::Draining { .. } => 3,
        }
    }
}

/// Gauge labels, indexed by [`ConnState::tag`].
const STATE_LABELS: [&str; 4] = ["reading", "dispatched", "writing", "draining"];

/// A connection's buffered, not yet framed input. A framed request is
/// consumed by advancing a read offset; the consumed prefix is shifted out
/// once, before more bytes are read, not once per pipelined request.
#[derive(Default)]
struct ReadBuf {
    bytes: Vec<u8>,
    /// Offset of the first unconsumed byte.
    start: usize,
}

impl ReadBuf {
    fn unread(&self) -> &[u8] {
        &self.bytes[self.start..]
    }

    fn push(&mut self, chunk: &[u8]) {
        self.bytes.extend_from_slice(chunk);
    }

    /// Mark `n` more bytes framed; an emptied buffer gives back what it
    /// grew beyond [`READ_BUF_RETAINED`].
    fn consume(&mut self, n: usize) {
        self.start += n;
        if self.start >= self.bytes.len() {
            self.bytes.clear();
            self.bytes.shrink_to(READ_BUF_RETAINED);
            self.start = 0;
        }
    }

    /// Shift the consumed prefix out.
    fn compact(&mut self) {
        self.bytes.drain(..self.start);
        self.start = 0;
    }
}

struct Conn {
    stream: Arc<TcpStream>,
    /// Buffered unparsed input.
    buf: ReadBuf,
    /// Peer half-closed its write side; whatever is buffered is the whole
    /// request stream.
    eof: bool,
    state: ConnState,
    served: u32,
    /// Hub-clock μs of the last byte moved in either direction.
    last_progress_us: u64,
    /// Hub-clock μs the currently-buffering request's first byte arrived
    /// (`None` between requests) — the slow-loris deadline anchor.
    request_start_us: Option<u64>,
}

/// One complete request handed to the compute pool.
pub(crate) struct Job {
    pub(crate) key: usize,
    pub(crate) stream: Arc<TcpStream>,
    pub(crate) req: Request,
    /// Request ordinal on this connection (keep-alive budget).
    pub(crate) served: u32,
    pub(crate) parse_us: u64,
    /// The event loop's cache probe already answered this recommend: the
    /// reply is in hand and [`App::respond`] runs on the loop thread.
    pub(crate) cached: Option<CachedAnswer>,
}

/// A [`crate::PeerTransport::recommend_cached`] hit: the query the probe parsed
/// to ask it, then the list and its generation.
pub(crate) type CachedAnswer = (RecommendQuery, Arc<Vec<ItemId>>, u64);

/// What a worker posts back to the event loop.
pub(crate) enum Completion {
    Done {
        key: usize,
        keep_alive: bool,
        /// Response tail the worker could not write without blocking; the
        /// event loop flushes it on write readiness. Empty = fully sent.
        unwritten: Vec<u8>,
    },
    Failed {
        key: usize,
    },
}

struct EventLoop {
    app: Arc<App>,
    listener: TcpListener,
    poller: Arc<Poller>,
    conns: HashMap<usize, Conn>,
    next_key: usize,
    jobs: Sender<Job>,
    completions: Arc<Mutex<Vec<Completion>>>,
    stop: Arc<AtomicBool>,
    gauges: [Arc<Gauge>; 4],
    accepted: Arc<Counter>,
    inline: Arc<Counter>,
}

impl EventLoop {
    fn new(
        app: Arc<App>,
        listener: TcpListener,
        poller: Arc<Poller>,
        jobs: Sender<Job>,
        completions: Arc<Mutex<Vec<Completion>>>,
        stop: Arc<AtomicBool>,
    ) -> EventLoop {
        let gauge = |state| {
            app.hub.metrics.gauge(
                "ganc_http_connections",
                "Open HTTP connections by state-machine state",
                &[("state", state)],
            )
        };
        let gauges = [
            gauge(STATE_LABELS[0]),
            gauge(STATE_LABELS[1]),
            gauge(STATE_LABELS[2]),
            gauge(STATE_LABELS[3]),
        ];
        let accepted = app.hub.metrics.counter(
            "ganc_http_conn_accepted_total",
            "Connections accepted by the event loop",
            &[],
        );
        let inline = app.hub.metrics.counter(
            "ganc_http_inline_total",
            "Cached recommends answered on the event-loop thread, without a worker hand-off",
            &[],
        );
        EventLoop {
            app,
            listener,
            poller,
            conns: HashMap::new(),
            next_key: LISTENER_KEY,
            jobs,
            completions,
            stop,
            gauges,
            accepted,
            inline,
        }
    }

    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut draining = false;
        let mut drain_deadline = Instant::now();
        let mut last_tick = Instant::now();
        loop {
            if !draining && self.stop.load(Ordering::Relaxed) {
                draining = true;
                drain_deadline = Instant::now() + DRAIN_CAP;
                let _ = self.poller.delete(&self.listener);
            }
            if draining {
                // Evict everything without an in-flight response
                // (Dispatched finishes its handler, Writing finishes its
                // flush); repeat each tick because completions re-enter
                // Reading.
                let idle: Vec<usize> = self
                    .conns
                    .iter()
                    .filter(|(_, c)| {
                        matches!(c.state, ConnState::Reading | ConnState::Draining { .. })
                    })
                    .map(|(&k, _)| k)
                    .collect();
                for key in idle {
                    self.close(key, Some("shutdown"));
                }
                if self.conns.is_empty() || Instant::now() >= drain_deadline {
                    let rest: Vec<usize> = self.conns.keys().copied().collect();
                    for key in rest {
                        self.close(key, Some("shutdown"));
                    }
                    self.publish_gauges();
                    return;
                }
            }
            let timeout = if draining {
                Some(Duration::from_millis(2))
            } else if self.conns.is_empty() {
                None // woken by accept or notify
            } else {
                Some(POLL_TICK)
            };
            events.clear();
            let _ = self.poller.wait(&mut events, timeout);
            // Completions first: they re-arm interest (or free the key)
            // before this batch's readiness events are interpreted.
            let done: Vec<Completion> = std::mem::take(&mut *self.completions.lock().unwrap());
            for completion in done {
                self.complete(completion);
            }
            for ev in events.iter().copied() {
                if ev.key == LISTENER_KEY {
                    if !draining {
                        self.accept_ready();
                    }
                } else {
                    self.conn_ready(ev);
                }
            }
            // Both scans walk every open connection, so they run once per
            // tick of wall time, not once per event (a `wait` that timed
            // out is a tick by construction). With no connection left the
            // loop is about to block indefinitely: publish the zeros first.
            let now = Instant::now();
            if self.conns.is_empty() || now.duration_since(last_tick) >= POLL_TICK {
                last_tick = now;
                self.sweep_deadlines();
                self.publish_gauges();
            }
        }
    }

    fn alloc_key(&mut self) -> usize {
        loop {
            self.next_key = self.next_key.wrapping_add(1);
            let k = self.next_key;
            if k != LISTENER_KEY && k != usize::MAX && !self.conns.contains_key(&k) {
                return k;
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let key = self.alloc_key();
                    if self.conns.len() >= self.app.cfg.max_connections {
                        // Immediate close beats an unbounded queue marching
                        // toward fd exhaustion; the reject is observable.
                        self.evicted(key, "capacity");
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    if self.poller.add(&stream, Event::readable(key)).is_err() {
                        continue;
                    }
                    let now = self.app.hub.now_us();
                    self.conns.insert(
                        key,
                        Conn {
                            stream: Arc::new(stream),
                            buf: ReadBuf::default(),
                            eof: false,
                            state: ConnState::Reading,
                            served: 0,
                            last_progress_us: now,
                            request_start_us: None,
                        },
                    );
                    self.accepted.inc();
                    self.app.hub.trace.record(
                        now,
                        TraceData::ConnAccept {
                            conn: key as u64,
                            open: self.conns.len() as u64,
                        },
                    );
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient accept errors (EMFILE, aborted handshake):
                // keep serving what's open.
                Err(_) => break,
            }
        }
        let _ = self
            .poller
            .modify(&self.listener, Event::readable(LISTENER_KEY));
    }

    fn conn_ready(&mut self, ev: Event) {
        // Stale events are possible (the conn closed earlier this batch).
        let Some(conn) = self.conns.get(&ev.key) else {
            return;
        };
        // Error/hangup conditions arrive as readable+writable; the state
        // decides which direction this connection actually works in.
        match conn.state {
            ConnState::Reading => self.read_ready(ev.key),
            ConnState::Writing { .. } => self.write_ready(ev.key),
            ConnState::Draining { .. } => self.drain_ready(ev.key),
            // Oneshot delivery disarmed the fd at dispatch; nothing to do.
            ConnState::Dispatched => {}
        }
    }

    fn read_ready(&mut self, key: usize) {
        let now = self.app.hub.now_us();
        let Some(conn) = self.conns.get_mut(&key) else {
            return;
        };
        let fresh = conn.buf.unread().is_empty() && conn.request_start_us.is_none();
        match read_some(&conn.stream, usize::MAX, |chunk| conn.buf.push(chunk)) {
            Ok((n, eof)) => {
                conn.eof |= eof;
                if n > 0 {
                    conn.last_progress_us = now;
                    if fresh {
                        conn.request_start_us = Some(now);
                    }
                }
            }
            Err(_) => {
                self.close(key, None);
                return;
            }
        }
        self.advance(key);
    }

    /// Ask the framer about a connection's buffer: answer or dispatch a
    /// complete request, answer a framing violation, re-arm for more bytes,
    /// or close a finished stream. Entered from read readiness and from a
    /// keep-alive completion (pipelined requests frame from the buffer
    /// without touching the socket).
    ///
    /// A recommend the cache probe can answer is answered right here, and
    /// the loop below then frames the next pipelined request — iteratively,
    /// and for at most [`INLINE_BURST`] answers before one goes to a
    /// worker (see the module docs for both rules).
    fn advance(&mut self, key: usize) {
        let mut burst = 0;
        loop {
            let Some(conn) = self.conns.get_mut(&key) else {
                return;
            };
            conn.state = ConnState::Reading;
            let t0 = self.app.hub.now_us();
            match http1::frame(conn.buf.unread(), self.app.cfg.limits, conn.eof) {
                Some((ReadOutcome::Disconnected, _)) => {
                    self.close(key, None);
                    return;
                }
                None => {
                    conn.buf.compact();
                    let _ = self.poller.modify(&*conn.stream, Event::readable(key));
                    return;
                }
                Some((ReadOutcome::Request(req), consumed)) => {
                    let now = self.app.hub.now_us();
                    let parse_us = now.saturating_sub(t0);
                    conn.buf.consume(consumed);
                    conn.request_start_us = if conn.buf.unread().is_empty() {
                        None
                    } else {
                        Some(now)
                    };
                    conn.served += 1;
                    conn.state = ConnState::Dispatched;
                    let mut job = Job {
                        key,
                        stream: Arc::clone(&conn.stream),
                        req,
                        served: conn.served,
                        parse_us,
                        cached: None,
                    };
                    if burst < INLINE_BURST {
                        job.cached = self.app.probe(&job.req);
                    }
                    if job.cached.is_none() {
                        // The fd is disarmed (oneshot), so the worker owns
                        // the socket until its completion comes back.
                        if self.jobs.send(job).is_err() {
                            self.close(key, None);
                        }
                        return;
                    }
                    burst += 1;
                    self.inline.inc();
                    match self.app.respond_guarded(&job, &self.stop) {
                        // Flushed, keep-alive: what `complete` would do is
                        // call back into `advance`; loop instead.
                        Completion::Done {
                            keep_alive: true,
                            unwritten,
                            ..
                        } if unwritten.is_empty() => {
                            conn.last_progress_us = self.app.hub.now_us();
                        }
                        done => {
                            self.complete(done);
                            return;
                        }
                    }
                }
                Some((ReadOutcome::Fatal { status, message }, _)) => {
                    self.app.count_request("malformed", status);
                    let body = tinyjson::to_string(&wire::error(status, message).1);
                    let mut bytes = Vec::new();
                    let _ = http1::write_response(&mut bytes, status, body.as_bytes(), false);
                    conn.buf = ReadBuf::default();
                    conn.request_start_us = None;
                    self.start_write(key, bytes, 0, AfterWrite::Drain);
                    return;
                }
            }
        }
    }

    /// Write as much of `bytes[pos..]` as the socket takes; park the rest
    /// in `Writing` state armed for write readiness.
    fn start_write(&mut self, key: usize, bytes: Vec<u8>, pos: usize, then: AfterWrite) {
        let Some(conn) = self.conns.get_mut(&key) else {
            return;
        };
        match write_some(&conn.stream, &bytes[pos..]) {
            Err(_) => self.close(key, None),
            Ok(n) if pos + n == bytes.len() => self.finish_write(key, then),
            Ok(n) => {
                conn.state = ConnState::Writing {
                    buf: bytes,
                    pos: pos + n,
                    then,
                };
                let _ = self.poller.modify(&*conn.stream, Event::writable(key));
            }
        }
    }

    fn write_ready(&mut self, key: usize) {
        let now = self.app.hub.now_us();
        let Some(conn) = self.conns.get_mut(&key) else {
            return;
        };
        conn.last_progress_us = now;
        let state = std::mem::replace(&mut conn.state, ConnState::Reading);
        let ConnState::Writing { buf, pos, then } = state else {
            conn.state = state;
            return;
        };
        self.start_write(key, buf, pos, then);
    }

    fn finish_write(&mut self, key: usize, then: AfterWrite) {
        match then {
            AfterWrite::Advance => self.advance(key),
            AfterWrite::Close => self.close(key, None),
            AfterWrite::Drain => {
                let Some(conn) = self.conns.get_mut(&key) else {
                    return;
                };
                if conn.eof {
                    // Nothing more can arrive; the response is flushed.
                    self.close(key, None);
                    return;
                }
                conn.state = ConnState::Draining {
                    budget: FATAL_DRAIN_BYTES,
                };
                let _ = self.poller.modify(&*conn.stream, Event::readable(key));
            }
        }
    }

    fn drain_ready(&mut self, key: usize) {
        let now = self.app.hub.now_us();
        let Some(conn) = self.conns.get_mut(&key) else {
            return;
        };
        let ConnState::Draining { budget } = &mut conn.state else {
            return;
        };
        match read_some(&conn.stream, *budget, |_| {}) {
            Ok((n, false)) if n < *budget => {
                *budget -= n;
                if n > 0 {
                    conn.last_progress_us = now;
                }
                let _ = self.poller.modify(&*conn.stream, Event::readable(key));
            }
            // Peer finished, budget spent, or the socket failed.
            _ => self.close(key, None),
        }
    }

    fn complete(&mut self, completion: Completion) {
        match completion {
            Completion::Failed { key } => self.close(key, None),
            Completion::Done {
                key,
                keep_alive,
                unwritten,
            } => {
                let now = self.app.hub.now_us();
                let Some(conn) = self.conns.get_mut(&key) else {
                    return;
                };
                conn.last_progress_us = now;
                let then = if keep_alive {
                    AfterWrite::Advance
                } else {
                    AfterWrite::Close
                };
                // Nothing unwritten is the usual case; a tail the worker
                // stopped on at EWOULDBLOCK is tried once more, then parked.
                self.start_write(key, unwritten, 0, then);
            }
        }
    }

    /// Evict connections that stopped making progress (`read_timeout`) or
    /// whose in-flight request exceeded its total read deadline
    /// (`request_deadline`, the slow-loris cap). Dispatched connections
    /// are exempt — a worker owns them.
    fn sweep_deadlines(&mut self) {
        if self.conns.is_empty() {
            return;
        }
        let now = self.app.hub.now_us();
        let idle_us = self.app.cfg.read_timeout.as_micros() as u64;
        let deadline_us = self.app.cfg.request_deadline.as_micros() as u64;
        let mut evict: Vec<(usize, &'static str)> = Vec::new();
        for (&key, conn) in &self.conns {
            if matches!(conn.state, ConnState::Dispatched) {
                continue;
            }
            let mid_request =
                conn.request_start_us.is_some() || !matches!(conn.state, ConnState::Reading);
            if conn
                .request_start_us
                .is_some_and(|t0| now.saturating_sub(t0) >= deadline_us)
            {
                evict.push((key, "deadline"));
            } else if now.saturating_sub(conn.last_progress_us) >= idle_us {
                evict.push((key, if mid_request { "deadline" } else { "idle" }));
            }
        }
        for (key, reason) in evict {
            self.close(key, Some(reason));
        }
    }

    fn close(&mut self, key: usize, evict_reason: Option<&'static str>) {
        if let Some(conn) = self.conns.remove(&key) {
            let _ = self.poller.delete(&*conn.stream);
            if let Some(reason) = evict_reason {
                self.evicted(key, reason);
            }
        }
    }

    fn evicted(&self, key: usize, reason: &'static str) {
        self.app
            .hub
            .metrics
            .counter(
                "ganc_http_conn_evicted_total",
                "Connections evicted by the event loop, by reason",
                &[("reason", reason)],
            )
            .inc();
        self.app.hub.trace.record(
            self.app.hub.now_us(),
            TraceData::ConnEvict {
                conn: key as u64,
                reason,
            },
        );
    }

    fn publish_gauges(&self) {
        let mut counts = [0u64; 4];
        for conn in self.conns.values() {
            counts[conn.state.tag()] += 1;
        }
        for (gauge, count) in self.gauges.iter().zip(counts) {
            gauge.set(count as f64);
        }
    }
}

/// Read what a non-blocking socket has ready, handing each chunk to `keep`:
/// until a short read or `EWOULDBLOCK` says it is drained, the peer
/// half-closes, or `limit` bytes have come in. Answers the bytes read and
/// whether the peer half-closed. Interest is re-armed level-triggered, so
/// bytes (or a half-close) arriving after a short read still raise an event
/// and the `read` that would only collect `EWOULDBLOCK` is skipped.
fn read_some(
    mut stream: &TcpStream,
    limit: usize,
    mut keep: impl FnMut(&[u8]),
) -> io::Result<(usize, bool)> {
    let mut scratch = [0u8; READ_CHUNK];
    let mut total = 0;
    while total < limit {
        match stream.read(&mut scratch) {
            Ok(0) => return Ok((total, true)),
            Ok(n) => {
                keep(&scratch[..n]);
                total += n;
                if n < READ_CHUNK {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok((total, false))
}

/// Write `bytes` to a non-blocking socket until all are taken or it would
/// block; answers how many went out. A socket that takes nothing without
/// blocking has failed.
pub(crate) fn write_some(mut stream: &TcpStream, bytes: &[u8]) -> io::Result<usize> {
    let mut pos = 0;
    while pos < bytes.len() {
        match stream.write(&bytes[pos..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(pos)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_buf_consumes_by_offset_and_gives_memory_back_when_it_empties() {
        let mut buf = ReadBuf::default();
        buf.push(b"first second ");
        buf.consume(6);
        assert_eq!(buf.unread(), b"second ");
        // Compaction drops exactly the consumed prefix; later pushes append.
        buf.compact();
        assert_eq!(buf.unread(), b"second ");
        buf.push(b"third");
        assert_eq!(buf.unread(), b"second third");

        // One large body must not pin its capacity once it is consumed.
        let body = vec![b'x'; 1024 * 1024];
        buf.push(&body);
        assert!(buf.bytes.capacity() >= body.len());
        buf.consume(buf.unread().len());
        assert!(buf.unread().is_empty());
        assert!(buf.bytes.capacity() <= READ_BUF_RETAINED);
        // A part-consumed buffer is left alone: the rest is still needed.
        buf.push(&body);
        buf.consume(body.len() - 1);
        assert_eq!(buf.unread(), b"x");
        buf.consume(1);
        assert!(buf.unread().is_empty() && buf.bytes.capacity() <= READ_BUF_RETAINED);
    }
}
