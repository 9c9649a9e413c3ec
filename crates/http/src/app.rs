//! What an [`crate::HttpServer`] answers with: the mounted [`Frontend`], the
//! route table, the handlers, and the operator views.
//!
//! ## Endpoints
//!
//! | method | path | answers |
//! |--------|------|---------|
//! | GET  | `/v1/recommend/{user}` | the user's list, or a prefix of it |
//! | POST | `/v1/recommend:batch` | one slot per user, one generation for the whole batch |
//! | POST | `/v1/ingest` | an acknowledgement (keyed: applied or deduplicated) |
//! | POST | `/v1/ingest:batch` | one acknowledgement or rejection per entry |
//! | GET  | `/v1/healthz` | liveness, generation, WAL / dedup / replica health |
//! | GET  | `/v1/window` | the transportable rolling-window summary |
//! | GET  | `/v1/stats`, `/v1/metrics`, `/v1/trace` | operator views |
//! | POST | `/admin/refit` | runs one refit pass and hot-swaps |
//!
//! The bodies, query parameters and error bodies of the first six — what a
//! [`crate::RemoteShard`] writes and reads back — are defined in
//! [`crate::wire`]; the handlers here parse with it, call the backend, and
//! encode with it. Batches route through the backend's
//! `recommend_batch_with_traced`, so a batch is always served from exactly
//! one bundle generation even while `/admin/refit` swaps underneath it.
//! Error responses are always JSON with an `"error"` key.
//!
//! Every read and ingest reaches the backend as a `&dyn` [`PeerTransport`]
//! (`Frontend::peer`) — the impl the mounted type itself carries, the
//! same one a router dispatches a band through — so a handler never asks
//! which kind is mounted. [`Frontend`]'s variants are matched only for what
//! one kind alone has: the obs attach, adaptive cadence and replica probes
//! at bind (`App::new`), `/v1/healthz`'s extras, the `/v1/stats` shape and
//! `POST /admin/refit`.
//!
//! `App::respond` is the only place a response is serialized, written and
//! accounted; [`crate::server`]'s event loop calls it on a worker, or on its
//! own thread when `App::probe` already holds the answer.

use crate::http1::{self, Request, StatusCode};
use crate::router::RouterNode;
use crate::server::{write_some, CachedAnswer, Completion, Job, ServerConfig};
use crate::transport::PeerTransport;
use crate::wire::{self, RecommendQuery};
use crate::BackendError;
use ganc_dataset::UserId;
use ganc_obs::{Background, Counter, Histogram, ObsHub, TraceData, TraceEvent, WindowStats};
use ganc_serve::refit::{RefitController, RefitOutcome, Refitter};
use ganc_serve::{
    CadenceConfig, DedupStats, EngineStats, FitConfig, RequestOptions, ServingEngine, ShardInfo,
    ShardedEngine,
};
use std::io;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tinyjson::{obj, Value};

/// The engine a server fronts: single-node, in-process sharded, or a
/// multi-node router.
#[derive(Clone)]
pub enum Frontend {
    /// One [`ServingEngine`] over one bundle (or one θ-band slice — this is
    /// what a shard node runs).
    Single(Arc<ServingEngine>),
    /// An in-process [`ShardedEngine`] (router + all bands in one process).
    Sharded(Arc<ShardedEngine>),
    /// A [`RouterNode`] dispatching bands to local slices and remote peers.
    Router(Arc<RouterNode>),
}

impl Frontend {
    /// The mounted backend's serving surface: its own [`PeerTransport`]
    /// impl, which every handler calls.
    fn peer(&self) -> &dyn PeerTransport {
        match self {
            Frontend::Single(engine) => engine.as_ref(),
            Frontend::Sharded(engine) => engine.as_ref(),
            Frontend::Router(router) => router.as_ref(),
        }
    }
}

/// Refit support for `POST /admin/refit`: the fitter and fit config one
/// pass runs with (the same pair a [`ganc_serve::RefitController`] is
/// spawned with).
#[derive(Clone)]
pub struct RefitHook {
    /// Refits the base model and θ from accumulated interactions.
    pub fitter: Arc<Refitter>,
    /// Bundle fit configuration for the refit.
    pub cfg: FitConfig,
    /// When set, the server spawns a background
    /// [`RefitController::spawn_adaptive`] with this cadence at bind time
    /// (sharded fronts only) — refits then happen on their own when enough
    /// interactions accumulate, instead of only on `POST /admin/refit`.
    /// The controller's liveness and refit count surface in `/v1/healthz`.
    pub cadence: Option<CadenceConfig>,
}

/// Per-request metric handles, resolved once at bind: the hot path then
/// touches atomics only, never the registry's lock (which `/v1/metrics`
/// holds while it collects the series to render — a wait the event-loop
/// thread must not inherit).
struct HttpObs {
    parse_us: Arc<Histogram>,
    dispatch_us: Arc<Histogram>,
    write_us: Arc<Histogram>,
    /// `ganc_http_requests_total{endpoint, status="200"}` per routable
    /// endpoint; every other status is get-or-create at the call.
    ok_total: Vec<(&'static str, Arc<Counter>)>,
    /// `ganc_request_overrides_total{kind}` for the kinds `n`, `theta`,
    /// `exclude` and `rerank`, in that order.
    overrides: [Arc<Counter>; 4],
}

/// Width of the rolling beyond-accuracy window `/v1/stats` and the
/// `ganc_window_*` gauges report over.
const STATS_WINDOW: Duration = Duration::from_secs(300);

/// Endpoint labels [`App::route`] can answer 200 under. A label missing
/// here is still counted, through the get-or-create fallback.
const ENDPOINTS: [&str; 10] = [
    "recommend",
    "recommend_batch",
    "ingest",
    "ingest_batch",
    "healthz",
    "stats",
    "metrics",
    "trace",
    "window",
    "admin_refit",
];

impl HttpObs {
    fn new(hub: &ObsHub) -> HttpObs {
        let stage = |name| {
            hub.metrics.histogram(
                "ganc_http_stage_us",
                "HTTP request stage latency (microseconds)",
                &[("stage", name)],
            )
        };
        HttpObs {
            parse_us: stage("parse"),
            dispatch_us: stage("dispatch"),
            write_us: stage("write"),
            ok_total: ENDPOINTS
                .iter()
                .map(|&endpoint| (endpoint, requests_total(hub, endpoint, StatusCode::OK)))
                .collect(),
            overrides: ["n", "theta", "exclude", "rerank"].map(|kind| {
                hub.metrics.counter(
                    "ganc_request_overrides_total",
                    "Per-request trade-off controls accepted, by kind",
                    &[("kind", kind)],
                )
            }),
        }
    }
}

/// Get-or-create `ganc_http_requests_total{endpoint,status}` — takes the
/// registry's write lock and allocates the label key.
fn requests_total(hub: &ObsHub, endpoint: &str, status: u16) -> Arc<Counter> {
    hub.metrics.counter(
        "ganc_http_requests_total",
        "HTTP requests answered, by endpoint and status",
        &[("endpoint", endpoint), ("status", &status.to_string())],
    )
}

/// How a routed request answers: JSON for the API, plain text for the
/// Prometheus exposition endpoint.
enum Reply {
    Json(u16, Value),
    Text(u16, String),
}

pub(crate) struct App {
    frontend: Frontend,
    refit: Option<RefitHook>,
    pub(crate) cfg: ServerConfig,
    pub(crate) hub: Arc<ObsHub>,
    http: HttpObs,
    /// Background adaptive-refit controller, when `RefitHook::cadence` was
    /// set. Held for the server's lifetime; dropping the last `App` clone
    /// joins its worker.
    controller: Option<RefitController>,
    /// Background health-probe loops, one per replicated router band.
    /// Held for the server's lifetime; dropping the last `App` clone stops
    /// and joins them.
    _probes: Vec<Background>,
}

impl App {
    /// Mount `frontend`: attach observability to it and start the
    /// background work its kind alone has — the adaptive refit controller
    /// of a sharded engine (`refit.cadence`), the health probes of a
    /// router's replicated bands (they restore ejected replicas and rotate
    /// primaries for the server's whole lifetime).
    pub(crate) fn new(
        frontend: Frontend,
        refit: Option<RefitHook>,
        cfg: ServerConfig,
    ) -> io::Result<App> {
        let hub = cfg.obs.clone().unwrap_or_else(ObsHub::new);
        let cadence = refit.as_ref().and_then(|hook| Some((hook, hook.cadence?)));
        let (mut controller, mut probes) = (None, Vec::new());
        match &frontend {
            Frontend::Single(e) => e.attach_obs(Arc::clone(&hub), None, STATS_WINDOW),
            Frontend::Sharded(e) => {
                e.attach_obs(Arc::clone(&hub), STATS_WINDOW);
                controller = cadence.map(|(hook, cadence)| {
                    RefitController::spawn_adaptive(
                        Arc::clone(e),
                        Arc::clone(&hook.fitter),
                        hook.cfg,
                        cadence,
                        Arc::clone(hub.clock()),
                    )
                });
            }
            Frontend::Router(r) => {
                r.attach_obs(Arc::clone(&hub), STATS_WINDOW);
                probes = r.spawn_probes();
            }
        }
        if cadence.is_some() && controller.is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "adaptive refit cadence requires a sharded engine front",
            ));
        }
        let http = HttpObs::new(&hub);
        Ok(App {
            frontend,
            refit,
            cfg,
            hub,
            http,
            controller,
            _probes: probes,
        })
    }

    /// [`App::respond`] behind a panic guard: a handler panic must take
    /// neither a worker nor the event loop down with it (the fuzz suite's
    /// "never crash" property); the connection is simply dropped.
    pub(crate) fn respond_guarded(&self, job: &Job, stop: &AtomicBool) -> Completion {
        std::panic::catch_unwind(AssertUnwindSafe(|| self.respond(job, stop)))
            .unwrap_or(Completion::Failed { key: job.key })
    }

    /// The event loop's question before a hand-off: is this a recommend
    /// whose answer is already in hand? Only default-options requests
    /// qualify (`?n=` is presentation and does); a malformed one is a
    /// worker's 400 to write, so it is simply not a hit. Neither is a panic
    /// in the backend: the loop thread outlives it and a worker meets it
    /// again behind [`App::respond_guarded`].
    pub(crate) fn probe(&self, req: &Request) -> Option<CachedAnswer> {
        if req.method != "GET" {
            return None;
        }
        let user_part = req.path.strip_prefix(wire::RECOMMEND)?;
        let query = RecommendQuery::parse(user_part, req.query.as_deref()).ok()?;
        if !query.opts.is_default() {
            return None;
        }
        let user = UserId(query.user);
        let (list, generation) = std::panic::catch_unwind(AssertUnwindSafe(|| {
            self.frontend.peer().recommend_cached(user)
        }))
        .unwrap_or(None)?;
        Some((query, list, generation))
    }

    /// Serve one framed request: route, serialize, and write the response
    /// straight to the (non-blocking) socket. Runs on a worker thread — or
    /// on the event-loop thread when `job.cached` already holds the answer
    /// — and is the only place a response is serialized, written and
    /// accounted. The fd is disarmed while the job owns it, so this write
    /// never races the event loop; an `EWOULDBLOCK` tail rides back on the
    /// completion for the loop to flush.
    fn respond(&self, job: &Job, stop: &AtomicBool) -> Completion {
        let t_dispatch = self.hub.now_us();
        let (reply, endpoint) = self.route(&job.req, job.cached.as_ref());
        let (status, content_type, body) = match reply {
            Reply::Json(status, value) => (status, "application/json", tinyjson::to_string(&value)),
            Reply::Text(status, text) => (status, "text/plain; version=0.0.4", text),
        };
        let t_write = self.hub.now_us();
        let keep_alive = job.req.keep_alive
            && job.served < self.cfg.keep_alive_requests
            && !stop.load(Ordering::Relaxed);
        let mut bytes = Vec::with_capacity(body.len() + 128);
        let _ = http1::write_response_with_type(
            &mut bytes,
            status,
            content_type,
            body.as_bytes(),
            keep_alive,
        );
        let written = write_some(&job.stream, &bytes);
        let t_done = self.hub.now_us();
        let (dispatch_us, write_us) = (
            t_write.saturating_sub(t_dispatch),
            t_done.saturating_sub(t_write),
        );
        self.http.parse_us.observe_us(job.parse_us);
        self.http.dispatch_us.observe_us(dispatch_us);
        self.http.write_us.observe_us(write_us);
        self.count_request(endpoint, status);
        self.hub.trace.record(
            t_done,
            TraceData::Http {
                request_id: self.hub.next_request_id(),
                endpoint,
                status,
                parse_us: job.parse_us,
                dispatch_us,
                write_us,
            },
        );
        match written {
            Ok(n) => Completion::Done {
                key: job.key,
                keep_alive,
                unwritten: bytes[n..].to_vec(),
            },
            Err(_) => Completion::Failed { key: job.key },
        }
    }

    /// Bump `ganc_http_requests_total{endpoint,status}`: a 200 is one atomic
    /// add on a handle resolved at bind; any other status (errors — a tiny
    /// label space, off the hot path) goes through the registry's
    /// get-or-create.
    pub(crate) fn count_request(&self, endpoint: &'static str, status: u16) {
        let resolved = self.http.ok_total.iter().find(|(e, _)| *e == endpoint);
        match resolved {
            Some((_, ok)) if status == StatusCode::OK => ok.inc(),
            _ => requests_total(&self.hub, endpoint, status).inc(),
        }
    }

    /// Dispatch one well-framed request, returning the reply plus the
    /// endpoint label stage metrics and the request counter attribute to.
    /// Everything answers JSON (status contract 200 / 400 / 404 / 413, +
    /// 502 for router upstream failures) except `/v1/metrics`, which
    /// answers Prometheus text exposition.
    fn route(&self, req: &Request, cached: Option<&CachedAnswer>) -> (Reply, &'static str) {
        let (reply, endpoint) = match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/v1/healthz") => (self.healthz(), "healthz"),
            ("GET", "/v1/stats") => (self.stats(), "stats"),
            ("GET", "/v1/metrics") => {
                return (
                    Reply::Text(StatusCode::OK, self.hub.metrics.render()),
                    "metrics",
                )
            }
            ("GET", "/v1/trace") => (self.trace(), "trace"),
            ("GET", "/v1/window") => (self.window(), "window"),
            ("POST", "/v1/recommend:batch") => (self.recommend_batch(&req.body), "recommend_batch"),
            ("POST", "/v1/ingest") => (self.ingest(req), "ingest"),
            ("POST", "/v1/ingest:batch") => (self.ingest_batch(&req.body), "ingest_batch"),
            ("POST", "/admin/refit") => (self.admin_refit(), "admin_refit"),
            ("GET", path) if path.starts_with(wire::RECOMMEND) => (
                self.recommend(&path[wire::RECOMMEND.len()..], req.query.as_deref(), cached),
                "recommend",
            ),
            _ => (wire::error(StatusCode::NOT_FOUND, "not found"), "other"),
        };
        let (status, value) = reply;
        (Reply::Json(status, value), endpoint)
    }

    fn healthz(&self) -> (u16, Value) {
        match self.frontend.peer().generation() {
            Ok(g) => {
                let mut body = wire::healthz(g);
                if let Frontend::Sharded(e) = &self.frontend {
                    body.insert("pending_ingests", Value::from(e.pending_ingests()));
                    // WAL footprint, when a durable log is attached: how
                    // many acknowledged-but-uncompacted records a crash
                    // would replay, their on-disk size, and the engine's
                    // dedup window — the one the WAL's keys re-arm.
                    if let Some(w) = e.wal_stats() {
                        body.insert("wal", obj! { "records" => w.records, "bytes" => w.bytes });
                        body.insert("dedup", dedup_body(e.dedup_stats()));
                    }
                }
                if let Frontend::Router(r) = &self.frontend {
                    // Degraded = still answering, but some band is below
                    // full replication (a replica was ejected); read from
                    // tracked breaker state, no wire calls.
                    let degraded = r.degraded_bands();
                    body.insert("degraded", Value::from(!degraded.is_empty()));
                    body.insert(
                        "degraded_bands",
                        Value::Array(degraded.into_iter().map(Value::from).collect()),
                    );
                    // The fan-out dedup window: an evicted key only loses
                    // its resend short-circuit — the engines behind the
                    // routes still dedup it in their own windows.
                    body.insert("dedup", dedup_body(r.dedup_stats()));
                }
                if let Some(controller) = &self.controller {
                    body.insert(
                        "refit",
                        obj! {
                            "alive" => controller.alive(),
                            "refits" => controller.refits(),
                        },
                    );
                }
                (StatusCode::OK, body)
            }
            Err(e) => wire::error_reply(e),
        }
    }

    /// Drain the trace ring into JSON. Draining is deliberate — each event
    /// is delivered exactly once, so a poller sees a stream, not a window.
    fn trace(&self) -> (u16, Value) {
        let dropped = self.hub.trace.dropped();
        let events: Vec<Value> = self
            .hub
            .trace
            .drain()
            .into_iter()
            .map(trace_event_value)
            .collect();
        (
            StatusCode::OK,
            obj! { "events" => Value::Array(events), "dropped" => dropped },
        )
    }

    /// `GET /v1/window` — the node's transportable rolling-window summary,
    /// the wire call a router's stats fold makes against each remote band.
    /// `{"window":null}` when observability is not attached (or the node
    /// is itself a router).
    fn window(&self) -> (u16, Value) {
        let window = self.frontend.peer().window_wire().ok().flatten();
        (StatusCode::OK, wire::window(window.as_ref()))
    }

    /// Bump `ganc_request_overrides_total{kind}` for every per-request
    /// control present and leave a `request_overrides` trace event when
    /// any engine-level override is set. Called only when at least one
    /// control was parsed, so default traffic pays nothing.
    fn note_overrides(&self, n: bool, opts: &RequestOptions) {
        let present = [
            n,
            opts.theta.is_some(),
            !opts.exclude.is_empty(),
            opts.rerank.is_some(),
        ];
        for (counter, present) in self.http.overrides.iter().zip(present) {
            if present {
                counter.inc();
            }
        }
        // `?n=` is presentation-only truncation — it never reaches an
        // engine, so it counts above but doesn't trace as an override.
        if !opts.is_default() {
            self.hub.trace.record(
                self.hub.now_us(),
                TraceData::RequestOverrides {
                    request_id: self.hub.next_request_id(),
                    theta: opts.theta.is_some(),
                    exclude: opts.exclude.len() as u32,
                    rerank: opts.rerank.map_or("", |m| m.as_str()),
                },
            );
        }
    }

    /// `GET /v1/recommend/{user}`. `cached` is the event loop's probe hit,
    /// when it had one: the query as the probe parsed it and the same
    /// answer the backend would give, already in hand.
    fn recommend(
        &self,
        user_part: &str,
        query: Option<&str>,
        cached: Option<&CachedAnswer>,
    ) -> (u16, Value) {
        let RecommendQuery { user, take, opts } = match cached {
            Some((query, ..)) => query.clone(),
            None => match RecommendQuery::parse(user_part, query) {
                Ok(query) => query,
                Err(message) => return wire::error(StatusCode::BAD_REQUEST, message),
            },
        };
        if take.is_some() || !opts.is_default() {
            self.note_overrides(take.is_some(), &opts);
        }
        let answer = match cached {
            Some((_, list, generation)) => Ok((Arc::clone(list), *generation)),
            None => self
                .frontend
                .peer()
                .recommend_with_traced(UserId(user), &opts),
        };
        wire::reply(answer.map(|(list, generation)| {
            let shown = take.unwrap_or(list.len()).min(list.len());
            wire::recommend_answer(user, generation, &list[..shown])
        }))
    }

    fn recommend_batch(&self, body: &[u8]) -> (u16, Value) {
        let parsed = wire::request_json(body).and_then(|v| wire::batch_request_from(&v));
        let (users, opts) = match parsed {
            Ok(request) => request,
            Err(message) => return wire::error(StatusCode::BAD_REQUEST, message),
        };
        if !opts.is_default() {
            self.note_overrides(false, &opts);
        }
        let answer = self
            .frontend
            .peer()
            .recommend_batch_with_traced(&users, &opts);
        wire::reply(answer.map(|(slots, generation)| wire::batch_answer(&users, slots, generation)))
    }

    fn ingest(&self, req: &Request) -> (u16, Value) {
        let parsed = wire::request_json(&req.body)
            .and_then(|v| wire::ingest_request_from(&v, req.idempotency_key.as_deref()));
        let entry = match parsed {
            Ok(entry) => entry,
            Err(message) => return wire::error(StatusCode::BAD_REQUEST, message),
        };
        let key = entry.key.as_deref();
        let ack = self
            .frontend
            .peer()
            .ingest_keyed(key, entry.user, entry.item, entry.rating);
        wire::reply(ack.map(|ack| wire::ingest_ack(key.is_some(), ack)))
    }

    /// `POST /v1/ingest:batch` — the coalesced ingest wire call: many
    /// entries, one round-trip. The backend's
    /// [`PeerTransport::ingest_batch`] answers per entry, so one unknown id
    /// never fails its companions; a transport/band failure (router fronts)
    /// fails the whole batch.
    fn ingest_batch(&self, body: &[u8]) -> (u16, Value) {
        let parsed = wire::request_json(body).and_then(|v| wire::ingest_batch_request_from(&v));
        match parsed {
            Ok(entries) => wire::reply(
                self.frontend
                    .peer()
                    .ingest_batch(&entries)
                    .map(|slots| wire::ingest_batch_answer(&slots)),
            ),
            Err(message) => wire::error(StatusCode::BAD_REQUEST, message),
        }
    }

    fn admin_refit(&self) -> (u16, Value) {
        let Some(hook) = &self.refit else {
            return wire::error(StatusCode::BAD_REQUEST, "refit not configured");
        };
        let Frontend::Sharded(engine) = &self.frontend else {
            return wire::error(
                StatusCode::BAD_REQUEST,
                "refit requires a sharded engine front",
            );
        };
        match engine.refit_once(hook.fitter.as_ref(), &hook.cfg) {
            RefitOutcome::Swapped { generation, .. } => (
                StatusCode::OK,
                obj! { "outcome" => "swapped", "generation" => generation },
            ),
            RefitOutcome::Raced => (
                StatusCode::OK,
                obj! { "outcome" => "raced", "generation" => engine.generation() },
            ),
        }
    }

    /// `/v1/stats`: the mount's own view, then its rolling windows, which
    /// every mount answers as per-band stats plus their union and which
    /// render one way — `null` when no band reports.
    fn stats(&self) -> (u16, Value) {
        let (mut body, (bands, aggregate)) = match &self.frontend {
            // A single engine is a sharded one with no bands to list.
            Frontend::Single(e) => (
                engine_stats("single", e.generation(), e.n(), e.stats(), Vec::new()),
                (Vec::new(), e.window_stats()),
            ),
            Frontend::Sharded(e) => (
                engine_stats("sharded", e.generation(), e.n(), e.stats(), e.shard_info()),
                e.window_stats(),
            ),
            Frontend::Router(r) => match router_stats(r) {
                Ok(stats) => stats,
                Err(e) => return wire::error_reply(e),
            },
        };
        let window = aggregate.map(|aggregate| {
            obj! {
                "seconds" => STATS_WINDOW.as_secs_f64(),
                "aggregate" => window_value(aggregate),
                "bands" => Value::Array(
                    bands
                        .into_iter()
                        .map(|b| b.map(window_value).unwrap_or(Value::Null))
                        .collect(),
                ),
            }
        });
        body.insert("window", window.unwrap_or(Value::Null));
        (StatusCode::OK, body)
    }
}

/// Per-band windows and their union, as every mount reports them.
type Windows = (Vec<Option<WindowStats>>, Option<WindowStats>);

/// `/v1/stats` for an in-process engine, single or sharded, bar the window.
fn engine_stats(
    backend: &str,
    generation: u64,
    n: usize,
    s: EngineStats,
    shards: Vec<ShardInfo>,
) -> Value {
    let shards: Vec<Value> = shards
        .into_iter()
        .map(|i| {
            obj! {
                // ±∞ band edges encode as null (JSON has no Inf).
                "theta_lo" => i.theta_lo,
                "theta_hi" => i.theta_hi,
                "users" => i.users,
                "snapshots" => i.snapshots,
                "coverage_bytes" => i.coverage_bytes,
            }
        })
        .collect();
    let total = s.cache_hits + s.cache_misses;
    let hit_rate = if total == 0 {
        0.0
    } else {
        s.cache_hits as f64 / total as f64
    };
    obj! {
        "backend" => backend,
        "generation" => generation,
        "n" => n,
        "cache" => obj! {
            "hits" => s.cache_hits,
            "misses" => s.cache_misses,
            "hit_rate" => hit_rate,
            "cached" => s.cached,
        },
        "ingested" => s.ingested,
        "shards" => Value::Array(shards),
    }
}

/// `/v1/stats` for a router, bar the window, and its band windows.
fn router_stats(r: &RouterNode) -> Result<(Value, Windows), BackendError> {
    // Per-band deployment view: band index, route kind
    // (local / remote / coalesced), peer address, the band's
    // *own* generation (null when the peer is unreachable —
    // exactly the band an operator should look at), and the
    // coalescer queue depth where one exists.
    let shards: Vec<Value> = r
        .routes()
        .iter()
        .enumerate()
        .map(|(band, route)| {
            let peer = route.peer();
            let addr = route.addr().map(Value::from).unwrap_or(Value::Null);
            let generation = peer.generation().map(Value::from).unwrap_or(Value::Null);
            let pending = peer.pending_depth().map(Value::from).unwrap_or(Value::Null);
            // Replica view is uniform across route kinds: a
            // single-backend band reports as a degenerate
            // group of one healthy replica with pinned-zero
            // availability counters.
            let rs = route.replica_view();
            obj! {
                "band" => band,
                "kind" => route.kind(),
                "addr" => addr,
                "generation" => generation,
                "pending" => pending,
                "replicas" => obj! {
                    "count" => rs.replicas,
                    "healthy" => rs.healthy,
                    "primary" => rs.primary,
                    "hedges" => rs.hedges,
                    "failovers" => rs.failovers,
                    "ejections" => rs.ejections,
                    "restores" => rs.restores,
                },
            }
        })
        .collect();
    // Rolling windows across the deployment: local bands fold
    // in-process, remote bands over the wire (`GET
    // /v1/window`), the aggregate is the exact union. A band
    // that can't report (unreachable peer, replica group)
    // holds null without hiding the others.
    let windows = r.window_stats();
    let body = obj! {
        "backend" => "router",
        "generation" => r.generation()?,
        "shards" => Value::Array(shards),
    };
    Ok((body, windows))
}

/// Rolling-window stats as a JSON object (shared by every backend arm).
fn window_value(w: WindowStats) -> Value {
    obj! {
        "lists" => w.lists,
        "items" => w.items,
        "coverage" => w.coverage,
        "mean_novelty_bits" => w.mean_novelty_bits,
        "long_tail_share" => w.long_tail_share,
    }
}

/// A dedup window's retention contract as `/v1/healthz` reports it (a
/// durable sharded engine's and a router's): keys beyond `window`
/// distinct successors are forgotten (`evictions` counts them), after
/// which a resend re-applies.
fn dedup_body(d: DedupStats) -> Value {
    obj! { "window" => d.window, "len" => d.len, "evictions" => d.evictions }
}

/// One trace event as JSON: `{seq, at_us, kind, data: {...}}`.
fn trace_event_value(e: TraceEvent) -> Value {
    let opt_u32 = |v: Option<u32>| v.map(Value::from).unwrap_or(Value::Null);
    let kind = e.data.kind();
    let data = match e.data {
        TraceData::Request {
            request_id,
            user,
            generation,
            band,
            cache_hit,
            elapsed_us,
        } => obj! {
            "request_id" => request_id,
            "user" => user,
            "generation" => generation,
            "band" => opt_u32(band),
            "cache_hit" => cache_hit,
            "elapsed_us" => elapsed_us,
        },
        TraceData::Batch {
            users,
            generation,
            band,
            elapsed_us,
        } => obj! {
            "users" => users,
            "generation" => generation,
            "band" => opt_u32(band),
            "elapsed_us" => elapsed_us,
        },
        TraceData::Ingest { user, item, band } => obj! {
            "user" => user,
            "item" => item,
            "band" => opt_u32(band),
        },
        TraceData::BundleSwap { band, generation } => obj! {
            "band" => opt_u32(band),
            "generation" => generation,
        },
        TraceData::RefitStarted {
            generation,
            pending,
        } => obj! {
            "generation" => generation,
            "pending" => pending,
        },
        TraceData::RefitSwapped { generation } => obj! { "generation" => generation },
        TraceData::RefitRaced { generation } => obj! { "generation" => generation },
        TraceData::BandHedge {
            band,
            primary,
            hedge,
        } => obj! {
            "band" => band,
            "primary" => primary,
            "hedge" => hedge,
        },
        TraceData::BandFailover { band, from, to } => obj! {
            "band" => band,
            "from" => from,
            "to" => to,
        },
        TraceData::ReplicaEjected {
            band,
            replica,
            failures,
        } => obj! {
            "band" => band,
            "replica" => replica,
            "failures" => failures,
        },
        TraceData::ReplicaRestored { band, replica } => obj! {
            "band" => band,
            "replica" => replica,
        },
        TraceData::WalReplay {
            records,
            bytes,
            corrupted,
        } => obj! {
            "records" => records,
            "bytes" => bytes,
            "corrupted" => corrupted,
        },
        TraceData::WalTruncate {
            retained,
            generation,
        } => obj! {
            "retained" => retained,
            "generation" => generation,
        },
        TraceData::ConnAccept { conn, open } => obj! {
            "conn" => conn,
            "open" => open,
        },
        TraceData::ConnEvict { conn, reason } => obj! {
            "conn" => conn,
            "reason" => reason,
        },
        TraceData::RequestOverrides {
            request_id,
            theta,
            exclude,
            rerank,
        } => obj! {
            "request_id" => request_id,
            "theta" => theta,
            "exclude" => exclude,
            "rerank" => rerank,
        },
        TraceData::Http {
            request_id,
            endpoint,
            status,
            parse_us,
            dispatch_us,
            write_us,
        } => obj! {
            "request_id" => request_id,
            "endpoint" => endpoint,
            "status" => u32::from(status),
            "parse_us" => parse_us,
            "dispatch_us" => dispatch_us,
            "write_us" => write_us,
        },
    };
    obj! {
        "seq" => e.seq,
        "at_us" => e.at_us,
        "kind" => kind,
        "data" => data,
    }
}
