//! A router node for multi-node θ-band deployment: PR 3 made multi-node
//! serving "a routing problem" by slicing one bundle into per-band
//! artifacts; this module is the router. Each band is served either by a
//! local [`ServingEngine`] over its slice or by a peer node reached through
//! a [`PeerTransport`] (production: [`crate::RemoteShard`], optionally
//! wrapped in a [`crate::CoalescedShard`]) — the same `/v1/*` protocol
//! either way, so a band can be moved across nodes without the router's
//! callers noticing.
//!
//! Dispatch never asks which kind a band is: every [`ShardRoute`] is
//! reached as a `&dyn PeerTransport`, the impl the mounted engine, peer or
//! replica group carries itself, and the router is one too (its `impl
//! PeerTransport` below holds its serving entry points) — so an engine
//! mounts as a `Remote` band and a router under a router. The variants are
//! matched only for what being *local* decides (the stats label, the inline
//! cache probe, the fan-out threads), for the obs attach, and for the
//! replica view. An ingest goes to every route alike under one key, and
//! each engine behind a route dedups that key itself.
//!
//! Output equivalence: a user's request is answered by the engine holding
//! their band's slice, and serving from a slice is byte-identical to
//! serving from the full bundle ([`ganc_serve::ModelBundle::slice_theta_band`]),
//! so a router over any local/remote mix produces exactly the lists an
//! in-process [`ganc_serve::ShardedEngine`] produces — which
//! `tests/deployment_oracle.rs` asserts for routers over local slices,
//! over nodes loaded from per-band artifacts behind HTTP, over a replicated
//! band and over routers.
//!
//! Placement and the batch fan-out are [`ganc_serve::band`]'s, the same an
//! in-process [`ganc_serve::ShardedEngine`] runs: one [`BandMap`] built
//! from `theta` and the cuts places every user, and [`band_batch`] splits a
//! batch, dispatches each touched band and folds the answers **in band
//! order**. A batch touching a band that is not `Local` goes out on one
//! scoped thread per touched band, so its wall clock is the *slowest*
//! band's round-trip instead of the sum — the win that matters once bands
//! live on remote nodes; an all-local batch runs its bands in sequence,
//! each local engine already spreading its sub-batch over its own workers.
//! Ordering, error selection, and the generation-skew check are therefore
//! byte-for-byte identical to the sequential dispatch
//! ([`RouterNode::recommend_batch_traced_sequential`], the same fold with
//! every band treated as in-process, at default options), which
//! `tests/router_fanout.rs` proves under injected slow/flaky/reordered
//! peers, comparing answers under every option shape with an in-process
//! `ShardedEngine`. The one observable difference is side effects on the
//! wire: the sequential path stops dispatching at the first failed band,
//! the parallel path has already started the rest (read-only calls, so
//! nothing diverges).

use crate::replica::{ReplicaConfig, ReplicaSet, ReplicaStats};
use crate::transport::{fan_out_ingest, BatchAnswer, PeerTransport, SingleAnswer};
use crate::BackendError;
use ganc_dataset::{ItemId, UserId};
use ganc_obs::{Background, Counter, Histogram, ObsHub, WindowStats, WindowWire};
use ganc_serve::{
    band_batch, BandFault, BandMap, DedupStats, DedupWindow, IngestAck, RequestOptions,
    ServingEngine, Wal, WalRecord, DEDUP_WINDOW,
};
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Where one θ band is served.
pub enum ShardRoute {
    /// In this process, over the band's bundle slice.
    Local(Arc<ServingEngine>),
    /// On a peer node, over a [`PeerTransport`] (HTTP in production).
    Remote(Arc<dyn PeerTransport>),
    /// On a replica group over the band's slice: hedged dispatch,
    /// failover, and health-driven rotation ([`crate::replica`]).
    Replicas(Arc<ReplicaSet>),
}

impl ShardRoute {
    /// A remote route over any peer transport (sugar for wrapping in an
    /// `Arc`).
    pub fn remote(peer: impl PeerTransport + 'static) -> ShardRoute {
        ShardRoute::Remote(Arc::new(peer))
    }

    /// A replicated route over several peers serving the same slice, on
    /// the production clock.
    pub fn replicated(peers: Vec<Arc<dyn PeerTransport>>, cfg: ReplicaConfig) -> ShardRoute {
        ShardRoute::Replicas(ReplicaSet::new(peers, cfg))
    }

    /// The band's backend as the one serving surface every kind shares:
    /// reads, ingests, generation and the stats probes all go through it.
    pub(crate) fn peer(&self) -> &dyn PeerTransport {
        match self {
            ShardRoute::Local(engine) => engine.as_ref(),
            ShardRoute::Remote(peer) => peer.as_ref(),
            ShardRoute::Replicas(set) => set,
        }
    }

    /// Whether the band is mounted as an in-process slice — what decides
    /// the label it reports under, whether the event loop may probe its
    /// cache inline, and whether a batch touching it needs a fan-out
    /// thread. An engine mounted as `Remote` is a peer like any other and
    /// answers `false`.
    fn is_local(&self) -> bool {
        matches!(self, ShardRoute::Local(_))
    }

    /// Short label for stats: `"local"` for in-process slices, the
    /// transport's own kind (`"remote"`, `"coalesced"`, `"replicas"`) for
    /// everything mounted as a peer.
    pub(crate) fn kind(&self) -> &'static str {
        if self.is_local() {
            "local"
        } else {
            self.peer().kind()
        }
    }

    /// Peer address (or double label) for remote routes.
    pub(crate) fn addr(&self) -> Option<String> {
        (!self.is_local()).then(|| self.peer().label())
    }

    /// The band's replica group, when this route is replicated.
    pub(crate) fn replicas(&self) -> Option<&Arc<ReplicaSet>> {
        match self {
            ShardRoute::Replicas(set) => Some(set),
            _ => None,
        }
    }

    /// Replica-group view for `/v1/stats`: single-backend routes report
    /// as a degenerate group of one healthy replica, so the stats shape
    /// is uniform across route kinds.
    pub(crate) fn replica_view(&self) -> ReplicaStats {
        match self.replicas() {
            Some(set) => set.stats(),
            None => ReplicaStats {
                replicas: 1,
                healthy: 1,
                ..ReplicaStats::default()
            },
        }
    }
}

/// The band-availability series, `(name, help)` in [`availability`]'s
/// order, read from each band's [`ShardRoute::replica_view`] when
/// `/v1/metrics` renders: a replica group's own counts, and zeros for a
/// single-backend band.
const BAND_AVAILABILITY_SERIES: [(&str, &str); 4] = [
    (
        "ganc_router_band_hedges_total",
        "Hedged router dispatches, by band",
    ),
    (
        "ganc_router_band_failovers_total",
        "Dispatches retried on another replica, by band",
    ),
    (
        "ganc_router_band_ejections_total",
        "Replicas ejected by the consecutive-failure breaker, by band",
    ),
    (
        "ganc_router_band_restores_total",
        "Ejected replicas restored by a health probe, by band",
    ),
];

/// A band's availability counts, in [`BAND_AVAILABILITY_SERIES`] order.
fn availability(route: &ShardRoute) -> [u64; 4] {
    let s = route.replica_view();
    [s.hedges, s.failovers, s.ejections, s.restores]
}

/// Per-band router metric handles: dispatch latency and error attribution
/// for every route.
struct BandObs {
    dispatch_us: Arc<Histogram>,
    errors: Arc<Counter>,
}

struct RouterObs {
    hub: Arc<ObsHub>,
    /// Indexed by band.
    bands: Vec<BandObs>,
}

impl RouterObs {
    fn new(hub: Arc<ObsHub>, routes: &Arc<[ShardRoute]>) -> RouterObs {
        let bands = routes
            .iter()
            .enumerate()
            .map(|(j, route)| {
                let band = j.to_string();
                let labels: Vec<(&str, &str)> = vec![("band", &band), ("kind", route.kind())];
                let dispatch_us = hub.metrics.histogram(
                    "ganc_router_band_dispatch_us",
                    "Router per-band dispatch latency (microseconds)",
                    &labels,
                );
                let errors = hub.metrics.counter(
                    "ganc_router_band_errors_total",
                    "Router dispatches that failed, by band",
                    &labels,
                );
                // Held weakly: local routes' engines hold the hub.
                for (k, (name, help)) in BAND_AVAILABILITY_SERIES.into_iter().enumerate() {
                    let routes = Arc::downgrade(routes);
                    let read = move || routes.upgrade().map_or(0, |r| availability(&r[j])[k]);
                    hub.metrics.read_counter(name, help, &labels, read);
                }
                BandObs {
                    dispatch_us,
                    errors,
                }
            })
            .collect();
        RouterObs { hub, bands }
    }
}

/// Routes each user's request to the engine serving their θ band.
pub struct RouterNode {
    /// Where every user of the full population is served; one route per
    /// band.
    map: BandMap,
    /// Shared with the band-availability series, which read them.
    routes: Arc<[ShardRoute]>,
    obs: OnceLock<RouterObs>,
    /// Client-supplied idempotency keys whose fan-out fully succeeded:
    /// a resend of such a key is a no-op at the router, before any
    /// dispatch. Only a short-circuit — the engines behind the routes
    /// remember the keys they applied and dedup a resend themselves.
    ingest_keys: Mutex<DedupWindow>,
    /// Optional durable mirror of that window: each fully acknowledged
    /// key is appended as a [`WalRecord::Key`] stub with generation 0 and
    /// replayed on construction ([`RouterNode::with_wal`]), so a restarted
    /// router still short-circuits it. Appends are best-effort: losing one
    /// only costs that key's short-circuit; it never fails an
    /// acknowledged ingest.
    wal: Option<Mutex<Wal>>,
    /// Key-generation state for unkeyed ingests:
    /// `ganc-{epoch:x}-{nonce:x}-{seq:x}` is unique per router instance
    /// per request, so every route of one fan-out shares one key and a
    /// retried route dedups downstream.
    key_epoch: u64,
    /// Per-instance random nonce mixed into every generated key. The
    /// epoch alone is construction time in microseconds — two router
    /// instances built in the same microsecond would emit colliding key
    /// streams, and a collision makes a WAL node answer `Deduplicated`
    /// for a *different* interaction, silently dropping an acknowledged
    /// rating. The nonce (process id + `RandomState` entropy) makes
    /// cross-instance collisions practically impossible.
    key_nonce: u64,
    key_seq: AtomicU64,
}

impl RouterNode {
    /// Build a router over `cuts.len() + 1` routes. `theta` must be the
    /// full bundle's per-user vector (every route's slice carries it, so
    /// any node can stand up a router without extra state); the router
    /// places every user once, here, and keeps only the placement.
    pub fn new(theta: Arc<Vec<f64>>, cuts: Vec<f64>, routes: Vec<ShardRoute>) -> RouterNode {
        assert_eq!(
            routes.len(),
            cuts.len() + 1,
            "k cuts require k+1 shard routes"
        );
        let key_epoch = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        let key_nonce = {
            let mut h = RandomState::new().build_hasher();
            h.write_u64(key_epoch);
            h.write_u32(std::process::id());
            h.finish()
        };
        RouterNode {
            map: BandMap::new(&theta, cuts),
            routes: routes.into(),
            obs: OnceLock::new(),
            ingest_keys: Mutex::new(DedupWindow::new(DEDUP_WINDOW)),
            wal: None,
            key_epoch,
            key_nonce,
            key_seq: AtomicU64::new(0),
        }
    }

    /// Build a router whose resend short-circuit survives restarts: fully
    /// acknowledged keys are persisted to a small WAL at `path` as
    /// generation-0 [`WalRecord::Key`] stubs and replayed here, so such a
    /// key still answers `Deduplicated` after the restart without a
    /// dispatch. Only keys are persisted: interactions are applied, and
    /// their keys remembered, by the engines behind the routes.
    pub fn with_wal(
        theta: Arc<Vec<f64>>,
        cuts: Vec<f64>,
        routes: Vec<ShardRoute>,
        path: impl AsRef<Path>,
    ) -> io::Result<RouterNode> {
        let mut node = RouterNode::new(theta, cuts, routes);
        let (wal, records, _) = Wal::open(path)?;
        let mut keys = node.ingest_keys.lock().unwrap();
        // Any other record is skipped: a stub of another generation (a
        // file written when the router also logged keys only its local
        // slices had applied) must not mark a partial fan-out as fully
        // acknowledged, and a router pointed at a node WAL by mistake must
        // not invent dedup state from its `Ingest` records.
        for rec in &records {
            if let WalRecord::Key { generation: 0, key } = rec {
                keys.observe(key);
            }
        }
        drop(keys);
        node.wal = Some(Mutex::new(wal));
        Ok(node)
    }

    /// Attach observability: per-band dispatch histograms/error counters on
    /// this router, plus engine-level metrics (band-labelled) and rolling
    /// windows on every **local** route. Remote bands report their own
    /// metrics on their own node — a router never double-counts them.
    /// One-shot; later calls are ignored.
    pub fn attach_obs(&self, hub: Arc<ObsHub>, window: Duration) {
        if self.obs.get().is_some() {
            return;
        }
        for (j, route) in self.routes.iter().enumerate() {
            match route {
                ShardRoute::Local(engine) => {
                    engine.attach_obs(Arc::clone(&hub), Some(j as u32), window);
                }
                ShardRoute::Replicas(set) => set.attach_obs(Arc::clone(&hub), j as u32),
                ShardRoute::Remote(_) => {}
            }
        }
        let _ = self.obs.set(RouterObs::new(hub, &self.routes));
    }

    /// Run one dispatch to band `j` under that band's latency histogram
    /// and error counter. Every read — single or batch, fanned out or
    /// sequential — goes through exactly this, so instrumentation cannot
    /// make the strategies diverge.
    fn timed<T>(
        &self,
        j: usize,
        dispatch: impl FnOnce() -> Result<T, BackendError>,
    ) -> Result<T, BackendError> {
        let t0 = self.dispatch_clock();
        let out = dispatch();
        self.dispatched(j, t0, out.is_err());
        out
    }

    /// When a dispatch starts, on the attached hub's clock (0 un-attached).
    fn dispatch_clock(&self) -> u64 {
        self.obs.get().map_or(0, |obs| obs.hub.now_us())
    }

    /// Record one finished dispatch to band `j` that started at `t0_us`.
    fn dispatched(&self, j: usize, t0_us: u64, failed: bool) {
        let Some(obs) = self.obs.get() else {
            return;
        };
        let band = &obs.bands[j];
        band.dispatch_us
            .observe_us(obs.hub.now_us().saturating_sub(t0_us));
        if failed {
            band.errors.inc();
        }
    }

    /// Users this router can place.
    pub fn n_users(&self) -> u32 {
        self.map.n_users()
    }

    pub(crate) fn routes(&self) -> &[ShardRoute] {
        &self.routes
    }

    /// The sequential dispatch at default options: identical splitting,
    /// folding, error selection, and skew detection, with bands visited one
    /// after another (and no band dispatched after a failure). The parallel
    /// path's response must be byte-identical to this — the equivalence
    /// `tests/router_fanout.rs` pins under injected adversarial timing —
    /// and the throughput bench uses it as the baseline the fan-out must
    /// beat.
    pub fn recommend_batch_traced_sequential(&self, users: &[UserId]) -> BatchAnswer {
        self.fold_batch(users, &RequestOptions::default(), false)
    }

    /// The one batch fold behind both dispatch strategies ([`band_batch`]);
    /// `parallel` only decides whether a non-`Local` band counts as
    /// in-process — whether a fan-out thread may be spawned — never how an
    /// answer is folded. A failed band says *which* shard of the deployment
    /// is unhealthy.
    fn fold_batch(&self, users: &[UserId], opts: &RequestOptions, parallel: bool) -> BatchAnswer {
        let in_process = |j: usize| !parallel || self.routes[j].is_local();
        let dispatch = |j: usize, sub: &[UserId]| {
            self.timed(j, || {
                self.routes[j].peer().recommend_batch_with_traced(sub, opts)
            })
        };
        match band_batch(&self.map, users, opts.theta, in_process, dispatch) {
            Ok((slots, Some(generation))) => Ok((slots, generation)),
            // Nothing dispatched (empty batch / all unknown): any route's
            // generation describes the deployment.
            Ok((slots, None)) => Ok((slots, self.routes[0].peer().generation()?)),
            Err(BandFault::Band(band, e)) => Err(BackendError::Band {
                band,
                message: e.to_string(),
            }),
            Err(BandFault::Skew(have, g)) => Err(BackendError::Transport(format!(
                "generation skew across shards: {have} vs {g}"
            ))),
        }
    }

    /// The next router-generated fan-out key: construction-time epoch
    /// micros, the per-instance random nonce, and a per-request sequence.
    /// Always ≤ 55 visible-ASCII bytes, so it passes
    /// [`ganc_serve::wal::validate_key`] everywhere downstream.
    fn next_key(&self) -> String {
        let seq = self.key_seq.fetch_add(1, Ordering::Relaxed);
        format!("ganc-{:x}-{:x}-{:x}", self.key_epoch, self.key_nonce, seq)
    }

    /// Mirror one fully acknowledged key into the key WAL, best-effort:
    /// an append failure only costs that key its short-circuit after a
    /// restart and must never fail an ingest every route already
    /// acknowledged. `append` flushes to the OS, so the record survives a
    /// process crash/restart; an ill-timed power loss costs the same.
    /// Past 4× the window capacity the log is compacted to the keys the
    /// window still remembers (evicted keys would fall out of the
    /// replayed window anyway).
    fn persist_key(&self, key: &str) {
        let Some(wal) = &self.wal else { return };
        let stub = |key: &str| WalRecord::Key {
            generation: 0,
            key: key.to_string(),
        };
        let mut wal = wal.lock().unwrap();
        let _ = wal.append(&stub(key));
        if wal.records() as usize > 4 * DEDUP_WINDOW {
            // Oldest first, so replay rebuilds eviction order. Safe to
            // lock here: observers release the window lock before calling
            // into the WAL, so no thread holds it while waiting on the WAL.
            let live: Vec<WalRecord> = self.ingest_keys.lock().unwrap().keys().map(stub).collect();
            let _ = wal.rewrite(&live);
        }
    }

    /// Per-band rolling-window summaries and their cross-band union:
    /// local slices export their window in-process, remote bands are
    /// fetched over the wire ([`PeerTransport::window_wire`]), and the
    /// aggregate folds the transportable summaries exactly like an
    /// in-process [`ganc_serve::ShardedEngine`] folds its engines —
    /// union coverage stays exact because distinct ids cross the wire.
    /// Bands that can't report (unreachable peer, replica group,
    /// observability not attached) hold `None`; the aggregate is `None`
    /// only when *no* band reported.
    pub fn window_stats(&self) -> (Vec<Option<WindowStats>>, Option<WindowStats>) {
        let wires: Vec<Option<WindowWire>> = self
            .routes
            .iter()
            .map(|route| route.peer().window_wire().ok().flatten())
            .collect();
        let (bands, union) = WindowWire::union(&wires);
        (bands, union.map(|w| w.stats()))
    }

    /// The fan-out dedup window's retention contract for `/v1/healthz`.
    /// A key evicted here is only a lost *short-circuit* — the engines
    /// behind the routes still dedup it on resend while their own windows
    /// hold it.
    pub fn dedup_stats(&self) -> DedupStats {
        self.ingest_keys.lock().unwrap().stats()
    }

    /// Bands running below full replication (some replica ejected), from
    /// tracked breaker state — no wire calls, so `/v1/healthz` stays
    /// cheap. Single-backend bands are never "degraded": they have no
    /// spare to lose.
    pub fn degraded_bands(&self) -> Vec<usize> {
        self.routes
            .iter()
            .enumerate()
            .filter_map(|(j, route)| match route.replicas() {
                Some(set) if set.healthy_len() < set.len() => Some(j),
                _ => None,
            })
            .collect()
    }

    /// Start one background health-probe loop per replicated band; the
    /// returned handles stop and join the loops on drop. Bands without
    /// replicas need no probe.
    pub fn spawn_probes(&self) -> Vec<Background> {
        self.routes
            .iter()
            .filter_map(|route| route.replicas().map(|set| set.spawn_probe()))
            .collect()
    }
}

/// A router is itself a peer: what it answers is what its bands answer, so
/// it mounts behind a server ([`crate::Frontend::Router`]) or as a band of
/// another router. The option-less `recommend_traced` /
/// `recommend_batch_traced` and the key-less `ingest` are the trait's
/// provided methods.
impl PeerTransport for RouterNode {
    fn label(&self) -> String {
        "in-process:router".to_string()
    }

    /// Answer one request from the band that serves it, local or remote:
    /// the user's home band, unless `opts` carries a θ override, which
    /// re-routes to the band *owning that θ* — any band can serve any user
    /// at any θ, because every slice shares the full train/model/θ state
    /// ([`ganc_serve::ModelBundle::slice_theta_band`]). Exclusion/rerank-only
    /// options stay on the home band.
    fn recommend_with_traced(&self, user: UserId, opts: &RequestOptions) -> SingleAnswer {
        let j = self
            .map
            .band(user, opts.theta)
            .map_err(BackendError::Serve)?;
        self.timed(j, || {
            self.routes[j].peer().recommend_with_traced(user, opts)
        })
    }

    /// Non-blocking probe for `user`'s cached default-options answer:
    /// routing is lock-free, and a band served by a local slice is probed
    /// in place. A hit is a dispatch to its band like any other and lands
    /// in that band's latency histogram; a miss records nothing. Every
    /// other band answers `None` — reaching it is (or stands for) a wire
    /// call, which is a worker's job.
    fn recommend_cached(&self, user: UserId) -> Option<(Arc<Vec<ItemId>>, u64)> {
        let j = self.map.band(user, None).ok()?;
        let route = &self.routes[j];
        if !route.is_local() {
            return None;
        }
        let t0 = self.dispatch_clock();
        let hit = route.peer().recommend_cached(user)?;
        self.dispatched(j, t0, false);
        Some(hit)
    }

    /// Split a batch across bands, dispatch every touched band's sub-batch
    /// **concurrently** (when at least one touched band is not `Local` — an
    /// all-local dispatch runs its bands in sequence, each local engine
    /// parallelizing internally), and reassemble answers in request order. Users split
    /// across their home bands; a θ override in `opts` collapses the whole
    /// batch onto the band owning that θ. Every touched route must report
    /// the same generation — nodes are refit together in a real rollout,
    /// and a skewed response here means the caller would silently mix two
    /// model versions, so skew is a hard error instead. A failed band
    /// errors the whole batch, tagged with the band index
    /// ([`BackendError::Band`]).
    fn recommend_batch_with_traced(&self, users: &[UserId], opts: &RequestOptions) -> BatchAnswer {
        self.fold_batch(users, opts, true)
    }

    /// Fan an ingested interaction to every route under one idempotency
    /// key, so the fan-out is safe to retry — popularity is global state
    /// each band replica tracks, exactly like
    /// [`ganc_serve::ShardedEngine`]'s in-process fan-out.
    ///
    /// Cross-process fan-out cannot be atomic, so this path is built to
    /// be *resent*: every route of one call — local or not — gets the
    /// same key (the client's, or a router-generated one for unkeyed
    /// requests) through the one fan-out a replica group uses too, in band
    /// order and one try each; a failed route never stops delivery to the
    /// others and the first failure is returned. An `Err` therefore means
    /// "at least one route is missing this interaction — resend with the
    /// same key": the engines that already applied it remember the key and
    /// answer [`IngestAck::Deduplicated`], so only the missing ones mutate.
    /// `Ok` is `Deduplicated` only when every route answered it.
    ///
    /// Client keys whose fan-out fully succeeded are also kept in the
    /// router's own bounded window ([`RouterNode::dedup_stats`]), so a
    /// resend of one is answered before any dispatch; a resend after a
    /// partial failure is not in it and repairs. A key evicted from an
    /// engine's window applies there again — live counters only: refit
    /// state is immune, [`ganc_serve::merge_interactions`] is
    /// last-rating-wins.
    fn ingest_keyed(
        &self,
        key: Option<&str>,
        user: UserId,
        item: ItemId,
        rating: f32,
    ) -> Result<IngestAck, BackendError> {
        self.map.band(user, None).map_err(BackendError::Serve)?;
        if let Some(k) = key {
            // The HTTP front 400s malformed keys before reaching here;
            // this guards programmatic callers, failing before any route
            // mutates — a malformed key would otherwise be refused by
            // every WAL node and wire client anyway.
            if let Err(msg) = ganc_serve::validate_key(k) {
                return Err(BackendError::Transport(format!(
                    "invalid idempotency key: {msg}"
                )));
            }
            if self.ingest_keys.lock().unwrap().resent(k) {
                return Ok(IngestAck::Deduplicated);
            }
        }
        let generated;
        let fan_key = match key {
            Some(k) => k,
            None => {
                generated = self.next_key();
                generated.as_str()
            }
        };
        let routes = self.routes.iter().map(ShardRoute::peer);
        let ack = fan_out_ingest(routes, 1, Some(fan_key), user, item, rating)?;
        if let Some(k) = key {
            self.ingest_keys.lock().unwrap().observe(k);
            self.persist_key(k);
        }
        Ok(ack)
    }

    /// The deployment's generation (route 0's view).
    fn generation(&self) -> Result<u64, BackendError> {
        self.routes[0].peer().generation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A route that must never be dispatched to — key generation is pure
    /// router-local state.
    struct NeverPeer;

    impl PeerTransport for NeverPeer {
        fn label(&self) -> String {
            "never".to_string()
        }
        fn recommend_with_traced(&self, _: UserId, _: &RequestOptions) -> SingleAnswer {
            unreachable!("key tests never dispatch")
        }
        fn recommend_batch_with_traced(&self, _: &[UserId], _: &RequestOptions) -> BatchAnswer {
            unreachable!("key tests never dispatch")
        }
        fn ingest_keyed(
            &self,
            _: Option<&str>,
            _: UserId,
            _: ItemId,
            _: f32,
        ) -> Result<IngestAck, BackendError> {
            unreachable!("key tests never dispatch")
        }
        fn generation(&self) -> Result<u64, BackendError> {
            unreachable!("key tests never dispatch")
        }
    }

    fn bare_router() -> RouterNode {
        RouterNode::new(
            Arc::new(vec![0.0]),
            Vec::new(),
            vec![ShardRoute::Remote(Arc::new(NeverPeer))],
        )
    }

    /// Generated fan-out keys must be valid idempotency keys (they cross
    /// the same ingress validation as client keys) and two routers — even
    /// ones built within the same microsecond — must emit disjoint key
    /// streams: a cross-instance collision makes a WAL node answer
    /// `Deduplicated` for a different interaction, silently dropping an
    /// acknowledged rating.
    #[test]
    fn generated_keys_are_valid_and_disjoint_across_instances() {
        let a = bare_router();
        let b = bare_router();
        let ka: Vec<String> = (0..100).map(|_| a.next_key()).collect();
        let kb: Vec<String> = (0..100).map(|_| b.next_key()).collect();
        for k in ka.iter().chain(&kb) {
            ganc_serve::validate_key(k).unwrap_or_else(|e| panic!("{k:?}: {e}"));
            assert!(k.len() <= ganc_serve::MAX_KEY_LEN);
        }
        let set: std::collections::BTreeSet<&String> = ka.iter().chain(&kb).collect();
        assert_eq!(set.len(), 200, "same-process instances must not collide");
        // Both nonces differ even though the two epochs almost certainly
        // matched (same-microsecond construction is the review scenario).
        assert_ne!(a.key_nonce, b.key_nonce);
    }
}
