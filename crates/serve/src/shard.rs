//! θ-band sharded serving: partition users by their long-tail preference
//! so each shard holds only the coverage-snapshot sub-range its band needs,
//! with a router dispatching single requests and splitting batches.
//!
//! The paper assigns every user a θ on the accuracy/coverage trade-off
//! curve, and a user's request only ever reads the frequency snapshot
//! nearest their θ — so the snapshot store shards *cleanly* along θ:
//! [`ganc_core::coverage::CoverageSnapshots::slice_band`] gives each band
//! the sub-range any of its θs can resolve to, and resolution through the
//! slice is provably identical to resolution through the full store. That
//! turns multi-node deployment into a routing problem: a node loads one
//! [`ModelBundle::slice_theta_band`] artifact and serves its band, nothing
//! else.
//!
//! [`ShardedEngine`] runs the same topology in-process: one
//! [`ServingEngine`] per band over a sliced bundle, built once and living
//! as long as its band; an outer `RwLock` under which a refit swaps each
//! band's next slice into the band's engine through the one install body
//! [`ServingEngine::swap_bundle`] also uses, so a hot-swap is atomic
//! across *all* shards and a band's counters and window simply outlive it
//! (the refit pass, [`ShardedEngine::refit_once`], lives here beside the
//! refit log it drains; [`crate::refit`] holds the merge, cadence and
//! controller); and an ingest path that fans each interaction to every
//! shard — popularity is global state every replica tracks, while the
//! ingesting user's candidate exclusion only matters on the shard that
//! serves them. Output is byte-identical to an unsharded engine by
//! construction, which `tests/deployment_oracle.rs` checks through ingests,
//! resends and refits.
//! So is the keyed half: a resend dedups in the engine's one window, with
//! or without a WAL — the window outlives refit swaps, and a durable
//! engine re-arms it from the keys its WAL replays.
//!
//! Placement, batch splitting and the cross-band fold are the router's
//! too, so they live in [`crate::band`]: each generation holds one
//! [`BandMap`] and a batch goes through [`band_batch`]. Every band here is
//! in-process, so a batch's bands are served **in sequence**: each band
//! engine already spreads its sub-batch over `EngineConfig::threads`
//! workers, and a thread per band on top only oversubscribed the box.
//! Concurrency across bands pays only across the wire, where a band is a
//! round-trip away (the router's remote bands).

use crate::band::{band_batch, BandMap};
use crate::bundle::ModelBundle;
use crate::engine::{
    DedupStats, DedupWindow, EngineBatch, EngineConfig, EngineStats, IngestAck, ServeError,
    ServingEngine, DEDUP_WINDOW,
};
use crate::obs::catalog_profile;
use crate::refit::{merge_interactions, RefitOutcome, Refitter};
use crate::saveload::{PersistError, SaveLoad};
use crate::wal::{DurableConfig, DurableLog, Recovered, WalReplaySummary, WalStats};
use ganc_core::query::{band_bounds, cut_theta_bands, RequestOptions};
use ganc_core::FitConfig;
use ganc_dataset::{ItemId, UserId};
use ganc_obs::{Counter, ObsHub, TraceData, WindowStats, WindowWire};
use std::convert::Infallible;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Duration;

/// How the θ axis is cut into bands.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardPlan {
    /// `S` bands of (approximately) equal user population, cut at θ
    /// quantiles ([`cut_theta_bands`]). Rebalancing after a refit re-cuts
    /// against the refitted θ estimates.
    Quantile(usize),
    /// Explicit ascending cut points (possibly uneven); `k` cuts make
    /// `k + 1` bands. Kept verbatim across refits.
    Explicit(Vec<f64>),
}

impl ShardPlan {
    /// Resolve the plan into concrete cut points for a θ population.
    pub fn cuts(&self, theta: &[f64]) -> Vec<f64> {
        match self {
            ShardPlan::Quantile(shards) => cut_theta_bands(theta, *shards),
            ShardPlan::Explicit(cuts) => {
                assert!(
                    cuts.windows(2).all(|w| w[0] <= w[1]),
                    "explicit cuts must be ascending"
                );
                cuts.clone()
            }
        }
    }
}

/// Sharded-engine construction knobs.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// θ-band layout.
    pub plan: ShardPlan,
    /// Per-shard engine tuning.
    pub engine: EngineConfig,
}

impl ShardConfig {
    /// `shards` equal-population bands with default engine tuning.
    pub fn quantile(shards: usize) -> ShardConfig {
        ShardConfig {
            plan: ShardPlan::Quantile(shards),
            engine: EngineConfig::default(),
        }
    }
}

/// Static description of one shard, fixed per generation.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardInfo {
    /// Band lower bound (−∞ for the first shard).
    pub theta_lo: f64,
    /// Band upper bound, exclusive (+∞ for the last shard).
    pub theta_hi: f64,
    /// Users routed to this shard.
    pub users: usize,
    /// Snapshots the shard's coverage sub-range holds (0 for Rand/Stat).
    pub snapshots: usize,
    /// Serialized bytes of the shard's coverage state — the per-shard
    /// memory that is `O(band)` instead of `O(S·|I|)`.
    pub coverage_bytes: usize,
}

/// The shard topology. A refit replaces its generation under the outer
/// write lock: each band's slice goes into the band's engine, and the map,
/// layout and baseline are replaced beside it.
struct ShardSet {
    /// One engine per band, built by [`ShardedEngine::new`] and living as
    /// long as its band (so do its counters and window): every refit swaps
    /// the band's next slice into it, keeping it at this set's generation.
    engines: Vec<ServingEngine>,
    info: Vec<ShardInfo>,
    /// Where each user is served this generation: their home band under
    /// the cuts, and the band that owns an overriding θ.
    map: BandMap,
    /// The unsliced bundle this generation was built from — the baseline
    /// the next refit merges ingested interactions into. Shared (`Arc`)
    /// with the [`crate::refit::RefitOutcome`] that installed it, so
    /// installing never deep-copies the bundle.
    bundle: Arc<ModelBundle>,
    generation: u64,
}

/// One generation's placement of `bundle` under `plan`, and each band's
/// slice and layout, in band order.
fn slice_bands(
    bundle: &ModelBundle,
    plan: &ShardPlan,
) -> (BandMap, Vec<ModelBundle>, Vec<ShardInfo>) {
    let map = BandMap::new(&bundle.theta, plan.cuts(&bundle.theta));
    let mut slices = Vec::with_capacity(map.bands());
    let mut info = Vec::with_capacity(map.bands());
    for j in 0..map.bands() {
        let (lo, hi) = band_bounds(map.cuts(), j);
        let sliced = bundle.slice_theta_band(lo, hi);
        let snapshots = match &sliced.coverage {
            crate::bundle::CoverageState::Dynamic(s) => s.len(),
            _ => 0,
        };
        let coverage_bytes = bincode::serialize(&sliced.coverage)
            .map(|b| b.len())
            .unwrap_or(0);
        info.push(ShardInfo {
            theta_lo: lo,
            theta_hi: hi,
            users: map.users(j),
            snapshots,
            coverage_bytes,
        });
        slices.push(sliced);
    }
    (map, slices, info)
}

impl ShardSet {
    /// Refuse an interaction outside this generation's id space.
    fn check(&self, user: UserId, item: ItemId) -> Result<(), ServeError> {
        if user.idx() >= self.bundle.n_users() as usize {
            return Err(ServeError::UnknownUser(user));
        }
        if item.idx() >= self.bundle.n_items() as usize {
            return Err(ServeError::UnknownItem(item));
        }
        Ok(())
    }

    /// Apply acknowledged ingests to every shard, in order — a fresh one,
    /// a WAL's recovered records, or (`counted`: false) the ingests a
    /// refit's fit did not see, which the bands counted when they arrived —
    /// all or nothing: an id outside this generation refuses the lot
    /// before any shard moves. The popularity bump is global state all
    /// replicas must track; the candidate exclusion only matters on the
    /// owner shard but is consistent everywhere.
    fn apply(&self, ingests: &[(UserId, ItemId, f32)], counted: bool) -> Result<(), ServeError> {
        for &(u, i, _) in ingests {
            self.check(u, i)?;
        }
        for &(u, i, r) in ingests {
            for engine in &self.engines {
                if counted {
                    engine.ingest(u, i, r)?;
                } else {
                    engine.replay(u, i);
                }
            }
        }
        Ok(())
    }
}

/// A θ-band sharded serving engine: byte-identical output to a single
/// [`ServingEngine`] over the same bundle, with per-band coverage state.
pub struct ShardedEngine {
    /// Shared with the `ganc_shard_generation` series, which reads it.
    set: Arc<RwLock<ShardSet>>,
    /// Interactions ingested since the current baseline bundle was fitted,
    /// in arrival order: the refit pass's input, and on a durable engine
    /// the only list of acknowledged ingests no persisted artifact holds.
    /// Shared with the `ganc_refit_pending_ingests` series.
    ingest_log: Arc<Mutex<Vec<(UserId, ItemId, f32)>>>,
    /// Persist lock: one refit pass at a time saves its artifact and
    /// compacts the WAL ([`ShardedEngine::persist_refit`]).
    persist: Mutex<()>,
    plan: ShardPlan,
    /// Optional observability ([`ShardedEngine::attach_obs`]): the hub and
    /// the refit lifecycle counters.
    obs: OnceLock<ShardObs>,
    /// Idempotency keys of the keyed ingests this engine applied, across
    /// refit swaps; re-armed from the WAL's keys by
    /// [`ShardedEngine::attach_durable`]. An ingest locks it under the
    /// shard-set write lock, and only when keyed. Shared with the
    /// `ganc_wal_dedup_hits_total` series, which reads its hit count.
    keys: Arc<Mutex<DedupWindow>>,
    /// Optional durability ([`ShardedEngine::attach_durable`]): the WAL
    /// every acknowledged ingest goes through. Set only under the
    /// shard-set write lock.
    durable: OnceLock<DurableLog>,
}

const REFIT_SWAPPED_HELP: &str = "Refit passes that installed a new generation";
const REFIT_RACED_HELP: &str = "Refit passes discarded after losing the install race";

/// Shard-level observability state: the hub and the refit lifecycle
/// counters, which nothing else counts.
struct ShardObs {
    hub: Arc<ObsHub>,
    refit_started: Arc<Counter>,
    refit_swapped: Arc<Counter>,
    refit_raced: Arc<Counter>,
}

impl ShardObs {
    fn new(hub: Arc<ObsHub>) -> ShardObs {
        let counter = |name, help| hub.metrics.counter(name, help, &[]);
        ShardObs {
            refit_started: counter("ganc_refit_started_total", "Refit passes started"),
            refit_swapped: counter("ganc_refit_swapped_total", REFIT_SWAPPED_HELP),
            refit_raced: counter("ganc_refit_raced_total", REFIT_RACED_HELP),
            hub,
        }
    }

    fn trace(&self, data: TraceData) {
        self.hub.trace.record(self.hub.now_us(), data);
    }
}

// Lock discipline: outer `set` lock before `ingest_log` or `keys`, and
// outer before any inner engine lock. Requests hold the outer read side;
// ingests and refit swaps take the outer write side — an ingest mutates
// *every* shard, and holding the write lock is what keeps a multi-shard
// batch from observing some shards pre-ingest and others post-ingest (the
// same batch atomicity the unsharded engine gets from its single state
// lock). An ingest holds it from key check to refit-log push, so a WAL
// compaction — persist lock, then `set` read, then `ingest_log` and
// `keys`, then the WAL's own mutex — sees every appended ingest and key in
// the log and window it rewrites from.
impl ShardedEngine {
    /// Shard a fitted bundle and start serving.
    pub fn new(bundle: ModelBundle, cfg: ShardConfig) -> ShardedEngine {
        let popularity = bundle.train.item_popularity();
        let (map, slices, info) = slice_bands(&bundle, &cfg.plan);
        let engines = slices
            .into_iter()
            .map(|s| ServingEngine::with_popularity(s, cfg.engine, popularity.clone()))
            .collect();
        let set = ShardSet {
            engines,
            info,
            map,
            bundle: Arc::new(bundle),
            generation: 0,
        };
        ShardedEngine {
            set: Arc::new(RwLock::new(set)),
            ingest_log: Arc::default(),
            persist: Mutex::new(()),
            plan: cfg.plan,
            obs: OnceLock::new(),
            keys: Arc::new(Mutex::new(DedupWindow::new(DEDUP_WINDOW))),
            durable: OnceLock::new(),
        }
    }

    /// Attach observability: per-band metric series and rolling windows on
    /// the band engines (which outlive the refits that follow), the
    /// pending-ingest and generation series, plus refit lifecycle counters
    /// and trace events on `hub`. One-shot; a second attach is a no-op.
    pub fn attach_obs(&self, hub: Arc<ObsHub>, window: Duration) {
        if self.obs.set(ShardObs::new(Arc::clone(&hub))).is_err() {
            return;
        }
        let set = self.set.read().unwrap();
        let train = &set.bundle.train;
        let catalog = catalog_profile(&train.item_popularity(), train.n_users());
        for (j, engine) in set.engines.iter().enumerate() {
            let catalog = Arc::clone(&catalog);
            engine.attach_obs_over(Arc::clone(&hub), Some(j as u32), window, catalog);
        }
        drop(set);
        // The generation is read weakly: the set's engines hold the hub.
        let m = &hub.metrics;
        let help = "Ingest-log entries awaiting the next refit";
        let log = Arc::clone(&self.ingest_log);
        let pending = move || log.lock().unwrap().len() as f64;
        m.read_gauge("ganc_refit_pending_ingests", help, &[], pending);
        let help = "Shard-set generation currently served";
        let set = Arc::downgrade(&self.set);
        let generation = move || {
            set.upgrade()
                .map_or(0.0, |s| s.read().unwrap().generation as f64)
        };
        m.read_gauge("ganc_shard_generation", help, &[], generation);
        self.attach_wal_obs();
    }

    /// Register the `ganc_wal_*` series once both observability and a
    /// durable log are attached — either attach order works, whichever
    /// arrives second calls through. The log registers its own; the
    /// dedup-hit count is this engine's window's.
    fn attach_wal_obs(&self) {
        if let (Some(obs), Some(durable)) = (self.obs.get(), self.durable.get()) {
            if durable.attach_obs(Arc::clone(&obs.hub)) {
                let help = "Keyed ingests answered from the dedup window";
                let keys = Arc::clone(&self.keys);
                let hits = move || keys.lock().unwrap().stats().hits;
                let m = &obs.hub.metrics;
                m.read_counter("ganc_wal_dedup_hits_total", help, &[], hits);
            }
        }
    }

    /// Attach a write-ahead log: open (or create) the WAL at `cfg.path`,
    /// replay whatever survives through the normal ingest path, re-arm the
    /// dedup window (`cfg.dedup_window` keys) from the replayed keys, and
    /// route every subsequent ingest through the log before
    /// acknowledgement. One-shot; must happen before serving starts: a
    /// second attach is refused before it opens anything. Returns what the
    /// startup replay recovered.
    ///
    /// Fails with `InvalidData` if a recovered interaction is outside the
    /// bundle's id space — a WAL paired with the wrong artifact is a
    /// deployment error worth refusing loudly, not a reason to silently
    /// drop acknowledged ratings.
    pub fn attach_durable(&self, cfg: DurableConfig) -> std::io::Result<WalReplaySummary> {
        #[allow(clippy::readonly_write_lock)]
        let set = self.set.write().unwrap();
        if self.durable.get().is_some() {
            return Err(std::io::Error::other("durable log already attached"));
        }
        let mut keys = DedupWindow::new(cfg.dedup_window);
        let (log, recovered) = DurableLog::open(cfg)?;
        let interactions = &recovered.interactions;
        // Recovered interactions re-enter the refit log and the shards
        // like an ingest, but are not re-appended: they are in the WAL.
        set.apply(interactions, true).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("WAL record outside the artifact's id space: {e}"),
            )
        })?;
        self.ingest_log.lock().unwrap().extend(interactions);
        for key in &recovered.keys {
            keys.observe(key);
        }
        *self.keys.lock().unwrap() = keys;
        let summary = log.replay_summary();
        let _ = self.durable.set(log);
        self.attach_wal_obs();
        Ok(summary)
    }

    /// WAL counters and sizes, when a durable log is attached.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.durable.get().map(|d| d.stats())
    }

    /// The dedup window's retention contract and hit count.
    pub fn dedup_stats(&self) -> DedupStats {
        self.keys.lock().unwrap().stats()
    }

    /// Per-band rolling-window metrics plus their cross-band aggregate
    /// (coverage over the **union** of served items, [`WindowWire::union`]);
    /// every entry is `None` until observability is attached.
    pub fn window_stats(&self) -> (Vec<Option<WindowStats>>, Option<WindowStats>) {
        let (bands, union) = WindowWire::union(&self.band_windows());
        (bands, union.map(|w| w.stats()))
    }

    /// The cross-band aggregate window as one transportable summary,
    /// when observability is attached — a sharded node answers a
    /// router's window fetch with its bands already unioned.
    pub fn window_wire(&self) -> Option<WindowWire> {
        WindowWire::union(&self.band_windows()).1
    }

    fn band_windows(&self) -> Vec<Option<WindowWire>> {
        let set = self.set.read().unwrap();
        set.engines.iter().map(ServingEngine::window_wire).collect()
    }

    /// Answer one user's top-N request from their θ band's shard.
    pub fn recommend(&self, user: UserId) -> Result<Arc<Vec<ItemId>>, ServeError> {
        self.recommend_traced(user).map(|(list, _)| list)
    }

    /// [`ShardedEngine::recommend_with_traced`] at default options.
    pub fn recommend_traced(&self, user: UserId) -> Result<(Arc<Vec<ItemId>>, u64), ServeError> {
        self.recommend_with_traced(user, &RequestOptions::default())
    }

    /// Answer one request, reporting the shard-set generation it was served
    /// from. The band serves it under the same outer lock hold, and a band
    /// engine takes each generation under the outer write lock, so the pair
    /// is exact — a concurrent refit swap can never tear it.
    ///
    /// The user's home band serves the request unless `opts` carries a θ
    /// override, which the generation's [`BandMap`] routes to the band that
    /// **owns** that θ — the only band whose coverage sub-range can resolve
    /// it. What `opts` means beyond routing is the owning
    /// [`ServingEngine`]'s decision.
    pub fn recommend_with_traced(
        &self,
        user: UserId,
        opts: &RequestOptions,
    ) -> Result<(Arc<Vec<ItemId>>, u64), ServeError> {
        let set = self.set.read().unwrap();
        set.engines[set.map.band(user, opts.theta)?].recommend_with_traced(user, opts)
    }

    /// Non-blocking probe for `user`'s cached default-options response on
    /// their home band ([`ServingEngine::recommend_cached`]), reporting the
    /// shard-set generation like the blocking path. `None` means "ask
    /// [`ShardedEngine::recommend_with_traced`]": besides an uncached or
    /// unknown user, the outer lock is write-held (or awaited) right now —
    /// an ingest holds it across its WAL append, which may `fsync`, so a
    /// caller that must not wait never queues behind it.
    pub fn recommend_cached(&self, user: UserId) -> Option<(Arc<Vec<ItemId>>, u64)> {
        let set = self.set.try_read().ok()?;
        set.engines[set.map.band(user, None).ok()?].recommend_cached(user)
    }

    /// [`ShardedEngine::recommend_batch_with_traced`] at default options.
    pub fn recommend_batch_traced(&self, users: &[UserId]) -> EngineBatch {
        self.recommend_batch_with_traced(users, &RequestOptions::default())
    }

    /// Batch counterpart of [`ShardedEngine::recommend_with_traced`], also
    /// reporting the single generation the batch was served from: users
    /// split per home band, except that a θ override sends the whole batch
    /// to the band that owns that θ ([`band_batch`], every band
    /// in-process, so served in sequence).
    pub fn recommend_batch_with_traced(
        &self,
        users: &[UserId],
        opts: &RequestOptions,
    ) -> EngineBatch {
        let set = self.set.read().unwrap();
        let serve = |j: usize, sub: &[UserId]| {
            Ok::<_, Infallible>(set.engines[j].recommend_batch_with_traced(sub, opts))
        };
        let (slots, generation) = band_batch(&set.map, users, opts.theta, |_| true, serve)
            .expect("every band of a shard set serves its generation");
        (slots, generation.unwrap_or(set.generation))
    }

    /// Ingest one observed interaction: recorded in the refit log and
    /// fanned out to every shard (each replica tracks global popularity;
    /// the user's candidate exclusion lands on their own shard too).
    ///
    /// Takes the outer write lock — the ingest mutates all shards, and
    /// requests (which hold the read side) must observe either none or all
    /// of it, never a half-applied fan-out mid-batch.
    pub fn ingest(&self, user: UserId, item: ItemId, rating: f32) -> Result<(), ServeError> {
        self.ingest_keyed(None, user, item, rating).map(|_| ())
    }

    /// Like [`ShardedEngine::ingest`], with an optional idempotency key: a
    /// key this engine applied among the last [`DEDUP_WINDOW`] keyed
    /// ingests (`DurableConfig::dedup_window` on a durable engine) answers
    /// [`IngestAck::Deduplicated`] and changes nothing — no WAL record,
    /// pool, popularity count, cache entry or counter. Otherwise, on a
    /// durable engine, the interaction hits the WAL before anything else
    /// (and before the caller is acknowledged). Ids are checked first and
    /// a key is remembered only once its WAL append succeeded, so a
    /// rejected ingest never consumes its key.
    // The guard is never written *through* (shard mutation goes via the
    // inner engines' own locks); the write side is held purely for its
    // exclusion against in-flight batches.
    #[allow(clippy::readonly_write_lock)]
    pub fn ingest_keyed(
        &self,
        key: Option<&str>,
        user: UserId,
        item: ItemId,
        rating: f32,
    ) -> Result<IngestAck, ServeError> {
        let set = self.set.write().unwrap();
        // Validate against the baseline bundle before touching anything so
        // a rejected ingest leaves neither the WAL, the log, nor any shard
        // modified.
        set.check(user, item)?;
        let mut keys = key.map(|k| (k, self.keys.lock().unwrap()));
        if keys.as_mut().is_some_and(|(k, keys)| keys.resent(k)) {
            return Ok(IngestAck::Deduplicated);
        }
        // WAL first (still under the outer write lock, so WAL order, log
        // order, and shard application order all agree), then the refit
        // log, then the shards: a refit swap can never observe the shards
        // ahead of the log, and a crash after the WAL append replays an
        // interaction the client may not have seen acknowledged — which
        // the oracle tolerates because applying it is what the client
        // retry would have done anyway.
        if let Some(durable) = self.durable.get() {
            durable
                .append(key, set.generation, user, item, rating)
                .map_err(|_| ServeError::Durability)?;
        }
        if let Some((k, mut keys)) = keys {
            keys.observe(k);
        }
        self.ingest_log.lock().unwrap().push((user, item, rating));
        set.apply(&[(user, item, rating)], true)?;
        Ok(IngestAck::Applied)
    }

    /// Drop every shard's cached responses.
    pub fn flush_cache(&self) {
        let set = self.set.read().unwrap();
        for engine in &set.engines {
            engine.flush_cache();
        }
    }

    /// The current shard-set generation (0 until the first refit swap).
    pub fn generation(&self) -> u64 {
        self.set.read().unwrap().generation
    }

    /// Static per-shard layout of the current generation.
    pub fn shard_info(&self) -> Vec<ShardInfo> {
        self.set.read().unwrap().info.clone()
    }

    /// Aggregate counters across all bands: a band's counters outlive the
    /// refits that swap its slices.
    pub fn stats(&self) -> EngineStats {
        let set = self.set.read().unwrap();
        let mut total = EngineStats::default();
        for engine in &set.engines {
            let s = engine.stats();
            total.cache_hits += s.cache_hits;
            total.cache_misses += s.cache_misses;
            total.ingested += s.ingested;
            total.invalidated += s.invalidated;
            total.cached += s.cached;
        }
        total
    }

    /// List size `N` this engine serves.
    pub fn n(&self) -> usize {
        self.set.read().unwrap().bundle.n
    }

    /// Number of users the current bundle covers.
    pub fn n_users(&self) -> u32 {
        self.set.read().unwrap().bundle.n_users()
    }

    /// Interactions ingested since the current baseline bundle was fitted.
    pub fn pending_ingests(&self) -> usize {
        self.ingest_log.lock().unwrap().len()
    }

    /// The current baseline bundle (the refit merge base), shared.
    pub fn baseline_bundle(&self) -> Arc<ModelBundle> {
        Arc::clone(&self.set.read().unwrap().bundle)
    }

    /// Write one [`ModelBundle::slice_theta_band`] artifact per shard of
    /// the current generation next to `base` (see [`shard_artifact_path`])
    /// — the deployment unit a multi-node rollout distributes. Returns the
    /// written paths in shard order.
    pub fn save_shard_artifacts(
        &self,
        base: impl AsRef<Path>,
    ) -> Result<Vec<PathBuf>, PersistError> {
        let set = self.set.read().unwrap();
        save_shard_artifacts(&set.bundle, set.map.cuts(), base)
    }

    /// Run one complete refit pass synchronously: snapshot, fit on
    /// train + ingested ([`merge_interactions`]), rebalance θ bands,
    /// hot-swap, and on a durable engine persist-then-compact. Serving
    /// continues on the old generation for the whole fit; only the final
    /// install takes the write lock.
    pub fn refit_once(&self, fitter: &Refitter, cfg: &FitConfig) -> RefitOutcome {
        let (generation, baseline, log) = self.refit_snapshot();
        let obs = self.obs.get();
        if let Some(obs) = obs {
            let pending = log.len() as u64;
            obs.refit_started.inc();
            obs.trace(TraceData::RefitStarted {
                generation,
                pending,
            });
        }
        let train = merge_interactions(&baseline.train, &log);
        let (model, theta) = fitter(&train);
        let bundle = Arc::new(ModelBundle::fit(model, theta, train, cfg));
        let Some(generation) = self.install_refit(generation, Arc::clone(&bundle), log.len())
        else {
            if let Some(obs) = obs {
                obs.refit_raced.inc();
                obs.trace(TraceData::RefitRaced { generation });
            }
            return RefitOutcome::Raced;
        };
        if let Some(obs) = obs {
            obs.refit_swapped.inc();
            obs.trace(TraceData::RefitSwapped { generation });
        }
        self.persist_refit(generation, &bundle);
        RefitOutcome::Swapped { generation, bundle }
    }

    /// The refit pass's first step: the current generation, the shared
    /// baseline bundle, and a snapshot of the ingest log.
    pub(crate) fn refit_snapshot(&self) -> (u64, Arc<ModelBundle>, Vec<(UserId, ItemId, f32)>) {
        let set = self.set.read().unwrap();
        let log = self.ingest_log.lock().unwrap();
        (set.generation, Arc::clone(&set.bundle), log.clone())
    }

    /// The refit pass's install step: atomically install a refitted
    /// bundle. `consumed` is how many log entries the refit merged; the
    /// remainder (ingests that raced the background fit) is replayed onto
    /// the new generation before the write lock drops. Returns the new
    /// generation, or `None` if `expected_generation` no longer matches (a
    /// competing swap won).
    pub(crate) fn install_refit(
        &self,
        expected_generation: u64,
        bundle: Arc<ModelBundle>,
        consumed: usize,
    ) -> Option<u64> {
        // Placement, slicing, the band layout, and the generation's one
        // popularity count and catalog profile (for every band) are built
        // outside the write lock, while the old generation keeps serving.
        let popularity = bundle.train.item_popularity();
        let n_users = bundle.train.n_users();
        let profile = || catalog_profile(&popularity, n_users);
        let catalog = self.obs.get().map(|_| profile());
        let (map, slices, info) = slice_bands(&bundle, &self.plan);
        let mut set = self.set.write().unwrap();
        if set.generation != expected_generation {
            return None;
        }
        // Observability that attached while the fit ran gets its profile
        // here: the bands cannot attach until the write lock drops.
        let catalog = catalog.or_else(|| self.obs.get().map(|_| profile()));
        assert_eq!(
            slices.len(),
            set.engines.len(),
            "a plan's band count is fixed"
        );
        for (engine, slice) in set.engines.iter().zip(slices) {
            engine.install(slice, popularity.clone(), catalog.clone());
        }
        set.generation = expected_generation + 1;
        set.map = map;
        set.info = info;
        set.bundle = bundle;
        let mut log = self.ingest_log.lock().unwrap();
        let consumed = consumed.min(log.len());
        log.drain(..consumed);
        // Replay ingests that arrived while the fit ran, so the swap loses
        // nothing: they stay in the log for the *next* refit and are live
        // in the new generation immediately. The refitted bundle spans the
        // same id space, so entries the old generation accepted replay.
        set.apply(&log, false)
            .expect("refit bundle must cover previously accepted ids");
        Some(set.generation)
    }

    /// The refit pass's persist step for the pass that installed
    /// `generation`: save its bundle as the artifact, then compact the WAL
    /// to the dedup window's keys and the refit log's survivors. One pass
    /// at a time (the persist lock), and only while `generation` is
    /// installed: an overtaken pass must neither land its older artifact
    /// over a newer one nor rewrite the WAL from a newer generation's log.
    /// Without an artifact path the WAL is the consumed ingests' only
    /// durable copy and stays whole. A failure only delays compaction; what
    /// the WAL still holds replays harmlessly (the merge is
    /// last-rating-wins).
    pub(crate) fn persist_refit(&self, generation: u64, bundle: &ModelBundle) {
        let durable = self.durable.get();
        let Some((durable, path)) = durable.and_then(|d| Some((d, d.artifact_path()?))) else {
            return;
        };
        let _persist = self.persist.lock().unwrap();
        if self.generation() != generation || bundle.save(path).is_err() {
            return;
        }
        // Under the read lock no ingest lands between reading the keys and
        // survivors and rewriting the file.
        let set = self.set.read().unwrap();
        if set.generation == generation {
            let keep = Recovered {
                interactions: self.ingest_log.lock().unwrap().clone(),
                keys: self.keys.lock().unwrap().keys().map(String::from).collect(),
            };
            let _ = durable.truncate(keep, generation);
        }
    }
}

/// The per-shard artifact path next to a base artifact path:
/// `bundle.ganc` → `bundle.shard3.ganc` for shard 3.
pub fn shard_artifact_path(base: impl AsRef<Path>, shard: usize) -> PathBuf {
    let base = base.as_ref();
    let stem = base
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("bundle");
    let ext = base.extension().and_then(|s| s.to_str()).unwrap_or("ganc");
    base.with_file_name(format!("{stem}.shard{shard}.{ext}"))
}

/// Slice `bundle` into `cuts.len() + 1` θ-band artifacts and save each —
/// the deployment path for multi-node serving: every node loads exactly one
/// slice and serves its band. Returns the written paths in shard order.
pub fn save_shard_artifacts(
    bundle: &ModelBundle,
    cuts: &[f64],
    base: impl AsRef<Path>,
) -> Result<Vec<PathBuf>, PersistError> {
    let mut paths = Vec::with_capacity(cuts.len() + 1);
    for j in 0..=cuts.len() {
        let (lo, hi) = band_bounds(cuts, j);
        let path = shard_artifact_path(&base, j);
        bundle.slice_theta_band(lo, hi).save(&path)?;
        paths.push(path);
    }
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::FittedModel;
    use ganc_core::coverage::CoverageKind;
    use ganc_core::FitConfig;
    use ganc_dataset::synth::DatasetProfile;
    use ganc_preference::GeneralizedConfig;
    use ganc_recommender::pop::MostPopular;

    fn bundle(kind: CoverageKind) -> ModelBundle {
        let data = DatasetProfile::tiny().generate(5);
        let split = data.split_per_user(0.5, 2).unwrap();
        let theta = GeneralizedConfig::default().estimate(&split.train);
        let pop = MostPopular::fit(&split.train);
        let cfg = FitConfig {
            coverage: kind,
            sample_size: 12,
            ..FitConfig::new(5)
        };
        ModelBundle::fit(FittedModel::Pop(pop), theta, split.train, &cfg)
    }

    #[test]
    fn sharded_matches_unsharded_for_every_user() {
        for kind in [
            CoverageKind::Random,
            CoverageKind::Static,
            CoverageKind::Dynamic,
        ] {
            let b = bundle(kind);
            let single = ServingEngine::new(b.clone(), EngineConfig::default());
            let sharded = ShardedEngine::new(b, ShardConfig::quantile(3));
            for u in 0..sharded.n_users() {
                assert_eq!(
                    sharded.recommend(UserId(u)).unwrap(),
                    single.recommend(UserId(u)).unwrap(),
                    "{kind:?} user {u}"
                );
            }
        }
    }

    #[test]
    fn every_band_of_a_generation_shares_one_catalog_profile() {
        let b = bundle(CoverageKind::Dynamic);
        let sharded = ShardedEngine::new(b, ShardConfig::quantile(3));
        sharded.attach_obs(ObsHub::new(), Duration::from_secs(60));
        let profiles = || -> Vec<_> {
            let set = sharded.set.read().unwrap();
            set.engines.iter().map(|e| e.catalog().unwrap()).collect()
        };
        let attached = profiles();
        assert_eq!(attached.len(), 3);
        assert!(attached.iter().all(|p| Arc::ptr_eq(p, &attached[0])));

        let u = UserId(0);
        sharded
            .ingest(u, sharded.recommend(u).unwrap()[0], 5.0)
            .unwrap();
        let fitter = |train: &ganc_dataset::Interactions| {
            let theta = GeneralizedConfig::default().estimate(train);
            (FittedModel::Pop(MostPopular::fit(train)), theta)
        };
        let cfg = FitConfig {
            coverage: CoverageKind::Dynamic,
            sample_size: 12,
            ..FitConfig::new(5)
        };
        let outcome = sharded.refit_once(&fitter, &cfg);
        assert!(matches!(
            outcome,
            RefitOutcome::Swapped { generation: 1, .. }
        ));
        let refitted = profiles();
        assert!(refitted.iter().all(|p| Arc::ptr_eq(p, &refitted[0])));
        assert!(
            !Arc::ptr_eq(&refitted[0], &attached[0]),
            "one per generation"
        );
    }

    #[test]
    fn recommend_cached_never_waits_behind_the_shard_set_write_lock() {
        let sharded = ShardedEngine::new(bundle(CoverageKind::Dynamic), ShardConfig::quantile(3));
        let u = UserId(1);
        assert_eq!(sharded.recommend_cached(u), None, "nothing cached yet");
        assert_eq!(
            sharded.recommend_cached(UserId(sharded.n_users() + 3)),
            None,
            "an unknown user is the blocking path's error to report"
        );
        let served = sharded.recommend_traced(u).unwrap();
        // A writer (an ingest mid-WAL-append) holds the outer lock: the
        // probe must return at once. Were it to wait, the holder (released
        // only after the probe returns) would never let go.
        let (locked_tx, locked_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|scope| {
            let sharded = &sharded;
            scope.spawn(move || {
                let _guard = sharded.set.write().unwrap();
                locked_tx.send(()).unwrap();
                release_rx.recv().unwrap();
            });
            locked_rx.recv().unwrap();
            assert_eq!(sharded.recommend_cached(u), None);
            release_tx.send(()).unwrap();
        });
        assert_eq!(sharded.recommend_cached(u), Some(served));
        let s = sharded.stats();
        assert_eq!((s.cache_hits, s.cache_misses), (1, 1));
    }

    #[test]
    fn batch_split_preserves_order_and_errors() {
        let b = bundle(CoverageKind::Dynamic);
        let sharded = ShardedEngine::new(b, ShardConfig::quantile(4));
        let n = sharded.n_users();
        let bad = UserId(n + 3);
        let users = vec![UserId(2), bad, UserId(0), UserId(1), UserId(2)];
        let (answers, generation) = sharded.recommend_batch_traced(&users);
        assert_eq!(generation, 0);
        assert_eq!(answers[1], Err(ServeError::UnknownUser(bad)));
        for (k, u) in users.iter().enumerate() {
            if k == 1 {
                continue;
            }
            assert_eq!(
                answers[k].as_ref().unwrap(),
                &sharded.recommend(*u).unwrap(),
                "slot {k}"
            );
        }
    }

    #[test]
    fn ingest_fans_out_and_logs() {
        let b = bundle(CoverageKind::Static);
        let single = ServingEngine::new(b.clone(), EngineConfig::default());
        let sharded = ShardedEngine::new(b, ShardConfig::quantile(3));
        let u = UserId(1);
        let before = sharded.recommend(u).unwrap();
        let consumed = before[0];
        sharded.ingest(u, consumed, 5.0).unwrap();
        single.ingest(u, consumed, 5.0).unwrap();
        assert_eq!(sharded.pending_ingests(), 1);
        for q in 0..sharded.n_users() {
            assert_eq!(
                sharded.recommend(UserId(q)).unwrap(),
                single.recommend(UserId(q)).unwrap(),
                "user {q} diverges after ingest"
            );
        }
        let bad = UserId(sharded.n_users() + 1);
        assert_eq!(
            sharded.ingest(bad, ItemId(0), 3.0),
            Err(ServeError::UnknownUser(bad))
        );
        assert_eq!(sharded.pending_ingests(), 1, "rejected ingest not logged");
    }

    /// `engine::tests::keyed_resend_dedups_across_a_swap_until_its_key_is_evicted`
    /// on a WAL-less sharded engine: a keyed resend is a no-op across a
    /// refit swap — pool, popularity, cache, counters and refit log
    /// untouched on every band — until `DEDUP_WINDOW` newer keys evict its
    /// key, after which it applies again.
    #[test]
    fn keyed_resend_dedups_across_a_refit_swap_until_its_key_is_evicted() {
        let sharded = ShardedEngine::new(bundle(CoverageKind::Static), ShardConfig::quantile(3));
        let u = UserId(1);
        let item = sharded.recommend(u).unwrap()[0];
        let ingest = |key: &str| sharded.ingest_keyed(Some(key), u, item, 5.0);
        assert_eq!(ingest("k-0"), Ok(IngestAck::Applied));
        let fitter = |train: &ganc_dataset::Interactions| {
            let theta = GeneralizedConfig::default().estimate(train);
            (FittedModel::Pop(MostPopular::fit(train)), theta)
        };
        let cfg = FitConfig {
            coverage: CoverageKind::Static,
            sample_size: 12,
            ..FitConfig::new(5)
        };
        let outcome = sharded.refit_once(&fitter, &cfg);
        assert!(matches!(
            outcome,
            RefitOutcome::Swapped { generation: 1, .. }
        ));

        // Serve (and cache) every user on the new generation.
        let lists = |s: &ShardedEngine| -> Vec<_> {
            (0..s.n_users())
                .map(|q| s.recommend(UserId(q)).unwrap())
                .collect()
        };
        let served = lists(&sharded);
        let popularity = |s: &ShardedEngine| -> Vec<_> {
            let set = s.set.read().unwrap();
            let state =
                |e: &ServingEngine| e.with_bundle(|b| (b.model.clone(), b.coverage.clone()));
            set.engines.iter().map(state).collect()
        };
        let (stats, before) = (sharded.stats(), popularity(&sharded));
        assert_eq!(ingest("k-0"), Ok(IngestAck::Deduplicated));
        assert_eq!(sharded.stats(), stats, "no counter moved");
        assert_eq!(sharded.pending_ingests(), 0, "the refit log grew");
        assert_eq!(popularity(&sharded), before, "no popularity moved");
        let cached = Some((Arc::clone(&served[u.idx()]), 1));
        assert_eq!(sharded.recommend_cached(u), cached, "the cached list stays");
        assert_eq!(lists(&sharded), served, "no pool moved");

        for k in 1..DEDUP_WINDOW {
            assert_eq!(ingest(&format!("k-{k}")), Ok(IngestAck::Applied));
        }
        assert_eq!(ingest("k-0"), Ok(IngestAck::Deduplicated), "still inside");
        let applied = sharded.pending_ingests();
        assert_eq!(ingest("k-newest"), Ok(IngestAck::Applied), "evicts k-0");
        assert_eq!(ingest("k-0"), Ok(IngestAck::Applied), "k-0 applies again");
        assert_eq!(sharded.pending_ingests(), applied + 2);
        assert_eq!(sharded.dedup_stats().hits, 2);
    }

    #[test]
    fn shard_info_reports_band_local_state() {
        let b = bundle(CoverageKind::Dynamic);
        let total_snaps = match &b.coverage {
            crate::bundle::CoverageState::Dynamic(s) => s.len(),
            _ => unreachable!(),
        };
        let unsharded_bytes = bincode::serialize(&b.coverage).unwrap().len();
        let sharded = ShardedEngine::new(b, ShardConfig::quantile(4));
        let info = sharded.shard_info();
        assert_eq!(info.len(), 4);
        assert_eq!(
            info.iter().map(|i| i.users).sum::<usize>() as u32,
            sharded.n_users()
        );
        for w in info.windows(2) {
            assert_eq!(w[0].theta_hi, w[1].theta_lo);
        }
        assert_eq!(info[0].theta_lo, f64::NEG_INFINITY);
        assert_eq!(info[3].theta_hi, f64::INFINITY);
        // Each band holds a strict subset of the snapshots (bands overlap
        // only at boundary snapshots).
        for i in &info {
            assert!(i.snapshots >= 1);
            assert!(i.snapshots <= total_snaps);
            assert!(i.coverage_bytes > 0);
        }
        assert!(
            info.iter().any(|i| i.snapshots < total_snaps),
            "at least one shard must hold a strict sub-range"
        );
        // The point of slicing: no band carries the whole coverage store.
        let per_shard_max = info.iter().map(|i| i.coverage_bytes).max().unwrap();
        assert!(
            per_shard_max < unsharded_bytes,
            "largest band holds {per_shard_max} coverage bytes, unsharded {unsharded_bytes}"
        );
    }

    #[test]
    fn explicit_uneven_cuts_still_serve_exactly() {
        let b = bundle(CoverageKind::Dynamic);
        let single = ServingEngine::new(b.clone(), EngineConfig::default());
        let cfg = ShardConfig {
            plan: ShardPlan::Explicit(vec![0.03, 0.04, 0.9]),
            engine: EngineConfig::default(),
        };
        let sharded = ShardedEngine::new(b, cfg);
        assert_eq!(sharded.shard_info().len(), 4);
        for u in 0..sharded.n_users() {
            assert_eq!(
                sharded.recommend(UserId(u)).unwrap(),
                single.recommend(UserId(u)).unwrap(),
                "user {u}"
            );
        }
    }

    #[test]
    fn shard_artifacts_round_trip_and_serve_their_band() {
        let b = bundle(CoverageKind::Dynamic);
        let sharded = ShardedEngine::new(b.clone(), ShardConfig::quantile(3));
        let dir = std::env::temp_dir().join("ganc_shard_artifacts");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("bundle.ganc");
        let paths = sharded.save_shard_artifacts(&base).unwrap();
        assert_eq!(paths.len(), 3);
        assert_eq!(paths[1], dir.join("bundle.shard1.ganc"));
        // A "node" loads one slice and serves its own band identically.
        let info = sharded.shard_info();
        for (j, path) in paths.iter().enumerate() {
            let slice = ModelBundle::load(path).unwrap();
            let node = ServingEngine::new(slice, EngineConfig::default());
            for u in 0..b.n_users() {
                let t = b.theta[u as usize];
                if t >= info[j].theta_lo && t < info[j].theta_hi {
                    assert_eq!(
                        node.recommend(UserId(u)).unwrap(),
                        sharded.recommend(UserId(u)).unwrap(),
                        "shard {j} user {u}"
                    );
                }
            }
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn shards_share_train_model_theta_allocations() {
        // The ROADMAP fix: an in-process ShardedEngine must not clone the
        // train set, the fitted model, or the θ vector per shard — every
        // slice points at the baseline bundle's allocations.
        let b = bundle(CoverageKind::Dynamic);
        const SHARDS: usize = 4;
        let sharded = ShardedEngine::new(b, ShardConfig::quantile(SHARDS));
        let baseline = sharded.baseline_bundle();
        let mut distinct_coverage = 0usize;
        let set = sharded.set.read().unwrap();
        for engine in &set.engines {
            engine.with_bundle(|slice| {
                assert!(
                    Arc::ptr_eq(&slice.train, &baseline.train),
                    "shard cloned the train set"
                );
                assert!(
                    Arc::ptr_eq(&slice.model, &baseline.model),
                    "shard cloned the fitted model"
                );
                assert!(
                    Arc::ptr_eq(&slice.theta, &baseline.theta),
                    "shard cloned the θ vector"
                );
                // The per-band coverage sub-range is the one component each
                // shard genuinely owns.
                if slice.coverage != baseline.coverage {
                    distinct_coverage += 1;
                }
            });
        }
        assert!(
            distinct_coverage >= SHARDS - 1,
            "θ-band slices must hold band-local coverage state"
        );
        // Memory parity: S shards hold exactly one train/model/θ replica
        // between them (strong count = S slices + the baseline bundle),
        // not one each.
        assert_eq!(Arc::strong_count(&baseline.train), SHARDS + 1);
        assert_eq!(Arc::strong_count(&baseline.model), SHARDS + 1);
        assert_eq!(Arc::strong_count(&baseline.theta), SHARDS + 1);
    }

    #[test]
    fn ingest_copy_on_write_keeps_shards_isolated_but_consistent() {
        // Ingestion bumps the Pop model per shard through Arc::make_mut;
        // output must stay byte-identical to an unsharded engine fed the
        // same stream (the pre-Arc behavior).
        let b = bundle(CoverageKind::Static);
        let single = ServingEngine::new(b.clone(), EngineConfig::default());
        let sharded = ShardedEngine::new(b, ShardConfig::quantile(3));
        for k in 0..5u32 {
            let u = UserId(k % sharded.n_users());
            let pick = sharded.recommend(u).unwrap()[k as usize % 5];
            sharded.ingest(u, pick, 4.0).unwrap();
            single.ingest(u, pick, 4.0).unwrap();
        }
        for u in 0..sharded.n_users() {
            assert_eq!(
                sharded.recommend(UserId(u)).unwrap(),
                single.recommend(UserId(u)).unwrap(),
                "user {u} diverges after copy-on-write ingest"
            );
        }
    }

    #[test]
    fn single_shard_plan_degenerates_to_unsharded() {
        let b = bundle(CoverageKind::Dynamic);
        let single = ServingEngine::new(b.clone(), EngineConfig::default());
        let sharded = ShardedEngine::new(b, ShardConfig::quantile(1));
        assert_eq!(sharded.shard_info().len(), 1);
        let users: Vec<UserId> = (0..sharded.n_users()).map(UserId).collect();
        let batch = sharded.recommend_batch_traced(&users).0;
        for (u, got) in users.iter().zip(batch) {
            assert_eq!(got.unwrap(), single.recommend(*u).unwrap(), "user {u:?}");
        }
    }
}
