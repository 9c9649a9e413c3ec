//! The concurrent serving engine: answer single-user top-N requests from a
//! loaded [`ModelBundle`], cache responses, batch concurrent work, and
//! ingest new interactions online.
//!
//! Concurrency model:
//!
//! * the fitted state sits behind one `RwLock` — reads (requests) share it,
//!   ingestion takes the write side briefly;
//! * the LRU response cache has its own mutex so cache hits never touch the
//!   model state at all;
//! * [`ServingEngine::recommend_batch`] fans a request batch across worker
//!   threads, each of which resolves its accuracy source (`accuracy()`: the
//!   model's shared vector, or a per-user scorer and one score buffer)
//!   **once** per batch — the amortization that makes micro-batching pay.
//!
//! One scoring path: between a request and
//! [`ganc_core::query::fused_select_runs`] there are three decisions, each
//! made in one function of the model state — where accuracy scores come
//! from (`accuracy()`), which candidate runs are scored (`runs()`: the
//! user's hoisted runs, or a fresh list when the request excludes items),
//! and at which θ against which coverage view (`select()`). A default
//! request, a θ or exclusion override, a batch slot and the online
//! re-rankers' candidate pool all go through them; a request's options
//! only decide whether the response cache may be read and written.
//!
//! Staleness contract: ingesting an interaction immediately (a) removes the
//! item from that user's candidate pool, (b) refreshes popularity-derived
//! state (the Pop model's scores and Stat coverage), and (c) invalidates
//! that user's cached response. Other users' cached responses may serve
//! scores from before the ingest until they expire from the LRU — bounded
//! staleness, the standard serving trade-off. [`ServingEngine::flush_cache`]
//! forces global freshness. The keyed half: an ingest whose idempotency key
//! is among the last [`DEDUP_WINDOW`] keys this engine applied
//! ([`ServingEngine::ingest_keyed`]) changes none of (a)–(c) and answers
//! [`IngestAck::Deduplicated`]. The window lives in memory and survives
//! swaps, so an evicted key, or any key after a restart, applies again.
//!
//! Generation contract: [`ServingEngine::swap_bundle`] atomically replaces
//! the fitted state (background refit publishes through it) and bumps the
//! state's *generation*. Its body is the engine's one install path: a
//! [`crate::ShardedEngine`] keeps one engine per band for the band's whole
//! life and swaps each refit's slice into it the same way, so an engine's
//! counters, dedup window and observability outlive every generation it
//! serves. Every response is computed entirely under one
//! read-lock hold, so it reflects exactly one generation — never a torn mix
//! of two bundles — and the traced APIs report which. Cached responses are
//! tagged with the generation that computed them and the whole cache is
//! cleared under the swap's write lock, so a response can never pair a new
//! bundle with an older bundle's cache entry; a cache hit racing a swap may
//! still serve the previous generation momentarily (its tag says so).
//! [`ServingEngine::recommend_batch`] holds one read lock across the whole
//! batch — cache hits included — so a batch is always single-generation.

use crate::bundle::{BoundModel, CoverageState, FittedModel, ModelBundle};
use crate::lru::LruCache;
use crate::obs::{catalog_profile, EngineObs};
use ganc_core::accuracy::{make_scorer_with_mask, AccuracyScorer};
use ganc_core::query::{candidate_runs, fused_select_runs, RequestOptions, RerankMode};
use ganc_dataset::{Interactions, ItemId, UserId};
use ganc_obs::{CatalogProfile, ObsHub, WindowStats, WindowWire};
use ganc_recommender::pop::MostPopular;
use ganc_recommender::topn::lists_for;
use ganc_recommender::Recommender;
use ganc_rerank::five_d::FiveD;
use ganc_rerank::pra::Pra;
use ganc_rerank::rbt::{Rbt, RbtCriterion};
use ganc_rerank::Reranker;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock};
use std::time::Duration;

/// A cached response: the bundle generation that computed it plus the list.
type CachedList = (u64, Arc<Vec<ItemId>>);

/// One user's slot in a batch answer: their list, or their own error.
pub type SlotAnswer = Result<Arc<Vec<ItemId>>, ServeError>;

/// An engine's batch answer: one slot per requested user in request order,
/// plus the single bundle generation the whole batch was served from.
pub type EngineBatch = (Vec<SlotAnswer>, u64);

/// Maximum cached responses per engine (LRU-evicted beyond this).
const CACHE_CAPACITY: usize = 16_384;

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Worker threads for batched requests.
    pub threads: usize,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            threads: std::thread::available_parallelism().map_or(4, |p| p.get()),
        }
    }
}

/// A snapshot of the engine's counters — the same counts `/v1/metrics`
/// renders. A batch counts each of its slots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Requests answered from the response cache.
    pub cache_hits: u64,
    /// Requests that computed a fresh list.
    pub cache_misses: u64,
    /// Interactions ingested. A sharded engine applies each ingest to
    /// every band and counts one apply per band.
    pub ingested: u64,
    /// Cache entries invalidated by ingestion.
    pub invalidated: u64,
    /// Entries currently cached.
    pub cached: usize,
}

/// Why a request or ingest was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// The user id is outside the bundle's user space.
    UnknownUser(UserId),
    /// The item id is outside the bundle's catalog.
    UnknownItem(ItemId),
    /// The node's write-ahead log could not record the ingest, so it was
    /// not applied — safe to retry (idempotency keys make retries no-ops).
    Durability,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownUser(u) => write!(f, "unknown user {}", u.0),
            ServeError::UnknownItem(i) => write!(f, "unknown item {}", i.0),
            ServeError::Durability => write!(f, "write-ahead log append failed"),
        }
    }
}

impl std::error::Error for ServeError {}

/// How many distinct idempotency keys a dedup window remembers: a
/// [`ServingEngine`]'s, a [`crate::ShardedEngine`]'s (a durable one's by
/// default, [`crate::DurableConfig::new`]) and a router's.
pub const DEDUP_WINDOW: usize = 4096;

/// What an acknowledged ingest did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestAck {
    /// The interaction was applied (and logged, on durable nodes).
    Applied,
    /// The idempotency key was already acknowledged: nothing changed.
    Deduplicated,
}

/// A dedup window's numbers, for `/v1/healthz` and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DedupStats {
    /// The retention bound: how many distinct keys the window holds
    /// before the oldest is forgotten.
    pub window: usize,
    /// Keys currently remembered.
    pub len: usize,
    /// Keys forgotten so far because `window` newer distinct keys arrived.
    /// A nonzero value means a sufficiently delayed retry could re-apply
    /// — the retention contract surfaced by `/v1/healthz`.
    pub evictions: u64,
    /// Resends [`DedupWindow::resent`] has answered.
    pub hits: u64,
}

/// Bounded FIFO window of recently acknowledged idempotency keys. Each key
/// is stored once, shared by the lookup set and the eviction queue.
#[derive(Debug)]
pub struct DedupWindow {
    seen: HashSet<Arc<str>>,
    order: VecDeque<Arc<str>>,
    /// Kept current by every call.
    stats: DedupStats,
}

impl DedupWindow {
    /// A window remembering up to `cap` keys (clamped to ≥ 1).
    pub fn new(cap: usize) -> DedupWindow {
        DedupWindow {
            seen: HashSet::new(),
            order: VecDeque::new(),
            stats: DedupStats {
                window: cap.max(1),
                ..DedupStats::default()
            },
        }
    }

    /// Is `key` inside the window? Asked of an ingest about to apply:
    /// `true` means it is a resend to answer [`IngestAck::Deduplicated`],
    /// and is counted as a hit.
    pub fn resent(&mut self, key: &str) -> bool {
        let resent = self.seen.contains(key);
        self.stats.hits += u64::from(resent);
        resent
    }

    /// Record `key`; returns `false` (and changes nothing) if it was
    /// already present. At capacity the oldest key falls out.
    pub fn observe(&mut self, key: &str) -> bool {
        if self.seen.contains(key) {
            return false;
        }
        if self.order.len() == self.stats.window {
            let oldest = self.order.pop_front().expect("a full window holds a key");
            self.seen.remove(&oldest);
            self.stats.evictions += 1;
        }
        let key: Arc<str> = Arc::from(key);
        self.seen.insert(Arc::clone(&key));
        self.order.push_back(key);
        self.stats.len = self.order.len();
        true
    }

    /// Keys currently remembered, oldest first.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.order.iter().map(|k| &**k)
    }

    /// The window's retention contract and hit count.
    pub fn stats(&self) -> DedupStats {
        self.stats
    }
}

/// Model-side state guarded by the engine's `RwLock`.
struct EngineState {
    bundle: ModelBundle,
    /// Which bundle generation this state serves: 0 at construction, +1 per
    /// [`ServingEngine::swap_bundle`]. Lives *inside* the lock so a reader
    /// observes the generation and the bundle it belongs to atomically.
    generation: u64,
    /// Sorted ids of the items with no train rating — the exclusion list
    /// every candidate walk merges, shared by workers.
    non_train: Vec<u32>,
    /// Per-user items ingested after fit (sorted), excluded from candidates.
    extra_seen: Vec<Vec<u32>>,
    /// Live popularity: train counts plus ingested interactions.
    pop_counts: Vec<u32>,
    /// user id → index into `bundle.seed_lists`; entries are dropped when
    /// ingestion staledates a sampled user's precomputed list.
    seed_index: HashMap<u32, usize>,
    /// Whether the bundle's accuracy vector is the same for every user
    /// (user-independent base model under `Normalized` adaptation).
    accuracy_is_shared: bool,
    /// Whether the Pop model's stored scores are exactly the raw
    /// `pop_counts`, making the `O(1)` [`MostPopular::bump`] refresh valid.
    /// False for models whose scores are on another scale (fit on other
    /// data, or normalized) — those fall back to a full rebuild from
    /// `pop_counts` on ingest.
    pop_bump_ok: bool,
    /// Lazily built per model version: the shared normalized accuracy
    /// vector. Rebuilt on first request after an ingest invalidates it, so
    /// ingestion itself stays `O(touched items)`.
    shared_accuracy: Mutex<Option<Arc<Vec<f64>>>>,
    /// Lazily hoisted per-user candidate runs: a user's exclusion merge
    /// (`seen + extra_seen + non_train`) only changes when *they* ingest,
    /// so it is built on their first serve and every later request replays
    /// the frozen `[lo, hi)` runs. Invalidated per user under the ingest
    /// write lock; a bundle swap rebuilds the whole state.
    candidate_runs: Vec<OnceLock<Vec<(u32, u32)>>>,
    /// Lazily built online re-rankers (indexed Pra/Rbt/FiveD), each fit on
    /// the bundle's train snapshot exactly like batch
    /// [`ganc_rerank::rerank_all`] callers would fit them — the equivalence
    /// oracle's contract. Built at most once per bundle generation.
    rerankers: [OnceLock<Arc<dyn Reranker>>; 3],
}

/// Construct the online re-ranker for `mode` the way the batch experiments
/// do: fit on the train snapshot with the paper's default parameters. The
/// equivalence suite builds its batch-side re-ranker through this same
/// function, so online output is byte-identical to `rerank_all` by
/// construction.
pub fn build_reranker(
    mode: RerankMode,
    train: &Interactions,
    base_name: &str,
) -> Arc<dyn Reranker> {
    match mode {
        RerankMode::Pra => Arc::new(Pra::new(train, base_name, 10)),
        RerankMode::Rbt => Arc::new(Rbt::new(train, RbtCriterion::Popularity, base_name)),
        RerankMode::FiveD => Arc::new(FiveD::new(train, base_name)),
    }
}

/// Merge two sorted, deduplicated ascending id lists into one.
fn merge_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

impl EngineState {
    /// Generation 0 of `bundle`; `pop_counts` is its train popularity,
    /// counted once by the caller.
    fn new(bundle: ModelBundle, pop_counts: Vec<u32>) -> EngineState {
        let in_train: Vec<bool> = pop_counts.iter().map(|&f| f > 0).collect();
        let extra_seen = vec![Vec::new(); bundle.train.n_users() as usize];
        let seed_index = bundle
            .seed_lists
            .iter()
            .enumerate()
            .map(|(k, (u, _))| (u.0, k))
            .collect();
        let accuracy_is_shared = bundle.accuracy_mode
            == ganc_core::accuracy::AccuracyMode::Normalized
            && bundle
                .model
                .bind(&bundle.train)
                .scores_are_user_independent();
        let non_train = ganc_recommender::topn::non_train_items(&in_train);
        let pop_bump_ok = match &*bundle.model {
            FittedModel::Pop(pop) => pop_counts
                .iter()
                .enumerate()
                .all(|(i, &f)| pop.popularity_score(ItemId(i as u32)) == f as f64),
            _ => false,
        };
        let candidate_runs = std::iter::repeat_with(OnceLock::new)
            .take(bundle.train.n_users() as usize)
            .collect();
        EngineState {
            bundle,
            generation: 0,
            non_train,
            extra_seen,
            pop_counts,
            seed_index,
            accuracy_is_shared,
            pop_bump_ok,
            shared_accuracy: Mutex::new(None),
            candidate_runs,
            rerankers: [OnceLock::new(), OnceLock::new(), OnceLock::new()],
        }
    }

    /// The lazily built online re-ranker for `mode`.
    fn reranker(&self, mode: RerankMode) -> &Arc<dyn Reranker> {
        let slot = match mode {
            RerankMode::Pra => 0,
            RerankMode::Rbt => 1,
            RerankMode::FiveD => 2,
        };
        self.rerankers[slot]
            .get_or_init(|| build_reranker(mode, &self.bundle.train, &self.bundle.model_name))
    }

    /// The per-user-constant normalized accuracy vector, when the model
    /// supports one — computed at most once per model version.
    fn shared_accuracy(&self) -> Option<Arc<Vec<f64>>> {
        if !self.accuracy_is_shared {
            return None;
        }
        let mut guard = self.shared_accuracy.lock().unwrap();
        if guard.is_none() {
            let b = &self.bundle;
            let mut a = vec![0.0; b.n_items() as usize];
            // Identical to NormalizedScores::accuracy_scores for any user.
            b.model.bind(&b.train).score_items(UserId(0), &mut a);
            ganc_dataset::stats::min_max_normalize(&mut a);
            *guard = Some(Arc::new(a));
        }
        guard.clone()
    }

    /// The accuracy source for one request or one batch worker, over
    /// `bound` (the bundle's model bound to its train set): the shared
    /// vector when the model has one, else a per-user scorer and its score
    /// buffer — built once here and reused for every user the caller serves.
    fn accuracy<'a>(&'a self, bound: &'a BoundModel<'a>) -> Accuracy<'a> {
        let b = &self.bundle;
        match self.shared_accuracy() {
            Some(a) => Accuracy::Shared(a),
            None => Accuracy::PerUser(
                make_scorer_with_mask(bound, b.accuracy_mode, &b.train, &self.non_train, b.n),
                vec![0.0; b.n_items() as usize],
            ),
        }
    }

    /// The user's candidate pool minus `exclude` (sorted request
    /// exclusions; ids outside the catalog are ignored — they can never be
    /// recommended anyway). Without exclusions these are the user's hoisted
    /// runs, built on first use (see the field docs); with them, a fresh
    /// list that is never cached, so request exclusions cannot pollute a
    /// later request's pool.
    fn runs(&self, user: UserId, exclude: &[u32]) -> Cow<'_, [(u32, u32)]> {
        let extra = &self.extra_seen[user.idx()];
        let build = |seen: &[u32]| candidate_runs(&self.bundle.train, user, seen, &self.non_train);
        if exclude.is_empty() {
            Cow::Borrowed(self.candidate_runs[user.idx()].get_or_init(|| build(extra)))
        } else {
            Cow::Owned(build(&merge_sorted(extra, exclude)))
        }
    }

    /// The fused path: one user's list at an explicit θ over their
    /// candidate pool minus `exclude`.
    fn select(
        &self,
        accuracy: &mut Accuracy<'_>,
        user: UserId,
        theta_u: f64,
        exclude: &[u32],
    ) -> Vec<ItemId> {
        let b = &self.bundle;
        let view = b.coverage.provider().view(user, theta_u);
        let runs = self.runs(user, exclude);
        fused_select_runs(b.n, theta_u, accuracy.scores(user), &view, &runs)
    }

    /// One user's list under `opts`. `fitted` is the caller's one reading
    /// of [`RequestOptions::is_default`]: the fitted scenario answers
    /// sampled users under Dyn coverage from their precomputed seed list,
    /// the way the batch optimizer would; an override never consults seed
    /// lists (it always answers from the fused path — the oracle's
    /// definition) and runs the named re-ranker when one is set, else the
    /// fused path at the overriding (or fitted) θ.
    fn list(
        &self,
        accuracy: &mut Accuracy<'_>,
        user: UserId,
        opts: &RequestOptions,
        fitted: bool,
    ) -> Vec<ItemId> {
        let b = &self.bundle;
        if fitted && matches!(b.coverage, CoverageState::Dynamic(_)) {
            if let Some(&k) = self.seed_index.get(&user.0) {
                return b.seed_lists[k].1.clone();
            }
        }
        match opts.rerank {
            Some(mode) => self.compute_rerank(user, mode, &opts.exclude),
            None => {
                let theta_u = opts.theta.unwrap_or(b.theta[user.idx()]);
                self.select(accuracy, user, theta_u, &opts.exclude)
            }
        }
    }

    /// The online re-rank path: run `mode`'s re-ranker as a per-request
    /// post-processor over the base model's raw scores, mirroring batch
    /// [`ganc_rerank::rerank_all`] input-for-input (raw `score_items`
    /// buffer, ascending unseen-train candidates) so a fresh engine's
    /// output is byte-identical to the batch driver's. Post-fit ingests and
    /// request exclusions additionally leave the candidate pool, matching
    /// the fused path's staleness contract.
    fn compute_rerank(&self, user: UserId, mode: RerankMode, exclude: &[u32]) -> Vec<ItemId> {
        let b = &self.bundle;
        let reranker = self.reranker(mode);
        let mut scores = vec![0.0f64; b.n_items() as usize];
        b.model.bind(&b.train).score_items(user, &mut scores);
        let cands: Vec<u32> = self
            .runs(user, exclude)
            .iter()
            .flat_map(|&(lo, hi)| lo..hi)
            .collect();
        reranker.rerank(user, &scores, &cands, b.n)
    }
}

/// Where a request's (or batch worker's) accuracy scores come from.
enum Accuracy<'a> {
    /// The model scores every user alike: one vector per model version.
    Shared(Arc<Vec<f64>>),
    /// A per-user scorer and the buffer it fills.
    PerUser(Box<dyn AccuracyScorer + 'a>, Vec<f64>),
}

impl Accuracy<'_> {
    /// `a(i)` for every item, for `user`.
    fn scores(&mut self, user: UserId) -> &[f64] {
        match self {
            Accuracy::Shared(a) => a,
            Accuracy::PerUser(scorer, buf) => {
                scorer.accuracy_scores(user, buf);
                buf
            }
        }
    }
}

/// An engine's event counts: one count per event, read by
/// [`ServingEngine::stats`] and by `/v1/metrics` alike.
#[derive(Default)]
pub(crate) struct Counts {
    pub(crate) hits: AtomicU64,
    pub(crate) misses: AtomicU64,
    pub(crate) ingested: AtomicU64,
    pub(crate) invalidated: AtomicU64,
}

/// A thread-safe online server over one [`ModelBundle`].
pub struct ServingEngine {
    state: RwLock<EngineState>,
    cache: Mutex<LruCache<u32, CachedList>>,
    threads: usize,
    /// Idempotency keys of the keyed ingests this engine applied, across
    /// swaps; locked only under the state write lock.
    keys: Mutex<DedupWindow>,
    /// Outlives every install; shared with the `/v1/metrics` series that
    /// read it.
    counts: Arc<Counts>,
    /// Optional observability ([`ServingEngine::attach_obs`]). An
    /// un-attached engine pays one atomic load per request and nothing
    /// else; attachment is one-shot.
    obs: Arc<OnceLock<EngineObs>>,
}

// Lock discipline: `state` before `cache` or `keys`, or `cache` alone.
// Writers (ingest, swap) mutate the cache while still holding the state write lock;
// computes insert while still holding the state read lock. That makes cache
// contents always belong to the current state — an invalidation or swap can
// never be undone by a racing compute, so no separate version counter is
// needed. The one path that touches the cache without the state lock is the
// single-request hit fast path (`hit`, blocking or probed), which only reads.
impl ServingEngine {
    /// Start serving a bundle.
    pub fn new(bundle: ModelBundle, cfg: EngineConfig) -> ServingEngine {
        let popularity = bundle.train.item_popularity();
        ServingEngine::with_popularity(bundle, cfg, popularity)
    }

    /// [`ServingEngine::new`] over the bundle's train `popularity`, already
    /// counted: a sharded engine counts it once for all its bands.
    pub(crate) fn with_popularity(
        bundle: ModelBundle,
        cfg: EngineConfig,
        popularity: Vec<u32>,
    ) -> ServingEngine {
        ServingEngine {
            state: RwLock::new(EngineState::new(bundle, popularity)),
            cache: Mutex::new(LruCache::new(CACHE_CAPACITY)),
            threads: cfg.threads.max(1),
            keys: Mutex::new(DedupWindow::new(DEDUP_WINDOW)),
            counts: Arc::default(),
            obs: Arc::default(),
        }
    }

    /// Attach observability: register this engine's metric series on `hub`
    /// (labelled with `band`, or `band="all"` for an unbanded engine) and
    /// start a rolling beyond-accuracy window of span `window` over its
    /// served lists. One-shot; a second attach is a no-op.
    pub fn attach_obs(&self, hub: Arc<ObsHub>, band: Option<u32>, window: Duration) {
        let state = self.state.read().unwrap();
        let train = &state.bundle.train;
        let catalog = catalog_profile(&train.item_popularity(), train.n_users());
        let obs = EngineObs::new(hub, band, window, catalog, state.generation);
        drop(state);
        self.set_obs(obs);
    }

    /// [`ServingEngine::attach_obs`] over the served generation's catalog
    /// profile, already built: a sharded engine builds one for all its
    /// bands, and holds its shard set still while it attaches them.
    pub(crate) fn attach_obs_over(
        &self,
        hub: Arc<ObsHub>,
        band: Option<u32>,
        window: Duration,
        catalog: Arc<CatalogProfile>,
    ) {
        let generation = self.generation();
        self.set_obs(EngineObs::new(hub, band, window, catalog, generation));
    }

    fn set_obs(&self, obs: EngineObs) {
        if self.obs.set(obs).is_ok() {
            EngineObs::register_reads(&self.counts, &self.obs);
        }
    }

    /// Current rolling-window metrics, when observability is attached.
    pub fn window_stats(&self) -> Option<WindowStats> {
        self.obs.get().map(|o| o.window_stats())
    }

    /// This engine's rolling window as a transportable summary, when
    /// observability is attached — what a remote node ships to a router
    /// so the router's aggregate window stays an exact union.
    pub fn window_wire(&self) -> Option<WindowWire> {
        self.obs.get().map(|o| o.window_wire())
    }

    /// Answer one user's top-N request.
    pub fn recommend(&self, user: UserId) -> Result<Arc<Vec<ItemId>>, ServeError> {
        self.recommend_traced(user).map(|(list, _)| list)
    }

    /// [`ServingEngine::recommend_with_traced`] at default options.
    pub fn recommend_traced(&self, user: UserId) -> Result<(Arc<Vec<ItemId>>, u64), ServeError> {
        self.recommend_with_traced(user, &RequestOptions::default())
    }

    /// Answer one request, reporting the bundle generation the response was
    /// computed under. [`RequestOptions::is_default`] is read once, as "may
    /// this request read and write the LRU" — the only decision a request's
    /// options make between the HTTP surface and the model state:
    ///
    /// * default `opts` serve the fitted scenario through the user-keyed
    ///   LRU. A cache hit may report the previous generation for an instant
    ///   around a [`ServingEngine::swap_bundle`]; the list always matches
    ///   the reported generation's bundle.
    /// * any override computes fresh under the state read lock and **never
    ///   touches the response cache** in either direction: a cached default
    ///   list must not answer an override, and an override's list must not
    ///   be served to a later default request. θ overrides serve the fused
    ///   path at that θ; exclusions shrink the candidate pool for this
    ///   request only; `rerank` swaps the fused selection for the named
    ///   batch re-ranker run online (θ then only affects routing, never the
    ///   list).
    pub fn recommend_with_traced(
        &self,
        user: UserId,
        opts: &RequestOptions,
    ) -> Result<(Arc<Vec<ItemId>>, u64), ServeError> {
        let obs = self.obs.get();
        let cacheable = opts.is_default();
        let sampled = if cacheable {
            let sampled = obs.and_then(|o| o.sample());
            if let Some(hit) = self.hit(self.cache.lock().unwrap(), user, sampled) {
                return Ok(hit);
            }
            sampled
        } else {
            None
        };
        // Every miss is timed: an unsampled one from here, past the probe.
        let t0 = sampled.unwrap_or_else(|| obs.map_or(0, |o| o.now_us()));
        let state = self.state.read().unwrap();
        if user.idx() >= state.bundle.n_users() as usize {
            if let Some(o) = obs {
                o.record_error();
            }
            return Err(ServeError::UnknownUser(user));
        }
        self.counts.misses.fetch_add(1, Ordering::Relaxed);
        let bound = state.bundle.model.bind(&state.bundle.train);
        let list = Arc::new(state.list(&mut state.accuracy(&bound), user, opts, cacheable));
        if cacheable {
            // Insert while still holding the read lock: no ingest or swap
            // can interleave, so the generation tag is exact and an
            // invalidation cannot be undone by this insert landing late.
            self.cache
                .lock()
                .unwrap()
                .insert(user.0, (state.generation, Arc::clone(&list)));
        }
        if let Some(o) = obs {
            o.record_request(t0, user.0, state.generation, &list);
        }
        Ok((list, state.generation))
    }

    /// The hit fast path: `user`'s cached default-options response, counted
    /// and recorded as a served hit (timed from `t0_us` when the request was
    /// sampled). Never touches the model state. The caller decides how the
    /// cache lock was obtained; it is released before anything is recorded.
    #[inline]
    fn hit(
        &self,
        mut cache: MutexGuard<'_, LruCache<u32, CachedList>>,
        user: UserId,
        t0_us: Option<u64>,
    ) -> Option<(Arc<Vec<ItemId>>, u64)> {
        let &(generation, ref list) = cache.get(&user.0)?;
        let list = Arc::clone(list);
        drop(cache);
        self.counts.hits.fetch_add(1, Ordering::Relaxed);
        if let Some(o) = self.obs.get() {
            o.record_hit(t0_us, user.0, generation, &list);
        }
        Some((list, generation))
    }

    /// Non-blocking probe for `user`'s cached default-options response —
    /// the hit fast path of [`ServingEngine::recommend_with_traced`] for a
    /// caller that must not wait (an event-loop thread). `Some` is a served
    /// hit, counted and recorded exactly as the blocking path records it.
    /// `None` means "ask `recommend_with_traced`" — the user is not cached,
    /// is unknown, or the cache lock is held right now — and records
    /// nothing but its turn in the 1-in-64 hit sampler.
    pub fn recommend_cached(&self, user: UserId) -> Option<(Arc<Vec<ItemId>>, u64)> {
        let sampled = self.obs.get().and_then(|o| o.sample());
        self.hit(self.cache.try_lock().ok()?, user, sampled)
    }

    /// Answer a batch of requests, fanning cache misses across worker
    /// threads. Results come back in request order; unknown users get the
    /// per-request error.
    pub fn recommend_batch(&self, users: &[UserId]) -> Vec<SlotAnswer> {
        self.recommend_batch_traced(users).0
    }

    /// [`ServingEngine::recommend_batch_with_traced`] at default options.
    pub fn recommend_batch_traced(&self, users: &[UserId]) -> EngineBatch {
        self.recommend_batch_with_traced(users, &RequestOptions::default())
    }

    /// Answer a batch under one options set, reporting the single bundle
    /// generation every response in it was served from. Options decide
    /// exactly what they decide in [`ServingEngine::recommend_with_traced`]:
    /// default `opts` read and fill the LRU, any override computes every
    /// slot fresh and leaves the cache alone; either way the slots to
    /// compute fan out over the engine's worker threads.
    ///
    /// The state read lock is held across the *entire* batch — the cache-hit
    /// phase included — so a concurrent [`ServingEngine::swap_bundle`]
    /// cannot land mid-batch: every cached entry observed under the lock was
    /// inserted under the current generation (swaps clear the cache while
    /// holding the write lock), and every miss computes against it.
    pub fn recommend_batch_with_traced(
        &self,
        users: &[UserId],
        opts: &RequestOptions,
    ) -> EngineBatch {
        let obs = self.obs.get();
        let t0 = obs.map_or(0, |o| o.now_us());
        let cacheable = opts.is_default();
        let state = self.state.read().unwrap();
        let generation = state.generation;
        let mut results: Vec<Option<SlotAnswer>> = vec![None; users.len()];
        let mut miss_idx: Vec<usize> = Vec::new();
        if cacheable {
            // Serve cache hits under one short cache-lock hold (the state
            // read lock above pins their generation).
            let mut cache = self.cache.lock().unwrap();
            for (k, u) in users.iter().enumerate() {
                if let Some(&(tag, ref hit)) = cache.get(&u.0) {
                    debug_assert_eq!(tag, generation, "cache outlived a swap");
                    results[k] = Some(Ok(Arc::clone(hit)));
                } else {
                    miss_idx.push(k);
                }
            }
        } else {
            miss_idx.extend(0..users.len());
        }
        self.counts
            .hits
            .fetch_add((users.len() - miss_idx.len()) as u64, Ordering::Relaxed);
        // Reject unknown users up front so the miss counter only covers
        // requests that actually compute (matching `recommend`).
        let n_users = state.bundle.n_users() as usize;
        miss_idx.retain(|&k| {
            if users[k].idx() >= n_users {
                results[k] = Some(Err(ServeError::UnknownUser(users[k])));
                false
            } else {
                true
            }
        });
        if !miss_idx.is_empty() {
            self.counts
                .misses
                .fetch_add(miss_idx.len() as u64, Ordering::Relaxed);
            // The misses fan out over the worker threads; each worker
            // resolves its accuracy source — scorer and score buffer, or the
            // shared vector — once for its whole chunk.
            let bound = state.bundle.model.bind(&state.bundle.train);
            let missed: Vec<UserId> = miss_idx.iter().map(|&k| users[k]).collect();
            let computed = lists_for(
                &missed,
                self.threads,
                || state.accuracy(&bound),
                |accuracy, user| Arc::new(state.list(accuracy, user, opts, cacheable)),
            );
            // Still under the state read lock: no writer has run, so the
            // computed lists are current and their generation tag is exact.
            let mut cache = cacheable.then(|| self.cache.lock().unwrap());
            for (k, list) in miss_idx.into_iter().zip(computed) {
                if let Some(cache) = &mut cache {
                    cache.insert(users[k].0, (generation, Arc::clone(&list)));
                }
                results[k] = Some(Ok(list));
            }
        }
        drop(state);
        if let Some(o) = obs {
            o.record_batch(t0, generation, &results);
        }
        (
            results.into_iter().map(|r| r.unwrap()).collect(),
            generation,
        )
    }

    /// Ingest one observed interaction: the item leaves the user's
    /// candidate pool, popularity-derived state refreshes, and the user's
    /// cached response is invalidated (see the module docs for the
    /// staleness contract).
    pub fn ingest(&self, user: UserId, item: ItemId, rating: f32) -> Result<(), ServeError> {
        self.ingest_keyed(None, user, item, rating).map(|_| ())
    }

    /// [`ServingEngine::ingest`] under an optional idempotency key: a key
    /// this engine applied among its last [`DEDUP_WINDOW`] keyed ingests
    /// answers [`IngestAck::Deduplicated`] and changes nothing — no pool,
    /// popularity count, cache entry, counter or trace event. Ids are
    /// checked first, so a rejected ingest never consumes its key.
    pub fn ingest_keyed(
        &self,
        key: Option<&str>,
        user: UserId,
        item: ItemId,
        _rating: f32,
    ) -> Result<IngestAck, ServeError> {
        let mut state = self.state.write().unwrap();
        if user.idx() >= state.bundle.n_users() as usize {
            return Err(ServeError::UnknownUser(user));
        }
        if item.idx() >= state.bundle.n_items() as usize {
            return Err(ServeError::UnknownItem(item));
        }
        // Nothing below can fail, so remembering the key first is the
        // apply's commit point.
        if key.is_some_and(|k| !self.keys.lock().unwrap().observe(k)) {
            return Ok(IngestAck::Deduplicated);
        }
        self.apply(&mut state, user, item);
        drop(state);
        self.counts.ingested.fetch_add(1, Ordering::Relaxed);
        if let Some(o) = self.obs.get() {
            o.record_ingest(user.0, item.0);
        }
        Ok(IngestAck::Applied)
    }

    /// Apply an interaction this engine already counted — a sharded refit
    /// replaying the ingests that raced its fit onto the band's new
    /// generation — without counting or tracing it again. The caller
    /// checked the ids.
    pub(crate) fn replay(&self, user: UserId, item: ItemId) {
        self.apply(&mut self.state.write().unwrap(), user, item);
    }

    /// An ingest's effect on the model state and the cache, under the
    /// state write lock.
    fn apply(&self, state: &mut EngineState, user: UserId, item: ItemId) {
        if !state.bundle.train.contains(user, item) {
            let extra = &mut state.extra_seen[user.idx()];
            if let Err(pos) = extra.binary_search(&item.0) {
                extra.insert(pos, item.0);
            }
        }
        // The user's hoisted candidate runs baked in the old exclusion
        // state; drop them (other users' pools are untouched — popularity
        // drift never changes who a candidate is).
        state.candidate_runs[user.idx()].take();
        state.pop_counts[item.idx()] += 1;
        let count = state.pop_counts[item.idx()];
        // Popularity-derived state refreshes in O(touched items): both the
        // Pop model (raw-count scores) and Stat coverage (per-item
        // `1/√(f+1)`) support single-item updates identical to a full
        // rebuild from `pop_counts`.
        let pop_bump_ok = state.pop_bump_ok;
        if matches!(&*state.bundle.model, FittedModel::Pop(_)) {
            if pop_bump_ok {
                // The model allocation may be shared with sibling θ-band
                // shards (see `ModelBundle::slice_theta_band`); copy-on-write
                // keeps this shard's bump from leaking into theirs.
                if let FittedModel::Pop(pop) = Arc::make_mut(&mut state.bundle.model) {
                    pop.bump(item);
                }
            } else {
                // The model's scores are not the raw train counts (fit
                // off-train, or normalized); a +1 bump would be on the
                // wrong scale, so rebuild from the live counts.
                state.bundle.model = Arc::new(FittedModel::Pop(MostPopular::from_popularity(
                    &state.pop_counts,
                )));
                state.pop_bump_ok = true;
            }
            // The shared normalized-accuracy vector is derived from the
            // model; drop it (O(1)) and let the next request rebuild it.
            *state.shared_accuracy.lock().unwrap() = None;
        }
        if let CoverageState::Static(stat) = &mut state.bundle.coverage {
            stat.set_count(item, count);
        }
        // The sampled user's precomputed list no longer reflects their
        // candidate pool; fall back to the snapshot query path for them.
        state.seed_index.remove(&user.0);
        // Invalidate while still holding the write lock: any compute that
        // could re-insert a pre-ingest list also holds the state lock, so it
        // either finished (and its entry is removed here) or starts after
        // this write completes (and computes the post-ingest list).
        if self.cache.lock().unwrap().remove_entry(&user.0).is_some() {
            self.counts.invalidated.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Atomically replace the fitted state with a freshly fitted bundle —
    /// the hot-swap half of background refit. In-flight requests finish on
    /// the bundle they started with (they hold the read lock); requests that
    /// start after the swap see only the new one. The response cache is
    /// cleared under the same write-lock hold, so the new generation can
    /// never serve a previous generation's cached list. Returns the new
    /// generation.
    pub fn swap_bundle(&self, bundle: ModelBundle) -> u64 {
        let popularity = bundle.train.item_popularity();
        self.install(bundle, popularity, None)
    }

    /// The one install body, of [`ServingEngine::swap_bundle`] and of a
    /// sharded refit swapping a band's slice into the band's engine:
    /// `bundle` becomes the next generation and the cache is cleared under
    /// one write-lock hold. `popularity` is the bundle's train popularity,
    /// counted once by the caller before the lock; with observability
    /// attached the window restarts over `catalog`, the generation's
    /// profile when the caller built one for several engines, else one
    /// built here from `popularity`. Returns the new generation.
    pub(crate) fn install(
        &self,
        bundle: ModelBundle,
        popularity: Vec<u32>,
        catalog: Option<Arc<CatalogProfile>>,
    ) -> u64 {
        let mut fresh = EngineState::new(bundle, popularity);
        let mut state = self.state.write().unwrap();
        fresh.generation = state.generation + 1;
        let old = std::mem::replace(&mut *state, fresh);
        self.cache.lock().unwrap().clear();
        // Record under the write lock (obs locks are leaves) so the swap
        // event and the catalog refreeze are atomic with the swap itself.
        // Nothing is ingested before the lock drops, so the live counts
        // are still the train popularity.
        if let Some(o) = self.obs.get() {
            let n_users = state.bundle.train.n_users();
            let catalog = catalog.unwrap_or_else(|| catalog_profile(&state.pop_counts, n_users));
            o.record_swap(state.generation, catalog);
        }
        let generation = state.generation;
        // The old state is freed after the lock is released.
        drop(state);
        drop(old);
        generation
    }

    /// The current bundle generation (0 until the first
    /// [`ServingEngine::swap_bundle`]).
    pub fn generation(&self) -> u64 {
        self.state.read().unwrap().generation
    }

    /// Drop every cached response (force global freshness after a burst of
    /// ingestion).
    pub fn flush_cache(&self) {
        self.cache.lock().unwrap().clear();
    }

    /// Counter snapshot.
    pub fn stats(&self) -> EngineStats {
        let t = &self.counts;
        EngineStats {
            cache_hits: t.hits.load(Ordering::Relaxed),
            cache_misses: t.misses.load(Ordering::Relaxed),
            ingested: t.ingested.load(Ordering::Relaxed),
            invalidated: t.invalidated.load(Ordering::Relaxed),
            cached: self.cache.lock().unwrap().len(),
        }
    }

    /// List size `N` this engine serves.
    pub fn n(&self) -> usize {
        self.state.read().unwrap().bundle.n
    }

    /// Number of users the bundle covers.
    pub fn n_users(&self) -> u32 {
        self.state.read().unwrap().bundle.n_users()
    }
}

#[cfg(test)]
impl ServingEngine {
    /// The catalog profile the rolling window scores against, when
    /// observability is attached.
    pub(crate) fn catalog(&self) -> Option<Arc<CatalogProfile>> {
        self.obs.get().map(|o| o.catalog())
    }

    /// Run `f` against the currently served bundle (crate-internal: the
    /// sharding layer uses it to verify allocation sharing across slices).
    pub(crate) fn with_bundle<R>(&self, f: impl FnOnce(&ModelBundle) -> R) -> R {
        f(&self.state.read().unwrap().bundle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::HIT_SAMPLE;
    use ganc_core::coverage::CoverageKind;
    use ganc_core::FitConfig;
    use ganc_dataset::synth::DatasetProfile;
    use ganc_preference::GeneralizedConfig;

    fn engine(kind: CoverageKind) -> ServingEngine {
        let data = DatasetProfile::tiny().generate(5);
        let split = data.split_per_user(0.5, 2).unwrap();
        let theta = GeneralizedConfig::default().estimate(&split.train);
        let pop = MostPopular::fit(&split.train);
        let cfg = FitConfig {
            coverage: kind,
            sample_size: 12,
            ..FitConfig::new(5)
        };
        let bundle = ModelBundle::fit(FittedModel::Pop(pop), theta, split.train, &cfg);
        ServingEngine::new(bundle, EngineConfig::default())
    }

    /// The value of the exposition line that starts `series `.
    fn exposed(text: &str, series: &str) -> f64 {
        let prefix = format!("{series} ");
        let line = text.lines().find(|l| l.starts_with(&prefix));
        let line = line.unwrap_or_else(|| panic!("{series} missing from:\n{text}"));
        line[prefix.len()..].parse().unwrap()
    }

    #[test]
    fn hits_are_counted_exactly_but_timed_and_traced_one_in_hit_sample() {
        use ganc_obs::{ManualClock, TraceData};
        let clock = Arc::new(ManualClock::new());
        let hub = ObsHub::with_clock(clock.clone());
        let e = engine(CoverageKind::Dynamic);
        e.attach_obs(Arc::clone(&hub), None, Duration::from_secs(300));
        let (u, v) = (UserId(0), UserId(1));

        // Request 0 (sampled) misses; requests 1..=130 hit; request 131
        // (not sampled) misses; probes 132..=195 hit. Sampled: 0, 64, 128
        // and 192, so three of the 194 hits.
        e.recommend(u).unwrap();
        for _ in 0..130 {
            clock.advance(Duration::from_micros(7));
            e.recommend(u).unwrap();
        }
        e.recommend(v).unwrap();
        for _ in 0..64 {
            assert!(e.recommend_cached(u).is_some());
        }
        let (hits, misses) = (194, 2);
        let picked = |k: &u64| k.is_multiple_of(HIT_SAMPLE);
        let sampled_hits = (1..=130).chain(132..=195).filter(picked).count();
        assert_eq!(sampled_hits, 3);

        let text = hub.metrics.render();
        for (result, total, timed) in [("hit", hits, sampled_hits), ("miss", misses, misses)] {
            let labels = format!("{{band=\"all\",result=\"{result}\"}}");
            let counted = exposed(&text, &format!("ganc_engine_requests_total{labels}"));
            assert_eq!(counted, total as f64, "{result}s are counted exactly");
            let timed_count = exposed(&text, &format!("ganc_engine_request_us_count{labels}"));
            assert_eq!(timed_count, timed as f64, "{result}s timed");
        }
        let help = format!("hits are timed 1 in {HIT_SAMPLE}, so a hit series' _count is a sample");
        assert!(text.contains(&help), "the HELP text names the sampling");
        let events = hub.trace.drain();
        let traced = |hit: bool| {
            events
                .iter()
                .filter(|ev| matches!(ev.data, TraceData::Request { cache_hit, .. } if cache_hit == hit))
                .count()
        };
        assert_eq!((traced(true), traced(false)), (sampled_hits, misses));
        // Every served list entered the window, sampled or not.
        assert_eq!(e.window_stats().unwrap().lists, (hits + misses) as u64);
    }

    #[test]
    fn recommend_serves_and_caches() {
        let e = engine(CoverageKind::Dynamic);
        let a = e.recommend(UserId(0)).unwrap();
        assert_eq!(a.len(), 5);
        let b = e.recommend(UserId(0)).unwrap();
        assert_eq!(a, b);
        let s = e.stats();
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.cached, 1);
    }

    #[test]
    fn recommend_cached_probes_without_blocking_or_counting_a_miss() {
        let e = engine(CoverageKind::Dynamic);
        let u = UserId(0);
        assert_eq!(e.recommend_cached(u), None, "nothing cached yet");
        assert_eq!(e.recommend_cached(UserId(e.n_users() + 10)), None);
        let served = e.recommend_traced(u).unwrap();
        // Another thread holds the cache mutex: the probe must come back
        // empty-handed. Were it to wait, the holder (released only after
        // the probe returns) would never let go and the test would hang.
        let (locked_tx, locked_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|scope| {
            let e = &e;
            scope.spawn(move || {
                let _guard = e.cache.lock().unwrap();
                locked_tx.send(()).unwrap();
                release_rx.recv().unwrap();
            });
            locked_rx.recv().unwrap();
            assert_eq!(e.recommend_cached(u), None, "contended probe is a miss");
            release_tx.send(()).unwrap();
        });
        assert_eq!(e.recommend_cached(u), Some(served));
        let s = e.stats();
        assert_eq!(s.cache_hits, 1, "only the successful probe counts");
        assert_eq!(s.cache_misses, 1, "a probe never counts a miss");
    }

    #[test]
    fn unknown_ids_are_rejected() {
        let e = engine(CoverageKind::Static);
        let u_bad = UserId(e.n_users() + 10);
        assert_eq!(e.recommend(u_bad), Err(ServeError::UnknownUser(u_bad)));
        assert_eq!(
            e.ingest(UserId(0), ItemId(1_000_000), 5.0),
            Err(ServeError::UnknownItem(ItemId(1_000_000)))
        );
    }

    #[test]
    fn batch_matches_single_requests() {
        let e = engine(CoverageKind::Dynamic);
        let users: Vec<UserId> = (0..e.n_users()).map(UserId).collect();
        let batch = e.recommend_batch(&users);
        for (u, got) in users.iter().zip(&batch) {
            let single = e.recommend(*u).unwrap();
            assert_eq!(got.as_ref().unwrap(), &single, "user {u:?}");
        }
    }

    #[test]
    fn batch_counts_misses_only_for_served_users() {
        let e = engine(CoverageKind::Dynamic);
        let bad = UserId(e.n_users() + 1);
        let batch = e.recommend_batch(&[UserId(0), bad, UserId(1)]);
        assert!(batch[0].is_ok());
        assert_eq!(batch[1], Err(ServeError::UnknownUser(bad)));
        assert!(batch[2].is_ok());
        let s = e.stats();
        assert_eq!(s.cache_misses, 2, "unknown users must not count as misses");
        assert_eq!(s.cache_hits, 0);
    }

    #[test]
    fn ingest_removes_item_from_user_lists() {
        let e = engine(CoverageKind::Dynamic);
        let u = UserId(1);
        let before = e.recommend(u).unwrap();
        let consumed = before[0];
        e.ingest(u, consumed, 5.0).unwrap();
        let after = e.recommend(u).unwrap();
        assert!(
            !after.contains(&consumed),
            "{consumed:?} was consumed and must not be re-recommended"
        );
        assert_eq!(after.len(), 5);
        let s = e.stats();
        assert_eq!(s.ingested, 1);
        assert_eq!(s.invalidated, 1);
    }

    #[test]
    fn ingest_invalidates_hoisted_runs_for_the_batch_path() {
        // Static coverage: batch misses take the fused query path over the
        // hoisted candidate runs; a stale run list would re-recommend the
        // consumed item.
        let e = engine(CoverageKind::Static);
        let u = UserId(1);
        let neighbor = UserId(2);
        let before = e.recommend_batch(&[u, neighbor]);
        let consumed = before[0].as_ref().unwrap()[0];
        let neighbor_before = before[1].as_ref().unwrap().clone();
        e.ingest(u, consumed, 5.0).unwrap();
        e.flush_cache();
        let after = e.recommend_batch(&[u, neighbor]);
        assert!(
            !after[0].as_ref().unwrap().contains(&consumed),
            "stale hoisted runs re-recommended {consumed:?}"
        );
        {
            let state = e.state.read().unwrap();
            let runs = state.candidate_runs[u.idx()]
                .get()
                .expect("the post-ingest serve rebuilt the runs");
            assert!(
                !runs.iter().any(|&(lo, hi)| (lo..hi).contains(&consumed.0)),
                "rebuilt runs still contain the consumed item"
            );
            // The untouched neighbor's pool is unchanged (popularity drift
            // is not a candidate change)...
            assert!(state.candidate_runs[neighbor.idx()].get().is_some());
        }
        // ...even though their *scores* may move with global popularity.
        let fresh = engine(CoverageKind::Static);
        assert_eq!(
            neighbor_before,
            fresh.recommend(neighbor).unwrap(),
            "sanity: neighbor's pre-ingest list matches a fresh engine"
        );
        assert!(after[1].is_ok());
    }

    #[test]
    fn ingest_refreshes_pop_scores() {
        let e = engine(CoverageKind::Static);
        // Hammer one tail item with ratings from every user; its popularity
        // should now dominate Pop scores for users who haven't seen it.
        let tail = {
            let state = e.state.read().unwrap();
            // Pick the least popular item.
            let (idx, _) = state
                .pop_counts
                .iter()
                .enumerate()
                .min_by_key(|&(_, &c)| c)
                .unwrap();
            ItemId(idx as u32)
        };
        for u in 0..e.n_users() {
            e.ingest(UserId(u), tail, 5.0).unwrap();
            // Re-ingesting the same pair still counts popularity but the
            // candidate exclusion stays deduplicated.
            e.ingest(UserId(u), tail, 4.0).unwrap();
        }
        let state = e.state.read().unwrap();
        let max = *state.pop_counts.iter().max().unwrap();
        assert_eq!(state.pop_counts[tail.idx()], max, "tail item now hottest");
    }

    #[test]
    fn legacy_normalized_pop_ingest_rebuilds_instead_of_bumping() {
        // A Pop model holding min–max normalized scores: a +1 bump on that
        // scale would catapult the ingested item to the top of every
        // ranking.
        let data = DatasetProfile::tiny().generate(5);
        let split = data.split_per_user(0.5, 2).unwrap();
        let theta = GeneralizedConfig::default().estimate(&split.train);
        let mut normalized: Vec<f64> = split
            .train
            .item_popularity()
            .iter()
            .map(|&f| f as f64)
            .collect();
        ganc_dataset::stats::min_max_normalize(&mut normalized);
        // MostPopular's wire shape is its score vector.
        let legacy_pop: MostPopular =
            bincode::deserialize(&bincode::serialize(&normalized).unwrap()).unwrap();
        let cfg = FitConfig {
            coverage: CoverageKind::Static,
            sample_size: 12,
            ..FitConfig::new(5)
        };
        let bundle = ModelBundle::fit(FittedModel::Pop(legacy_pop), theta, split.train, &cfg);
        let e = ServingEngine::new(bundle, EngineConfig::default());
        assert!(!e.state.read().unwrap().pop_bump_ok);
        e.ingest(UserId(0), ItemId(3), 5.0).unwrap();
        let state = e.state.read().unwrap();
        assert!(state.pop_bump_ok, "rebuild resets to raw-count scores");
        match &*state.bundle.model {
            FittedModel::Pop(pop) => {
                assert_eq!(pop, &MostPopular::from_popularity(&state.pop_counts));
            }
            _ => panic!("expected Pop model"),
        }
    }

    #[test]
    fn incremental_ingest_matches_full_rebuild() {
        use ganc_core::coverage::StatCoverage;
        let e = engine(CoverageKind::Static);
        let n_users = e.n_users();
        for k in 0..7u32 {
            e.ingest(UserId(k % n_users), ItemId(k % 5), 4.0).unwrap();
        }
        let state = e.state.read().unwrap();
        match &state.bundle.coverage {
            CoverageState::Static(stat) => {
                assert_eq!(stat, &StatCoverage::from_popularity(&state.pop_counts));
            }
            other => panic!("expected Static coverage, got {:?}", other.kind()),
        }
        match &*state.bundle.model {
            FittedModel::Pop(pop) => {
                assert_eq!(pop, &MostPopular::from_popularity(&state.pop_counts));
            }
            _ => panic!("expected Pop model"),
        }
    }

    #[test]
    fn dedup_window_is_bounded_fifo() {
        let mut w = DedupWindow::new(2);
        assert!(w.observe("a"));
        assert!(!w.observe("a"), "duplicate detected");
        assert!(w.observe("b"));
        assert!(w.observe("c"), "capacity evicts the oldest");
        assert!(!w.resent("a"), "a fell out of the window");
        assert!(w.resent("b") && w.resent("c"));
        assert_eq!(w.keys().collect::<Vec<_>>(), vec!["b", "c"]);
        let stats = w.stats();
        assert_eq!((stats.window, stats.len, stats.evictions), (2, 2, 1));
        assert_eq!(stats.hits, 2, "only answered resends are hits");
    }

    /// A keyed resend is a no-op across a swap — pool, popularity, cache
    /// and counters untouched — until `DEDUP_WINDOW` newer keys evict its
    /// key, after which it applies again: the retention contract.
    #[test]
    fn keyed_resend_dedups_across_a_swap_until_its_key_is_evicted() {
        let e = engine(CoverageKind::Static);
        let fresh = e.with_bundle(ModelBundle::clone);
        let u = UserId(1);
        let item = e.recommend(u).unwrap()[0];
        let ingest = |key: &str| e.ingest_keyed(Some(key), u, item, 5.0);
        assert_eq!(ingest("k-0"), Ok(IngestAck::Applied));
        assert_eq!(e.swap_bundle(fresh), 1);

        let served = e.recommend_traced(u).unwrap();
        let pool = |e: &ServingEngine| {
            let state = e.state.read().unwrap();
            let runs = state.candidate_runs[u.idx()].get().cloned();
            (
                state.pop_counts.clone(),
                state.extra_seen[u.idx()].clone(),
                runs,
            )
        };
        let (stats, before) = (e.stats(), pool(&e));
        assert!(before.2.is_some(), "the serve hoisted the user's runs");
        assert_eq!(ingest("k-0"), Ok(IngestAck::Deduplicated));
        assert_eq!(e.stats(), stats, "no counter moved");
        assert_eq!(pool(&e), before, "no pool or popularity moved");
        assert_eq!(e.recommend_cached(u), Some(served), "the cached list stays");

        for k in 1..DEDUP_WINDOW {
            assert_eq!(ingest(&format!("k-{k}")), Ok(IngestAck::Applied));
        }
        assert_eq!(ingest("k-0"), Ok(IngestAck::Deduplicated), "still inside");
        let applied = e.stats().ingested;
        assert_eq!(ingest("k-newest"), Ok(IngestAck::Applied), "evicts k-0");
        assert_eq!(ingest("k-0"), Ok(IngestAck::Applied), "k-0 applies again");
        assert_eq!(e.stats().ingested, applied + 2);
    }

    #[test]
    fn swap_bundle_bumps_generation_and_clears_cache() {
        let data = DatasetProfile::tiny().generate(5);
        let split = data.split_per_user(0.5, 2).unwrap();
        let theta = GeneralizedConfig::default().estimate(&split.train);
        let cfg = FitConfig {
            coverage: CoverageKind::Static,
            sample_size: 12,
            ..FitConfig::new(5)
        };
        let pop = MostPopular::fit(&split.train);
        let a = ModelBundle::fit(
            FittedModel::Pop(pop),
            theta.clone(),
            split.train.clone(),
            &cfg,
        );
        // Bundle B: θ flipped to 1 for everyone — different lists.
        let pop = MostPopular::fit(&split.train);
        let b = ModelBundle::fit(
            FittedModel::Pop(pop),
            vec![1.0; theta.len()],
            split.train.clone(),
            &cfg,
        );
        let expect_b = {
            let e = ServingEngine::new(b.clone(), EngineConfig::default());
            e.recommend(UserId(0)).unwrap()
        };

        let e = ServingEngine::new(a, EngineConfig::default());
        let (before, g0) = e.recommend_traced(UserId(0)).unwrap();
        assert_eq!(g0, 0);
        assert_eq!(e.generation(), 0);
        assert_eq!(e.swap_bundle(b), 1);
        assert_eq!(e.generation(), 1);
        assert_eq!(e.stats().cached, 0, "swap clears the response cache");
        let (after, g1) = e.recommend_traced(UserId(0)).unwrap();
        assert_eq!(g1, 1);
        assert_eq!(after, expect_b);
        assert_ne!(before, after, "θ flip must change the served list");
        let (_, batch_gen) = e.recommend_batch_traced(&[UserId(0), UserId(1)]);
        assert_eq!(batch_gen, 1);
    }

    #[test]
    fn concurrent_requests_and_ingests_hold_up() {
        let e = Arc::new(engine(CoverageKind::Dynamic));
        let n_users = e.n_users();
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let e = Arc::clone(&e);
                scope.spawn(move || {
                    for k in 0..200u32 {
                        let u = UserId((t * 7 + k) % n_users);
                        let list = e.recommend(u).unwrap();
                        assert_eq!(list.len(), 5);
                        if k % 17 == 0 {
                            e.ingest(u, list[0], 5.0).unwrap();
                        }
                    }
                });
            }
        });
        let s = e.stats();
        assert_eq!(s.cache_hits + s.cache_misses, 800);
        assert!(s.ingested > 0);
    }
}
