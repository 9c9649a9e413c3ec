//! # ganc-serve
//!
//! The online serving subsystem: persist fitted GANC state and answer
//! per-user top-N requests without re-running the batch optimizer.
//!
//! Three layers:
//!
//! 1. **Persistence** ([`saveload`], [`bundle`]) — every fitted component
//!    (base recommenders, θ estimates, coverage state) serializes through a
//!    versioned binary envelope; a [`ModelBundle`] packages a complete
//!    serving configuration into one artifact.
//! 2. **Query path** — single-user requests run the one fused selection
//!    ([`ganc_core::query::fused_select_runs`], the body of
//!    [`ganc_core::query::UserQuery`]) against the bundle's frozen coverage
//!    state; for `Dyn` coverage that is exactly OSLG's parallel phase
//!    (Algorithm 1, lines 11–15), so served lists match batch output.
//! 3. **Engine** ([`engine`], [`batch`]) — a thread-safe
//!    [`ServingEngine`] with an LRU response cache, batched request
//!    fan-out, interaction ingestion with cache invalidation, generation
//!    counters, and a [`MicroBatcher`] coalescing concurrent callers.
//! 4. **Scale-out** ([`band`], [`shard`], [`refit`]) — the θ-band fan-out
//!    an in-process [`ShardedEngine`] and a multi-node router share (one
//!    [`BandMap`] places users, one [`band_batch`] splits and folds a
//!    batch), a [`ShardedEngine`] that partitions users into θ bands (each
//!    shard holds only its band's snapshot sub-range; per-shard artifacts
//!    deploy to nodes), plus a
//!    [`RefitController`] that refits on train + ingested interactions in
//!    the background and hot-swaps all shards atomically, rebalancing the
//!    θ bands on every refit.
//!
//! ## Quickstart: fit → save → load → serve
//!
//! ```
//! use ganc_serve::{
//!     EngineConfig, FitConfig, FittedModel, ModelBundle, SaveLoad, ServingEngine,
//! };
//! use ganc_dataset::synth::DatasetProfile;
//! use ganc_dataset::UserId;
//! use ganc_preference::GeneralizedConfig;
//! use ganc_recommender::pop::MostPopular;
//!
//! // Fit: data → θ → base model → bundle (runs OSLG's sequential phase).
//! let data = DatasetProfile::tiny().generate(42);
//! let split = data.split_per_user(0.5, 7).unwrap();
//! let theta = GeneralizedConfig::default().estimate(&split.train);
//! let pop = MostPopular::fit(&split.train);
//! let cfg = FitConfig { sample_size: 20, ..FitConfig::new(10) };
//! let bundle = ModelBundle::fit(FittedModel::Pop(pop), theta, split.train, &cfg);
//!
//! // Save and load the artifact.
//! let bytes = bundle.to_bytes().unwrap();
//! let restored = ModelBundle::from_bytes(&bytes).unwrap();
//!
//! // Serve single requests — no batch optimization happens here.
//! let engine = ServingEngine::new(restored, EngineConfig::default());
//! let list = engine.recommend(UserId(3)).unwrap();
//! assert_eq!(list.len(), 10);
//! ```

pub mod band;
pub mod batch;
pub mod bundle;
pub mod engine;
pub mod lru;
pub(crate) mod obs;
pub mod refit;
pub mod saveload;
pub mod shard;
pub mod wal;

pub use band::{band_batch, BandFault, BandMap};
pub use batch::{BatchConfig, BatchSource, CoalescedAnswer, Coalescer, MicroBatcher};
pub use bundle::{BoundModel, CoverageState, FittedModel, ModelBundle};
pub use engine::{
    build_reranker, DedupStats, DedupWindow, EngineBatch, EngineConfig, EngineStats, IngestAck,
    ServeError, ServingEngine, SlotAnswer, DEDUP_WINDOW,
};
pub use ganc_core::query::{RequestOptions, RerankMode};
pub use ganc_core::{make_scorer, FitConfig};
pub use lru::LruCache;
pub use refit::{
    merge_interactions, AdaptiveCadence, CadenceConfig, Clock, ManualClock, RefitController,
    RefitOutcome, Refitter, SystemClock,
};
pub use saveload::{PersistError, SaveLoad, FORMAT_VERSION, MAGIC};
pub use shard::{
    save_shard_artifacts, shard_artifact_path, ShardConfig, ShardInfo, ShardPlan, ShardedEngine,
};
pub use wal::{
    crc32, decode_stream, encode_record, validate_key, DurableConfig, DurableLog, Recovered,
    SyncPolicy, Wal, WalRecord, WalReplaySummary, WalStats, MAX_KEY_LEN, MAX_PAYLOAD, WAL_MAGIC,
    WAL_VERSION,
};
