//! # ganc — facade crate
//!
//! Re-exports the public API of the whole workspace so downstream users can
//! depend on a single crate:
//!
//! * [`dataset`] — rating data, CSR interactions, splits, synthetic
//!   generators ([`ganc_dataset`])
//! * [`linalg`] — dense matrices and randomized truncated SVD
//!   ([`ganc_linalg`])
//! * [`metrics`] — the Table III metric suite and test ranking protocols
//!   ([`ganc_metrics`])
//! * [`preference`] — user long-tail novelty preference models θ
//!   ([`ganc_preference`])
//! * [`recommender`] — base recommenders: Pop, Rand, RSVD, PSVD,
//!   RankMF ([`ganc_recommender`])
//! * [`core`] — the GANC framework and the OSLG optimizer ([`ganc_core`])
//! * [`rerank`] — the RBT / 5D / PRA baselines ([`ganc_rerank`])
//! * [`eval`] — the experiment harness regenerating every paper table and
//!   figure ([`ganc_eval`])
//! * [`serve`] — the online serving subsystem: model persistence, a
//!   per-request incremental query path, and a concurrent serving engine
//!   ([`ganc_serve`])
//! * [`http`] — the std-only HTTP/1.1 front-end: server, remote θ-band
//!   shard client, and multi-node router ([`ganc_http`])
//! * [`obs`] — the observability layer: lock-free metrics registry with
//!   Prometheus text exposition, trace-event ring buffer, and rolling
//!   beyond-accuracy windows ([`ganc_obs`])
//!
//! ## Quickstart
//!
//! ```
//! use ganc::dataset::synth::DatasetProfile;
//! use ganc::preference::generalized::GeneralizedConfig;
//! use ganc::recommender::pop::MostPopular;
//! use ganc::core::{build_topn, FitConfig};
//!
//! // 1. Data: a small synthetic catalog with real-world popularity skew.
//! let data = DatasetProfile::tiny().generate(42);
//! let split = data.split_per_user(0.5, 7).unwrap();
//!
//! // 2. Learn per-user long-tail preference θ^G from the train set.
//! let theta = GeneralizedConfig::default().estimate(&split.train);
//!
//! // 3. Re-rank a base recommender with GANC(ARec, θ^G, Dyn); one
//! //    `FitConfig` describes the run, at the paper's defaults here.
//! let arec = MostPopular::fit(&split.train);
//! let cfg = FitConfig { seed: 0xC0FFEE, ..FitConfig::new(10) };
//! let lists = build_topn(&arec, &theta, &split.train, &cfg, 4);
//! assert_eq!(lists.len(), split.train.n_users() as usize);
//! ```
//!
//! ## Serving: fit → save → load → serve
//!
//! Batch runs throw their trained state away; the serving subsystem
//! persists it and answers single-user requests online:
//!
//! ```
//! use ganc::dataset::synth::DatasetProfile;
//! use ganc::dataset::UserId;
//! use ganc::preference::generalized::GeneralizedConfig;
//! use ganc::recommender::pop::MostPopular;
//! use ganc::serve::{
//!     EngineConfig, FitConfig, FittedModel, ModelBundle, SaveLoad, ServingEngine,
//! };
//!
//! let data = DatasetProfile::tiny().generate(42);
//! let split = data.split_per_user(0.5, 7).unwrap();
//! let theta = GeneralizedConfig::default().estimate(&split.train);
//! let pop = MostPopular::fit(&split.train);
//!
//! // Fit once (OSLG sequential phase only), persist, reload, serve. The
//! // same `FitConfig` given to `ganc::core::build_topn` yields the lists
//! // this engine serves.
//! let cfg = FitConfig { sample_size: 20, ..FitConfig::new(10) };
//! let bundle = ModelBundle::fit(FittedModel::Pop(pop), theta, split.train, &cfg);
//! let restored = ModelBundle::from_bytes(&bundle.to_bytes().unwrap()).unwrap();
//! let engine = ServingEngine::new(restored, EngineConfig::default());
//! assert_eq!(engine.recommend(UserId(3)).unwrap().len(), 10);
//! ```

pub use ganc_core as core;
pub use ganc_dataset as dataset;
pub use ganc_eval as eval;
pub use ganc_http as http;
pub use ganc_linalg as linalg;
pub use ganc_metrics as metrics;
pub use ganc_obs as obs;
pub use ganc_preference as preference;
pub use ganc_recommender as recommender;
pub use ganc_rerank as rerank;
pub use ganc_serve as serve;
