//! # ganc-core
//!
//! The paper's primary contribution: **GANC**, a Generic re-ranking
//! framework providing customized balance between Accuracy, Novelty and
//! Coverage (§III).
//!
//! GANC is assembled from three components, written
//! `GANC(ARec, θ, CRec)` in the paper:
//!
//! 1. an **accuracy recommender** — any [`ganc_recommender::Recommender`],
//!    adapted to `[0, 1]` accuracy scores by [`accuracy::AccuracyScorer`]
//!    (per-user normalization for score models, a top-N indicator for Pop);
//! 2. a per-user **long-tail preference** `θ_u ∈ [0, 1]` (estimated by
//!    `ganc-preference`);
//! 3. a **coverage recommender** ([`coverage`]): `Rand`, `Stat`, or the
//!    diminishing-returns `Dyn`.
//!
//! Each user's value function is
//! `v_u(P_u) = (1 − θ_u)·a(P_u) + θ_u·c(P_u)` (Eq. III.1), and the
//! framework maximizes `Σ_u v_u(P_u)` (Eq. III.2). With `Dyn` the objective
//! is submodular and monotone over user-item pairs (Appendix B), and is
//! optimized by [`oslg`] — Ordered Sampling-based Locally Greedy
//! (Algorithm 1) — or by the full Locally Greedy for reference.
//!
//! One [`FitConfig`] describes a run: `N`, the coverage recommender, the
//! accuracy adaptation, and OSLG's sample size, ordering and seed.
//! [`build_topn`] runs it in batch; `ganc_serve::ModelBundle::fit` freezes
//! the same run for serving, so the two paths answer alike.
//!
//! ```
//! use ganc_core::{build_topn, CoverageKind, FitConfig};
//! use ganc_dataset::synth::DatasetProfile;
//! use ganc_preference::GeneralizedConfig;
//! use ganc_recommender::pop::MostPopular;
//!
//! let data = DatasetProfile::tiny().generate(42);
//! let split = data.split_per_user(0.5, 7).unwrap();
//! let theta = GeneralizedConfig::default().estimate(&split.train);
//! let arec = MostPopular::fit(&split.train);
//! let cfg = FitConfig { coverage: CoverageKind::Static, ..FitConfig::new(10) };
//! let lists = build_topn(&arec, &theta, &split.train, &cfg, 2);
//! assert!(lists.iter().all(|l| l.len() <= 10));
//! ```

pub mod accuracy;
pub mod coverage;
pub mod ganc;
pub mod oslg;
pub mod query;

pub use accuracy::{make_scorer, AccuracyMode, AccuracyScorer, NormalizedScores, TopNIndicator};
pub use coverage::{
    CoverageKind, CoverageSnapshots, CoverageView, DynCoverage, RandCoverage, StatCoverage,
};
pub use ganc::{build_topn, FitConfig};
pub use oslg::{oslg_seed_phase, OslgConfig, OslgSeed, UserOrdering};
pub use query::{CoverageProvider, RequestOptions, RerankMode, UserQuery};
