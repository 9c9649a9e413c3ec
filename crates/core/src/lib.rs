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

pub mod accuracy;
pub mod coverage;
pub mod ganc;
pub mod oslg;
pub mod query;

pub use accuracy::{AccuracyMode, AccuracyScorer, NormalizedScores, TopNIndicator};
pub use coverage::{
    CoverageKind, CoverageSnapshots, CoverageView, DynCoverage, RandCoverage, StatCoverage,
};
pub use ganc::{GancBuilder, TopNLists};
pub use oslg::{oslg_seed_phase, OslgConfig, OslgSeed, UserOrdering};
pub use query::{CoverageProvider, RequestOptions, RerankMode, UserQuery};
