//! # ganc-metrics
//!
//! The paper's full evaluation suite (Table III):
//!
//! * **Local ranking accuracy** — Precision@N, Recall@N, F-measure@N
//!   ([`accuracy`]), plus NDCG@N for completeness.
//! * **Long-tail promotion** — LTAccuracy@N and Stratified Recall@N with
//!   β = 0.5 ([`longtail`]).
//! * **Coverage** — Coverage@N and the Gini coefficient of the
//!   recommendation-frequency distribution ([`coverage`]).
//! * **Rating-prediction error** — RMSE / MAE ([`rating`]), used by the
//!   Appendix A hyper-parameter study (Table V).
//! * **Popularity-based novelty** — mean self-information and expected
//!   popularity complement ([`novelty`]; library extension beyond
//!   Table III).
//! * **Test ranking protocols** ([`protocol`]) — "all unrated items" vs
//!   "rated test-items" (§IV-A and Appendix C), which Figures 7–8 show can
//!   swing measured accuracy by an order of magnitude.
//!
//! ## Which is which, against the usual open-source definitions
//!
//! Cross-checked once against the three reference snippets in
//! `SNIPPETS.md`, so nobody has to wonder whether "coverage" or "novelty"
//! here means what a toolkit's metric of the same name means:
//!
//! * **Snippet 3, RecPack's `CoverageK`** — distinct items ranked in any
//!   user's top-K over `|I|` — is exactly [`coverage::coverage`]
//!   (`|∪_u P_u| / |I|`), with `|I|` the whole id space, train-unrated items
//!   included.
//! * **Snippet 2, `compute_novelty`** — the mean of `−log₂(pop / |U|)` over
//!   every recommended item — is [`novelty::mean_self_information`] over
//!   [`novelty::observation_probability`]. They differ only off the rated
//!   catalog and in what `|U|` counts: the snippet gives an item with no
//!   train rating `pop = 1`, i.e. the same `1/|U|` as an item rated once,
//!   while the floor here is `1 / (|U| + 1)`, strictly rarer than any rated
//!   item; and the snippet's `|U|` is the users *with* a train rating, here
//!   it is the user id space.
//! * **Snippet 1, the group-popularity `Novelty`** — popularity as a
//!   short-head / mid-tail / long-tail segment score averaged over the
//!   lists — has no counterpart. Its role (how far down the popularity
//!   curve the lists reach) is played by the paper's
//!   [`longtail::lt_accuracy`], the share of recommended items in the
//!   long-tail set `L`; snippet 1's `Coverage` is [`coverage::coverage`]
//!   again.
//!
//! All metrics consume a [`TopN`] collection (one recommendation list per
//! user) and the train/test [`ganc_dataset::Interactions`], so they are
//! independent of whichever model produced the lists.

pub mod accuracy;
pub mod coverage;
pub mod longtail;
pub mod novelty;
pub mod protocol;
pub mod rating;
pub mod report;
pub mod topn;

pub use protocol::RankingProtocol;
pub use report::{evaluate_topn, EvalContext, TopNMetrics};
pub use topn::TopN;
