//! The GANC builder: assemble `GANC(ARec, θ, CRec)` and produce a top-N
//! collection (§III, Eq. III.1–III.2).
//!
//! With `Rand` or `Stat` coverage the user value functions are independent
//! and optimized exactly, per user, in parallel. With `Dyn` the users are
//! coupled and the [`crate::oslg`] machinery takes over. Every per-user
//! optimization — batch or serving — runs through the fused
//! [`crate::query::UserQuery`] scorer, so the hot path is shared and
//! "served output equals batch output" holds by construction.

use crate::accuracy::{AccuracyMode, AccuracyScorer, NormalizedScores, TopNIndicator};
use crate::coverage::{CoverageKind, RandCoverage, StatCoverage};
use crate::oslg::{oslg_topn, OslgConfig, UserOrdering};
use crate::query::{CoverageProvider, UserQuery};
use ganc_dataset::{Interactions, ItemId};
use ganc_recommender::topn::{per_user_lists, train_item_mask};
use ganc_recommender::Recommender;

/// A produced top-N collection: one list per user.
#[derive(Debug, Clone, PartialEq)]
pub struct TopNLists {
    n: usize,
    lists: Vec<Vec<ItemId>>,
}

impl TopNLists {
    /// Wrap raw lists.
    pub fn new(n: usize, lists: Vec<Vec<ItemId>>) -> TopNLists {
        TopNLists { n, lists }
    }

    /// List size `N` the collection was built for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Per-user lists, indexed by user id.
    pub fn lists(&self) -> &[Vec<ItemId>] {
        &self.lists
    }

    /// Consume into the raw lists.
    pub fn into_lists(self) -> Vec<Vec<ItemId>> {
        self.lists
    }
}

/// Builder for GANC runs.
///
/// ```
/// use ganc_core::{CoverageKind, GancBuilder};
/// use ganc_dataset::synth::DatasetProfile;
/// use ganc_preference::GeneralizedConfig;
/// use ganc_recommender::pop::MostPopular;
///
/// let data = DatasetProfile::tiny().generate(1);
/// let split = data.split_per_user(0.5, 2).unwrap();
/// let theta = GeneralizedConfig::default().estimate(&split.train);
/// let pop = MostPopular::fit(&split.train);
/// let top = GancBuilder::new(5)
///     .coverage(CoverageKind::Dynamic)
///     .sample_size(20)
///     .build_topn(&pop, &theta, &split.train, 7);
/// assert_eq!(top.lists().len(), split.train.n_users() as usize);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct GancBuilder {
    n: usize,
    coverage: CoverageKind,
    accuracy_mode: AccuracyMode,
    sample_size: usize,
    ordering: UserOrdering,
    threads: usize,
}

impl GancBuilder {
    /// A builder for top-`n` recommendation with the paper's defaults:
    /// Dyn coverage, normalized accuracy scores, `S = 500`.
    pub fn new(n: usize) -> GancBuilder {
        GancBuilder {
            n,
            coverage: CoverageKind::Dynamic,
            accuracy_mode: AccuracyMode::Normalized,
            sample_size: 500,
            ordering: UserOrdering::IncreasingTheta,
            threads: std::thread::available_parallelism().map_or(4, |p| p.get()),
        }
    }

    /// Choose the coverage recommender (`Rand` / `Stat` / `Dyn`).
    pub fn coverage(mut self, kind: CoverageKind) -> Self {
        self.coverage = kind;
        self
    }

    /// Choose how the base recommender becomes `[0,1]` accuracy scores.
    pub fn accuracy_mode(mut self, mode: AccuracyMode) -> Self {
        self.accuracy_mode = mode;
        self
    }

    /// OSLG sample size `S` (only used with Dyn coverage).
    pub fn sample_size(mut self, s: usize) -> Self {
        self.sample_size = s;
        self
    }

    /// Sequential ordering (ablation hook; default increasing θ).
    pub fn ordering(mut self, ordering: UserOrdering) -> Self {
        self.ordering = ordering;
        self
    }

    /// Worker threads for parallel phases.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Run GANC over a base recommender, adapting it per the configured
    /// [`AccuracyMode`].
    pub fn build_topn(
        &self,
        base: &dyn Recommender,
        theta: &[f64],
        train: &Interactions,
        seed: u64,
    ) -> TopNLists {
        match self.accuracy_mode {
            AccuracyMode::Normalized => {
                let scorer = NormalizedScores::new(base);
                self.build_topn_with_scorer(&scorer, theta, train, seed)
            }
            AccuracyMode::TopNIndicator => {
                let scorer = TopNIndicator::new(base, train, self.n);
                self.build_topn_with_scorer(&scorer, theta, train, seed)
            }
        }
    }

    /// Run GANC over an already-adapted accuracy scorer.
    pub fn build_topn_with_scorer(
        &self,
        arec: &dyn AccuracyScorer,
        theta: &[f64],
        train: &Interactions,
        seed: u64,
    ) -> TopNLists {
        let lists = match self.coverage {
            CoverageKind::Dynamic => {
                let cfg = OslgConfig {
                    n: self.n,
                    sample_size: self.sample_size,
                    ordering: self.ordering,
                    threads: self.threads,
                    seed,
                };
                oslg_topn(arec, theta, train, &cfg)
            }
            CoverageKind::Static => {
                let stat = StatCoverage::fit(train);
                self.independent_topn(arec, theta, train, &stat)
            }
            CoverageKind::Random => {
                let rand = RandCoverage::new(seed);
                self.independent_topn(arec, theta, train, &rand)
            }
        };
        TopNLists::new(self.n, lists)
    }

    /// Exact per-user optimization for decoupled coverage recommenders,
    /// parallel over user chunks. Each worker runs the same
    /// [`UserQuery`] computation the online serving path uses.
    fn independent_topn(
        &self,
        arec: &dyn AccuracyScorer,
        theta: &[f64],
        train: &Interactions,
        coverage: &(dyn CoverageProvider + Sync),
    ) -> Vec<Vec<ItemId>> {
        let n_users = train.n_users() as usize;
        assert_eq!(theta.len(), n_users, "one θ per user required");
        let in_train = train_item_mask(train);
        per_user_lists(
            n_users,
            self.threads,
            || UserQuery::new(arec, train, &in_train, self.n),
            |query, u| Some(query.topn(u, theta[u.idx()], coverage)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ganc_dataset::synth::DatasetProfile;
    use ganc_dataset::UserId;
    use ganc_preference::GeneralizedConfig;
    use ganc_recommender::pop::MostPopular;

    fn setup() -> (Interactions, Vec<f64>, MostPopular) {
        let data = DatasetProfile::small().generate(21);
        let split = data.split_per_user(0.5, 1).unwrap();
        let theta = GeneralizedConfig::default().estimate(&split.train);
        let pop = MostPopular::fit(&split.train);
        (split.train, theta, pop)
    }

    fn distinct_items(lists: &[Vec<ItemId>]) -> usize {
        let mut seen = std::collections::HashSet::new();
        for l in lists {
            seen.extend(l.iter().map(|i| i.0));
        }
        seen.len()
    }

    #[test]
    fn all_coverage_kinds_produce_valid_collections() {
        let (train, theta, pop) = setup();
        for kind in [
            CoverageKind::Random,
            CoverageKind::Static,
            CoverageKind::Dynamic,
        ] {
            let top = GancBuilder::new(5)
                .coverage(kind)
                .sample_size(50)
                .build_topn(&pop, &theta, &train, 3);
            assert_eq!(top.lists().len(), train.n_users() as usize);
            for (u, list) in top.lists().iter().enumerate() {
                assert_eq!(list.len(), 5, "{:?} user {u}", kind);
                for item in list {
                    assert!(!train.contains(UserId(u as u32), *item));
                }
            }
        }
    }

    #[test]
    fn every_coverage_kind_beats_pure_arec_on_coverage() {
        let (train, theta, pop) = setup();
        let pure = ganc_recommender::topn::generate_topn_lists(&pop, &train, 5, 2);
        let base_cov = distinct_items(&pure);
        for kind in [
            CoverageKind::Random,
            CoverageKind::Static,
            CoverageKind::Dynamic,
        ] {
            let top = GancBuilder::new(5)
                .coverage(kind)
                .sample_size(60)
                .build_topn(&pop, &theta, &train, 3);
            let cov = distinct_items(top.lists());
            assert!(
                cov > base_cov,
                "{kind:?}: coverage {cov} should beat pure ARec {base_cov}"
            );
        }
    }

    #[test]
    fn dynamic_coverage_spreads_more_than_static() {
        // Stat has constant gain and keeps hammering the same tail items;
        // Dyn discounts already-recommended items — the paper's §V-B
        // observation that Stat "is generally not a strong coverage
        // recommender".
        let (train, theta, pop) = setup();
        let build = |kind| {
            GancBuilder::new(5)
                .coverage(kind)
                .sample_size(60)
                .build_topn(&pop, &theta, &train, 3)
        };
        let dyn_cov = distinct_items(build(CoverageKind::Dynamic).lists());
        let stat_cov = distinct_items(build(CoverageKind::Static).lists());
        assert!(
            dyn_cov > stat_cov,
            "Dyn coverage {dyn_cov} should beat Stat {stat_cov}"
        );
    }

    #[test]
    fn indicator_mode_works_with_pop() {
        let (train, theta, pop) = setup();
        let top = GancBuilder::new(5)
            .accuracy_mode(AccuracyMode::TopNIndicator)
            .sample_size(40)
            .build_topn(&pop, &theta, &train, 5);
        assert_eq!(top.n(), 5);
        assert_eq!(top.lists().len(), train.n_users() as usize);
    }

    #[test]
    fn builder_is_deterministic() {
        let (train, theta, pop) = setup();
        let mk = || {
            GancBuilder::new(5)
                .coverage(CoverageKind::Dynamic)
                .sample_size(30)
                .threads(2)
                .build_topn(&pop, &theta, &train, 11)
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn into_lists_round_trip() {
        let lists = vec![vec![ItemId(1)], vec![]];
        let top = TopNLists::new(1, lists.clone());
        assert_eq!(top.n(), 1);
        assert_eq!(top.into_lists(), lists);
    }
}
