//! One GANC run, `GANC(ARec, θ, CRec)` (§III, Eq. III.1–III.2): the
//! [`FitConfig`] that describes it, and [`build_topn`], the batch path that
//! produces its top-N collection.
//!
//! With `Rand` or `Stat` coverage the user value functions are independent
//! and optimized exactly, per user, in parallel. With `Dyn` the users are
//! coupled and the [`crate::oslg`] machinery takes over. Every per-user
//! optimization — batch or serving — runs through the fused
//! [`crate::query::UserQuery`] scorer, so the hot path is shared and
//! "served output equals batch output" holds by construction.

use crate::accuracy::{make_scorer, AccuracyMode, AccuracyScorer};
use crate::coverage::{CoverageKind, RandCoverage, StatCoverage};
use crate::oslg::{oslg_topn, OslgConfig, UserOrdering};
use crate::query::{CoverageProvider, UserQuery};
use ganc_dataset::{Interactions, ItemId};
use ganc_recommender::topn::{per_user_lists, train_item_mask};
use ganc_recommender::Recommender;

/// The one description of a GANC run: every parameter §III and
/// Algorithm 1 fix besides the base recommender and θ. The batch path
/// ([`build_topn`]) and the serving path (`ganc_serve::ModelBundle::fit`)
/// both read it, so a bundle fitted from a config serves exactly the lists
/// [`build_topn`] produces from the same config.
///
/// ```
/// use ganc_core::{build_topn, CoverageKind, FitConfig};
/// use ganc_dataset::synth::DatasetProfile;
/// use ganc_preference::GeneralizedConfig;
/// use ganc_recommender::pop::MostPopular;
///
/// let data = DatasetProfile::tiny().generate(1);
/// let split = data.split_per_user(0.5, 2).unwrap();
/// let theta = GeneralizedConfig::default().estimate(&split.train);
/// let pop = MostPopular::fit(&split.train);
/// let cfg = FitConfig {
///     coverage: CoverageKind::Dynamic,
///     sample_size: 20,
///     seed: 7,
///     ..FitConfig::new(5)
/// };
/// let lists = build_topn(&pop, &theta, &split.train, &cfg, 2);
/// assert_eq!(lists.len(), split.train.n_users() as usize);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FitConfig {
    /// Recommendation list size `N`.
    pub n: usize,
    /// Coverage recommender kind.
    pub coverage: CoverageKind,
    /// Accuracy adaptation of the base model.
    pub accuracy_mode: AccuracyMode,
    /// OSLG sample size `S` (Dyn only).
    pub sample_size: usize,
    /// OSLG sequential ordering (Dyn only).
    pub ordering: UserOrdering,
    /// Seed for KDE sampling (Dyn) and Rand coverage.
    pub seed: u64,
}

impl FitConfig {
    /// The paper's defaults: Dyn coverage, normalized accuracy scores,
    /// `S = 500`, increasing-θ order. The only place they are written.
    pub fn new(n: usize) -> FitConfig {
        FitConfig {
            n,
            coverage: CoverageKind::Dynamic,
            accuracy_mode: AccuracyMode::Normalized,
            sample_size: 500,
            ordering: UserOrdering::IncreasingTheta,
            seed: 0x0000_0516,
        }
    }

    /// The OSLG run this config describes, with `threads` workers for the
    /// parallel phase.
    pub fn oslg(&self, threads: usize) -> OslgConfig {
        OslgConfig {
            n: self.n,
            sample_size: self.sample_size,
            ordering: self.ordering,
            threads,
            seed: self.seed,
        }
    }
}

/// Run GANC over a base recommender as `cfg` describes, on `threads`
/// workers; one list per user, indexed by user id. The lists do not depend
/// on `threads`.
pub fn build_topn(
    base: &dyn Recommender,
    theta: &[f64],
    train: &Interactions,
    cfg: &FitConfig,
    threads: usize,
) -> Vec<Vec<ItemId>> {
    let arec = make_scorer(base, cfg.accuracy_mode, train, cfg.n);
    let threads = threads.max(1);
    match cfg.coverage {
        CoverageKind::Dynamic => oslg_topn(arec.as_ref(), theta, train, &cfg.oslg(threads)),
        CoverageKind::Static => {
            let stat = StatCoverage::fit(train);
            independent_topn(arec.as_ref(), theta, train, cfg.n, threads, &stat)
        }
        CoverageKind::Random => {
            let rand = RandCoverage::new(cfg.seed);
            independent_topn(arec.as_ref(), theta, train, cfg.n, threads, &rand)
        }
    }
}

/// Exact per-user optimization for decoupled coverage recommenders,
/// parallel over user chunks. Each worker runs the same [`UserQuery`]
/// computation the online serving path uses.
fn independent_topn(
    arec: &dyn AccuracyScorer,
    theta: &[f64],
    train: &Interactions,
    n: usize,
    threads: usize,
    coverage: &(dyn CoverageProvider + Sync),
) -> Vec<Vec<ItemId>> {
    let n_users = train.n_users() as usize;
    assert_eq!(theta.len(), n_users, "one θ per user required");
    let in_train = train_item_mask(train);
    per_user_lists(
        n_users,
        threads,
        || UserQuery::new(arec, train, &in_train, n),
        |query, u| Some(query.topn(u, theta[u.idx()], coverage)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ganc_dataset::synth::DatasetProfile;
    use ganc_dataset::UserId;
    use ganc_preference::GeneralizedConfig;
    use ganc_recommender::pop::MostPopular;

    const ALL_KINDS: [CoverageKind; 3] = [
        CoverageKind::Random,
        CoverageKind::Static,
        CoverageKind::Dynamic,
    ];

    fn setup() -> (Interactions, Vec<f64>, MostPopular) {
        let data = DatasetProfile::small().generate(21);
        let split = data.split_per_user(0.5, 1).unwrap();
        let theta = GeneralizedConfig::default().estimate(&split.train);
        let pop = MostPopular::fit(&split.train);
        (split.train, theta, pop)
    }

    fn cfg(coverage: CoverageKind, sample_size: usize, seed: u64) -> FitConfig {
        FitConfig {
            coverage,
            sample_size,
            seed,
            ..FitConfig::new(5)
        }
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
        for kind in ALL_KINDS {
            let lists = build_topn(&pop, &theta, &train, &cfg(kind, 50, 3), 4);
            assert_eq!(lists.len(), train.n_users() as usize);
            for (u, list) in lists.iter().enumerate() {
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
        for kind in ALL_KINDS {
            let lists = build_topn(&pop, &theta, &train, &cfg(kind, 60, 3), 4);
            let cov = distinct_items(&lists);
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
        let build = |kind| build_topn(&pop, &theta, &train, &cfg(kind, 60, 3), 4);
        let dyn_cov = distinct_items(&build(CoverageKind::Dynamic));
        let stat_cov = distinct_items(&build(CoverageKind::Static));
        assert!(
            dyn_cov > stat_cov,
            "Dyn coverage {dyn_cov} should beat Stat {stat_cov}"
        );
    }

    #[test]
    fn indicator_mode_works_with_pop() {
        let (train, theta, pop) = setup();
        let cfg = FitConfig {
            accuracy_mode: AccuracyMode::TopNIndicator,
            sample_size: 40,
            seed: 5,
            ..FitConfig::new(5)
        };
        let lists = build_topn(&pop, &theta, &train, &cfg, 4);
        assert!(lists.iter().all(|l| l.len() == 5));
        assert_eq!(lists.len(), train.n_users() as usize);
    }

    /// The lists are a function of the config alone: every coverage kind ×
    /// accuracy mode builds the same collection on one worker and on three.
    #[test]
    fn lists_do_not_depend_on_the_thread_count() {
        let (train, theta, pop) = setup();
        for kind in ALL_KINDS {
            for mode in [AccuracyMode::Normalized, AccuracyMode::TopNIndicator] {
                let cfg = FitConfig {
                    accuracy_mode: mode,
                    ..cfg(kind, 30, 11)
                };
                assert_eq!(
                    build_topn(&pop, &theta, &train, &cfg, 1),
                    build_topn(&pop, &theta, &train, &cfg, 3),
                    "{kind:?} × {mode:?}"
                );
            }
        }
    }
}
