//! Property-based tests (proptest) over the core invariants the paper's
//! machinery rests on: submodularity of the Dyn objective, metric bounds,
//! split conservation, selection correctness, and estimator ranges.

use ganc::core::coverage::DynCoverage;
use ganc::dataset::dataset::{DatasetBuilder, Rating, RatingScale};
use ganc::dataset::stats::LongTail;
use ganc::dataset::{Interactions, ItemId, UserId};
use ganc::metrics::coverage::gini_of_frequencies;
use ganc::preference::simple::theta_normalized;
use ganc::preference::tfidf::theta_tfidf;
use ganc::preference::GeneralizedConfig;
use ganc::recommender::topn::select_top_n_scored;
use proptest::prelude::*;

/// Random small rating datasets: up to 12 users × 10 items.
fn arb_dataset() -> impl Strategy<Value = Interactions> {
    proptest::collection::vec((0u32..12, 0u32..10, 1u32..=5), 1..120).prop_map(|triples| {
        let mut b = DatasetBuilder::new("prop", RatingScale::stars_1_5());
        for (u, i, r) in triples {
            b.push(UserId(u), ItemId(i), r as f32).unwrap();
        }
        b.build().unwrap().interactions()
    })
}

/// Random 14 users × 12 items whose ratings never touch users 5 and 13 nor
/// items 4 and 11: every draw has empty rows and empty columns, in the
/// middle and at the end.
fn arb_holed_dataset() -> impl Strategy<Value = Interactions> {
    proptest::collection::vec((0u32..12, 0u32..10, 1u32..=5), 0..120).prop_map(|draws| {
        let mut seen = std::collections::HashSet::new();
        let ratings: Vec<Rating> = draws
            .into_iter()
            .map(|(u, i, r)| Rating {
                user: UserId(u + u32::from(u >= 5)),
                item: ItemId(i + u32::from(i >= 4)),
                value: r as f32,
            })
            .filter(|r| seen.insert((r.user, r.item)))
            .collect();
        Interactions::from_ratings(14, 12, &ratings)
    })
}

/// Buffered selection: the `n` best of `scores` over `candidates`.
fn select_top_n(
    scores: &[f64],
    candidates: impl IntoIterator<Item = u32>,
    n: usize,
) -> Vec<ItemId> {
    select_top_n_scored(
        candidates
            .into_iter()
            .map(|item| (item, scores[item as usize])),
        n,
    )
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// θ^T, and θ^G's θ and weights, as a walk down an item-major copy of
/// `train` computes them: the IDF factor from each column's length, and
/// each item's mediocrity summed down its column in ascending user order.
fn reference_thetas(
    train: &Interactions,
    cfg: &GeneralizedConfig,
) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let mut cols: Vec<Vec<(u32, f32)>> = vec![Vec::new(); train.n_items() as usize];
    for (u, i, r) in train.iter() {
        cols[i.idx()].push((u.0, r));
    }
    let n_users = train.n_users() as f64;
    let log_factor: Vec<f64> = cols
        .iter()
        .map(|c| {
            if c.is_empty() {
                0.0
            } else {
                (n_users / c.len() as f64).ln()
            }
        })
        .collect();
    let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
    for (_, i, r) in train.iter() {
        let raw = r as f64 * log_factor[i.idx()];
        min = min.min(raw);
        max = max.max(raw);
    }
    if !min.is_finite() {
        (min, max) = (0.0, 1.0);
    }
    let span = (max - min).max(1e-12);
    let value = |i: usize, r: f32| ((r as f64 * log_factor[i] - min) / span).clamp(0.0, 1.0);
    let tfidf: Vec<f64> = (0..train.n_users())
        .map(|u| {
            let (items, vals) = train.user_row(UserId(u));
            if items.is_empty() {
                return 0.0;
            }
            let sum: f64 = items
                .iter()
                .zip(vals)
                .map(|(&i, &r)| value(i as usize, r))
                .sum();
            sum / items.len() as f64
        })
        .collect();
    let mut theta = tfidf.clone();
    let mut weights = vec![1.0f64; cols.len()];
    for _ in 0..cfg.max_iters {
        for (i, w) in weights.iter_mut().enumerate() {
            if cols[i].is_empty() {
                *w = 1.0;
                continue;
            }
            let mut mediocrity = 0.0;
            for &(u, r) in &cols[i] {
                let d = value(i, r) - theta[u as usize];
                mediocrity += 1.0 - d * d;
            }
            *w = GeneralizedConfig::LAMBDA / mediocrity.max(1e-9);
        }
        let mut delta = 0.0f64;
        for (u, t) in theta.iter_mut().enumerate() {
            let (items, vals) = train.user_row(UserId(u as u32));
            if items.is_empty() {
                continue;
            }
            let (mut num, mut den) = (0.0, 0.0);
            for (&i, &r) in items.iter().zip(vals) {
                num += weights[i as usize] * value(i as usize, r);
                den += weights[i as usize];
            }
            let new = if den > 0.0 { num / den } else { *t };
            delta = delta.max((new - *t).abs());
            *t = new;
        }
        if delta < GeneralizedConfig::TOL {
            break;
        }
    }
    (tfidf, theta, weights)
}

proptest! {
    /// Appendix B's driver: the marginal coverage gain of any item never
    /// increases as more recommendations are assigned (submodularity).
    #[test]
    fn dyn_coverage_gains_are_diminishing(
        assignments in proptest::collection::vec(0u32..8, 0..60),
        probe in 0u32..8,
    ) {
        let mut cov = DynCoverage::new(8);
        let mut last = cov.score(ItemId(probe));
        for a in assignments {
            cov.observe(&[ItemId(a)]);
            let now = cov.score(ItemId(probe));
            prop_assert!(now <= last + 1e-12, "gain increased: {now} > {last}");
            last = now;
        }
    }

    /// Gini is always in [0, 1]; 0 exactly for uniform positive vectors.
    #[test]
    fn gini_bounds_hold(freqs in proptest::collection::vec(0u32..1000, 1..200)) {
        let mut f = freqs.clone();
        let g = gini_of_frequencies(&mut f);
        prop_assert!((0.0..=1.0).contains(&g), "gini {g}");
    }

    #[test]
    fn gini_uniform_is_zero(n in 1usize..100, v in 1u32..50) {
        let mut f = vec![v; n];
        let g = gini_of_frequencies(&mut f);
        prop_assert!(g.abs() < 1e-9);
    }

    /// Per-user split conserves every rating on exactly one side.
    #[test]
    fn split_conserves_ratings(
        triples in proptest::collection::vec((0u32..8, 0u32..12, 1u32..=5), 1..80),
        kappa in 0.1f64..1.0,
        seed in 0u64..1000,
    ) {
        let mut b = DatasetBuilder::new("prop", RatingScale::stars_1_5());
        for (u, i, r) in triples {
            b.push(UserId(u), ItemId(i), r as f32).unwrap();
        }
        let d = b.build().unwrap();
        let s = d.split_per_user(kappa, seed).unwrap();
        prop_assert_eq!(s.train.nnz() + s.test.nnz(), d.n_ratings());
        for r in d.ratings() {
            let in_train = s.train.contains(r.user, r.item);
            let in_test = s.test.contains(r.user, r.item);
            prop_assert!(in_train ^ in_test);
        }
        // every user with ratings keeps a train rating
        for u in 0..d.n_users() {
            let total = s.train.user_degree(UserId(u)) + s.test.user_degree(UserId(u));
            if total > 0 {
                prop_assert!(s.train.user_degree(UserId(u)) >= 1);
            }
        }
    }

    /// select_top_n matches a naive sort on arbitrary score vectors.
    #[test]
    fn selection_matches_naive_sort(
        scores in proptest::collection::vec(-1e3f64..1e3, 1..60),
        n in 0usize..20,
    ) {
        let fast = select_top_n(&scores, 0..scores.len() as u32, n);
        let mut naive: Vec<u32> = (0..scores.len() as u32).collect();
        naive.sort_by(|&a, &b| {
            scores[b as usize]
                .total_cmp(&scores[a as usize])
                .then(a.cmp(&b))
        });
        naive.truncate(n);
        prop_assert_eq!(fast, naive.into_iter().map(ItemId).collect::<Vec<_>>());
    }

    /// Every preference estimator maps into [0, 1] on arbitrary data.
    #[test]
    fn theta_estimators_stay_in_unit_interval(train in arb_dataset()) {
        let lt = LongTail::pareto(&train);
        for theta in [
            theta_normalized(&train, &lt),
            theta_tfidf(&train),
            GeneralizedConfig::default().estimate(&train),
        ] {
            prop_assert!(theta.iter().all(|&t| (0.0..=1.0).contains(&t)));
            prop_assert_eq!(theta.len(), train.n_users() as usize);
        }
    }

    /// The long-tail set always carries at most the tail share of ratings.
    #[test]
    fn long_tail_mass_is_bounded(train in arb_dataset()) {
        let lt = LongTail::pareto(&train);
        let pop = train.item_popularity();
        let total: u64 = pop.iter().map(|&p| p as u64).sum();
        let tail_mass: u64 = (0..pop.len())
            .filter(|&i| lt.contains(ItemId(i as u32)))
            .map(|i| pop[i] as u64)
            .sum();
        // Sorted-by-popularity construction ⇒ tail mass ≤ 20% of total
        // (+1 item of slack for the boundary item).
        let max_single: u64 = pop.iter().map(|&p| p as u64).max().unwrap_or(0);
        prop_assert!(
            tail_mass <= (total as f64 * 0.2).ceil() as u64 + max_single,
            "tail mass {tail_mass} of {total}"
        );
    }

    /// θ^T and θ^G (its θ and its weights) read per-item facts in one pass
    /// over the rows; each is bit-identical to the column walk over an
    /// item-major copy, on matrices with empty rows and empty columns.
    #[test]
    fn theta_estimators_match_an_item_major_reference_bit_for_bit(train in arb_holed_dataset()) {
        let cfg = GeneralizedConfig { max_iters: 8 };
        let (tfidf, theta, weights) = reference_thetas(&train, &cfg);
        let got = cfg.run(&train);
        prop_assert_eq!(bits(&theta_tfidf(&train)), bits(&tfidf));
        prop_assert_eq!(bits(&got.theta), bits(&theta));
        prop_assert_eq!(bits(&got.weights), bits(&weights));
    }
}
