//! Failure-injection tests: degenerate inputs every layer must survive —
//! empty users, single-item catalogs, constant ratings, exhausted
//! candidate pools, κ edge cases, and users missing from test.

use ganc::core::{build_topn, CoverageKind, FitConfig};
use ganc::dataset::dataset::{DatasetBuilder, RatingScale};
use ganc::dataset::{Interactions, ItemId, UserId};
use ganc::eval::fig7_8::topn_under_protocol;
use ganc::metrics::{evaluate_topn, EvalContext, RankingProtocol, TopN};
use ganc::preference::simple::theta_constant;
use ganc::preference::tfidf::theta_tfidf;
use ganc::preference::GeneralizedConfig;
use ganc::recommender::pop::MostPopular;
use ganc::recommender::rsvd::{Rsvd, RsvdConfig};
use ganc::recommender::topn::generate_topn_lists;
use ganc::rerank::rbt::{Rbt, RbtCriterion};
use ganc::rerank::rerank_all;

/// A catalog with exactly one item.
#[test]
fn single_item_catalog() {
    let mut b = DatasetBuilder::new("one", RatingScale::stars_1_5());
    for u in 0..4u32 {
        b.push(UserId(u), ItemId(0), 4.0).unwrap();
    }
    let d = b.build().unwrap();
    let split = d.split_per_user(1.0, 1).unwrap();
    let pop = MostPopular::fit(&split.train);
    let lists = generate_topn_lists(&pop, &split.train, 5, 2);
    // everyone has seen the only item → all lists empty, nothing panics
    assert!(lists.iter().all(|l| l.is_empty()));
    let theta = GeneralizedConfig::default().estimate(&split.train);
    let fit = FitConfig {
        sample_size: 2,
        seed: 1,
        ..FitConfig::new(5)
    };
    let top = build_topn(&pop, &theta, &split.train, &fit, 4);
    assert!(top.iter().all(|l| l.is_empty()));
}

/// Users present in the id space but with no train ratings.
#[test]
fn users_with_no_train_ratings() {
    let mut b = DatasetBuilder::new("gaps", RatingScale::stars_1_5());
    b.push(UserId(0), ItemId(0), 4.0).unwrap();
    b.push(UserId(0), ItemId(1), 4.0).unwrap();
    b.push(UserId(5), ItemId(1), 5.0).unwrap(); // users 1..4 are empty
    let d = b.build().unwrap();
    let m = d.interactions();
    let pop = MostPopular::fit(&m);
    let lists = generate_topn_lists(&pop, &m, 2, 3);
    assert_eq!(lists.len(), 6);
    // empty users still get recommendations (they have seen nothing)
    assert_eq!(lists[2].len(), 2);
    // preference estimators return 0 for empty users and stay bounded
    let theta = GeneralizedConfig::default().estimate(&m);
    assert_eq!(theta[2], 0.0);
    let tt = theta_tfidf(&m);
    assert_eq!(tt[3], 0.0);
}

/// Every rating identical: zero-variance everything.
#[test]
fn constant_ratings_everywhere() {
    let mut b = DatasetBuilder::new("flat", RatingScale::stars_1_5());
    for u in 0..6u32 {
        for i in 0..5u32 {
            if (u + i) % 2 == 0 {
                b.push(UserId(u), ItemId(i), 3.0).unwrap();
            }
        }
    }
    let d = b.build().unwrap();
    let split = d.split_per_user(0.5, 2).unwrap();
    let theta = GeneralizedConfig::default().estimate(&split.train);
    assert!(theta.iter().all(|t| t.is_finite()));
    let rsvd = Rsvd::train(
        &split.train,
        RsvdConfig {
            factors: 4,
            epochs: 5,
            ..RsvdConfig::default()
        },
    );
    assert!(rsvd.rmse(&split.test).is_finite());
    let ctx = EvalContext::new(&split.train, &split.test);
    let topn = TopN::new(3, generate_topn_lists(&rsvd, &split.train, 3, 2));
    let m = evaluate_topn(&topn, &ctx);
    assert!(m.gini.is_finite() && m.coverage > 0.0);
}

/// Extreme κ values at the boundary of the accepted range.
#[test]
fn kappa_boundaries() {
    let mut b = DatasetBuilder::new("k", RatingScale::stars_1_5());
    for u in 0..3u32 {
        for i in 0..10u32 {
            b.push(UserId(u), ItemId(i), 4.0).unwrap();
        }
    }
    let d = b.build().unwrap();
    // κ→0⁺ keeps the one-rating floor
    let s = d.split_per_user(1e-9, 1).unwrap();
    for u in 0..3u32 {
        assert_eq!(s.train.user_degree(UserId(u)), 1);
        assert_eq!(s.test.user_degree(UserId(u)), 9);
    }
    // κ=1 keeps everything
    let s = d.split_per_user(1.0, 1).unwrap();
    assert_eq!(s.test.nnz(), 0);
    // metrics on an empty test set are all zero, not NaN
    let ctx = EvalContext::new(&s.train, &s.test);
    let pop = MostPopular::fit(&s.train);
    let topn = TopN::new(3, generate_topn_lists(&pop, &s.train, 3, 2));
    let m = evaluate_topn(&topn, &ctx);
    assert_eq!(m.precision, 0.0);
    assert_eq!(m.recall, 0.0);
    assert!(m.gini.is_finite());
}

/// GANC with every θ at the extremes.
#[test]
fn theta_extremes_are_safe() {
    let mut b = DatasetBuilder::new("x", RatingScale::stars_1_5());
    for u in 0..10u32 {
        for i in 0..8u32 {
            if (u * 3 + i) % 4 != 0 {
                b.push(UserId(u), ItemId(i), 1.0 + ((u + i) % 5) as f32)
                    .unwrap();
            }
        }
    }
    let d = b.build().unwrap();
    let m = d.interactions();
    let pop = MostPopular::fit(&m);
    for c in [0.0, 1.0] {
        let theta = theta_constant(m.n_users(), c);
        for kind in [
            CoverageKind::Random,
            CoverageKind::Static,
            CoverageKind::Dynamic,
        ] {
            let fit = FitConfig {
                coverage: kind,
                sample_size: 4,
                seed: 7,
                ..FitConfig::new(3)
            };
            let top = build_topn(&pop, &theta, &m, &fit, 4);
            assert_eq!(top.len(), m.n_users() as usize);
        }
    }
}

/// A test set mentioning items that never occur in train.
#[test]
fn test_only_items_do_not_break_metrics() {
    let mut tr = DatasetBuilder::new("tr", RatingScale::stars_1_5());
    tr.push(UserId(0), ItemId(0), 5.0).unwrap();
    tr.push(UserId(1), ItemId(1), 5.0).unwrap();
    let train = {
        let d = tr.build().unwrap();
        Interactions::from_ratings(2, 4, d.ratings())
    };
    let mut te = DatasetBuilder::new("te", RatingScale::stars_1_5());
    te.push(UserId(0), ItemId(3), 5.0).unwrap(); // item 3 absent from train
    let test = {
        let d = te.build().unwrap();
        Interactions::from_ratings(2, 4, d.ratings())
    };
    let ctx = EvalContext::new(&train, &test);
    // A list that hits the zero-popularity relevant item: stratified recall
    // must treat f=0 as f=1 rather than dividing by zero.
    let topn = TopN::new(1, vec![vec![ItemId(3)], vec![]]);
    let m = evaluate_topn(&topn, &ctx);
    assert!((m.strat_recall - 1.0).abs() < 1e-9);
    assert!(m.precision.is_finite());
}

/// A train set with a catalog but no users (a band that lost every member,
/// a filter that matched nobody): every per-user generator answers an empty
/// collection at every thread count instead of dividing zero users among
/// its workers.
#[test]
fn zero_users_yield_empty_collections() {
    let train = Interactions::from_ratings(0, 5, &[]);
    let pop = MostPopular::fit(&train);
    let rbt = Rbt::new(&train, RbtCriterion::Popularity, "Pop");
    for threads in [1, 2, 8] {
        assert!(generate_topn_lists(&pop, &train, 3, threads).is_empty());
        assert!(rerank_all(&rbt, &pop, &train, 3, threads).is_empty());
        for kind in [CoverageKind::Static, CoverageKind::Dynamic] {
            let fit = FitConfig {
                coverage: kind,
                seed: 1,
                ..FitConfig::new(3)
            };
            let top = build_topn(&pop, &[], &train, &fit, threads);
            assert!(top.is_empty(), "{kind:?} at {threads} threads");
        }
        for protocol in [RankingProtocol::AllUnrated, RankingProtocol::RatedTestItems] {
            let top = topn_under_protocol(&pop, &train, &train, protocol, 3, threads);
            assert!(top.lists().is_empty());
        }
    }
}
