//! End-to-end pipeline tests spanning every crate: data generation → split
//! → preference estimation → base recommenders → GANC → metrics.

use ganc::core::{build_topn, AccuracyMode, CoverageKind, FitConfig};
use ganc::dataset::synth::DatasetProfile;
use ganc::dataset::UserId;
use ganc::metrics::{evaluate_topn, EvalContext, TopN};
use ganc::preference::GeneralizedConfig;
use ganc::recommender::pop::MostPopular;
use ganc::recommender::psvd::Psvd;
use ganc::recommender::rsvd::{Rsvd, RsvdConfig};
use ganc::recommender::topn::generate_topn_lists;
use ganc::recommender::Recommender;

fn pipeline() -> (ganc::dataset::TrainTest, EvalContext, Vec<f64>) {
    let data = DatasetProfile::small().generate(101);
    let split = data.split_per_user(0.5, 11).unwrap();
    let ctx = EvalContext::new(&split.train, &split.test);
    let theta = GeneralizedConfig::default().estimate(&split.train);
    (split, ctx, theta)
}

#[test]
fn ganc_improves_coverage_while_keeping_reasonable_accuracy() {
    let (split, ctx, theta) = pipeline();
    let n = 5;
    let pop = MostPopular::fit(&split.train);
    let raw = TopN::new(n, generate_topn_lists(&pop, &split.train, n, 2));
    let fit = FitConfig {
        accuracy_mode: AccuracyMode::TopNIndicator,
        sample_size: 80,
        seed: 5,
        ..FitConfig::new(n)
    };
    let ganc = TopN::new(n, build_topn(&pop, &theta, &split.train, &fit, 4));
    let m_raw = evaluate_topn(&raw, &ctx);
    let m_ganc = evaluate_topn(&ganc, &ctx);
    assert!(
        m_ganc.coverage > 2.0 * m_raw.coverage,
        "coverage {} should far exceed Pop's {}",
        m_ganc.coverage,
        m_raw.coverage
    );
    assert!(
        m_ganc.gini < m_raw.gini,
        "gini must drop: {} vs {}",
        m_ganc.gini,
        m_raw.gini
    );
    assert!(m_ganc.lt_accuracy > m_raw.lt_accuracy, "novelty must rise");
}

#[test]
fn every_base_recommender_passes_the_topn_contract() {
    let (split, _, _) = pipeline();
    let train = &split.train;
    let pop = MostPopular::fit(train);
    let rsvd = Rsvd::train(
        train,
        RsvdConfig {
            factors: 8,
            epochs: 5,
            ..RsvdConfig::default()
        },
    );
    let psvd = Psvd::train(train, 8, 3);
    let models: Vec<&dyn Recommender> = vec![&pop, &rsvd, &psvd];
    for rec in models {
        let topn = TopN::new(5, generate_topn_lists(rec, train, 5, 3));
        assert_eq!(topn.contract_violation(train), None, "model {}", rec.name());
    }
}

#[test]
fn theta_vectors_are_valid_for_all_models() {
    let (split, _, theta) = pipeline();
    assert_eq!(theta.len(), split.train.n_users() as usize);
    assert!(theta.iter().all(|&t| (0.0..=1.0).contains(&t)));
    // Estimation must not collapse to a constant on skewed data.
    let mean = theta.iter().sum::<f64>() / theta.len() as f64;
    let var = theta.iter().map(|t| (t - mean) * (t - mean)).sum::<f64>() / theta.len() as f64;
    assert!(var > 1e-5, "θG variance collapsed: {var}");
}

#[test]
fn n_larger_than_catalog_is_handled() {
    let data = DatasetProfile::tiny().generate(5);
    let split = data.split_per_user(0.5, 1).unwrap();
    let pop = MostPopular::fit(&split.train);
    let n = split.train.n_items() as usize + 50;
    let lists = generate_topn_lists(&pop, &split.train, n, 2);
    for (u, list) in lists.iter().enumerate() {
        // list length = number of unseen train items for that user
        assert!(list.len() <= split.train.n_items() as usize);
        for item in list {
            assert!(!split.train.contains(UserId(u as u32), *item));
        }
    }
}

#[test]
fn metrics_are_bounded_for_all_coverage_kinds() {
    let (split, ctx, theta) = pipeline();
    let pop = MostPopular::fit(&split.train);
    for kind in [
        CoverageKind::Random,
        CoverageKind::Static,
        CoverageKind::Dynamic,
    ] {
        let fit = FitConfig {
            coverage: kind,
            sample_size: 50,
            seed: 9,
            ..FitConfig::new(5)
        };
        let topn = TopN::new(5, build_topn(&pop, &theta, &split.train, &fit, 4));
        let m = evaluate_topn(&topn, &ctx);
        for (name, v) in [
            ("precision", m.precision),
            ("recall", m.recall),
            ("f", m.f_measure),
            ("strat", m.strat_recall),
            ("ltacc", m.lt_accuracy),
            ("coverage", m.coverage),
            ("gini", m.gini),
            ("ndcg", m.ndcg),
        ] {
            assert!((0.0..=1.0).contains(&v), "{kind:?} {name} = {v}");
        }
    }
}

#[test]
fn mt_style_zero_to_ten_data_flows_through() {
    let mut profile = DatasetProfile::tiny();
    profile.scale = ganc::dataset::RatingScale::zero_to_ten();
    let data = profile.generate(7).mapped_to_one_five();
    let split = data.split_per_user(0.8, 3).unwrap();
    let ctx = EvalContext::new(&split.train, &split.test);
    let theta = GeneralizedConfig::default().estimate(&split.train);
    let pop = MostPopular::fit(&split.train);
    let fit = FitConfig {
        sample_size: 20,
        seed: 2,
        ..FitConfig::new(5)
    };
    let topn = TopN::new(5, build_topn(&pop, &theta, &split.train, &fit, 4));
    let m = evaluate_topn(&topn, &ctx);
    assert!(m.coverage > 0.0);
}
