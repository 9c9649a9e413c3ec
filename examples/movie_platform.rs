//! Dense-setting study (the §V-A scenario): a movie platform with an
//! ML-100K-shaped catalog compares its rating-prediction re-rankers.
//!
//! The operator already runs an RSVD rating predictor. Marketing wants more
//! of the catalog surfaced (coverage), users complain recommendations are
//! obvious (novelty), and product won't accept a large accuracy hit. This
//! example pits every re-ranking strategy from the paper against each other
//! on those three axes, exactly like Table IV.
//!
//! Run with: `cargo run --release --example movie_platform`

use ganc::core::{build_topn, FitConfig};
use ganc::dataset::synth::DatasetProfile;
use ganc::metrics::{evaluate_topn, EvalContext, TopN};
use ganc::preference::tfidf::theta_tfidf;
use ganc::preference::GeneralizedConfig;
use ganc::recommender::rsvd::{Rsvd, RsvdConfig};
use ganc::recommender::topn::generate_topn_lists;
use ganc::rerank::five_d::FiveD;
use ganc::rerank::pra::Pra;
use ganc::rerank::rbt::{Rbt, RbtCriterion};
use ganc::rerank::{rerank_all, Reranker};

const N: usize = 5;

fn main() {
    // An ML-100K-like catalog, downscaled 4× to keep the example snappy.
    let mut profile = DatasetProfile::ml_100k();
    profile.n_users /= 4;
    profile.n_items /= 4;
    profile.target_ratings /= 16;
    let data = profile.generate(11);
    let split = data.split_per_user(profile.kappa, 3).unwrap();
    let train = &split.train;
    let ctx = EvalContext::new(train, &split.test);
    println!(
        "catalog: {} users × {} items, {} train ratings\n",
        train.n_users(),
        train.n_items(),
        train.nnz()
    );

    let rsvd = Rsvd::train(
        train,
        RsvdConfig {
            factors: 32,
            learning_rate: 0.03,
            reg: 0.05,
            epochs: 20,
            ..RsvdConfig::default()
        },
    );

    let mut report: Vec<(String, TopN)> = Vec::new();
    report.push((
        "RSVD (no re-ranking)".into(),
        TopN::new(N, generate_topn_lists(&rsvd, train, N, 4)),
    ));
    let rerankers: Vec<Box<dyn Reranker>> = vec![
        Box::new(Rbt::new(train, RbtCriterion::Popularity, "RSVD")),
        Box::new(Rbt::new(train, RbtCriterion::AverageRating, "RSVD")),
        Box::new(FiveD::new(train, "RSVD")),
        Box::new(FiveD::with_options(train, "RSVD", true, true)),
        Box::new(Pra::new(train, "RSVD", 10)),
    ];
    for rr in &rerankers {
        report.push((
            rr.name(),
            TopN::new(N, rerank_all(rr.as_ref(), &rsvd, train, N, 4)),
        ));
    }
    // GANC with both learned preference estimators.
    for (label, theta) in [
        ("θT", theta_tfidf(train)),
        ("θG", GeneralizedConfig::default().estimate(train)),
    ] {
        let fit = FitConfig {
            sample_size: 120,
            seed: 5,
            ..FitConfig::new(N)
        };
        let lists = build_topn(&rsvd, &theta, train, &fit, 4);
        report.push((format!("GANC(RSVD, {label}, Dyn)"), TopN::new(N, lists)));
    }

    println!(
        "{:<22} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "algorithm", "F@5", "SRec@5", "LTAcc@5", "Cov@5", "Gini@5"
    );
    for (name, topn) in &report {
        assert_eq!(topn.contract_violation(train), None, "{name}");
        let m = evaluate_topn(topn, &ctx);
        println!(
            "{name:<22} {:>8.4} {:>8.4} {:>8.4} {:>8.4} {:>8.4}",
            m.f_measure, m.strat_recall, m.lt_accuracy, m.coverage, m.gini
        );
    }

    let base_cov = evaluate_topn(&report[0].1, &ctx).coverage;
    let ganc_cov = evaluate_topn(&report.last().unwrap().1, &ctx).coverage;
    println!(
        "\nGANC(θG) widened coverage {:.1}× over raw RSVD while re-ranking the same predictions.",
        ganc_cov / base_cov.max(1e-9)
    );
}
