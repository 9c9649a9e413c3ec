//! Sparse-setting study (the §V-B scenario): voluntary ratings scraped from
//! a social feed — MovieTweetings-shaped data where nearly half the users
//! have fewer than ten ratings.
//!
//! The paper's point: re-ranking a *rating-prediction* model (RSVD) is
//! hopeless here, but GANC is generic — plug in the non-personalized Pop
//! recommender as the accuracy component and the personalization comes from
//! the learned θ^G, making the combination competitive with personalized
//! latent-factor models while covering far more of the catalog.
//!
//! Run with: `cargo run --release --example sparse_twitter`

use ganc::core::{build_topn, AccuracyMode, FitConfig};
use ganc::dataset::synth::DatasetProfile;
use ganc::metrics::{evaluate_topn, EvalContext, TopN};
use ganc::preference::GeneralizedConfig;
use ganc::recommender::pop::MostPopular;
use ganc::recommender::psvd::Psvd;
use ganc::recommender::rsvd::{Rsvd, RsvdConfig};
use ganc::recommender::topn::generate_topn_lists;
use ganc::recommender::Recommender;

const N: usize = 5;

fn main() {
    // MT-200K-like: 0-10 ratings, τ=5, density ≈ 0.16%, downscaled 4×.
    let mut profile = DatasetProfile::mt_200k();
    profile.n_users /= 4;
    profile.n_items /= 4;
    profile.target_ratings /= 16;
    let data = profile.generate(23).mapped_to_one_five();
    let split = data.split_per_user(profile.kappa, 9).unwrap();
    let train = &split.train;
    let ctx = EvalContext::new(train, &split.test);
    let infrequent = (0..train.n_users())
        .filter(|&u| train.user_degree(ganc::dataset::UserId(u)) < 10)
        .count();
    println!(
        "sparse corpus: {} users ({} with <10 train ratings), {} items, {} train ratings",
        train.n_users(),
        infrequent,
        train.n_items(),
        train.nnz()
    );

    let theta = GeneralizedConfig::default().estimate(train);
    let pop = MostPopular::fit(train);
    let rsvd = Rsvd::train(
        train,
        RsvdConfig {
            factors: 40,
            learning_rate: 0.01,
            reg: 0.01,
            epochs: 20,
            ..RsvdConfig::default()
        },
    );
    let psvd = Psvd::train(train, 32, 5);

    let mut rows: Vec<(String, TopN)> = Vec::new();
    for rec in [&pop as &dyn Recommender, &rsvd, &psvd] {
        rows.push((
            rec.name(),
            TopN::new(N, generate_topn_lists(rec, train, N, 4)),
        ));
    }
    // GANC with Pop as the plugged-in accuracy recommender (paper's sparse
    // recipe) — personalization enters purely through θ^G.
    let fit = FitConfig {
        accuracy_mode: AccuracyMode::TopNIndicator,
        sample_size: 150,
        seed: 1,
        ..FitConfig::new(N)
    };
    let lists = build_topn(&pop, &theta, train, &fit, 4);
    rows.push(("GANC(Pop, θG, Dyn)".into(), TopN::new(N, lists)));

    println!(
        "\n{:<20} {:>8} {:>8} {:>8} {:>8}",
        "model", "F@5", "LTAcc@5", "Cov@5", "Gini@5"
    );
    let mut table = Vec::new();
    for (name, topn) in &rows {
        let m = evaluate_topn(topn, &ctx);
        println!(
            "{name:<20} {:>8.4} {:>8.4} {:>8.4} {:>8.4}",
            m.f_measure, m.lt_accuracy, m.coverage, m.gini
        );
        table.push((name.clone(), m));
    }

    // The §V-B takeaways, asserted:
    let f = |n: &str| table.iter().find(|(name, _)| name == n).unwrap().1;
    let rsvd_m = f("RSVD");
    let pop_m = f("Pop");
    let ganc_m = f("GANC(Pop, θG, Dyn)");
    assert!(
        pop_m.f_measure > rsvd_m.f_measure,
        "in sparse settings the popularity baseline should out-rank MF re-use"
    );
    assert!(
        ganc_m.coverage > pop_m.coverage,
        "GANC must widen Pop's coverage"
    );
    println!(
        "\nPersonalizing the non-personalized Pop: coverage {:.4} → {:.4} at F@5 {:.4} (Pop alone: {:.4}).",
        pop_m.coverage, ganc_m.coverage, ganc_m.f_measure, pop_m.f_measure
    );
}
