//! Quickstart: the full GANC pipeline in ~60 lines.
//!
//! 1. Generate a synthetic rating dataset with real-world popularity skew.
//! 2. Split per user, train a base recommender (RSVD matrix factorization).
//! 3. Learn every user's long-tail novelty preference θ^G from train data.
//! 4. Re-rank with GANC(RSVD, θ^G, Dyn) and compare against the raw model.
//!
//! Run with: `cargo run --release --example quickstart`

use ganc::core::{build_topn, FitConfig};
use ganc::dataset::synth::DatasetProfile;
use ganc::metrics::{evaluate_topn, EvalContext, TopN};
use ganc::preference::GeneralizedConfig;
use ganc::recommender::rsvd::{Rsvd, RsvdConfig};
use ganc::recommender::topn::generate_topn_lists;

fn main() {
    // 1. Data: ~400 users with lognormal popularity skew (see
    //    DatasetProfile::ml_100k() etc. for the paper-calibrated versions).
    let data = DatasetProfile::small().generate(42);
    let split = data.split_per_user(0.5, 7).expect("valid split ratio");
    println!(
        "dataset: {} users, {} items, {} ratings ({:.2}% dense)",
        data.n_users(),
        data.n_items(),
        data.n_ratings(),
        data.density_percent()
    );

    // 2. Base accuracy recommender: L2-regularized MF trained with SGD.
    let rsvd = Rsvd::train(
        &split.train,
        RsvdConfig {
            factors: 16,
            epochs: 15,
            ..RsvdConfig::default()
        },
    );
    println!("RSVD test RMSE: {:.4}", rsvd.rmse(&split.test));

    // 3. Long-tail novelty preference per user (Eq. II.4-II.6).
    let theta = GeneralizedConfig::default().estimate(&split.train);
    let mean_theta = theta.iter().sum::<f64>() / theta.len() as f64;
    println!("mean θ^G: {mean_theta:.3}");

    // 4. GANC(RSVD, θ^G, Dyn) vs the raw RSVD ranking, top-10 each.
    let n = 10;
    let ctx = EvalContext::new(&split.train, &split.test);
    let raw = TopN::new(n, generate_topn_lists(&rsvd, &split.train, n, 4));
    let fit = FitConfig {
        sample_size: 100,
        seed: 0xC0FFEE,
        ..FitConfig::new(n)
    };
    let ganc = TopN::new(n, build_topn(&rsvd, &theta, &split.train, &fit, 4));
    let m_raw = evaluate_topn(&raw, &ctx);
    let m_ganc = evaluate_topn(&ganc, &ctx);
    println!("\n{:<22} {:>9} {:>9}", "metric", "RSVD", "GANC");
    for (name, a, b) in [
        ("F-measure@10", m_raw.f_measure, m_ganc.f_measure),
        ("StratRecall@10", m_raw.strat_recall, m_ganc.strat_recall),
        ("LTAccuracy@10", m_raw.lt_accuracy, m_ganc.lt_accuracy),
        ("Coverage@10", m_raw.coverage, m_ganc.coverage),
        ("Gini@10 (lower=better)", m_raw.gini, m_ganc.gini),
    ] {
        println!("{name:<22} {a:>9.4} {b:>9.4}");
    }
    assert!(
        m_ganc.coverage > m_raw.coverage,
        "GANC should widen item-space coverage"
    );
    println!(
        "\nGANC covered {:.1}× more of the catalog.",
        m_ganc.coverage / m_raw.coverage.max(1e-9)
    );
}
