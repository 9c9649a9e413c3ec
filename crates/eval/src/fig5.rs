//! Figure 5: `GANC(ARec, θ, Dyn)` on ML-1M with `S = 500`, varying the
//! accuracy recommender over {RSVD, PSVD100, PSVD10, Pop}, the preference
//! model over {θ^R, θ^C, θ^N, θ^T, θ^G}, and `N ∈ {5, 10, 15, 20}`;
//! metrics: F-measure, Stratified Recall, LTAccuracy, Coverage, Gini.
//!
//! Paper takeaways this reproduction checks: the pure ARec has the best
//! F-measure of each row but the worst coverage/gini; the informed
//! estimators (θ^N, θ^T, θ^G) dominate the controls (θ^R, θ^C) on
//! F-measure and stratified recall.

use crate::context::{DataBundle, ExpConfig, Scale};
use crate::models::{ganc_runs, train_psvd, train_rsvd};
use crate::tables::{f4, TextTable};
use ganc_core::{AccuracyMode, FitConfig};
use ganc_dataset::stats::LongTail;
use ganc_metrics::{evaluate_topn, TopN, TopNMetrics};
use ganc_preference::simple::{theta_constant, theta_normalized, theta_random};
use ganc_preference::tfidf::theta_tfidf;
use ganc_preference::GeneralizedConfig;
use ganc_recommender::pop::MostPopular;
use ganc_recommender::topn::generate_topn_lists;
use ganc_recommender::Recommender;

/// The list sizes of the figure's x-axis.
pub const NS: [usize; 4] = [5, 10, 15, 20];

/// Average the full metric row over repeated runs.
fn mean_metrics(runs: &[TopN], bundle: &DataBundle) -> TopNMetrics {
    let rows: Vec<TopNMetrics> = runs.iter().map(|r| evaluate_topn(r, &bundle.ctx)).collect();
    TopNMetrics::mean(&rows)
}

/// Run the Figure 5 grid (dataset is ML-1M in the paper; parameterized for
/// the smoke tests).
pub fn run(cfg: &ExpConfig) -> String {
    let bundle = DataBundle::prepare(cfg, "ml-1m");
    let train = &bundle.split.train;
    let n_users = train.n_users();
    let lt = LongTail::pareto(train);
    let theta_variants: Vec<(&str, Vec<f64>)> = vec![
        ("θN", theta_normalized(train, &lt)),
        ("θT", theta_tfidf(train)),
        ("θG", GeneralizedConfig::default().estimate(train)),
        ("θR", theta_random(n_users, cfg.seed ^ 0x7E7A)),
        ("θC", theta_constant(n_users, 0.5)),
    ];
    let sample_size = match cfg.scale {
        Scale::Smoke => 60,
        Scale::Paper => 500,
    };
    let rsvd = train_rsvd(&bundle, cfg);
    let psvd100 = train_psvd(&bundle, cfg, 100);
    let psvd10 = train_psvd(&bundle, cfg, 10);
    let pop = MostPopular::fit(train);
    let arecs: Vec<(&dyn Recommender, AccuracyMode)> = vec![
        (&rsvd, AccuracyMode::Normalized),
        (&psvd100, AccuracyMode::Normalized),
        (&psvd10, AccuracyMode::Normalized),
        (&pop, AccuracyMode::TopNIndicator),
    ];
    let mut out = format!(
        "Figure 5 — GANC(ARec, θ, Dyn) grid on {} (S = {sample_size})\n",
        bundle.profile.name
    );
    for (arec, mode) in arecs {
        let mut t = TextTable::new(&[
            "variant",
            "N",
            "F",
            "StratRecall",
            "LTAcc",
            "Coverage",
            "Gini",
        ]);
        for &n in &NS {
            // Row 1: the pure accuracy recommender.
            let pure = TopN::new(n, generate_topn_lists(arec, train, n, cfg.threads));
            let m = evaluate_topn(&pure, &bundle.ctx);
            t.row(vec![
                "ARec".into(),
                n.to_string(),
                f4(m.f_measure),
                f4(m.strat_recall),
                f4(m.lt_accuracy),
                f4(m.coverage),
                f4(m.gini),
            ]);
            for (label, theta) in &theta_variants {
                let fit = FitConfig {
                    accuracy_mode: mode,
                    sample_size,
                    seed: cfg.seed,
                    ..FitConfig::new(n)
                };
                let runs = ganc_runs(arec, theta, &bundle, &fit, cfg);
                let m = mean_metrics(&runs, &bundle);
                t.row(vec![
                    format!("GANC(·, {label}, Dyn)"),
                    n.to_string(),
                    f4(m.f_measure),
                    f4(m.strat_recall),
                    f4(m.lt_accuracy),
                    f4(m.coverage),
                    f4(m.gini),
                ]);
            }
        }
        out.push_str(&format!("\nARec = {}\n{}", arec.name(), t.render()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_renders_all_blocks() {
        let cfg = ExpConfig {
            scale: Scale::Smoke,
            seed: 8,
            runs: 1,
            threads: 2,
        };
        let out = run(&cfg);
        for arec in ["RSVD", "PSVD", "Pop"] {
            assert!(out.contains(&format!("ARec = {arec}")), "{out}");
        }
        assert!(out.contains("GANC(·, θG, Dyn)"));
        // 4 arecs × 4 N × 6 variants rows
        assert!(out.matches("GANC(·, θR, Dyn)").count() == 16);
    }
}
