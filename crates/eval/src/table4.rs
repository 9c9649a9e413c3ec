//! Table IV: top-5 re-ranking comparison over RSVD on all five datasets.
//!
//! Nine algorithms: RSVD itself, 5D(RSVD), 5D(RSVD, A, RR), RBT(RSVD, Pop),
//! RBT(RSVD, Avg), PRA(RSVD, 10), PRA(RSVD, 20), GANC(RSVD, θ^T, Dyn),
//! GANC(RSVD, θ^G, Dyn). Metrics: F@5, StratRecall@5, LTAccuracy@5,
//! Coverage@5, Gini@5, plus the per-metric rank in parentheses and the mean
//! rank in the last column (as printed in the paper).

use crate::context::{DataBundle, ExpConfig, Scale};
use crate::models::{ganc_runs, train_rsvd};
use crate::tables::{f4, table4_ranks, TextTable};
use ganc_core::{AccuracyMode, CoverageKind};
use ganc_metrics::{evaluate_topn, TopN, TopNMetrics};
use ganc_preference::tfidf::theta_tfidf;
use ganc_preference::GeneralizedConfig;
use ganc_recommender::topn::generate_topn_lists;
use ganc_rerank::five_d::FiveD;
use ganc_rerank::pra::Pra;
use ganc_rerank::rbt::{Rbt, RbtCriterion};
use ganc_rerank::{rerank_all, Reranker};

/// One evaluated algorithm of the comparison.
struct Row {
    name: String,
    metrics: TopNMetrics,
}

/// `T_H` per the paper: 0 on ML-10M and Netflix, 1 elsewhere.
fn th_for(short: &str) -> usize {
    match short {
        "ml-10m" | "netflix" => 0,
        _ => 1,
    }
}

/// Evaluate all nine algorithms on one dataset.
fn evaluate_dataset(cfg: &ExpConfig, bundle: &DataBundle) -> Vec<Row> {
    const N: usize = 5;
    let train = &bundle.split.train;
    let rsvd = train_rsvd(bundle, cfg);
    let th = th_for(&bundle.short);
    let mut rows: Vec<Row> = Vec::new();
    // 1. Pure RSVD ranking.
    let pure = TopN::new(N, generate_topn_lists(&rsvd, train, N, cfg.threads));
    rows.push(Row {
        name: "RSVD".into(),
        metrics: evaluate_topn(&pure, &bundle.ctx),
    });
    // 2-7. The re-ranking baselines.
    let rerankers: Vec<Box<dyn Reranker>> = vec![
        Box::new(FiveD::new(train, "RSVD")),
        Box::new(FiveD::with_options(train, "RSVD", true, true)),
        Box::new(Rbt::with_params(
            train,
            RbtCriterion::Popularity,
            "RSVD",
            4.5,
            th,
        )),
        Box::new(Rbt::with_params(
            train,
            RbtCriterion::AverageRating,
            "RSVD",
            4.5,
            th,
        )),
        Box::new(Pra::new(train, "RSVD", 10)),
        Box::new(Pra::new(train, "RSVD", 20)),
    ];
    for rr in &rerankers {
        let lists = rerank_all(rr.as_ref(), &rsvd, train, N, cfg.threads);
        let topn = TopN::new(N, lists);
        rows.push(Row {
            name: rr.name(),
            metrics: evaluate_topn(&topn, &bundle.ctx),
        });
    }
    // 8-9. GANC with the two learned preference models.
    let sample_size = match cfg.scale {
        Scale::Smoke => 60,
        Scale::Paper => 500,
    };
    for (label, theta) in [
        ("θT", theta_tfidf(train)),
        ("θG", GeneralizedConfig::default().estimate(train)),
    ] {
        let runs = ganc_runs(
            &rsvd,
            AccuracyMode::Normalized,
            &theta,
            bundle,
            N,
            CoverageKind::Dynamic,
            sample_size,
            cfg,
        );
        let per_run: Vec<TopNMetrics> =
            runs.iter().map(|r| evaluate_topn(r, &bundle.ctx)).collect();
        rows.push(Row {
            name: format!("GANC(RSVD, {label}, Dyn)"),
            metrics: TopNMetrics::mean(&per_run),
        });
    }
    rows
}

/// Render Table IV for every dataset.
pub fn run(cfg: &ExpConfig) -> String {
    let mut out = String::from(
        "Table IV — top-5 re-ranking of RSVD: (F)measure, (S)tratRecall, (L)TAccuracy, (C)overage, (G)ini; rank in parens\n",
    );
    for bundle in DataBundle::all(cfg) {
        let rows = evaluate_dataset(cfg, &bundle);
        let metric_rows: Vec<TopNMetrics> = rows.iter().map(|r| r.metrics).collect();
        let ranked = table4_ranks(&metric_rows);
        let mut t = TextTable::new(&["Alg", "F@5", "S@5", "L@5", "C@5", "G@5", "Score"]);
        let mut best_mean = f64::INFINITY;
        let mut best_name = String::new();
        for (row, (ranks, mean_rank)) in rows.iter().zip(&ranked) {
            let cols = row.metrics.table4_columns();
            let mut cells = vec![row.name.clone()];
            for (v, r) in cols.iter().zip(ranks) {
                cells.push(format!("{} ({r})", f4(*v)));
            }
            cells.push(format!("{mean_rank:.1}"));
            t.row(cells);
            if *mean_rank < best_mean {
                best_mean = *mean_rank;
                best_name = row.name.clone();
            }
        }
        out.push_str(&format!(
            "\n[{}] — best mean rank: {} ({best_mean:.1})\n{}",
            bundle.profile.name,
            best_name,
            t.render()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> ExpConfig {
        ExpConfig {
            scale: Scale::Smoke,
            seed: 12,
            runs: 1,
            threads: 2,
        }
    }

    #[test]
    fn one_dataset_produces_nine_ranked_rows() {
        let cfg = smoke();
        let bundle = DataBundle::prepare(&cfg, "ml-100k");
        let rows = evaluate_dataset(&cfg, &bundle);
        assert_eq!(rows.len(), 9);
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert!(names.contains(&"5D(RSVD, A, RR)"));
        assert!(names.contains(&"GANC(RSVD, θG, Dyn)"));
    }

    #[test]
    fn ganc_wins_coverage_over_pure_rsvd() {
        let cfg = smoke();
        let bundle = DataBundle::prepare(&cfg, "ml-100k");
        let rows = evaluate_dataset(&cfg, &bundle);
        let rsvd = rows.iter().find(|r| r.name == "RSVD").unwrap();
        let ganc = rows
            .iter()
            .find(|r| r.name.starts_with("GANC(RSVD, θG"))
            .unwrap();
        assert!(
            ganc.metrics.coverage > rsvd.metrics.coverage,
            "GANC coverage {} vs RSVD {}",
            ganc.metrics.coverage,
            rsvd.metrics.coverage
        );
    }

    #[test]
    fn th_rule_matches_paper() {
        assert_eq!(th_for("ml-10m"), 0);
        assert_eq!(th_for("netflix"), 0);
        assert_eq!(th_for("ml-100k"), 1);
    }
}
