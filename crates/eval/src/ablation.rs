//! Ablation studies of GANC's design choices (not a paper artifact; they
//! quantify the decisions §III-C motivates qualitatively):
//!
//! 1. **Ordering** — OSLG processes sampled users in increasing θ. How much
//!    objective value does that buy over the arbitrary order plain Locally
//!    Greedy uses?
//! 2. **Sampling** — how quickly does the assignment-order objective decay
//!    as the sequential sample shrinks from `|U|` (full Locally Greedy) to
//!    small `S`?
//! 3. **θ personalization** — learned θ^G vs the best global constant: does
//!    per-user preference actually beat a tuned scalar trade-off (the
//!    paper's core claim against cross-validated re-rankers)?

use crate::context::{DataBundle, ExpConfig, Scale};
use crate::models::{ganc_runs, train_psvd};
use crate::tables::{f4, TextTable};
use ganc_core::accuracy::NormalizedScores;
use ganc_core::oslg::{assignment_order_objective, oslg_topn, OslgConfig, UserOrdering};
use ganc_core::{AccuracyMode, CoverageKind};
use ganc_dataset::UserId;
use ganc_metrics::{evaluate_topn, TopNMetrics};
use ganc_preference::simple::theta_constant;
use ganc_preference::GeneralizedConfig;

/// Render all three ablations on the ML-100K-sized dataset.
pub fn run(cfg: &ExpConfig) -> String {
    let bundle = DataBundle::prepare(cfg, "ml-100k");
    let train = &bundle.split.train;
    let theta = GeneralizedConfig::default().estimate(train);
    let psvd = train_psvd(&bundle, cfg, 100);
    let arec = NormalizedScores::new(&psvd);
    let n_users = train.n_users() as usize;
    let theta_order: Vec<UserId> = {
        let mut o: Vec<UserId> = (0..n_users as u32).map(UserId).collect();
        o.sort_by(|a, b| theta[a.idx()].partial_cmp(&theta[b.idx()]).unwrap());
        o
    };
    let objective = |lists: &Vec<Vec<ganc_dataset::ItemId>>| {
        assignment_order_objective(lists, &theta_order, &theta, &arec, train.n_items())
    };
    let mut out = format!(
        "Ablations — GANC design choices on {} (ARec = PSVD100, θ = θG)\n",
        bundle.profile.name
    );

    // 1. Ordering ablation at full sample (pure Locally Greedy comparison).
    {
        let mut t = TextTable::new(&["ordering", "objective", "Coverage@5"]);
        for (label, ordering) in [
            ("increasing θ (OSLG)", UserOrdering::IncreasingTheta),
            ("arbitrary (plain LG)", UserOrdering::Arbitrary),
        ] {
            let lists = oslg_topn(
                &arec,
                &theta,
                train,
                &OslgConfig {
                    sample_size: n_users,
                    ordering,
                    threads: cfg.threads,
                    ..OslgConfig::new(5)
                },
            );
            let topn = ganc_metrics::TopN::new(5, lists.clone());
            let m = evaluate_topn(&topn, &bundle.ctx);
            t.row(vec![
                label.into(),
                format!("{:.1}", objective(&lists)),
                f4(m.coverage),
            ]);
        }
        out.push_str(&format!("\n1. user ordering (S = |U|)\n{}", t.render()));
    }

    // 2. Sample-size ablation: objective retention vs the full greedy.
    {
        let full_lists = oslg_topn(
            &arec,
            &theta,
            train,
            &OslgConfig {
                sample_size: n_users,
                threads: cfg.threads,
                ..OslgConfig::new(5)
            },
        );
        let full_obj = objective(&full_lists);
        let mut t = TextTable::new(&["S", "objective", "% of full greedy"]);
        for frac in [1usize, 2, 4, 8, 16] {
            let s = (n_users / frac).max(1);
            let lists = oslg_topn(
                &arec,
                &theta,
                train,
                &OslgConfig {
                    sample_size: s,
                    threads: cfg.threads,
                    ..OslgConfig::new(5)
                },
            );
            let obj = objective(&lists);
            t.row(vec![
                s.to_string(),
                format!("{obj:.1}"),
                format!("{:.1}%", 100.0 * obj / full_obj.max(1e-9)),
            ]);
        }
        out.push_str(&format!("\n2. sequential sample size\n{}", t.render()));
    }

    // 3. Personalization ablation: θ^G vs global constants.
    {
        let sample = match cfg.scale {
            Scale::Smoke => 60,
            Scale::Paper => 500,
        };
        let mut t = TextTable::new(&["θ model", "F@5", "Coverage@5", "Gini@5"]);
        let mut evaluate = |label: String, theta: &[f64]| {
            let runs = ganc_runs(
                &psvd,
                AccuracyMode::Normalized,
                theta,
                &bundle,
                5,
                CoverageKind::Dynamic,
                sample,
                cfg,
            );
            let per_run: Vec<TopNMetrics> =
                runs.iter().map(|r| evaluate_topn(r, &bundle.ctx)).collect();
            let m = TopNMetrics::mean(&per_run);
            t.row(vec![label, f4(m.f_measure), f4(m.coverage), f4(m.gini)]);
            (m.f_measure, m.coverage)
        };
        let (f_g, c_g) = evaluate("θG (learned)".into(), &theta);
        let mut best_const = (0.0f64, 0.0f64, 0.0f64);
        for c100 in [20u32, 35, 50, 65, 80] {
            let cval = c100 as f64 / 100.0;
            let (f, c) = evaluate(
                format!("θC = {cval:.2}"),
                &theta_constant(train.n_users(), cval),
            );
            // "best constant" by F subject to at least matching θG coverage.
            if c >= c_g * 0.9 && f > best_const.1 {
                best_const = (cval, f, c);
            }
        }
        out.push_str(&format!(
            "\n3. personalization (θG F@5 = {}; best coverage-matched constant: θC={:.2} with F@5 = {})\n{}",
            f4(f_g),
            best_const.0,
            f4(best_const.1),
            t.render()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_report_has_three_sections() {
        let cfg = ExpConfig {
            scale: Scale::Smoke,
            seed: 17,
            runs: 1,
            threads: 2,
        };
        let out = run(&cfg);
        assert!(out.contains("1. user ordering"));
        assert!(out.contains("2. sequential sample size"));
        assert!(out.contains("3. personalization"));
        // Sample-size table has the full row at 100%.
        assert!(out.contains("100.0%"), "{out}");
    }
}
