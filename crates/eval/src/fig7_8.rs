//! Figures 7 & 8 (Appendix C): how the test ranking protocol changes the
//! measured trade-offs.
//!
//! For a suite of standard models, top-5 metrics are computed under both
//! the **all unrated items** protocol and the **rated test-items**
//! protocol on ML-100K (Fig. 7) and ML-1M (Fig. 8). The paper's findings
//! this reproduces: the rated-test-items protocol inflates accuracy for
//! every model (random suggestion reaches F ≈ 0.25), rewards
//! popularity-biased models, and compresses LTAccuracy.

use crate::context::{DataBundle, ExpConfig};
use crate::models::{train_psvd, train_rankmf, train_rsvd};
use crate::tables::{f4, TextTable};
use ganc_dataset::Interactions;
use ganc_metrics::{evaluate_topn, RankingProtocol, TopN};
use ganc_recommender::pop::MostPopular;
use ganc_recommender::random::RandomRec;
use ganc_recommender::rsvd::{Rsvd, RsvdConfig};
use ganc_recommender::topn::{
    non_train_items, per_user_lists, select_top_n_scored, train_item_mask,
};
use ganc_recommender::Recommender;

const N: usize = 5;

/// Generate top-N lists under an arbitrary ranking protocol: the
/// protocol's candidates, ranked by [`select_top_n_scored`]. Under
/// [`RankingProtocol::AllUnrated`] these are the lists of the all-unrated
/// fast path in ganc-recommender (`topn::generate_topn_lists`), since both
/// rank the ids of the one pool walk; this generic version also serves the
/// rated-test-items protocol.
pub fn topn_under_protocol(
    rec: &dyn Recommender,
    train: &Interactions,
    test: &Interactions,
    protocol: RankingProtocol,
    n: usize,
    threads: usize,
) -> TopN {
    let n_items = train.n_items() as usize;
    let non_train = non_train_items(&train_item_mask(train));
    let lists = per_user_lists(
        train.n_users() as usize,
        threads,
        || (vec![0.0f64; n_items], Vec::<u32>::new()),
        |(scores, cands), u| {
            rec.score_items(u, scores);
            protocol.candidates(train, test, &non_train, u, cands);
            let scored = cands.iter().map(|&i| (i, scores[i as usize]));
            Some(select_top_n_scored(scored, n))
        },
    );
    TopN::new(n, lists)
}

/// Run the protocol comparison for one dataset (`"ml-100k"` → Figure 7,
/// `"ml-1m"` → Figure 8).
pub fn run(cfg: &ExpConfig, dataset: &str) -> String {
    let figure = if dataset == "ml-1m" { 8 } else { 7 };
    let bundle = DataBundle::prepare(cfg, dataset);
    let train = &bundle.split.train;
    let test = &bundle.split.test;
    let rsvd = train_rsvd(&bundle, cfg);
    let rsvdn = {
        let mut c: RsvdConfig = crate::models::rsvd_config(&bundle, cfg);
        c.non_negative = true;
        Rsvd::train(train, c)
    };
    let psvd10 = train_psvd(&bundle, cfg, 10);
    let psvd100 = train_psvd(&bundle, cfg, 100);
    let psvd200 = train_psvd(&bundle, cfg, 200);
    let rankmf = train_rankmf(&bundle, cfg);
    let pop = MostPopular::fit(train);
    let rand = RandomRec::new(cfg.seed ^ 0xF16);
    let models: Vec<&dyn Recommender> = vec![
        &rand, &pop, &rsvd, &rsvdn, &rankmf, &psvd10, &psvd100, &psvd200,
    ];
    let mut out = format!(
        "Figure {figure} — protocol comparison on {} (top-5)\n",
        bundle.profile.name
    );
    for protocol in [RankingProtocol::AllUnrated, RankingProtocol::RatedTestItems] {
        let mut t = TextTable::new(&["model", "Precision@5", "F@5", "Coverage@5", "LTAcc@5"]);
        for rec in &models {
            let topn = topn_under_protocol(*rec, train, test, protocol, N, cfg.threads);
            let m = evaluate_topn(&topn, &bundle.ctx);
            t.row(vec![
                rec.name(),
                f4(m.precision),
                f4(m.f_measure),
                f4(m.coverage),
                f4(m.lt_accuracy),
            ]);
        }
        out.push_str(&format!("\nprotocol: {}\n{}", protocol.label(), t.render()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Scale;
    use ganc_metrics::accuracy;

    fn smoke() -> ExpConfig {
        ExpConfig {
            scale: Scale::Smoke,
            seed: 15,
            runs: 1,
            threads: 2,
        }
    }

    #[test]
    fn rated_test_items_inflates_random_accuracy() {
        let cfg = smoke();
        let bundle = DataBundle::prepare(&cfg, "ml-100k");
        let rand = RandomRec::new(1);
        let all = topn_under_protocol(
            &rand,
            &bundle.split.train,
            &bundle.split.test,
            RankingProtocol::AllUnrated,
            N,
            2,
        );
        let rated = topn_under_protocol(
            &rand,
            &bundle.split.train,
            &bundle.split.test,
            RankingProtocol::RatedTestItems,
            N,
            2,
        );
        let p_all = accuracy::precision(&all, &bundle.ctx.relevance);
        let p_rated = accuracy::precision(&rated, &bundle.ctx.relevance);
        assert!(
            p_rated > 3.0 * p_all.max(1e-6),
            "rated-protocol random precision {p_rated} should dwarf {p_all}"
        );
    }

    #[test]
    fn report_contains_both_protocols() {
        let cfg = smoke();
        let out = run(&cfg, "ml-100k");
        assert!(out.contains("protocol: all-unrated"));
        assert!(out.contains("protocol: rated-test-items"));
        assert!(out.starts_with("Figure 7"));
    }
}
