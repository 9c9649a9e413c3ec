//! One-call evaluation bundling every Table III metric — the shape of a
//! Table IV row.

use crate::accuracy::{self, RelevanceSets};
use crate::coverage;
use crate::longtail;
use crate::topn::TopN;
use ganc_dataset::stats::LongTail;
use ganc_dataset::Interactions;

/// Everything the evaluator needs besides the lists themselves, precomputed
/// once per dataset and shared across all evaluated models.
#[derive(Debug)]
pub struct EvalContext {
    /// Relevant test sets `I_u^{T+}`.
    pub relevance: RelevanceSets,
    /// Train popularity `f^R` (for stratified recall).
    pub train_popularity: Vec<u32>,
    /// The Pareto long-tail set `L`.
    pub long_tail: LongTail,
    /// Catalog size `|I|`.
    pub n_items: u32,
    /// Stratified-recall exponent β (0.5 in the paper).
    pub beta: f64,
}

impl EvalContext {
    /// Build the context from a split with the paper's defaults
    /// (relevance threshold 4 on the 1–5 scale, β = 0.5, Pareto 80/20).
    pub fn new(train: &Interactions, test: &Interactions) -> EvalContext {
        EvalContext::with_threshold(train, test, 4.0, 0.5)
    }

    /// Build with an explicit relevance threshold and β.
    pub fn with_threshold(
        train: &Interactions,
        test: &Interactions,
        relevance_threshold: f32,
        beta: f64,
    ) -> EvalContext {
        let train_popularity = train.item_popularity();
        EvalContext {
            relevance: RelevanceSets::from_test(test, relevance_threshold),
            long_tail: LongTail::from_popularity(&train_popularity, LongTail::PARETO),
            train_popularity,
            n_items: train.n_items(),
            beta,
        }
    }
}

/// A full metric row: the five Table IV columns plus the components the
/// figures plot.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TopNMetrics {
    /// Precision@N.
    pub precision: f64,
    /// Recall@N.
    pub recall: f64,
    /// F-measure@N (Table III formula `PR/(P+R)`).
    pub f_measure: f64,
    /// Stratified Recall@N (β from the context).
    pub strat_recall: f64,
    /// LTAccuracy@N.
    pub lt_accuracy: f64,
    /// Coverage@N.
    pub coverage: f64,
    /// Gini@N.
    pub gini: f64,
    /// NDCG@N (not in Table IV; reported by ranking baselines).
    pub ndcg: f64,
}

/// Evaluate a top-N collection on every metric at once.
pub fn evaluate_topn(topn: &TopN, ctx: &EvalContext) -> TopNMetrics {
    let precision = accuracy::precision(topn, &ctx.relevance);
    let recall = accuracy::recall(topn, &ctx.relevance);
    TopNMetrics {
        precision,
        recall,
        f_measure: accuracy::combine_f(precision, recall),
        strat_recall: longtail::stratified_recall(
            topn,
            &ctx.relevance,
            &ctx.train_popularity,
            ctx.beta,
        ),
        lt_accuracy: longtail::lt_accuracy(topn, &ctx.long_tail),
        coverage: coverage::coverage(topn, ctx.n_items),
        gini: coverage::gini(topn, ctx.n_items),
        ndcg: accuracy::ndcg(topn, &ctx.relevance),
    }
}

impl TopNMetrics {
    /// The mean row over repeated runs (all zeros over none). Accumulates
    /// `x / k` per run, field by field — the order of operations the
    /// experiment drivers print from, so a refactor that sums first and
    /// divides once would move their last digits.
    pub fn mean(rows: &[TopNMetrics]) -> TopNMetrics {
        let k = rows.len().max(1) as f64;
        let mut m = TopNMetrics::default();
        for r in rows {
            m.precision += r.precision / k;
            m.recall += r.recall / k;
            m.f_measure += r.f_measure / k;
            m.strat_recall += r.strat_recall / k;
            m.lt_accuracy += r.lt_accuracy / k;
            m.coverage += r.coverage / k;
            m.gini += r.gini / k;
            m.ndcg += r.ndcg / k;
        }
        m
    }

    /// The Table IV column order: (F, S, L, C, G).
    pub fn table4_columns(&self) -> [f64; 5] {
        [
            self.f_measure,
            self.strat_recall,
            self.lt_accuracy,
            self.coverage,
            self.gini,
        ]
    }

    /// Whether a higher value is better for Table IV column `idx`
    /// (Gini is the only lower-is-better column).
    pub fn higher_is_better(idx: usize) -> bool {
        idx != 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ganc_dataset::{DatasetBuilder, ItemId, RatingScale, UserId};

    fn fixture() -> (Interactions, Interactions) {
        let mut tr = DatasetBuilder::new("t", RatingScale::stars_1_5());
        for u in 0..6u32 {
            tr.push(UserId(u), ItemId(0), 4.0).unwrap();
        }
        tr.push(UserId(0), ItemId(1), 4.0).unwrap();
        tr.push(UserId(1), ItemId(2), 4.0).unwrap();
        let mut te = DatasetBuilder::new("t", RatingScale::stars_1_5());
        te.push(UserId(0), ItemId(2), 5.0).unwrap();
        te.push(UserId(1), ItemId(1), 5.0).unwrap();
        te.push(UserId(2), ItemId(1), 2.0).unwrap();
        let train = tr.build().unwrap().interactions();
        let test = {
            let d = te.build().unwrap();
            Interactions::from_ratings(train.n_users(), train.n_items(), d.ratings())
        };
        (train, test)
    }

    #[test]
    fn evaluate_is_internally_consistent() {
        let (train, test) = fixture();
        let ctx = EvalContext::new(&train, &test);
        let topn = TopN::new(
            2,
            vec![
                vec![ItemId(2), ItemId(1)],
                vec![ItemId(1), ItemId(0)],
                vec![ItemId(0), ItemId(1)],
                vec![ItemId(0)],
                vec![ItemId(0)],
                vec![ItemId(0)],
            ],
        );
        let m = evaluate_topn(&topn, &ctx);
        assert!((m.f_measure - accuracy::combine_f(m.precision, m.recall)).abs() < 1e-15);
        assert!(m.precision > 0.0 && m.precision <= 1.0);
        assert!(m.recall > 0.0 && m.recall <= 1.0);
        assert!(m.coverage > 0.0 && m.coverage <= 1.0);
        assert!((0.0..=1.0).contains(&m.gini));
        assert!((0.0..=1.0).contains(&m.strat_recall));
        assert!((0.0..=1.0).contains(&m.lt_accuracy));
    }

    #[test]
    fn table4_columns_order_and_direction() {
        let cols_higher: Vec<bool> = (0..5).map(TopNMetrics::higher_is_better).collect();
        assert_eq!(cols_higher, vec![true, true, true, true, false]);
    }

    #[test]
    fn perfect_hits_beat_misses_everywhere_but_gini() {
        let (train, test) = fixture();
        let ctx = EvalContext::new(&train, &test);
        let hits = TopN::new(
            1,
            vec![
                vec![ItemId(2)],
                vec![ItemId(1)],
                vec![],
                vec![],
                vec![],
                vec![],
            ],
        );
        let misses = TopN::new(
            1,
            vec![
                vec![ItemId(1)],
                vec![ItemId(2)],
                vec![],
                vec![],
                vec![],
                vec![],
            ],
        );
        let mh = evaluate_topn(&hits, &ctx);
        let mm = evaluate_topn(&misses, &ctx);
        assert!(mh.precision > mm.precision);
        assert!(mh.strat_recall > mm.strat_recall);
        // coverage identical: both recommend 2 distinct items
        assert_eq!(mh.coverage, mm.coverage);
    }
}
