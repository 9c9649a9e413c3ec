//! RBT — Ranking-Based Techniques (Adomavicius & Kwon, TKDE 2012; §IV-A).
//!
//! RBT re-ranks the output of a rating-prediction model: every candidate
//! whose predicted rating clears the threshold `T_R` is considered "good
//! enough" and re-ranked by an accuracy-agnostic criterion; candidates below
//! the threshold keep their prediction order and fill any remaining slots.
//! `T_R` (∈ `[T_H, T_max]`) controls the accuracy/diversity trade-off: at
//! `T_R = T_max` RBT degenerates to the standard ranking.
//!
//! The two criteria evaluated in the paper:
//!
//! * **Pop** — ascending train popularity (push the obscure items first);
//! * **Avg** — descending item average rating (push well-liked items
//!   regardless of popularity).
//!
//! Paper configuration: `T_max = 5`, `T_R = 4.5`, `T_H ∈ {0, 1}` (the
//! minimum number of above-threshold candidates required before re-ranking
//! kicks in).

use crate::Reranker;
use ganc_dataset::{Interactions, ItemId, UserId};

/// The re-ranking criterion applied to above-threshold candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RbtCriterion {
    /// Ascending item popularity (`Pop`).
    Popularity,
    /// Descending item average rating (`Avg`).
    AverageRating,
}

impl RbtCriterion {
    fn label(&self) -> &'static str {
        match self {
            RbtCriterion::Popularity => "Pop",
            RbtCriterion::AverageRating => "Avg",
        }
    }
}

/// A configured RBT re-ranker.
#[derive(Debug, Clone)]
pub struct Rbt {
    criterion: RbtCriterion,
    /// Ranking threshold `T_R` on the predicted-rating scale.
    tr: f64,
    /// Minimum above-threshold candidates required to re-rank (`T_H`).
    th: usize,
    base_name: String,
    popularity: Vec<u32>,
    item_means: Vec<f64>,
}

impl Rbt {
    /// Build from the train set with the paper's parameters
    /// (`T_R = 4.5`, `T_H = 1`).
    pub fn new(train: &Interactions, criterion: RbtCriterion, base_name: &str) -> Rbt {
        Rbt::with_params(train, criterion, base_name, 4.5, 1)
    }

    /// Build with explicit `T_R` and `T_H`.
    pub fn with_params(
        train: &Interactions,
        criterion: RbtCriterion,
        base_name: &str,
        tr: f64,
        th: usize,
    ) -> Rbt {
        Rbt {
            criterion,
            tr,
            th,
            base_name: base_name.to_string(),
            popularity: train.item_popularity(),
            item_means: train.item_means(0.0),
        }
    }

    /// The configured threshold `T_R`.
    pub fn tr(&self) -> f64 {
        self.tr
    }
}

impl Reranker for Rbt {
    fn name(&self) -> String {
        format!("RBT({}, {})", self.base_name, self.criterion.label())
    }

    fn rerank(
        &self,
        _user: UserId,
        base_scores: &[f64],
        candidates: &[u32],
        n: usize,
    ) -> Vec<ItemId> {
        let mut head: Vec<u32> = Vec::new();
        let mut tail: Vec<u32> = Vec::new();
        for &i in candidates {
            if base_scores[i as usize] >= self.tr {
                head.push(i);
            } else {
                tail.push(i);
            }
        }
        if head.len() < self.th {
            // Not enough confident candidates: fall back to pure prediction
            // order over everything.
            tail.append(&mut head);
        }
        match self.criterion {
            RbtCriterion::Popularity => head.sort_by(|&a, &b| {
                self.popularity[a as usize]
                    .cmp(&self.popularity[b as usize])
                    .then(a.cmp(&b))
            }),
            RbtCriterion::AverageRating => head.sort_by(|&a, &b| {
                self.item_means[b as usize]
                    .total_cmp(&self.item_means[a as usize])
                    .then(a.cmp(&b))
            }),
        }
        // Below-threshold items keep the standard prediction order.
        tail.sort_by(|&a, &b| {
            base_scores[b as usize]
                .total_cmp(&base_scores[a as usize])
                .then(a.cmp(&b))
        });
        head.into_iter().chain(tail).take(n).map(ItemId).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{bits, column_sum, columns, holed};
    use ganc_dataset::{DatasetBuilder, RatingScale};

    #[test]
    fn item_means_and_popularity_match_an_item_major_reference_bit_for_bit() {
        for seed in 1..=4 {
            let train = holed(seed);
            let cols = columns(&train);
            let means: Vec<f64> = cols
                .iter()
                .map(|c| {
                    if c.is_empty() {
                        0.0
                    } else {
                        column_sum(c) / c.len() as f64
                    }
                })
                .collect();
            let popularity: Vec<u32> = cols.iter().map(|c| c.len() as u32).collect();
            assert!(popularity.contains(&0), "seed {seed}: no empty column");
            let rbt = Rbt::new(&train, RbtCriterion::Popularity, "X");
            assert_eq!(bits(&rbt.item_means), bits(&means), "seed {seed}");
            assert_eq!(rbt.popularity, popularity, "seed {seed}");
        }
    }

    /// popularity: item0=4, item1=2, item2=1, item3=1;
    /// means: item0=2.0, item1=5.0, item2=4.0, item3=3.0
    fn train() -> Interactions {
        let mut b = DatasetBuilder::new("t", RatingScale::stars_1_5());
        for u in 0..4u32 {
            b.push(UserId(u), ItemId(0), 2.0).unwrap();
        }
        b.push(UserId(0), ItemId(1), 5.0).unwrap();
        b.push(UserId(1), ItemId(1), 5.0).unwrap();
        b.push(UserId(0), ItemId(2), 4.0).unwrap();
        b.push(UserId(1), ItemId(3), 3.0).unwrap();
        b.build().unwrap().interactions()
    }

    #[test]
    fn pop_criterion_prefers_unpopular_above_threshold() {
        let rbt = Rbt::with_params(&train(), RbtCriterion::Popularity, "X", 4.0, 0);
        // predictions: items 0..3 = [4.5, 4.2, 4.8, 3.0] → head {0,1,2}
        let scores = vec![4.5, 4.2, 4.8, 3.0];
        let list = rbt.rerank(UserId(0), &scores, &[0, 1, 2, 3], 4);
        // head sorted by ascending popularity: 2 (pop1), 1 (pop2), 0 (pop4)
        assert_eq!(list, vec![ItemId(2), ItemId(1), ItemId(0), ItemId(3)]);
    }

    #[test]
    fn avg_criterion_prefers_well_rated() {
        let rbt = Rbt::with_params(&train(), RbtCriterion::AverageRating, "X", 4.0, 0);
        let scores = vec![4.5, 4.2, 4.8, 3.0];
        let list = rbt.rerank(UserId(0), &scores, &[0, 1, 2, 3], 3);
        // head {0,1,2} sorted by descending mean: 1 (5.0), 2 (4.0), 0 (2.0)
        assert_eq!(list, vec![ItemId(1), ItemId(2), ItemId(0)]);
    }

    #[test]
    fn below_threshold_fills_by_prediction() {
        let rbt = Rbt::with_params(&train(), RbtCriterion::Popularity, "X", 4.9, 0);
        let scores = vec![4.5, 4.2, 4.8, 3.0];
        // nothing clears 4.9 → pure prediction order
        let list = rbt.rerank(UserId(0), &scores, &[0, 1, 2, 3], 4);
        assert_eq!(list, vec![ItemId(2), ItemId(0), ItemId(1), ItemId(3)]);
    }

    #[test]
    fn th_gate_disables_reranking_for_thin_heads() {
        // Only one candidate clears TR but TH=2 → fall back to prediction
        // order.
        let rbt = Rbt::with_params(&train(), RbtCriterion::Popularity, "X", 4.6, 2);
        let scores = vec![4.5, 4.2, 4.8, 3.0];
        let list = rbt.rerank(UserId(0), &scores, &[0, 1, 2, 3], 2);
        assert_eq!(list, vec![ItemId(2), ItemId(0)]);
    }

    #[test]
    fn tr_equal_tmax_degenerates_to_standard_ranking() {
        let rbt = Rbt::with_params(&train(), RbtCriterion::Popularity, "X", 5.01, 0);
        let scores = vec![4.5, 4.2, 4.8, 3.0];
        let list = rbt.rerank(UserId(0), &scores, &[0, 1, 2, 3], 4);
        assert_eq!(list, vec![ItemId(2), ItemId(0), ItemId(1), ItemId(3)]);
    }

    #[test]
    fn name_is_paper_template() {
        let rbt = Rbt::new(&train(), RbtCriterion::Popularity, "RSVD");
        assert_eq!(Reranker::name(&rbt), "RBT(RSVD, Pop)");
        let rbt = Rbt::new(&train(), RbtCriterion::AverageRating, "RSVD");
        assert_eq!(Reranker::name(&rbt), "RBT(RSVD, Avg)");
    }

    #[test]
    fn respects_candidate_restriction() {
        let rbt = Rbt::with_params(&train(), RbtCriterion::Popularity, "X", 4.0, 0);
        let scores = vec![4.5, 4.2, 4.8, 3.0];
        let list = rbt.rerank(UserId(0), &scores, &[1, 3], 5);
        assert_eq!(list, vec![ItemId(1), ItemId(3)]);
    }
}
