//! A popularity-based novelty measure beyond Table III.
//!
//! The paper quantifies novelty through LTAccuracy; the wider
//! beyond-accuracy literature it cites (Castells, Hurley & Vargas,
//! Recommender Systems Handbook ch. 26) standardizes **mean
//! self-information** (MSI, a.k.a. surprisal): the average `−log₂ p(i)` of
//! recommended items, where `p(i)` is the fraction of users who rated `i`
//! in train. Recommending items nobody has seen is maximally "surprising".
//! It is the definition a served window's `mean_novelty_bits` follows
//! (`ganc_obs::window`), and the reference `tests/observability.rs`
//! compares that figure against.

use crate::topn::TopN;
use ganc_dataset::Interactions;

/// Per-item observation probability `p(i) = |U_i^R| / |U|`, the basis of
/// the measure. Items never rated get the floor `1 / (|U| + 1)`.
pub fn observation_probability(train: &Interactions) -> Vec<f64> {
    let n_users = train.n_users() as f64;
    train
        .item_popularity()
        .iter()
        .map(|&f| {
            if f == 0 {
                1.0 / (n_users + 1.0)
            } else {
                f as f64 / n_users
            }
        })
        .collect()
}

/// Mean self-information of the recommended items, in bits:
/// `MSI = (1/Σ|P_u|) Σ_u Σ_{i∈P_u} −log₂ p(i)`.
/// Returns 0 for empty collections.
pub fn mean_self_information(topn: &TopN, p_obs: &[f64]) -> f64 {
    let mut sum = 0.0;
    let mut count = 0usize;
    for list in topn.lists() {
        for item in list {
            sum += -(p_obs[item.idx()].log2());
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ganc_dataset::{DatasetBuilder, ItemId, RatingScale, UserId};

    /// 4 users; item 0 rated by all, item 1 by one, item 2 by none.
    fn train() -> Interactions {
        let mut b = DatasetBuilder::new("t", RatingScale::stars_1_5());
        for u in 0..4u32 {
            b.push(UserId(u), ItemId(0), 4.0).unwrap();
        }
        b.push(UserId(0), ItemId(1), 4.0).unwrap();
        let d = b.build().unwrap();
        Interactions::from_ratings(4, 3, d.ratings())
    }

    #[test]
    fn observation_probability_matches_popularity() {
        let p = observation_probability(&train());
        assert!((p[0] - 1.0).abs() < 1e-12);
        assert!((p[1] - 0.25).abs() < 1e-12);
        assert!((p[2] - 0.2).abs() < 1e-12); // floor 1/(4+1)
    }

    #[test]
    fn msi_rewards_rare_items() {
        let tr = train();
        let p = observation_probability(&tr);
        let popular = TopN::new(1, vec![vec![ItemId(0)], vec![], vec![], vec![]]);
        let rare = TopN::new(1, vec![vec![ItemId(1)], vec![], vec![], vec![]]);
        assert_eq!(mean_self_information(&popular, &p), 0.0); // −log₂ 1 = 0
        assert!((mean_self_information(&rare, &p) - 2.0).abs() < 1e-12); // −log₂ ¼
    }

    #[test]
    fn empty_collection_scores_zero() {
        let tr = train();
        let p = observation_probability(&tr);
        let empty = TopN::empty(5, 4);
        assert_eq!(mean_self_information(&empty, &p), 0.0);
    }

    #[test]
    fn mixed_lists_average_over_items() {
        let tr = train();
        let p = observation_probability(&tr);
        let mixed = TopN::new(2, vec![vec![ItemId(0), ItemId(1)], vec![], vec![], vec![]]);
        // (0 + 2.0) / 2 items
        assert!((mean_self_information(&mixed, &p) - 1.0).abs() < 1e-12);
    }
}
