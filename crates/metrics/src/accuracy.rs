//! Local ranking accuracy: Precision@N, Recall@N, F-measure@N (Table III)
//! and NDCG@N.
//!
//! Relevance follows the paper: a test item is relevant for `u` when the
//! user rated it highly, `I_u^{T+} = { i ∈ I_u^T : r_ui ≥ 4 }` on the 1–5
//! scale (§IV-A). The threshold is a parameter so other scales can map it.

use crate::topn::TopN;
use ganc_dataset::{Interactions, UserId};

/// Precomputed per-user relevant test sets `I_u^{T+}` (sorted item ids).
#[derive(Debug, Clone)]
pub struct RelevanceSets {
    per_user: Vec<Vec<u32>>,
}

impl RelevanceSets {
    /// Extract relevant test items (`r_ui ≥ threshold`) for every user.
    pub fn from_test(test: &Interactions, threshold: f32) -> RelevanceSets {
        let per_user = (0..test.n_users())
            .map(|u| {
                let (items, vals) = test.user_row(UserId(u));
                items
                    .iter()
                    .zip(vals)
                    .filter(|&(_, &v)| v >= threshold)
                    .map(|(&i, _)| i)
                    .collect()
            })
            .collect();
        RelevanceSets { per_user }
    }

    /// Relevant items of `u`, sorted ascending.
    #[inline]
    pub fn of(&self, u: UserId) -> &[u32] {
        &self.per_user[u.idx()]
    }

    /// Number of hits: `|I_u^{T+} ∩ P_u|`.
    pub fn hits(&self, u: UserId, list: &[ganc_dataset::ItemId]) -> usize {
        let rel = self.of(u);
        list.iter()
            .filter(|i| rel.binary_search(&i.0).is_ok())
            .count()
    }
}

/// Precision@N `= 1/(N·|U|) Σ_u |I_u^{T+} ∩ P_u|` (Table III).
pub fn precision(topn: &TopN, rel: &RelevanceSets) -> f64 {
    let users = topn.n_users();
    if users == 0 || topn.n() == 0 {
        return 0.0;
    }
    let hits: usize = (0..users)
        .map(|u| rel.hits(UserId(u as u32), topn.list(UserId(u as u32))))
        .sum();
    hits as f64 / (topn.n() * users) as f64
}

/// Recall@N `= 1/|U| Σ_u |I_u^{T+} ∩ P_u| / |I_u^{T+}|` (Table III).
/// Users with an empty relevant set contribute 0, per the formula's
/// averaging over all of `U`.
pub fn recall(topn: &TopN, rel: &RelevanceSets) -> f64 {
    let users = topn.n_users();
    if users == 0 {
        return 0.0;
    }
    let sum: f64 = (0..users)
        .map(|u| {
            let uid = UserId(u as u32);
            let r = rel.of(uid);
            if r.is_empty() {
                0.0
            } else {
                rel.hits(uid, topn.list(uid)) as f64 / r.len() as f64
            }
        })
        .sum();
    sum / users as f64
}

/// F-measure@N as printed in Table III: `P·R / (P + R)`.
///
/// Note: the paper describes F as the "harmonic mean" but the Table III
/// formula omits the factor 2; we reproduce the printed formula exactly so
/// values are comparable with the paper's tables. (The conventional F1 is
/// exactly twice this.)
pub fn f_measure(topn: &TopN, rel: &RelevanceSets) -> f64 {
    let p = precision(topn, rel);
    let r = recall(topn, rel);
    combine_f(p, r)
}

/// Combine an already-computed precision and recall with the Table III
/// formula.
#[inline]
pub fn combine_f(p: f64, r: f64) -> f64 {
    if p + r <= 0.0 {
        0.0
    } else {
        p * r / (p + r)
    }
}

/// NDCG@N with binary gains over the relevant sets — not part of Table III
/// but reported by CoFiRank-style ranking baselines (§IV-A).
pub fn ndcg(topn: &TopN, rel: &RelevanceSets) -> f64 {
    let users = topn.n_users();
    if users == 0 {
        return 0.0;
    }
    let mut total = 0.0;
    for u in 0..users {
        let uid = UserId(u as u32);
        let r = rel.of(uid);
        if r.is_empty() {
            continue;
        }
        let mut dcg = 0.0;
        for (pos, item) in topn.list(uid).iter().enumerate() {
            if r.binary_search(&item.0).is_ok() {
                dcg += 1.0 / ((pos + 2) as f64).log2();
            }
        }
        let ideal: f64 = (0..r.len().min(topn.n()))
            .map(|pos| 1.0 / ((pos + 2) as f64).log2())
            .sum();
        if ideal > 0.0 {
            total += dcg / ideal;
        }
    }
    total / users as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ganc_dataset::{DatasetBuilder, ItemId, RatingScale};

    /// Two users; user 0 has relevant test items {1, 2}; user 1 has {3}.
    fn test_set() -> Interactions {
        let mut b = DatasetBuilder::new("t", RatingScale::stars_1_5());
        b.push(UserId(0), ItemId(1), 5.0).unwrap();
        b.push(UserId(0), ItemId(2), 4.0).unwrap();
        b.push(UserId(0), ItemId(3), 2.0).unwrap(); // not relevant
        b.push(UserId(1), ItemId(3), 4.0).unwrap();
        b.build().unwrap().interactions()
    }

    #[test]
    fn relevance_extraction_honors_threshold() {
        let rel = RelevanceSets::from_test(&test_set(), 4.0);
        assert_eq!(rel.of(UserId(0)), &[1, 2]);
        assert_eq!(rel.of(UserId(1)), &[3]);
    }

    #[test]
    fn precision_hand_computed() {
        let rel = RelevanceSets::from_test(&test_set(), 4.0);
        // user0 hits 1 of 2 slots; user1 hits 1 of 2 slots → 2/(2·2) = 0.5
        let topn = TopN::new(
            2,
            vec![vec![ItemId(1), ItemId(9)], vec![ItemId(3), ItemId(8)]],
        );
        assert!((precision(&topn, &rel) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn recall_hand_computed() {
        let rel = RelevanceSets::from_test(&test_set(), 4.0);
        // user0 recalls 1/2, user1 recalls 1/1 → (0.5 + 1.0)/2 = 0.75
        let topn = TopN::new(
            2,
            vec![vec![ItemId(1), ItemId(9)], vec![ItemId(3), ItemId(8)]],
        );
        assert!((recall(&topn, &rel) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn f_measure_is_paper_formula() {
        // P=0.5, R=0.75 → PR/(P+R) = 0.375/1.25 = 0.3
        let rel = RelevanceSets::from_test(&test_set(), 4.0);
        let topn = TopN::new(
            2,
            vec![vec![ItemId(1), ItemId(9)], vec![ItemId(3), ItemId(8)]],
        );
        assert!((f_measure(&topn, &rel) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn empty_lists_score_zero() {
        let rel = RelevanceSets::from_test(&test_set(), 4.0);
        let topn = TopN::empty(5, 2);
        assert_eq!(precision(&topn, &rel), 0.0);
        assert_eq!(recall(&topn, &rel), 0.0);
        assert_eq!(f_measure(&topn, &rel), 0.0);
        assert_eq!(ndcg(&topn, &rel), 0.0);
    }

    #[test]
    fn perfect_lists_max_out() {
        let rel = RelevanceSets::from_test(&test_set(), 4.0);
        let topn = TopN::new(2, vec![vec![ItemId(1), ItemId(2)], vec![ItemId(3)]]);
        // user0: 2 hits / 2; user1: 1 hit out of N=2 slots.
        assert!((precision(&topn, &rel) - 0.75).abs() < 1e-12);
        assert!((recall(&topn, &rel) - 1.0).abs() < 1e-12);
        assert!((ndcg(&topn, &rel) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ndcg_rewards_early_hits() {
        let rel = RelevanceSets::from_test(&test_set(), 4.0);
        let early = TopN::new(2, vec![vec![ItemId(1), ItemId(9)], vec![]]);
        let late = TopN::new(2, vec![vec![ItemId(9), ItemId(1)], vec![]]);
        assert!(ndcg(&early, &rel) > ndcg(&late, &rel));
    }

    #[test]
    fn combine_f_handles_zero() {
        assert_eq!(combine_f(0.0, 0.0), 0.0);
        assert!((combine_f(0.5, 0.5) - 0.25).abs() < 1e-12);
    }
}
