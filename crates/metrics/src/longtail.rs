//! Long-tail promotion metrics: LTAccuracy@N and Stratified Recall@N
//! (Table III).

use crate::accuracy::RelevanceSets;
use crate::topn::TopN;
use ganc_dataset::stats::LongTail;
use ganc_dataset::UserId;

/// LTAccuracy@N `= 1/(N·|U|) Σ_u |L ∩ P_u|` — the proportion of
/// recommended items that are long-tail, i.e. unlikely to be already known
/// (Table III; originally from the resource-allocation paper \[20\]).
pub fn lt_accuracy(topn: &TopN, long_tail: &LongTail) -> f64 {
    let users = topn.n_users();
    if users == 0 || topn.n() == 0 {
        return 0.0;
    }
    let hits: usize = topn
        .lists()
        .iter()
        .map(|list| list.iter().filter(|&&i| long_tail.contains(i)).count())
        .sum();
    hits as f64 / (topn.n() * users) as f64
}

/// Stratified Recall@N (Steck \[36\], Table III):
///
/// ```text
///              Σ_u Σ_{i ∈ I_u^{T+} ∩ P_u} (1/f_i^R)^β
/// StratRecall = -------------------------------------
///              Σ_u Σ_{i ∈ I_u^{T+}}       (1/f_i^R)^β
/// ```
///
/// with β = 0.5 in the paper. Items that never appear in train would divide
/// by zero; they are weighted as if `f_i^R = 1`, the natural continuity
/// choice (their tail weight is maximal either way).
pub fn stratified_recall(
    topn: &TopN,
    rel: &RelevanceSets,
    train_popularity: &[u32],
    beta: f64,
) -> f64 {
    let weight = |item: u32| -> f64 {
        let f = train_popularity[item as usize].max(1) as f64;
        (1.0 / f).powf(beta)
    };
    let mut numer = 0.0;
    let mut denom = 0.0;
    for u in 0..topn.n_users() {
        let uid = UserId(u as u32);
        let relevant = rel.of(uid);
        if relevant.is_empty() {
            continue;
        }
        for &i in relevant {
            denom += weight(i);
        }
        for item in topn.list(uid) {
            if relevant.binary_search(&item.0).is_ok() {
                numer += weight(item.0);
            }
        }
    }
    if denom <= 0.0 {
        0.0
    } else {
        numer / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ganc_dataset::{DatasetBuilder, Interactions, ItemId, RatingScale};

    /// Item 0 very popular (8 ratings), items 1..=2 rare.
    fn train() -> Interactions {
        let mut b = DatasetBuilder::new("t", RatingScale::stars_1_5());
        for u in 0..8u32 {
            b.push(UserId(u), ItemId(0), 4.0).unwrap();
        }
        b.push(UserId(0), ItemId(1), 4.0).unwrap();
        b.push(UserId(1), ItemId(2), 4.0).unwrap();
        b.build().unwrap().interactions()
    }

    fn test_set() -> Interactions {
        let mut b = DatasetBuilder::new("t", RatingScale::stars_1_5());
        b.push(UserId(0), ItemId(2), 5.0).unwrap(); // rare, relevant
        b.push(UserId(1), ItemId(0), 5.0).unwrap(); // popular, relevant
        b.build().unwrap().interactions()
    }

    #[test]
    fn lt_accuracy_counts_tail_fraction() {
        let lt = LongTail::pareto(&train());
        // user0 recommends one tail + one head; user1 two head items (0 is
        // head; 1,2 are tail in this skew).
        let topn = TopN::new(
            2,
            vec![vec![ItemId(1), ItemId(0)], vec![ItemId(0), ItemId(0)]],
        );
        // tail hits: item1 (1) + none = 1 → 1/(2·2) = 0.25
        assert!((lt_accuracy(&topn, &lt) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn strat_recall_weights_rare_hits_higher() {
        let tr = train();
        let rel = RelevanceSets::from_test(&test_set(), 4.0);
        let pop = tr.item_popularity();
        // Hitting only the rare relevant item (user 0).
        let rare_hit = TopN::new(1, vec![vec![ItemId(2)], vec![]]);
        // Hitting only the popular relevant item (user 1).
        let pop_hit = TopN::new(1, vec![vec![], vec![ItemId(0)]]);
        let s_rare = stratified_recall(&rare_hit, &rel, &pop, 0.5);
        let s_pop = stratified_recall(&pop_hit, &rel, &pop, 0.5);
        assert!(
            s_rare > s_pop,
            "rare hit {s_rare} should outweigh popular hit {s_pop}"
        );
    }

    #[test]
    fn strat_recall_hits_everything_is_one() {
        let tr = train();
        let rel = RelevanceSets::from_test(&test_set(), 4.0);
        let pop = tr.item_popularity();
        let all = TopN::new(1, vec![vec![ItemId(2)], vec![ItemId(0)]]);
        assert!((stratified_recall(&all, &rel, &pop, 0.5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn strat_recall_beta_zero_is_plain_hit_ratio() {
        let tr = train();
        let rel = RelevanceSets::from_test(&test_set(), 4.0);
        let pop = tr.item_popularity();
        let one_hit = TopN::new(1, vec![vec![ItemId(2)], vec![ItemId(9)]]);
        // β=0 → every item weighs 1 → 1 hit / 2 relevant items.
        assert!((stratified_recall(&one_hit, &rel, &pop, 0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_everything_is_zero() {
        let tr = train();
        let pop = tr.item_popularity();
        let rel = RelevanceSets::from_test(&tr, 99.0); // nothing relevant
        let topn = TopN::empty(3, tr.n_users() as usize);
        assert_eq!(stratified_recall(&topn, &rel, &pop, 0.5), 0.0);
        let lt = LongTail::pareto(&tr);
        assert_eq!(lt_accuracy(&topn, &lt), 0.0);
    }
}
