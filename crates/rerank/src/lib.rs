//! # ganc-rerank
//!
//! The competing re-ranking frameworks the paper evaluates against
//! (§IV-A, Table IV):
//!
//! * [`rbt::Rbt`] — Ranking-Based Techniques (Adomavicius & Kwon, TKDE'12):
//!   items predicted above a rating threshold `T_R` are re-ranked by an
//!   alternative criterion (item popularity or average rating).
//! * [`five_d::FiveD`] — resource-allocation re-ranking (Ho et al.,
//!   WSDM'14): a 5-criterion score (accuracy, balance, coverage, quality,
//!   long-tail quantity) with optional accuracy filtering (A) and
//!   rank-by-rankings aggregation (RR).
//! * [`pra::Pra`] — Personalized Ranking Adaptation (Jugovac et al., 2017):
//!   greedy swap-based adaptation of the head of the list toward each
//!   user's popularity tendency.
//!
//! All three implement [`Reranker`], which consumes the **raw score buffer
//! of a base recommender** for one user and emits the re-ranked top-N list;
//! [`rerank_all`] drives any re-ranker over the whole population in
//! parallel.

pub mod five_d;
pub mod pra;
pub mod rbt;

use ganc_dataset::{Interactions, ItemId, UserId};
use ganc_recommender::topn::{per_user_lists, train_item_mask, unseen_train_candidates};
use ganc_recommender::Recommender;

/// A post-processor of base-recommender scores for a single user.
pub trait Reranker: Send + Sync {
    /// Name for experiment tables, e.g. `"RBT(RSVD, Pop)"`.
    fn name(&self) -> String;

    /// Produce the top-`n` list for `user`.
    ///
    /// `base_scores` holds the base model's raw score for every item
    /// (predicted ratings for rating models); `candidates` are the item ids
    /// eligible under the evaluation protocol, in ascending order.
    fn rerank(
        &self,
        user: UserId,
        base_scores: &[f64],
        candidates: &[u32],
        n: usize,
    ) -> Vec<ItemId>;
}

/// Run a re-ranker over every user, computing base scores per user and
/// parallelizing over user chunks. Candidates follow the paper's
/// all-unrated-items protocol.
pub fn rerank_all(
    reranker: &dyn Reranker,
    base: &dyn Recommender,
    train: &Interactions,
    n: usize,
    threads: usize,
) -> Vec<Vec<ItemId>> {
    let n_items = train.n_items() as usize;
    let in_train = train_item_mask(train);
    per_user_lists(
        train.n_users() as usize,
        threads,
        || (vec![0.0f64; n_items], Vec::<u32>::with_capacity(n_items)),
        |(scores, cands), u| {
            base.score_items(u, scores);
            cands.clear();
            cands.extend(unseen_train_candidates(train, &in_train, u));
            Some(reranker.rerank(u, scores, cands, n))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ganc_dataset::{DatasetBuilder, RatingScale};
    use ganc_recommender::pop::MostPopular;

    struct Reverse;
    impl Reranker for Reverse {
        fn name(&self) -> String {
            "reverse".into()
        }
        fn rerank(
            &self,
            _user: UserId,
            base_scores: &[f64],
            candidates: &[u32],
            n: usize,
        ) -> Vec<ItemId> {
            // lowest base score first — a trivial inversion
            let mut c: Vec<u32> = candidates.to_vec();
            c.sort_by(|&a, &b| {
                base_scores[a as usize]
                    .total_cmp(&base_scores[b as usize])
                    .then(a.cmp(&b))
            });
            c.into_iter().take(n).map(ItemId).collect()
        }
    }

    #[test]
    fn driver_feeds_candidates_and_scores() {
        let mut b = DatasetBuilder::new("t", RatingScale::stars_1_5());
        for u in 0..4u32 {
            b.push(UserId(u), ItemId(0), 4.0).unwrap();
        }
        for u in 0..2u32 {
            b.push(UserId(u), ItemId(1), 4.0).unwrap();
        }
        b.push(UserId(0), ItemId(2), 4.0).unwrap();
        let m = b.build().unwrap().interactions();
        let pop = MostPopular::fit(&m);
        let lists = rerank_all(&Reverse, &pop, &m, 2, 2);
        // user 3 candidates {1,2}; reverse of popularity → item 2 first.
        assert_eq!(lists[3], vec![ItemId(2), ItemId(1)]);
        // user 0 saw everything → empty.
        assert!(lists[0].is_empty());
    }

    #[test]
    fn driver_is_thread_count_invariant() {
        let mut b = DatasetBuilder::new("t", RatingScale::stars_1_5());
        for u in 0..9u32 {
            for i in 0..6u32 {
                if (u + i) % 3 != 0 {
                    b.push(UserId(u), ItemId(i), 3.0).unwrap();
                }
            }
        }
        let m = b.build().unwrap().interactions();
        let pop = MostPopular::fit(&m);
        let a = rerank_all(&Reverse, &pop, &m, 3, 1);
        let b2 = rerank_all(&Reverse, &pop, &m, 3, 5);
        assert_eq!(a, b2);
    }
}

/// The item-major reference the re-rankers' per-item facts are checked
/// against, bit for bit.
#[cfg(test)]
mod reference {
    use ganc_dataset::synth::DatasetProfile;
    use ganc_dataset::{Interactions, ItemId, Rating, UserId};

    /// A synthetic train set with an empty user row and an empty item
    /// column spliced into the middle of each id space, and one more of
    /// each at the end.
    pub(crate) fn holed(seed: u64) -> Interactions {
        let m = DatasetProfile::tiny().generate(seed).interactions();
        let (mid_user, mid_item) = (m.n_users() / 2, m.n_items() / 2);
        let ratings: Vec<Rating> = m
            .iter()
            .map(|(u, i, value)| Rating {
                user: UserId(u.0 + u32::from(u.0 >= mid_user)),
                item: ItemId(i.0 + u32::from(i.0 >= mid_item)),
                value,
            })
            .collect();
        Interactions::from_ratings(m.n_users() + 2, m.n_items() + 2, &ratings)
    }

    /// Each item's raters with their ratings, in ascending user order, read
    /// back from the user-major triplets.
    pub(crate) fn columns(m: &Interactions) -> Vec<Vec<(u32, f32)>> {
        let mut cols = vec![Vec::new(); m.n_items() as usize];
        for (u, i, v) in m.iter() {
            cols[i.idx()].push((u.0, v));
        }
        cols
    }

    /// Each item's ratings summed down its column.
    pub(crate) fn column_sum(col: &[(u32, f32)]) -> f64 {
        col.iter().map(|&(_, v)| v as f64).sum()
    }

    pub(crate) fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }
}
