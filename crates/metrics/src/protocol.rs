//! Test ranking protocols (§IV-A, Appendix C).
//!
//! The protocol decides **which items are ranked** when building a user's
//! top-N set:
//!
//! * [`RankingProtocol::AllUnrated`] — rank every train item the user has
//!   not rated, `I^R \ I_u^R`. This is the paper's main protocol: it mirrors
//!   the production setting where the system must pick N items from the
//!   whole catalog. Its candidates are the ids of the one pool walk,
//!   [`Interactions::for_each_candidate_run`], the same set every base
//!   model, re-ranker and GANC list in the workspace ranks.
//! * [`RankingProtocol::RatedTestItems`] — rank only the user's observed
//!   test items `I_u^T`. Appendix C shows this inflates accuracy badly
//!   (random guessing reaches F ≈ 0.25 on ML-1M) and rewards
//!   popularity-biased models; it exists here to reproduce Figures 7–8.

use ganc_dataset::{Interactions, UserId};

/// Which candidate items are ranked for each user at test time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankingProtocol {
    /// Rank all train items unseen by the user (`I^R \ I_u^R`).
    AllUnrated,
    /// Rank only the user's observed test items (`I_u^T`).
    RatedTestItems,
}

impl RankingProtocol {
    /// Collect the candidate item ids for `u` under this protocol.
    ///
    /// `non_train` must be the precomputed sorted ids of the items with no
    /// train rating (`I \ I^R`), reused across users; pass
    /// `ganc_recommender::topn::non_train_items`'s output.
    pub fn candidates(
        &self,
        train: &Interactions,
        test: &Interactions,
        non_train: &[u32],
        u: UserId,
        out: &mut Vec<u32>,
    ) {
        out.clear();
        match self {
            RankingProtocol::AllUnrated => {
                train.for_each_candidate_run(u, &[], non_train, |lo, hi| out.extend(lo..hi));
            }
            RankingProtocol::RatedTestItems => {
                let (items, _) = test.user_row(u);
                out.extend_from_slice(items);
            }
        }
    }

    /// Short display name used in experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            RankingProtocol::AllUnrated => "all-unrated",
            RankingProtocol::RatedTestItems => "rated-test-items",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ganc_dataset::{DatasetBuilder, ItemId, RatingScale};
    use ganc_recommender::topn::{non_train_items, train_item_mask};

    fn fixture() -> (Interactions, Interactions) {
        // items 0..=3; item 3 never rated in train.
        let mut tr = DatasetBuilder::new("t", RatingScale::stars_1_5());
        tr.push(UserId(0), ItemId(0), 4.0).unwrap();
        tr.push(UserId(0), ItemId(1), 4.0).unwrap();
        tr.push(UserId(1), ItemId(2), 4.0).unwrap();
        tr.push(UserId(1), ItemId(3), 1.0).unwrap();
        let mut te = DatasetBuilder::new("t", RatingScale::stars_1_5());
        te.push(UserId(0), ItemId(2), 5.0).unwrap();
        te.push(UserId(1), ItemId(0), 3.0).unwrap();
        let train = tr.build().unwrap().interactions();
        let test = {
            // widen id space to match train
            let d = te.build().unwrap();
            let ratings: Vec<_> = d.ratings().to_vec();
            Interactions::from_ratings(train.n_users(), train.n_items(), &ratings)
        };
        (train, test)
    }

    #[test]
    fn all_unrated_excludes_seen_and_untrained() {
        let (train, test) = fixture();
        let non_train = non_train_items(&train_item_mask(&train));
        let mut out = Vec::new();
        RankingProtocol::AllUnrated.candidates(&train, &test, &non_train, UserId(0), &mut out);
        // user0 saw {0,1}; item 3 IS in train (user1 rated it) → candidates {2,3}
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn all_unrated_full_catalog_when_nothing_seen() {
        let (train, test) = fixture();
        let non_train = non_train_items(&train_item_mask(&train));
        let mut out = Vec::new();
        // user id space includes a user with no train ratings? Add user 2 via
        // widened interactions: both users rated, so test user 1's view:
        RankingProtocol::AllUnrated.candidates(&train, &test, &non_train, UserId(1), &mut out);
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn rated_test_items_returns_test_row() {
        let (train, test) = fixture();
        let non_train = non_train_items(&train_item_mask(&train));
        let mut out = Vec::new();
        RankingProtocol::RatedTestItems.candidates(&train, &test, &non_train, UserId(0), &mut out);
        assert_eq!(out, vec![2]);
    }

    #[test]
    fn mask_marks_only_trained_items() {
        let (train, _) = fixture();
        assert_eq!(train_item_mask(&train), vec![true, true, true, true]);
        // Remove item 3 by building a train set without it.
        let mut tr = DatasetBuilder::new("t", RatingScale::stars_1_5());
        tr.push(UserId(0), ItemId(0), 4.0).unwrap();
        tr.push(UserId(1), ItemId(2), 4.0).unwrap();
        let d = tr.build().unwrap();
        let m = Interactions::from_ratings(2, 4, d.ratings());
        assert_eq!(train_item_mask(&m), vec![true, false, true, false]);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(RankingProtocol::AllUnrated.label(), "all-unrated");
        assert_eq!(RankingProtocol::RatedTestItems.label(), "rated-test-items");
    }
}
