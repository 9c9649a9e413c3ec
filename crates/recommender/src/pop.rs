//! The non-personalized "most popular" recommender (Pop, §III-A).
//!
//! Pop recommends the most-rated unseen items. It exploits the popularity
//! bias of CF data, so it is a surprisingly strong accuracy baseline for
//! ranking (\[1\], \[5\] in the paper) while having trivially low coverage and
//! novelty — exactly the trade-off GANC is built to correct.

use crate::Recommender;
use ganc_dataset::{Interactions, UserId};

/// Most-popular recommender: scores every item by its raw train popularity
/// count.
///
/// Scores are deliberately **un-normalized** (the ROADMAP's "normalize
/// lazily per query"): rankings are invariant under the positive affine
/// min–max map, and the GANC accuracy adapters normalize per request
/// anyway, so keeping raw counts makes online popularity refreshes
/// `O(touched items)` ([`MostPopular::bump`]) instead of an `O(|I|)`
/// re-normalization per ingest.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MostPopular {
    scores: Vec<f64>,
}

impl MostPopular {
    /// Fit from a train set: score = `f_i^R` (popularity).
    pub fn fit(train: &Interactions) -> MostPopular {
        MostPopular::from_popularity(&train.item_popularity())
    }

    /// Rebuild from a raw popularity vector `f^R` (one count per item).
    /// The serving path uses this to refresh Pop after ingesting new
    /// interactions without re-walking the train set.
    pub fn from_popularity(popularity: &[u32]) -> MostPopular {
        MostPopular {
            scores: popularity.iter().map(|&f| f as f64).collect(),
        }
    }

    /// Record one more rating of `item` — the `O(1)` serving-ingest
    /// refresh, equivalent to refitting on the bumped popularity vector.
    #[inline]
    pub fn bump(&mut self, item: ganc_dataset::ItemId) {
        self.scores[item.idx()] += 1.0;
    }

    /// Catalogue size: the number of items scored.
    pub fn n_items(&self) -> usize {
        self.scores.len()
    }

    /// The popularity score of one item (its rating count).
    pub fn popularity_score(&self, item: ganc_dataset::ItemId) -> f64 {
        self.scores[item.idx()]
    }
}

impl Recommender for MostPopular {
    fn name(&self) -> String {
        "Pop".into()
    }

    fn score_items(&self, _user: UserId, out: &mut [f64]) {
        out.copy_from_slice(&self.scores);
    }

    fn scores_are_user_independent(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topn::{generate_topn_lists, select_top_n_scored};
    use ganc_dataset::{DatasetBuilder, ItemId, RatingScale};

    fn train() -> Interactions {
        let mut b = DatasetBuilder::new("t", RatingScale::stars_1_5());
        for u in 0..5u32 {
            b.push(UserId(u), ItemId(0), 3.0).unwrap();
        }
        for u in 0..3u32 {
            b.push(UserId(u), ItemId(1), 3.0).unwrap();
        }
        b.push(UserId(0), ItemId(2), 3.0).unwrap();
        b.build().unwrap().interactions()
    }

    #[test]
    fn scores_follow_popularity() {
        let rec = MostPopular::fit(&train());
        let mut buf = vec![0.0; 3];
        rec.score_items(UserId(4), &mut buf);
        assert!(buf[0] > buf[1]);
        assert!(buf[1] > buf[2]);
        assert_eq!(buf, vec![5.0, 3.0, 1.0], "raw counts, no normalization");
    }

    #[test]
    fn bump_matches_refit_on_bumped_counts() {
        let m = train();
        let mut counts = m.item_popularity();
        let mut rec = MostPopular::fit(&m);
        rec.bump(ItemId(2));
        rec.bump(ItemId(2));
        counts[2] += 2;
        assert_eq!(rec, MostPopular::from_popularity(&counts));
    }

    #[test]
    fn same_scores_for_every_user() {
        let rec = MostPopular::fit(&train());
        let mut a = vec![0.0; 3];
        let mut b = vec![0.0; 3];
        rec.score_items(UserId(0), &mut a);
        rec.score_items(UserId(4), &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn recommends_most_popular_unseen() {
        let m = train();
        let rec = MostPopular::fit(&m);
        let lists = generate_topn_lists(&rec, &m, 2, 1);
        // user 4 saw only item 0 → gets items 1 then 2.
        assert_eq!(lists[4], vec![ItemId(1), ItemId(2)]);
        // user 0 saw everything → empty list.
        assert!(lists[0].is_empty());
    }

    #[test]
    fn selection_is_popularity_ordered() {
        let m = train();
        let rec = MostPopular::fit(&m);
        let mut buf = vec![0.0; 3];
        rec.score_items(UserId(4), &mut buf);
        let top = select_top_n_scored((0u32..).zip(buf), 3);
        assert_eq!(top, vec![ItemId(0), ItemId(1), ItemId(2)]);
    }
}
