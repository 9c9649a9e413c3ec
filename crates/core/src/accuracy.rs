//! Accuracy-score adapters (§III-A): turn any base [`Recommender`] into
//! per-user accuracy scores `a(i) ∈ [0, 1]`.
//!
//! * Score/rating models (RSVD, PSVD, RankMF) use [`NormalizedScores`]:
//!   per-user min–max normalization of the raw score vector, matching the
//!   paper's "normalize the predicted rating vectors of all users".
//! * Pop "does not score items", so the paper defines a binary indicator:
//!   `a(i) = 1` iff `i` is in Pop's own top-N set — [`TopNIndicator`]. That
//!   set ranks the same candidate pool as every other list, the unrated
//!   train items ([`Interactions::for_each_candidate_run`]).
//!
//! [`make_scorer`] (and [`make_scorer_with_mask`] on the serving path) is
//! the one place an [`AccuracyMode`] picks its adapter.

use ganc_dataset::{Interactions, UserId};
use ganc_recommender::topn::{non_train_items, select_unseen, train_item_mask};
use ganc_recommender::Recommender;

/// How a base recommender is adapted to `[0, 1]` accuracy scores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum AccuracyMode {
    /// Per-user min–max normalization of raw scores.
    Normalized,
    /// Binary membership in the base model's own top-N list (the paper's
    /// Pop adapter).
    TopNIndicator,
}

/// A source of per-user accuracy scores in `[0, 1]`.
pub trait AccuracyScorer: Send + Sync {
    /// Name for experiment tables (delegates to the base model).
    fn name(&self) -> String;

    /// Fill `out[i] = a(i) ∈ [0, 1]` for every item.
    fn accuracy_scores(&self, user: UserId, out: &mut [f64]);
}

/// Min–max normalized scores of a base recommender.
pub struct NormalizedScores<'a> {
    base: &'a dyn Recommender,
}

impl<'a> NormalizedScores<'a> {
    /// Wrap a base recommender.
    pub fn new(base: &'a dyn Recommender) -> NormalizedScores<'a> {
        NormalizedScores { base }
    }
}

impl AccuracyScorer for NormalizedScores<'_> {
    fn name(&self) -> String {
        self.base.name()
    }

    fn accuracy_scores(&self, user: UserId, out: &mut [f64]) {
        self.base.score_items(user, out);
        ganc_dataset::stats::min_max_normalize(out);
    }
}

/// Binary top-N membership scores: `a(i) = 1` iff the base model itself
/// would put `i` in the user's top-N (unseen train items only).
pub struct TopNIndicator<'a> {
    base: &'a dyn Recommender,
    train: &'a Interactions,
    /// Sorted ids of the items with no train rating.
    non_train: std::borrow::Cow<'a, [u32]>,
    n: usize,
}

impl<'a> TopNIndicator<'a> {
    /// Wrap a base recommender with the list size `n` used for membership.
    pub fn new(base: &'a dyn Recommender, train: &'a Interactions, n: usize) -> TopNIndicator<'a> {
        TopNIndicator {
            base,
            train,
            non_train: std::borrow::Cow::Owned(non_train_items(&train_item_mask(train))),
            n,
        }
    }

    /// Like [`TopNIndicator::new`], borrowing the already-computed sorted
    /// ids of the items with no train rating (from
    /// [`ganc_recommender::topn::non_train_items`]) instead of rebuilding
    /// them — the serving path constructs one adapter per request and must
    /// not re-walk the train set each time.
    pub fn with_mask(
        base: &'a dyn Recommender,
        train: &'a Interactions,
        non_train: &'a [u32],
        n: usize,
    ) -> TopNIndicator<'a> {
        TopNIndicator {
            base,
            train,
            non_train: std::borrow::Cow::Borrowed(non_train),
            n,
        }
    }
}

impl AccuracyScorer for TopNIndicator<'_> {
    fn name(&self) -> String {
        self.base.name()
    }

    fn accuracy_scores(&self, user: UserId, out: &mut [f64]) {
        self.base.score_items(user, out);
        let top = select_unseen(out, self.train, user, &self.non_train, self.n);
        out.fill(0.0);
        for item in top {
            out[item.idx()] = 1.0;
        }
    }
}

/// Adapt a base recommender to `[0, 1]` accuracy scores per `mode`: the
/// adaptation both the batch path ([`crate::build_topn`]) and a fitted
/// bundle apply.
pub fn make_scorer<'a>(
    rec: &'a dyn Recommender,
    mode: AccuracyMode,
    train: &'a Interactions,
    n: usize,
) -> Box<dyn AccuracyScorer + 'a> {
    match mode {
        AccuracyMode::Normalized => Box::new(NormalizedScores::new(rec)),
        AccuracyMode::TopNIndicator => Box::new(TopNIndicator::new(rec, train, n)),
    }
}

/// Like [`make_scorer`], borrowing the already-computed `non_train` ids
/// ([`TopNIndicator::with_mask`]) so the per-request serving path never
/// re-walks the train set to rebuild them.
pub fn make_scorer_with_mask<'a>(
    rec: &'a dyn Recommender,
    mode: AccuracyMode,
    train: &'a Interactions,
    non_train: &'a [u32],
    n: usize,
) -> Box<dyn AccuracyScorer + 'a> {
    match mode {
        AccuracyMode::Normalized => Box::new(NormalizedScores::new(rec)),
        AccuracyMode::TopNIndicator => Box::new(TopNIndicator::with_mask(rec, train, non_train, n)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ganc_dataset::{DatasetBuilder, ItemId, RatingScale};
    use ganc_recommender::pop::MostPopular;

    struct Linear;
    impl Recommender for Linear {
        fn name(&self) -> String {
            "linear".into()
        }
        fn score_items(&self, _u: UserId, out: &mut [f64]) {
            for (k, o) in out.iter_mut().enumerate() {
                *o = 10.0 + 5.0 * k as f64;
            }
        }
    }

    fn train() -> Interactions {
        let mut b = DatasetBuilder::new("t", RatingScale::stars_1_5());
        for u in 0..4u32 {
            b.push(UserId(u), ItemId(0), 4.0).unwrap();
        }
        for u in 0..2u32 {
            b.push(UserId(u), ItemId(1), 4.0).unwrap();
        }
        b.push(UserId(0), ItemId(2), 4.0).unwrap();
        b.push(UserId(0), ItemId(3), 4.0).unwrap();
        b.build().unwrap().interactions()
    }

    #[test]
    fn normalized_scores_span_unit_interval() {
        let rec = Linear;
        let adapter = NormalizedScores::new(&rec);
        let mut buf = vec![0.0; 4];
        adapter.accuracy_scores(UserId(0), &mut buf);
        assert_eq!(buf, vec![0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0]);
    }

    #[test]
    fn indicator_marks_exactly_top_n_unseen() {
        let m = train();
        let pop = MostPopular::fit(&m);
        let adapter = TopNIndicator::new(&pop, &m, 2);
        let mut buf = vec![0.0; 4];
        // user 3 has seen only item 0 → Pop's top-2 unseen = {1, 2}.
        adapter.accuracy_scores(UserId(3), &mut buf);
        assert_eq!(buf, vec![0.0, 1.0, 1.0, 0.0]);
        assert_eq!(buf.iter().filter(|&&x| x == 1.0).count(), 2);
    }

    #[test]
    fn indicator_excludes_seen_items() {
        let m = train();
        let pop = MostPopular::fit(&m);
        let adapter = TopNIndicator::new(&pop, &m, 4);
        let mut buf = vec![0.0; 4];
        adapter.accuracy_scores(UserId(0), &mut buf);
        // user 0 saw everything → no indicator set.
        assert!(buf.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn adapters_report_base_name() {
        let rec = Linear;
        assert_eq!(NormalizedScores::new(&rec).name(), "linear");
        let m = train();
        let pop = MostPopular::fit(&m);
        assert_eq!(TopNIndicator::new(&pop, &m, 3).name(), "Pop");
    }
}
