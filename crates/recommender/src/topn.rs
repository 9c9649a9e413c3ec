//! Top-N selection: the one bounded selector every list goes through
//! ([`TopNCollector`]) and parallel list generation for a whole user
//! population.
//!
//! A list ranks the user's candidate pool, the unrated train items
//! `I^R \ I_u^R`, which ganc-dataset defines once as id runs
//! ([`Interactions::for_each_candidate_run`]); callers offer the ids of
//! those runs to a collector. The collector's total order means the set of
//! candidates offered decides the list, not the order they arrive in.

use crate::Recommender;
use ganc_dataset::{Interactions, ItemId, UserId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A `(score, item)` pair with a total order: higher score wins, ties break
/// toward the smaller item id (deterministic across runs and platforms).
#[derive(Debug, Clone, Copy, PartialEq)]
struct ScoredItem {
    score: f64,
    item: u32,
}

impl Eq for ScoredItem {}

impl Ord for ScoredItem {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .total_cmp(&other.score)
            .then_with(|| other.item.cmp(&self.item))
    }
}

impl PartialOrd for ScoredItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A bounded top-N selector over a stream of already-scored candidates —
/// the single selection semantics every list in the workspace goes
/// through: higher score wins, ties break toward the smaller item id.
///
/// Min-heap of the n best seen so far (`Reverse` turns `BinaryHeap`'s
/// max-heap into a min-heap on our total order), so offering a candidate is
/// `O(1)` when it loses (the common case) and `O(log n)` when it enters.
#[derive(Debug)]
pub struct TopNCollector {
    heap: BinaryHeap<std::cmp::Reverse<ScoredItem>>,
    n: usize,
    /// Cached score of the current heap minimum once the list is full:
    /// the hot-loop reject is then a single `f64` compare instead of a
    /// heap peek and a full tie-breaking comparison. `NEG_INFINITY` while
    /// filling (NaN-safe: `score < NaN` and `NaN < thresh` are both false,
    /// which routes any NaN through the exact comparison path).
    thresh: f64,
}

impl TopNCollector {
    /// A collector for the `n` best candidates.
    pub fn new(n: usize) -> TopNCollector {
        TopNCollector {
            heap: BinaryHeap::with_capacity(n + 1),
            n,
            thresh: f64::NEG_INFINITY,
        }
    }

    #[inline]
    fn refresh_thresh(&mut self) {
        self.thresh = self
            .heap
            .peek()
            .map_or(f64::NEG_INFINITY, |min| min.0.score);
    }

    /// Offer one scored candidate.
    #[inline]
    pub fn offer(&mut self, item: u32, score: f64) {
        if self.heap.len() >= self.n {
            if score < self.thresh {
                return;
            }
            let cand = ScoredItem { score, item };
            if let Some(min) = self.heap.peek() {
                if cand > min.0 {
                    self.heap.pop();
                    self.heap.push(std::cmp::Reverse(cand));
                    self.refresh_thresh();
                }
            }
        } else {
            self.heap
                .push(std::cmp::Reverse(ScoredItem { score, item }));
            if self.heap.len() == self.n {
                self.refresh_thresh();
            }
        }
    }

    /// The cached heap-minimum score (`NEG_INFINITY` while the list is
    /// filling): callers with an upper bound on future scores use it to
    /// skip candidates that cannot enter. A candidate whose score is
    /// *strictly below* this floor always loses; one exactly at the floor
    /// loses unless its item id wins the tie.
    #[inline]
    pub fn current_floor(&self) -> f64 {
        self.thresh
    }

    /// Finish: items in descending score order.
    pub fn finish(self) -> Vec<ItemId> {
        let mut out: Vec<ScoredItem> = self.heap.into_iter().map(|r| r.0).collect();
        out.sort_unstable_by(|a, b| b.cmp(a));
        out.into_iter().map(|s| ItemId(s.item)).collect()
    }
}

/// Select the `n` best of a stream of already-scored `(item, score)`
/// candidates. Returns items in descending score order (ties toward the
/// smaller item id).
///
/// This is the fused-scoring entry point: callers compute each candidate's
/// score on the fly (e.g. `(1−θ)a + θc`) and stream it straight into the
/// bounded min-heap, so no dense score buffer has to exist. Cost is
/// `O(|candidates| · log n)`.
pub fn select_top_n_scored(scored: impl IntoIterator<Item = (u32, f64)>, n: usize) -> Vec<ItemId> {
    let mut col = TopNCollector::new(n);
    for (item, score) in scored {
        col.offer(item, score);
    }
    col.finish()
}

/// Mask of items with at least one train rating.
pub fn train_item_mask(train: &Interactions) -> Vec<bool> {
    train.item_popularity().iter().map(|&f| f > 0).collect()
}

/// The sorted ids of items with no train rating — the complement of
/// [`train_item_mask`], precomputed once: the `non_train` exclusion list of
/// [`Interactions::for_each_candidate_run`].
pub fn non_train_items(in_train: &[bool]) -> Vec<u32> {
    in_train
        .iter()
        .enumerate()
        .filter(|(_, &t)| !t)
        .map(|(i, _)| i as u32)
        .collect()
}

/// One list per id of `users`, computed in parallel: the ids are split into
/// contiguous ranges across at most `threads` scoped OS threads (at least
/// one, never more than there are ids), each worker builds its scratch
/// state once with `init` and calls `per_user` for every id in its range.
/// A list is whatever `per_user` returns, so the worker that computed it
/// also wraps it (the serving engine's `Arc`s): wrapping 6 000 lists on the
/// joining thread instead made a batch ≈ 5 % slower.
///
/// The workers' ranges are concatenated in order, and because each list
/// depends on its user alone the result is the same at every thread count.
/// No ids, no threads: the collection is empty.
pub fn lists_for<S, L: Send>(
    users: &[UserId],
    threads: usize,
    init: impl Fn() -> S + Sync,
    per_user: impl Fn(&mut S, UserId) -> L + Sync,
) -> Vec<L> {
    if users.is_empty() {
        return Vec::new();
    }
    let chunk = users.len().div_ceil(threads.clamp(1, users.len()));
    let (init, per_user) = (&init, &per_user);
    std::thread::scope(|scope| {
        let workers: Vec<_> = users
            .chunks(chunk)
            .map(|ids| {
                scope.spawn(move || {
                    let mut scratch = init();
                    let lists = ids.iter().map(|&user| per_user(&mut scratch, user));
                    lists.collect::<Vec<L>>()
                })
            })
            .collect();
        let mut lists = Vec::with_capacity(users.len());
        for worker in workers {
            lists.extend(worker.join().expect("per-user worker panicked"));
        }
        lists
    })
}

/// [`lists_for`] over every user of a population, `0..n_users`. `None`
/// leaves that user's list empty (OSLG skips the users its sequential phase
/// already assigned).
pub fn per_user_lists<S>(
    n_users: usize,
    threads: usize,
    init: impl Fn() -> S + Sync,
    per_user: impl Fn(&mut S, UserId) -> Option<Vec<ItemId>> + Sync,
) -> Vec<Vec<ItemId>> {
    let users: Vec<UserId> = (0..n_users as u32).map(UserId).collect();
    lists_for(&users, threads, init, |scratch, user| {
        per_user(scratch, user).unwrap_or_default()
    })
}

/// The `n` best of the user's candidate pool by `scores`, a score per
/// catalog item: each id of [`Interactions::for_each_candidate_run`]'s runs
/// is offered to one [`TopNCollector`].
pub fn select_unseen(
    scores: &[f64],
    train: &Interactions,
    user: UserId,
    non_train: &[u32],
    n: usize,
) -> Vec<ItemId> {
    let mut col = TopNCollector::new(n);
    train.for_each_candidate_run(user, &[], non_train, |lo, hi| {
        for (off, &score) in scores[lo as usize..hi as usize].iter().enumerate() {
            col.offer(lo + off as u32, score);
        }
    });
    col.finish()
}

/// Generate top-N lists for every user under the all-unrated protocol,
/// in parallel across `threads` OS threads ([`per_user_lists`]), one score
/// buffer per thread.
pub fn generate_topn_lists(
    rec: &dyn Recommender,
    train: &Interactions,
    n: usize,
    threads: usize,
) -> Vec<Vec<ItemId>> {
    let n_items = train.n_items() as usize;
    let non_train = non_train_items(&train_item_mask(train));
    per_user_lists(
        train.n_users() as usize,
        threads,
        || vec![0.0f64; n_items],
        |scores, u| {
            rec.score_items(u, scores);
            Some(select_unseen(scores, train, u, &non_train, n))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ganc_dataset::Rating;

    /// Every id of `scores` with its score.
    fn scored(scores: &[f64]) -> impl Iterator<Item = (u32, f64)> + '_ {
        (0u32..).zip(scores.iter().copied())
    }

    #[test]
    fn select_picks_best_in_order() {
        let top = select_top_n_scored(scored(&[0.1, 0.9, 0.5, 0.7]), 2);
        assert_eq!(top, vec![ItemId(1), ItemId(3)]);
    }

    #[test]
    fn select_breaks_ties_by_smaller_id() {
        let top = select_top_n_scored(scored(&[0.5, 0.5, 0.5, 0.9]), 3);
        assert_eq!(top, vec![ItemId(3), ItemId(0), ItemId(1)]);
    }

    #[test]
    fn select_respects_candidate_filter() {
        // User 0 rated item 0, so only items 1 and 2 compete.
        let top = select_unseen(&[0.9, 0.8, 0.7], &small_train(), UserId(0), &[], 2);
        assert_eq!(top, vec![ItemId(1), ItemId(2)]);
    }

    #[test]
    fn scored_stream_matches_buffered_selection() {
        // A user with no ratings in a fully rated catalog ranks every id.
        let scores = [0.4, 0.9, 0.9, 0.1, 0.7];
        let m = train_of(2, 5, &[(0, 0), (0, 1), (0, 2), (0, 3), (0, 4)]);
        let buffered = select_unseen(&scores, &m, UserId(1), &[], 3);
        assert_eq!(buffered, select_top_n_scored(scored(&scores), 3));
        assert!(select_top_n_scored(std::iter::empty(), 0).is_empty());
    }

    #[test]
    fn select_handles_small_pools() {
        let scores = [0.3, 0.2];
        assert_eq!(select_top_n_scored(scored(&scores), 10).len(), 2);
        assert!(select_top_n_scored(std::iter::empty(), 3).is_empty());
        assert!(select_top_n_scored(scored(&scores), 0).is_empty());
    }

    /// A train set of `n_users × n_items` holding the `(user, item)` pairs.
    fn train_of(n_users: u32, n_items: u32, pairs: &[(u32, u32)]) -> Interactions {
        let ratings: Vec<Rating> = pairs
            .iter()
            .map(|&(u, i)| Rating {
                user: UserId(u),
                item: ItemId(i),
                value: 5.0,
            })
            .collect();
        Interactions::from_ratings(n_users, n_items, &ratings)
    }

    const SMALL: [(u32, u32); 4] = [(0, 0), (1, 1), (1, 2), (2, 2)];

    fn small_train() -> Interactions {
        train_of(3, 3, &SMALL)
    }

    #[test]
    fn unseen_candidates_excludes_rated() {
        // Item 3 has no train rating: it never competes.
        let m = train_of(3, 4, &SMALL);
        let non_train = non_train_items(&train_item_mask(&m));
        assert_eq!(non_train, vec![3]);
        let by_id = [0.0, 1.0, 2.0, 3.0];
        let top = |u| select_unseen(&by_id, &m, UserId(u), &non_train, 4);
        assert_eq!(top(1), vec![ItemId(0)]);
        assert_eq!(top(0), vec![ItemId(2), ItemId(1)]);
    }

    struct ById;
    impl Recommender for ById {
        fn name(&self) -> String {
            "by-id".into()
        }
        fn score_items(&self, _u: UserId, out: &mut [f64]) {
            for (k, o) in out.iter_mut().enumerate() {
                *o = k as f64;
            }
        }
    }

    #[test]
    fn parallel_generation_matches_serial() {
        let m = small_train();
        let serial = generate_topn_lists(&ById, &m, 2, 1);
        let parallel = generate_topn_lists(&ById, &m, 2, 4);
        assert_eq!(serial, parallel);
        // user 0 has candidates {1,2}, by-id scoring prefers 2.
        assert_eq!(serial[0], vec![ItemId(2), ItemId(1)]);
    }

    #[test]
    fn generated_lists_respect_contract() {
        let m = small_train();
        let lists = generate_topn_lists(&ById, &m, 3, 2);
        for (u, list) in lists.iter().enumerate() {
            for item in list {
                assert!(!m.contains(UserId(u as u32), *item));
            }
            let mut ids: Vec<u32> = list.iter().map(|i| i.0).collect();
            ids.dedup();
            assert_eq!(ids.len(), list.len());
        }
    }
}
