//! Top-N selection: deterministic partial selection from score buffers and
//! parallel list generation for a whole user population.

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

    /// The current worst score that still makes the list, if the list is
    /// already full.
    #[inline]
    pub fn threshold(&self) -> Option<f64> {
        if self.heap.len() < self.n {
            None
        } else {
            self.heap.peek().map(|r| r.0.score)
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

/// Select the `n` best items from a score buffer, restricted to candidate
/// ids yielded by `candidates`. Returns items in descending score order.
///
/// Uses a bounded min-heap, so the cost is `O(|candidates| · log n)`.
pub fn select_top_n(
    scores: &[f64],
    candidates: impl IntoIterator<Item = u32>,
    n: usize,
) -> Vec<ItemId> {
    select_top_n_scored(
        candidates
            .into_iter()
            .map(|item| (item, scores[item as usize])),
        n,
    )
}

/// Candidate iterator for the paper's main protocol: all train items the
/// user has not rated (`I^R \ I_u^R`).
///
/// `in_train` is the item mask from [`train_item_mask`].
pub fn unseen_train_candidates<'a>(
    train: &'a Interactions,
    in_train: &'a [bool],
    u: UserId,
) -> impl Iterator<Item = u32> + 'a {
    let (seen, _) = train.user_row(u);
    let mut seen_iter = seen.iter().copied().peekable();
    (0..train.n_items()).filter(move |&i| {
        if seen_iter.peek() == Some(&i) {
            seen_iter.next();
            return false;
        }
        in_train[i as usize]
    })
}

/// Mask of items with at least one train rating.
pub fn train_item_mask(train: &Interactions) -> Vec<bool> {
    train.item_popularity().iter().map(|&f| f > 0).collect()
}

/// The sorted ids of items with no train rating — the complement of
/// [`train_item_mask`], precomputed once so the fused hot loop can treat
/// "not in train" as one more exclusion list instead of a per-item branch.
pub fn non_train_items(in_train: &[bool]) -> Vec<u32> {
    in_train
        .iter()
        .enumerate()
        .filter(|(_, &t)| !t)
        .map(|(i, _)| i as u32)
        .collect()
}

/// Visit the user's candidate id space as maximal `[lo, hi)` runs that
/// contain no train-seen, no `extra_seen`, and no `non_train` ids (all
/// sorted). Every id inside a run is a true candidate.
///
/// Equivalent to [`unseen_train_candidates`] filtered by `extra_seen`, but
/// shaped for the fused hot loop: the exclusion merge runs once per
/// excluded id instead of once per catalog item, so the inner loops are
/// branch-free range scans.
pub fn for_each_candidate_run(
    train: &Interactions,
    user: UserId,
    extra_seen: &[u32],
    non_train: &[u32],
    mut run: impl FnMut(u32, u32),
) {
    let (seen, _) = train.user_row(user);
    let n_items = train.n_items();
    let (mut ai, mut bi, mut ci) = (0usize, 0usize, 0usize);
    let mut lo = 0u32;
    loop {
        let mut next: Option<u32> = None;
        for head in [
            seen.get(ai).copied(),
            extra_seen.get(bi).copied(),
            non_train.get(ci).copied(),
        ]
        .into_iter()
        .flatten()
        {
            next = Some(next.map_or(head, |n| n.min(head)));
        }
        match next {
            Some(x) if x < n_items => {
                if lo < x {
                    run(lo, x);
                }
                while seen.get(ai) == Some(&x) {
                    ai += 1;
                }
                while extra_seen.get(bi) == Some(&x) {
                    bi += 1;
                }
                while non_train.get(ci) == Some(&x) {
                    ci += 1;
                }
                lo = x + 1;
            }
            _ => {
                if lo < n_items {
                    run(lo, n_items);
                }
                return;
            }
        }
    }
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
    let in_train = train_item_mask(train);
    per_user_lists(
        train.n_users() as usize,
        threads,
        || vec![0.0f64; n_items],
        |scores, u| {
            rec.score_items(u, scores);
            Some(select_top_n(
                scores,
                unseen_train_candidates(train, &in_train, u),
                n,
            ))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ganc_dataset::{DatasetBuilder, RatingScale};

    #[test]
    fn select_picks_best_in_order() {
        let scores = vec![0.1, 0.9, 0.5, 0.7];
        let top = select_top_n(&scores, 0..4, 2);
        assert_eq!(top, vec![ItemId(1), ItemId(3)]);
    }

    #[test]
    fn select_breaks_ties_by_smaller_id() {
        let scores = vec![0.5, 0.5, 0.5, 0.9];
        let top = select_top_n(&scores, 0..4, 3);
        assert_eq!(top, vec![ItemId(3), ItemId(0), ItemId(1)]);
    }

    #[test]
    fn select_respects_candidate_filter() {
        let scores = vec![0.9, 0.8, 0.7];
        let top = select_top_n(&scores, [1u32, 2], 2);
        assert_eq!(top, vec![ItemId(1), ItemId(2)]);
    }

    #[test]
    fn scored_stream_matches_buffered_selection() {
        let scores = vec![0.4, 0.9, 0.9, 0.1, 0.7];
        let buffered = select_top_n(&scores, 0..5, 3);
        let streamed = select_top_n_scored((0..5u32).map(|i| (i, scores[i as usize])), 3);
        assert_eq!(buffered, streamed);
        assert!(select_top_n_scored(std::iter::empty(), 0).is_empty());
    }

    #[test]
    fn select_handles_small_pools() {
        let scores = vec![0.3, 0.2];
        let top = select_top_n(&scores, 0..2, 10);
        assert_eq!(top.len(), 2);
        assert!(select_top_n(&scores, std::iter::empty(), 3).is_empty());
        assert!(select_top_n(&scores, 0..2, 0).is_empty());
    }

    fn small_train() -> Interactions {
        let mut b = DatasetBuilder::new("t", RatingScale::stars_1_5());
        b.push(UserId(0), ItemId(0), 5.0).unwrap();
        b.push(UserId(1), ItemId(1), 5.0).unwrap();
        b.push(UserId(1), ItemId(2), 5.0).unwrap();
        b.push(UserId(2), ItemId(2), 5.0).unwrap();
        b.build().unwrap().interactions()
    }

    #[test]
    fn unseen_candidates_excludes_rated() {
        let m = small_train();
        let mask = train_item_mask(&m);
        let c: Vec<u32> = unseen_train_candidates(&m, &mask, UserId(1)).collect();
        assert_eq!(c, vec![0]);
        let c0: Vec<u32> = unseen_train_candidates(&m, &mask, UserId(0)).collect();
        assert_eq!(c0, vec![1, 2]);
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
