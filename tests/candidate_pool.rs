//! One candidate pool (§IV-A): every list ranks the train items its user
//! has not rated, `I^R \ I_u^R`, drawn from one walk,
//! `Interactions::for_each_candidate_run`. Generated over tiny train sets
//! with unrated items at either end of the catalog, both or neither, users
//! with no ratings, and extra exclusions that repeat, are already seen or
//! lie past the catalog:
//!
//! * the flattened walk is the brute-force filter over `0..n_items`, and
//!   its runs are ascending, non-empty and maximal;
//! * `generate_topn_lists`, `TopNIndicator`, `rerank_all`'s candidates and
//!   `RankingProtocol::AllUnrated` equal the mask-based paths the walk
//!   replaced, kept verbatim below as references.

use ganc::core::accuracy::{AccuracyScorer, TopNIndicator};
use ganc::dataset::dataset::Rating;
use ganc::dataset::{Interactions, ItemId, UserId};
use ganc::metrics::RankingProtocol;
use ganc::recommender::random::unit_hash;
use ganc::recommender::topn::{
    generate_topn_lists, non_train_items, select_top_n_scored, train_item_mask,
};
use ganc::recommender::Recommender;
use ganc::rerank::{rerank_all, Reranker};
use proptest::prelude::*;

const N_USERS: u32 = 6;

/// Random train sets of 6 users × 8–10 items whose ratings never touch
/// users 2 and 5: every draw has users with no ratings. Item 0 goes
/// unrated when `lead` is 1 and the last item when `tail` is 1, so the
/// draws cover unrated items at either end, at both and at neither (more
/// go unrated at random).
fn arb_train() -> impl Strategy<Value = Interactions> {
    let draws = proptest::collection::vec((0u32..4, 0u32..8), 0..30);
    (0u32..2, 0u32..2, draws).prop_map(|(lead, tail, draws)| {
        let mut seen = std::collections::HashSet::new();
        let ratings: Vec<Rating> = draws
            .into_iter()
            .map(|(u, i)| Rating {
                user: UserId(u + u32::from(u >= 2)),
                item: ItemId(i + lead),
                value: 4.0,
            })
            .filter(|r| seen.insert((r.user, r.item)))
            .collect();
        Interactions::from_ratings(N_USERS, 8 + lead + tail, &ratings)
    })
}

/// Sorted extra exclusions for `user`: `draw` (ids up to 13, so some lie
/// past the catalog and some repeat) plus the user's first rated item.
fn extra_for(train: &Interactions, user: UserId, draw: &[u32]) -> Vec<u32> {
    let mut extra = draw.to_vec();
    extra.extend(train.user_row(user).0.first());
    extra.sort_unstable();
    extra
}

/// Scores from a hash of `(seed, user, item)`, cut to four levels so that
/// ties are common and the smaller-id tie-break decides lists.
struct Quantized(u64);

impl Recommender for Quantized {
    fn name(&self) -> String {
        "quantized".into()
    }

    fn score_items(&self, user: UserId, out: &mut [f64]) {
        for (i, o) in (0u32..).zip(out.iter_mut()) {
            *o = (unit_hash(self.0, user.0, i) * 4.0).floor();
        }
    }
}

/// A re-ranker that returns the candidates it is handed, in order.
struct Echo;

impl Reranker for Echo {
    fn name(&self) -> String {
        "echo".into()
    }

    fn rerank(&self, _user: UserId, _scores: &[f64], candidates: &[u32], _n: usize) -> Vec<ItemId> {
        candidates.iter().map(|&i| ItemId(i)).collect()
    }
}

// ---- The mask-based paths, verbatim from before the one walk ----------

fn unseen_train_candidates<'a>(
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

fn select_top_n(
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

/// `generate_topn_lists`' per-user body.
fn mask_topn(rec: &dyn Recommender, train: &Interactions, u: UserId, n: usize) -> Vec<ItemId> {
    let in_train = train_item_mask(train);
    let mut scores = vec![0.0f64; train.n_items() as usize];
    rec.score_items(u, &mut scores);
    select_top_n(&scores, unseen_train_candidates(train, &in_train, u), n)
}

/// `TopNIndicator::accuracy_scores`.
fn mask_indicator(
    rec: &dyn Recommender,
    train: &Interactions,
    u: UserId,
    n: usize,
    out: &mut [f64],
) {
    let in_train = train_item_mask(train);
    rec.score_items(u, out);
    let top = select_top_n(out, unseen_train_candidates(train, &in_train, u), n);
    out.iter_mut().for_each(|o| *o = 0.0);
    for item in top {
        out[item.idx()] = 1.0;
    }
}

/// `rerank_all`'s candidate input.
fn mask_rerank_candidates(train: &Interactions, u: UserId) -> Vec<u32> {
    let in_train = train_item_mask(train);
    let mut cands = Vec::new();
    cands.extend(unseen_train_candidates(train, &in_train, u));
    cands
}

/// `RankingProtocol::candidates`' `AllUnrated` arm.
fn mask_all_unrated(train: &Interactions, in_train: &[bool], u: UserId, out: &mut Vec<u32>) {
    out.clear();
    let (seen, _) = train.user_row(u);
    let mut seen_iter = seen.iter().copied().peekable();
    for i in 0..train.n_items() {
        // `seen` is sorted, so march both sequences together.
        if seen_iter.peek() == Some(&i) {
            seen_iter.next();
            continue;
        }
        if in_train[i as usize] {
            out.push(i);
        }
    }
}

// ------------------------------------------------------------------------

proptest! {
    /// The walk is the brute-force pool less the extras, as ascending,
    /// non-empty, maximal runs inside the catalog.
    #[test]
    fn the_walk_is_the_brute_force_pool_in_maximal_runs(
        train in arb_train(),
        draw in proptest::collection::vec(0u32..14, 0..8),
    ) {
        let n_items = train.n_items();
        let non_train = non_train_items(&train_item_mask(&train));
        for u in 0..N_USERS {
            let user = UserId(u);
            for extra in [Vec::new(), extra_for(&train, user, &draw)] {
                let mut runs = Vec::new();
                train.for_each_candidate_run(user, &extra, &non_train, |lo, hi| runs.push((lo, hi)));
                let flat: Vec<u32> = runs.iter().flat_map(|&(lo, hi)| lo..hi).collect();
                let brute: Vec<u32> = (0..n_items)
                    .filter(|&i| {
                        train.item_popularity()[i as usize] > 0
                            && !train.contains(user, ItemId(i))
                            && !extra.contains(&i)
                    })
                    .collect();
                prop_assert_eq!(flat, brute, "user {} extra {:?}", u, extra);
                prop_assert!(runs.iter().all(|&(lo, hi)| lo < hi && hi <= n_items), "{:?}", runs);
                prop_assert!(runs.windows(2).all(|w| w[0].1 < w[1].0), "not maximal: {:?}", runs);
            }
        }
    }

    /// Every list-building path ranks the same pool as its mask-based
    /// predecessor, so every list is byte-identical.
    #[test]
    fn every_path_equals_its_mask_based_predecessor(
        train in arb_train(),
        seed in 0u64..1000,
        n in 0usize..7,
        threads in 1usize..4,
    ) {
        let rec = Quantized(seed);
        let in_train = train_item_mask(&train);
        let non_train = non_train_items(&in_train);
        let lists = generate_topn_lists(&rec, &train, n, threads);
        let echoed = rerank_all(&Echo, &rec, &train, n, threads);
        let owned = TopNIndicator::new(&rec, &train, n);
        let borrowed = TopNIndicator::with_mask(&rec, &train, &non_train, n);
        let test = Interactions::from_ratings(N_USERS, train.n_items(), &[]);
        let width = train.n_items() as usize;
        let (mut want, mut got) = (vec![0.0; width], vec![0.0; width]);
        let (mut want_ids, mut got_ids) = (Vec::new(), Vec::new());
        for u in 0..N_USERS {
            let user = UserId(u);
            prop_assert_eq!(&lists[u as usize], &mask_topn(&rec, &train, user, n), "user {}", u);
            let echoed_ids: Vec<u32> = echoed[u as usize].iter().map(|i| i.0).collect();
            prop_assert_eq!(echoed_ids, mask_rerank_candidates(&train, user), "user {}", u);
            mask_indicator(&rec, &train, user, n, &mut want);
            for indicator in [&owned, &borrowed] {
                indicator.accuracy_scores(user, &mut got);
                prop_assert_eq!(&got, &want, "user {}", u);
            }
            mask_all_unrated(&train, &in_train, user, &mut want_ids);
            RankingProtocol::AllUnrated.candidates(&train, &test, &non_train, user, &mut got_ids);
            prop_assert_eq!(&got_ids, &want_ids, "user {}", u);
        }
    }
}
