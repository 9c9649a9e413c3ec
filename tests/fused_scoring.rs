//! The fused-scorer acceptance property: [`UserQuery`]'s single-pass
//! candidate-only scoring must return **byte-identical** lists to a naive
//! three-buffer reference scorer (dense accuracy fill → dense coverage fill
//! → dense combine → buffered selection) across every coverage kind, θ
//! extremes, and exclusion lists.

use ganc::core::accuracy::{AccuracyScorer, NormalizedScores};
use ganc::core::coverage::{CoverageSnapshots, DynCoverage, RandCoverage, StatCoverage};
use ganc::core::query::{candidate_runs, combine_into, CoverageProvider, UserQuery};
use ganc::dataset::dataset::{DatasetBuilder, RatingScale};
use ganc::dataset::{Interactions, ItemId, UserId};
use ganc::recommender::pop::MostPopular;
use ganc::recommender::topn::{non_train_items, select_top_n_scored, train_item_mask};
use proptest::prelude::*;

const N_USERS: u32 = 10;
const N_ITEMS: u32 = 24;

/// Random small rating matrices with a fixed catalog so item ids can go
/// unrated (exercising the `in_train` exclusion).
fn arb_train() -> impl Strategy<Value = Interactions> {
    proptest::collection::vec((0u32..N_USERS, 0u32..N_ITEMS, 1u32..=5), 8..160).prop_map(
        |triples| {
            let mut b = DatasetBuilder::new("fused", RatingScale::stars_1_5());
            for (u, i, r) in triples {
                b.push(UserId(u), ItemId(i), r as f32).unwrap();
            }
            let d = b.build().unwrap();
            Interactions::from_ratings(N_USERS, N_ITEMS, d.ratings())
        },
    )
}

/// The mask-based candidate iterator the run walk replaced, kept as the
/// reference: all train items the user has not rated (`I^R \ I_u^R`).
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

/// Buffered selection: the `n` best of `scores` over `candidates`.
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

/// The fused list with `extra_seen` (sorted) also left out of the pool.
fn topn_excluding(
    q: &mut UserQuery,
    train: &Interactions,
    user: UserId,
    theta_u: f64,
    coverage: &dyn CoverageProvider,
    extra_seen: &[u32],
) -> Vec<ItemId> {
    let non_train = non_train_items(&train_item_mask(train));
    let runs = candidate_runs(train, user, extra_seen, &non_train);
    q.topn_with_runs(user, theta_u, coverage, &runs)
}

/// The three-buffer reference scorer the tentpole replaced.
#[allow(clippy::too_many_arguments)]
fn naive_topn(
    arec: &dyn AccuracyScorer,
    train: &Interactions,
    in_train: &[bool],
    user: UserId,
    theta_u: f64,
    coverage: &dyn CoverageProvider,
    extra_seen: &[u32],
    n: usize,
) -> Vec<ItemId> {
    let n_items = train.n_items() as usize;
    let mut a = vec![0.0; n_items];
    let mut c = vec![0.0; n_items];
    let mut s = vec![0.0; n_items];
    arec.accuracy_scores(user, &mut a);
    coverage.view(user, theta_u).fill(&mut c);
    combine_into(theta_u, &a, &c, &mut s);
    let candidates = unseen_train_candidates(train, in_train, user)
        .filter(|i| extra_seen.binary_search(i).is_err());
    select_top_n(&s, candidates, n)
}

fn check_all_providers(train: &Interactions, thetas: &[f64], extra_seen: &[u32], n: usize) {
    let pop = MostPopular::fit(train);
    let arec = NormalizedScores::new(&pop);
    let in_train = train_item_mask(train);

    let stat = StatCoverage::fit(train);
    let rand = RandCoverage::new(0xFEED);
    let mut dynamic = DynCoverage::new(train.n_items());
    dynamic.observe(&[ItemId(0), ItemId(1), ItemId(1), ItemId(5 % N_ITEMS)]);
    // Snapshots built two ways: sparse increments in θ order, and dense
    // out-of-order pushes followed by a sort.
    let mut snaps = CoverageSnapshots::for_items(train.n_items());
    for (k, t) in [0.1, 0.35, 0.6, 0.85].iter().enumerate() {
        let list = [
            ItemId((k as u32 * 3) % N_ITEMS),
            ItemId((k as u32 * 7 + 2) % N_ITEMS),
        ];
        snaps.push_assigned(*t, &list);
    }
    let mut snaps_sorted = CoverageSnapshots::new();
    let mut counts = vec![0u32; train.n_items() as usize];
    for (t, item) in [(0.7, 3u32), (0.2, 9), (0.5, 1)] {
        counts[(item % N_ITEMS) as usize] += 1;
        snaps_sorted.push(t, &counts);
    }
    snaps_sorted.sort_by_theta();

    let providers: [&dyn CoverageProvider; 5] = [&stat, &rand, &dynamic, &snaps, &snaps_sorted];
    let mut q = UserQuery::new(&arec, train, &in_train, n);
    for provider in providers {
        for u in 0..train.n_users() {
            for &t in thetas {
                let fused = topn_excluding(&mut q, train, UserId(u), t, provider, extra_seen);
                let naive = naive_topn(
                    &arec,
                    train,
                    &in_train,
                    UserId(u),
                    t,
                    provider,
                    extra_seen,
                    n,
                );
                assert_eq!(fused, naive, "user {u} θ={t} n={n}");
            }
        }
    }
}

proptest! {
    /// Fused ≡ naive on random matrices, random θ, random exclusions.
    #[test]
    fn fused_matches_naive_reference(
        train in arb_train(),
        theta in 0.0f64..1.0,
        extra in proptest::collection::vec(0u32..N_ITEMS, 0..6),
        n in 1usize..8,
    ) {
        let mut extra = extra;
        extra.sort_unstable();
        extra.dedup();
        check_all_providers(&train, &[theta], &extra, n);
    }

    /// θ extremes flip the objective entirely; the equivalence must hold
    /// exactly at both ends and just inside them.
    #[test]
    fn fused_matches_naive_at_theta_extremes(train in arb_train()) {
        check_all_providers(&train, &[0.0, f64::EPSILON, 0.5, 1.0 - f64::EPSILON, 1.0], &[], 5);
    }
}

/// Deep snapshot chains cross checkpoint boundaries; the patched view must
/// stay exact for every nearest-θ resolution.
#[test]
fn fused_matches_naive_across_checkpoint_boundaries() {
    let mut b = DatasetBuilder::new("chain", RatingScale::stars_1_5());
    for u in 0..N_USERS {
        for i in 0..6 {
            b.push(UserId(u), ItemId((u * 5 + i) % N_ITEMS), 4.0)
                .unwrap();
        }
    }
    let train = Interactions::from_ratings(N_USERS, N_ITEMS, b.build().unwrap().ratings());
    let pop = MostPopular::fit(&train);
    let arec = NormalizedScores::new(&pop);
    let in_train = train_item_mask(&train);

    let mut snaps = CoverageSnapshots::for_items(N_ITEMS);
    let steps = 200;
    for k in 0..steps {
        let list = [ItemId((k * 11) % N_ITEMS), ItemId((k * 13 + 1) % N_ITEMS)];
        snaps.push_assigned(k as f64 / steps as f64, &list);
    }

    let mut q = UserQuery::new(&arec, &train, &in_train, 6);
    for u in 0..train.n_users() {
        for step in 0..=40 {
            let t = step as f64 / 40.0;
            let fused = q.topn(UserId(u), t, &snaps);
            let naive = naive_topn(&arec, &train, &in_train, UserId(u), t, &snaps, &[], 6);
            assert_eq!(fused, naive, "user {u} θ={t}");
        }
    }
}

/// Excluding a user's entire previous list must refill from the remainder,
/// identically in both scorers.
#[test]
fn fused_exclusion_refill_matches_naive() {
    let data = ganc::dataset::synth::DatasetProfile::tiny().generate(77);
    let split = data.split_per_user(0.5, 9).unwrap();
    let train = split.train;
    let pop = MostPopular::fit(&train);
    let arec = NormalizedScores::new(&pop);
    let in_train = train_item_mask(&train);
    let stat = StatCoverage::fit(&train);
    let mut q = UserQuery::new(&arec, &train, &in_train, 5);
    for u in 0..train.n_users() {
        let first = q.topn(UserId(u), 0.4, &stat);
        let mut extra: Vec<u32> = first.iter().map(|i| i.0).collect();
        extra.sort_unstable();
        let fused = topn_excluding(&mut q, &train, UserId(u), 0.4, &stat, &extra);
        let naive = naive_topn(&arec, &train, &in_train, UserId(u), 0.4, &stat, &extra, 5);
        assert_eq!(fused, naive, "user {u}");
        for item in &fused {
            assert!(!first.contains(item), "user {u}: {item:?} was excluded");
        }
    }
}
