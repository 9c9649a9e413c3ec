//! The per-request GANC query path: compute **one** user's top-N against
//! shared, read-only coverage state, without running the batch optimizer.
//!
//! The paper's value function `v_u(P_u) = (1−θ_u)·a(P_u) + θ_u·c(P_u)`
//! (Eq. III.1) is separable per user once the coverage term is fixed, and
//! OSLG's own parallel phase (Algorithm 1, lines 11–15) already serves
//! every non-sampled user independently from the frequency snapshot of the
//! nearest sampled θ. [`UserQuery`] extracts exactly that computation as a
//! reusable API so an online serving path can answer single requests — the
//! batch paths in [`crate::oslg`] and [`crate::ganc`] are built on it, which
//! makes "single-user query equals batch output" true by construction.
//!
//! ## The one fused path
//!
//! A request does **one** full-catalog pass (the accuracy scorer's, which
//! is irreducible: per-user normalization needs the whole vector) and then
//! walks its candidate pool straight into the selection heap, evaluating
//! `(1−θ)a + θc` per candidate against a [`CoverageView`]. The pool is
//! data: the unrated train items as ascending `[lo, hi)` id runs, defined
//! once by [`Interactions::for_each_candidate_run`] (the walk every list
//! in the workspace ranks) and collected here by [`candidate_runs`]; and
//! [`fused_select_runs`] is the only function that scores it — a θ
//! override or an extra exclusion is the same call with another θ or
//! another run list, never another code path. No dense coverage buffer
//! is filled, no combined-score buffer is written, and non-candidate items
//! (the user's seen set) are never scored. The result is bit-identical to
//! the three-buffer reference computation ([`combine_into`] over the
//! accuracy fill and the dense coverage reference [`CoverageView::fill`]),
//! which the property suite checks.

use crate::accuracy::AccuracyScorer;
use crate::coverage::{CoverageSnapshots, CoverageView, DynCoverage, RandCoverage, StatCoverage};
use ganc_dataset::{Interactions, ItemId, UserId};
use ganc_recommender::random::unit_hash;
use ganc_recommender::topn::TopNCollector;

/// Shared coverage state a single-user query scores against.
///
/// Implementations resolve one request into a [`CoverageView`] with
/// `c(i) ∈ (0, 1]` per item. They are read-only by design: the same
/// provider value can back any number of concurrent queries.
pub trait CoverageProvider: Sync {
    /// Resolve the per-request view for `user` with long-tail preference
    /// `theta_u`. Cheap: every state hands out borrowed slices or hash
    /// parameters (snapshot overlays are precomputed at push/load time).
    fn view(&self, user: UserId, theta_u: f64) -> CoverageView<'_>;
}

impl CoverageProvider for StatCoverage {
    fn view(&self, _user: UserId, _theta_u: f64) -> CoverageView<'_> {
        CoverageView::Dense(self.scores())
    }
}

impl CoverageProvider for RandCoverage {
    fn view(&self, user: UserId, _theta_u: f64) -> CoverageView<'_> {
        CoverageView::Hashed {
            seed: self.seed,
            user: user.0,
        }
    }
}

impl CoverageProvider for DynCoverage {
    fn view(&self, _user: UserId, _theta_u: f64) -> CoverageView<'_> {
        CoverageView::Dense(self.scores())
    }
}

impl CoverageProvider for CoverageSnapshots {
    fn view(&self, _user: UserId, theta_u: f64) -> CoverageView<'_> {
        self.view_near(theta_u)
    }
}

/// Cut the user population into `shards` θ bands of (approximately) equal
/// population: the returned `shards − 1` ascending cut points partition
/// `[0, 1]` into half-open bands `[cuts[j−1], cuts[j])` (the first band is
/// open below, the last open above). Users are assigned with
/// [`shard_of`], so a θ exactly on a cut deterministically lands in the
/// band *above* it — duplicates of one θ value can never straddle a cut.
///
/// Duplicate-heavy θ distributions may produce repeated cut values; the
/// bands between equal cuts are simply empty, which shard routing and
/// [`CoverageSnapshots::slice_band`] both tolerate.
pub fn cut_theta_bands(thetas: &[f64], shards: usize) -> Vec<f64> {
    let shards = shards.max(1);
    if shards == 1 || thetas.is_empty() {
        return Vec::new();
    }
    let mut sorted = thetas.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    (1..shards)
        .map(|j| sorted[(j * sorted.len()) / shards])
        .collect()
}

/// The θ band a preference value falls in, given ascending `cuts` from
/// [`cut_theta_bands`]: the number of cuts ≤ `theta`. Always a valid shard
/// index in `0..cuts.len() + 1`.
#[inline]
pub fn shard_of(cuts: &[f64], theta: f64) -> usize {
    cuts.partition_point(|&c| c <= theta)
}

/// The half-open θ interval `[lo, hi)` of band `j` under ascending `cuts`
/// (`−∞` below the first cut, `+∞` above the last) — the single source of
/// the band-boundary convention [`shard_of`] routes by and
/// `ModelBundle::slice_theta_band` slices by.
#[inline]
pub fn band_bounds(cuts: &[f64], j: usize) -> (f64, f64) {
    debug_assert!(j <= cuts.len(), "band index out of range");
    let lo = if j == 0 {
        f64::NEG_INFINITY
    } else {
        cuts[j - 1]
    };
    let hi = if j == cuts.len() {
        f64::INFINITY
    } else {
        cuts[j]
    };
    (lo, hi)
}

/// Online post-processor selection for a per-request override (the batch
/// re-rankers in `ganc-rerank` run behind the fused path when requested).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RerankMode {
    /// Personalized Ranking Adaptation (Jugovac et al., 2017).
    Pra,
    /// Ranking-Based Techniques (Adomavicius & Kwon, 2012).
    Rbt,
    /// 5D resource-allocation re-ranking (Ho et al., 2014).
    FiveD,
}

impl RerankMode {
    /// Parse the wire token (`rerank=pra|rbt|5d`).
    pub fn parse(s: &str) -> Option<RerankMode> {
        match s {
            "pra" => Some(RerankMode::Pra),
            "rbt" => Some(RerankMode::Rbt),
            "5d" => Some(RerankMode::FiveD),
            _ => None,
        }
    }

    /// The wire token this mode round-trips through.
    pub fn as_str(&self) -> &'static str {
        match self {
            RerankMode::Pra => "pra",
            RerankMode::Rbt => "rbt",
            RerankMode::FiveD => "5d",
        }
    }
}

/// Per-request trade-off overrides: the one request shape every serving
/// layer forwards, untouched, from the HTTP surface to the engine owning
/// the user's list — the one place that reads them to pick a path (see
/// [`RequestOptions::is_default`]). The default serves the fitted scenario.
///
/// `n` truncation deliberately does **not** live here: list size is a
/// presentation concern the HTTP layer applies (`?n=` caps the returned
/// prefix), so engines always produce the full fitted-N list.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RequestOptions {
    /// Serve at this θ instead of the user's fitted `theta[u]`. Routed to
    /// the band that owns it via [`shard_of`]. Must be finite in `[0, 1]`.
    pub theta: Option<f64>,
    /// Extra item ids excluded from the candidate pool for this request
    /// only — sorted ascending and deduplicated (see
    /// [`RequestOptions::set_exclude`]).
    pub exclude: Vec<u32>,
    /// Run this batch re-ranker as an online post-processor.
    pub rerank: Option<RerankMode>,
}

impl RequestOptions {
    /// True when every field is at its default — the request asks for the
    /// fitted scenario, served through the engine's user-keyed LRU cache;
    /// anything else computes fresh and never reads or writes that cache.
    pub fn is_default(&self) -> bool {
        self.theta.is_none() && self.exclude.is_empty() && self.rerank.is_none()
    }

    /// Store an exclusion list, sorting and deduplicating it so downstream
    /// merge code can rely on ascending unique ids.
    pub fn set_exclude(&mut self, mut ids: Vec<u32>) {
        ids.sort_unstable();
        ids.dedup();
        self.exclude = ids;
    }
}

/// Combined GANC score `(1−θ)a + θc` written into `out` (Eq. III.1) — the
/// dense reference combiner; the fused path computes the same expression
/// per candidate without materializing `out`.
#[inline]
pub fn combine_into(theta_u: f64, a: &[f64], c: &[f64], out: &mut [f64]) {
    let w_a = 1.0 - theta_u;
    for ((o, &av), &cv) in out.iter_mut().zip(a).zip(c) {
        *o = w_a * av + theta_u * cv;
    }
}

/// The user's candidate pool — unseen train items minus `extra_seen` — as
/// the ascending, maximal `[lo, hi)` id runs of
/// [`Interactions::for_each_candidate_run`]: the data [`fused_select_runs`]
/// scores.
///
/// `non_train` is the sorted complement of the train-item mask
/// ([`ganc_recommender::topn::non_train_items`]) — request-independent, so
/// callers compute it once. The runs only change when the user's exclusion
/// state does (an ingested interaction), so callers that serve the same
/// user repeatedly keep them and skip the merge.
pub fn candidate_runs(
    train: &Interactions,
    user: UserId,
    extra_seen: &[u32],
    non_train: &[u32],
) -> Vec<(u32, u32)> {
    let mut runs = Vec::new();
    train.for_each_candidate_run(user, extra_seen, non_train, |lo, hi| runs.push((lo, hi)));
    runs
}

/// The fused selection core, and the only scoring body: walk the candidate
/// `runs` ([`candidate_runs`]) through `(1−θ)a + θc` straight into the
/// bounded top-N heap. One pass, no dense coverage or combined-score
/// buffer, non-candidates never touched.
///
/// One loop nest per [`CoverageView`] variant, each computing the exact
/// expression [`combine_into`] computes, so results are bit-identical to
/// the three-buffer reference.
// The negated `!(cap <= floor)` is deliberate: it must also take the slow
// path when either side is NaN, which `cap > floor` would skip.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
pub fn fused_select_runs(
    n: usize,
    theta_u: f64,
    a: &[f64],
    view: &CoverageView<'_>,
    runs: &[(u32, u32)],
) -> Vec<ItemId> {
    let w_a = 1.0 - theta_u;
    let mut col = TopNCollector::new(n);
    // The collector's cached-minimum fast reject makes each losing offer a
    // single well-predicted compare, so the dense loops just compute every
    // candidate's score (two multiplies and an add — cheaper than a
    // data-dependent branch). Only the hashed variant pre-prunes: coverage
    // never exceeds 1, so `w_a·a + θ ≤ floor` proves a miss (exactly, in
    // f64: `fl(θ·c) ≤ θ` and `fl` is monotone; at equality the candidate
    // ties and the later-iterated, larger item id loses) and skips the hash
    // call. NaN scores fall through every shortcut comparison (false) to
    // the exact heap comparison. Each run is walked as zipped subslices so
    // the per-item loads carry no bounds checks.
    match view {
        CoverageView::Dense(c) => {
            for &(lo, hi) in runs {
                let (l, h) = (lo as usize, hi as usize);
                for (off, (&av, &cv)) in a[l..h].iter().zip(&c[l..h]).enumerate() {
                    col.offer(lo + off as u32, w_a * av + theta_u * cv);
                }
            }
        }
        CoverageView::Hashed { seed, user: u } => {
            for &(lo, hi) in runs {
                let (l, h) = (lo as usize, hi as usize);
                for (off, &av) in a[l..h].iter().enumerate() {
                    let wav = w_a * av;
                    if !(wav + theta_u <= col.current_floor()) {
                        let i = lo + off as u32;
                        col.offer(i, wav + theta_u * unit_hash(*seed, *u, i));
                    }
                }
            }
        }
        CoverageView::Patched { base, overlay } => {
            let mut pos = 0usize;
            for &(lo, hi) in runs {
                let (l, h) = (lo as usize, hi as usize);
                for (off, (&av, &bv)) in a[l..h].iter().zip(&base[l..h]).enumerate() {
                    let i = lo + off as u32;
                    while pos < overlay.len() && overlay[pos].0 < i {
                        pos += 1;
                    }
                    let cv = match overlay.get(pos) {
                        Some(&(oi, os)) if oi == i => os,
                        _ => bv,
                    };
                    col.offer(i, w_a * av + theta_u * cv);
                }
            }
        }
    }
    col.finish()
}

/// A reusable single-user top-N computation.
///
/// Owns the per-request accuracy buffer and candidate-run scratch, so a
/// long-lived worker allocates once and serves any number of requests. Not
/// `Sync` (the buffers are mutable state); create one per worker thread.
///
/// ```
/// use ganc_core::accuracy::NormalizedScores;
/// use ganc_core::coverage::StatCoverage;
/// use ganc_core::query::UserQuery;
/// use ganc_dataset::synth::DatasetProfile;
/// use ganc_dataset::UserId;
/// use ganc_recommender::pop::MostPopular;
/// use ganc_recommender::topn::train_item_mask;
///
/// let data = DatasetProfile::tiny().generate(3);
/// let split = data.split_per_user(0.5, 1).unwrap();
/// let pop = MostPopular::fit(&split.train);
/// let arec = NormalizedScores::new(&pop);
/// let stat = StatCoverage::fit(&split.train);
/// let in_train = train_item_mask(&split.train);
///
/// let mut q = UserQuery::new(&arec, &split.train, &in_train, 5);
/// let list = q.topn(UserId(0), 0.3, &stat);
/// assert_eq!(list.len(), 5);
/// ```
pub struct UserQuery<'a> {
    arec: &'a dyn AccuracyScorer,
    train: &'a Interactions,
    /// Sorted ids of items outside the train mask (excluded from every
    /// candidate pool), derived once from `in_train`.
    non_train: Vec<u32>,
    n: usize,
    a_buf: Vec<f64>,
    /// Scratch for the current request's [`candidate_runs`].
    runs: Vec<(u32, u32)>,
}

impl<'a> UserQuery<'a> {
    /// A query context over an accuracy scorer and the train set whose
    /// unseen items form the candidate pool. `in_train` is the item mask
    /// from [`ganc_recommender::topn::train_item_mask`] (passed in so many
    /// workers can share one).
    pub fn new(
        arec: &'a dyn AccuracyScorer,
        train: &'a Interactions,
        in_train: &'a [bool],
        n: usize,
    ) -> UserQuery<'a> {
        let n_items = train.n_items() as usize;
        assert_eq!(in_train.len(), n_items, "item mask must cover the catalog");
        UserQuery {
            arec,
            train,
            non_train: ganc_recommender::topn::non_train_items(in_train),
            n,
            a_buf: vec![0.0; n_items],
            runs: Vec::new(),
        }
    }

    /// List size `N` this query produces.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The user's top-N under `v_u = (1−θ_u)·a + θ_u·c` against the given
    /// coverage state. The user's [`candidate_runs`] are built into the
    /// owned scratch buffer.
    pub fn topn(
        &mut self,
        user: UserId,
        theta_u: f64,
        coverage: &dyn CoverageProvider,
    ) -> Vec<ItemId> {
        self.runs.clear();
        let runs = &mut self.runs;
        self.train
            .for_each_candidate_run(user, &[], &self.non_train, |lo, hi| runs.push((lo, hi)));
        self.arec.accuracy_scores(user, &mut self.a_buf);
        let view = coverage.view(user, theta_u);
        fused_select_runs(self.n, theta_u, &self.a_buf, &view, &self.runs)
    }

    /// The user's top-N over a caller-supplied candidate pool: `runs` must
    /// be this user's current [`candidate_runs`], whose `extra_seen` holds
    /// whatever else this request leaves out: ids ingested after the train
    /// snapshot was frozen, request exclusions. Callers serving many
    /// requests per user keep the runs (they only change on ingest) and
    /// skip the exclusion merge.
    ///
    /// Fused candidate-only scoring: after the accuracy fill, each
    /// candidate is scored and offered to the bounded selection heap in a
    /// single pass. Runs ascend, which lets [`fused_select_runs`] merge any
    /// sparse overlay in `O(|overlay|)` total.
    pub fn topn_with_runs(
        &mut self,
        user: UserId,
        theta_u: f64,
        coverage: &dyn CoverageProvider,
        runs: &[(u32, u32)],
    ) -> Vec<ItemId> {
        self.arec.accuracy_scores(user, &mut self.a_buf);
        let view = coverage.view(user, theta_u);
        fused_select_runs(self.n, theta_u, &self.a_buf, &view, runs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accuracy::NormalizedScores;
    use ganc_dataset::synth::DatasetProfile;
    use ganc_preference::GeneralizedConfig;
    use ganc_recommender::pop::MostPopular;
    use ganc_recommender::topn::{non_train_items, select_top_n_scored, train_item_mask};

    fn setup() -> (Interactions, Vec<f64>, MostPopular) {
        let data = DatasetProfile::small().generate(33);
        let split = data.split_per_user(0.5, 2).unwrap();
        let theta = GeneralizedConfig::default().estimate(&split.train);
        let pop = MostPopular::fit(&split.train);
        (split.train, theta, pop)
    }

    /// The user's pool by brute force: every train item they have not rated.
    fn pool<'a>(
        train: &'a Interactions,
        in_train: &'a [bool],
        user: UserId,
    ) -> impl Iterator<Item = u32> + 'a {
        (0..train.n_items())
            .filter(move |&i| in_train[i as usize] && !train.contains(user, ItemId(i)))
    }

    /// The `n` best of `ids` by `scores`.
    fn select(scores: &[f64], ids: impl Iterator<Item = u32>, n: usize) -> Vec<ItemId> {
        select_top_n_scored(ids.map(|i| (i, scores[i as usize])), n)
    }

    /// The three-buffer reference scorer the fused path must match exactly.
    fn naive_topn(
        arec: &dyn AccuracyScorer,
        train: &Interactions,
        in_train: &[bool],
        user: UserId,
        theta_u: f64,
        coverage: &dyn CoverageProvider,
        n: usize,
    ) -> Vec<ItemId> {
        let n_items = train.n_items() as usize;
        let mut a = vec![0.0; n_items];
        let mut c = vec![0.0; n_items];
        let mut s = vec![0.0; n_items];
        arec.accuracy_scores(user, &mut a);
        coverage.view(user, theta_u).fill(&mut c);
        combine_into(theta_u, &a, &c, &mut s);
        select(&s, pool(train, in_train, user), n)
    }

    #[test]
    fn query_respects_topn_contract() {
        let (train, theta, pop) = setup();
        let arec = NormalizedScores::new(&pop);
        let in_train = train_item_mask(&train);
        let stat = StatCoverage::fit(&train);
        let mut q = UserQuery::new(&arec, &train, &in_train, 5);
        for u in 0..train.n_users() {
            let list = q.topn(UserId(u), theta[u as usize], &stat);
            assert_eq!(list.len(), 5);
            let mut ids: Vec<u32> = list.iter().map(|i| i.0).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), 5, "user {u} has duplicates");
            for item in &list {
                assert!(!train.contains(UserId(u), *item));
            }
        }
    }

    #[test]
    fn theta_extremes_switch_objective() {
        let (train, _, pop) = setup();
        let arec = NormalizedScores::new(&pop);
        let in_train = train_item_mask(&train);
        let stat = StatCoverage::fit(&train);
        let mut q = UserQuery::new(&arec, &train, &in_train, 5);
        let u = UserId(0);
        // θ=0 ranks purely by accuracy; θ=1 purely by coverage. On skewed
        // data the two orderings should differ.
        let acc_only = q.topn(u, 0.0, &stat);
        let cov_only = q.topn(u, 1.0, &stat);
        assert_ne!(acc_only, cov_only);
    }

    #[test]
    fn exclusions_drop_items_without_shrinking_list() {
        let (train, theta, pop) = setup();
        let arec = NormalizedScores::new(&pop);
        let in_train = train_item_mask(&train);
        let stat = StatCoverage::fit(&train);
        let mut q = UserQuery::new(&arec, &train, &in_train, 5);
        let u = UserId(1);
        let base = q.topn(u, theta[1], &stat);
        let mut excluded: Vec<u32> = base.iter().map(|i| i.0).collect();
        excluded.sort_unstable();
        let runs = candidate_runs(&train, u, &excluded, &non_train_items(&in_train));
        let next = q.topn_with_runs(u, theta[1], &stat, &runs);
        assert_eq!(next.len(), 5, "catalog is large enough to refill");
        for item in &next {
            assert!(!base.contains(item), "{item:?} was excluded");
        }
    }

    #[test]
    fn fused_path_matches_naive_reference_for_all_providers() {
        let (train, theta, pop) = setup();
        let arec = NormalizedScores::new(&pop);
        let in_train = train_item_mask(&train);
        let stat = StatCoverage::fit(&train);
        let rand = RandCoverage::new(7);
        let mut dynamic = DynCoverage::new(train.n_items());
        dynamic.observe(&[ItemId(0), ItemId(1), ItemId(1), ItemId(4)]);
        let mut snaps = CoverageSnapshots::for_items(train.n_items());
        snaps.push_assigned(0.2, &[ItemId(0), ItemId(3)]);
        snaps.push_assigned(0.6, &[ItemId(3), ItemId(5)]);
        let providers: [&dyn CoverageProvider; 4] = [&stat, &rand, &dynamic, &snaps];
        let mut q = UserQuery::new(&arec, &train, &in_train, 5);
        for provider in providers {
            for u in (0..train.n_users()).step_by(17) {
                for t in [0.0, theta[u as usize], 1.0] {
                    let fused = q.topn(UserId(u), t, provider);
                    let naive = naive_topn(&arec, &train, &in_train, UserId(u), t, provider, 5);
                    assert_eq!(fused, naive, "user {u} θ={t}");
                }
            }
        }
    }

    #[test]
    fn candidate_runs_are_the_unseen_train_pool_minus_extras() {
        let (train, _, _) = setup();
        let in_train = train_item_mask(&train);
        let non_train = non_train_items(&in_train);
        let n_items = train.n_items();
        for u in (0..train.n_users()).step_by(13) {
            let user = UserId(u);
            let (seen, _) = train.user_row(user);
            // Extras: none; overlapping the train row and adjacent ids;
            // reaching past the catalog.
            let mut overlapping = vec![seen[0], seen[0] + 1, seen[0] + 2, n_items - 1];
            overlapping.sort_unstable();
            overlapping.dedup();
            let beyond = vec![0, 2, 9, n_items, n_items + 7, u32::MAX];
            for extra in [vec![], overlapping, beyond] {
                let runs = candidate_runs(&train, user, &extra, &non_train);
                let expect: Vec<u32> = pool(&train, &in_train, user)
                    .filter(|i| extra.binary_search(i).is_err())
                    .collect();
                let got: Vec<u32> = runs.iter().flat_map(|&(lo, hi)| lo..hi).collect();
                assert_eq!(got, expect, "user {u} extra={extra:?}");
                assert!(runs.iter().all(|&(lo, hi)| lo < hi), "empty run");
                assert!(
                    runs.windows(2).all(|w| w[0].1 < w[1].0),
                    "runs must ascend and be maximal (non-adjacent): {runs:?}"
                );
            }
        }
    }

    #[test]
    fn theta_band_cuts_balance_population() {
        let thetas: Vec<f64> = (0..100).map(|k| k as f64 / 100.0).collect();
        let cuts = cut_theta_bands(&thetas, 4);
        assert_eq!(cuts.len(), 3);
        assert!(cuts.windows(2).all(|w| w[0] <= w[1]));
        let mut pop = [0usize; 4];
        for &t in &thetas {
            pop[shard_of(&cuts, t)] += 1;
        }
        assert_eq!(pop, [25, 25, 25, 25]);
    }

    #[test]
    fn theta_on_a_cut_routes_above_it() {
        let cuts = vec![0.25, 0.5, 0.75];
        assert_eq!(shard_of(&cuts, 0.0), 0);
        assert_eq!(shard_of(&cuts, 0.25), 1, "cut value belongs above");
        assert_eq!(shard_of(&cuts, 0.49), 1);
        assert_eq!(shard_of(&cuts, 0.5), 2);
        assert_eq!(shard_of(&cuts, 1.0), 3);
    }

    #[test]
    fn duplicate_thetas_never_straddle_a_cut() {
        // 60% of users share one θ: cuts repeat and some bands are empty,
        // but every duplicate lands in the same band.
        let mut thetas = vec![0.5; 60];
        thetas.extend((0..40).map(|k| k as f64 / 40.0));
        let cuts = cut_theta_bands(&thetas, 5);
        let bands: std::collections::HashSet<usize> = thetas
            .iter()
            .filter(|&&t| t == 0.5)
            .map(|&t| shard_of(&cuts, t))
            .collect();
        assert_eq!(bands.len(), 1, "all θ=0.5 users share one shard");
    }

    #[test]
    fn degenerate_plans_have_no_cuts() {
        assert!(cut_theta_bands(&[0.1, 0.9], 1).is_empty());
        assert!(cut_theta_bands(&[], 4).is_empty());
        assert_eq!(shard_of(&[], 0.7), 0);
    }

    #[test]
    fn snapshot_provider_matches_manual_combination() {
        let (train, theta, pop) = setup();
        let arec = NormalizedScores::new(&pop);
        let in_train = train_item_mask(&train);
        let n_items = train.n_items() as usize;
        let mut snaps = CoverageSnapshots::new();
        let mut cov = DynCoverage::new(train.n_items());
        cov.observe(&[ItemId(0), ItemId(0), ItemId(1)]);
        let mut counts = vec![0; n_items];
        (counts[0], counts[1]) = (2, 1);
        snaps.push(0.5, &counts);
        let mut q = UserQuery::new(&arec, &train, &in_train, 5);
        let via_provider = q.topn(UserId(2), theta[2], &snaps);

        // Manual: same scores assembled by hand.
        let mut a = vec![0.0; n_items];
        let mut c = vec![0.0; n_items];
        let mut s = vec![0.0; n_items];
        arec.accuracy_scores(UserId(2), &mut a);
        cov.view(UserId(2), theta[2]).fill(&mut c);
        combine_into(theta[2], &a, &c, &mut s);
        let manual = select(&s, pool(&train, &in_train, UserId(2)), 5);
        assert_eq!(via_provider, manual);
    }
}
