//! OSLG — Ordered Sampling-based Locally Greedy (Algorithm 1, §III-C).
//!
//! The Dyn coverage recommender couples users: items recommended to one user
//! are worth less to the next. Maximizing the aggregate value function is
//! then submodular maximization under a partition matroid (Appendix B), for
//! which Fisher et al.'s Locally Greedy gives a 1/2-approximation — but it
//! is sequential in `O(|U|·|I|·N)`.
//!
//! OSLG restores scalability with two changes:
//!
//! 1. **Sampling** — run the sequential greedy only on a sample `S` of users
//!    drawn from the KDE of the long-tail preference distribution, storing
//!    the evolving assignment-frequency snapshots `F(θ_u)`.
//! 2. **Ordering** — process sampled users in *increasing* θ, so popular
//!    items go early to popularity-seeking users and are already discounted
//!    by the time tail-seeking users are served.
//!
//! Every remaining user is served in parallel from the snapshot of the
//! nearest sampled θ (lines 11–15).

use crate::accuracy::AccuracyScorer;
use crate::coverage::{CoverageSnapshots, DynCoverage};
use crate::query::UserQuery;
use ganc_dataset::{Interactions, ItemId, UserId};
use ganc_preference::kde::sample_users_by_kde;
use ganc_recommender::topn::{per_user_lists, train_item_mask};

/// Processing order of the sequential phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UserOrdering {
    /// Increasing long-tail preference — the OSLG ordering.
    IncreasingTheta,
    /// Sampling order (the "arbitrary order" of plain Locally Greedy);
    /// kept for the ablation benches.
    Arbitrary,
}

/// Configuration of one OSLG run.
#[derive(Debug, Clone, Copy)]
pub struct OslgConfig {
    /// Recommendation list size `N`.
    pub n: usize,
    /// Sequential sample size `S` (the paper fixes 500). Values ≥ `|U|`
    /// degrade to the full Locally Greedy.
    pub sample_size: usize,
    /// Sequential processing order.
    pub ordering: UserOrdering,
    /// Worker threads for the parallel phase.
    pub threads: usize,
    /// Seed for the KDE sampling.
    pub seed: u64,
}

impl OslgConfig {
    /// Paper defaults: `S = 500`, increasing-θ order.
    pub fn new(n: usize) -> OslgConfig {
        OslgConfig {
            n,
            sample_size: 500,
            ordering: UserOrdering::IncreasingTheta,
            threads: std::thread::available_parallelism().map_or(4, |p| p.get()),
            seed: 0x0000_0516,
        }
    }
}

/// The output of OSLG's sequential phase (Algorithm 1, lines 2–10): the
/// sampled users' assignments and the θ-sorted frequency snapshots every
/// remaining user is served from.
///
/// This is the state an online serving path persists: the snapshots are
/// immutable after the sequential phase, so single-user queries
/// ([`crate::query::UserQuery`]) can run against them concurrently — and
/// `ganc-serve` stores exactly this structure in its model bundles.
#[derive(Debug, Clone, PartialEq)]
pub struct OslgSeed {
    /// Sampled users in processing order with their assigned top-N lists.
    /// A user drawn more than once by the KDE sampler appears once per
    /// draw; the final draw's list is the one the batch output keeps.
    pub assignments: Vec<(UserId, Vec<ItemId>)>,
    /// Snapshots `F(θ_s)`, sorted by θ.
    pub snapshots: CoverageSnapshots,
    /// Sampled user ids, sorted and deduplicated — the `O(log S)`
    /// membership index behind [`OslgSeed::contains`].
    sampled: Vec<u32>,
}

impl OslgSeed {
    /// Whether `user` was drawn into the sequential sample.
    pub fn contains(&self, user: UserId) -> bool {
        self.sampled.binary_search(&user.0).is_ok()
    }
}

/// Run OSLG's sequential phase only (Algorithm 1, lines 2–10): sample users
/// by KDE(θ), order them, and run the coupled greedy, recording snapshots.
pub fn oslg_seed_phase(
    arec: &dyn AccuracyScorer,
    theta: &[f64],
    train: &Interactions,
    cfg: &OslgConfig,
) -> OslgSeed {
    seed_phase_with_mask(arec, theta, train, cfg, &train_item_mask(train))
}

/// Seed phase over a caller-provided item mask, so [`oslg_topn`] builds the
/// mask once for both phases.
fn seed_phase_with_mask(
    arec: &dyn AccuracyScorer,
    theta: &[f64],
    train: &Interactions,
    cfg: &OslgConfig,
    in_train: &[bool],
) -> OslgSeed {
    let n_users = train.n_users() as usize;
    assert_eq!(theta.len(), n_users, "one θ per user required");

    // ---- line 2: sample users proportional to KDE(θ) ----
    let mut sample = sample_users_by_kde(theta, cfg.sample_size.max(1), cfg.seed);
    // ---- line 3: sort the sample in increasing θ ----
    if cfg.ordering == UserOrdering::IncreasingTheta {
        sample.sort_by(|&a, &b| {
            theta[a.idx()]
                .partial_cmp(&theta[b.idx()])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
    }

    // ---- lines 4-10: sequential greedy over the sample ----
    let mut dyn_cov = DynCoverage::new(train.n_items());
    let mut query = UserQuery::new(arec, train, in_train, cfg.n);
    // Increasing-θ order keeps the snapshots sorted by construction; the
    // Arbitrary ablation sorts afterwards (a permutation update — the
    // delta-encoded chain itself never moves). Each step records only the
    // N-item delta instead of cloning a dense `O(|I|)` count vector.
    let mut snapshots = CoverageSnapshots::for_items(train.n_items());
    let mut assignments: Vec<(UserId, Vec<ItemId>)> = Vec::with_capacity(sample.len());
    for &u in &sample {
        let list = query.topn(u, theta[u.idx()], &dyn_cov);
        dyn_cov.observe(&list);
        snapshots.push_assigned(theta[u.idx()], &list);
        assignments.push((u, list));
    }
    if cfg.ordering == UserOrdering::Arbitrary {
        snapshots.sort_by_theta();
    }
    let mut sampled: Vec<u32> = sample.iter().map(|u| u.0).collect();
    sampled.sort_unstable();
    sampled.dedup();
    OslgSeed {
        assignments,
        snapshots,
        sampled,
    }
}

/// Run GANC(ARec, θ, Dyn) with OSLG optimization; returns one list per user.
pub fn oslg_topn(
    arec: &dyn AccuracyScorer,
    theta: &[f64],
    train: &Interactions,
    cfg: &OslgConfig,
) -> Vec<Vec<ItemId>> {
    let n_users = train.n_users() as usize;
    let in_train = train_item_mask(train);
    let seed = seed_phase_with_mask(arec, theta, train, cfg, &in_train);
    // ---- lines 11-15: parallel phase for users outside the sample ----
    let mut lists = if seed.assignments.len() < n_users {
        per_user_lists(
            n_users,
            cfg.threads,
            || UserQuery::new(arec, train, &in_train, cfg.n),
            // line 12: score against the nearest sampled θ's snapshot.
            |query, u| {
                let unassigned = !seed.contains(u);
                unassigned.then(|| query.topn(u, theta[u.idx()], &seed.snapshots))
            },
        )
    } else {
        vec![Vec::new(); n_users]
    };
    for (u, list) in seed.assignments {
        lists[u.idx()] = list;
    }
    lists
}

/// The assignment-order objective value `Σ_u v_u(P_u)` (Eq. III.2) of a
/// collection produced with Dyn coverage: accuracy scores are recomputed
/// from the scorer, and each user's coverage term uses the assignment
/// frequencies accumulated over the users *before* them in `order` — the
/// quantity the greedy algorithm maximizes. Used by tests and the ablation
/// benches to compare OSLG against full Locally Greedy.
pub fn assignment_order_objective(
    lists: &[Vec<ItemId>],
    order: &[UserId],
    theta: &[f64],
    arec: &dyn AccuracyScorer,
    n_items: u32,
) -> f64 {
    let mut dyn_cov = DynCoverage::new(n_items);
    let mut a_buf = vec![0.0f64; n_items as usize];
    let mut total = 0.0;
    for &u in order {
        let list = &lists[u.idx()];
        arec.accuracy_scores(u, &mut a_buf);
        let t = theta[u.idx()];
        for item in list {
            total += (1.0 - t) * a_buf[item.idx()] + t * dyn_cov.score(*item);
        }
        dyn_cov.observe(list);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accuracy::NormalizedScores;
    use ganc_dataset::synth::DatasetProfile;
    use ganc_preference::GeneralizedConfig;
    use ganc_recommender::pop::MostPopular;

    fn setup() -> (ganc_dataset::Dataset, Interactions, Vec<f64>) {
        let data = DatasetProfile::small().generate(11);
        let split = data.split_per_user(0.5, 1).unwrap();
        let theta = GeneralizedConfig::default().estimate(&split.train);
        (data, split.train, theta)
    }

    #[test]
    fn seed_phase_matches_batch_for_sampled_users() {
        let (_, train, theta) = setup();
        let pop = MostPopular::fit(&train);
        let arec = NormalizedScores::new(&pop);
        let cfg = OslgConfig {
            sample_size: 30,
            ..OslgConfig::new(5)
        };
        let seed = oslg_seed_phase(&arec, &theta, &train, &cfg);
        let batch = oslg_topn(&arec, &theta, &train, &cfg);
        assert!(!seed.assignments.is_empty());
        assert_eq!(seed.assignments.len(), seed.snapshots.len());
        // The batch keeps the final draw's list for each sampled user, so
        // compare against the last occurrence per user.
        let mut last: std::collections::HashMap<UserId, &Vec<ItemId>> = Default::default();
        for (u, list) in &seed.assignments {
            assert!(seed.contains(*u));
            last.insert(*u, list);
        }
        for (u, list) in last {
            assert_eq!(&batch[u.idx()], list, "user {u:?}");
        }
        // Snapshot thetas are sorted ascending under the OSLG ordering.
        let thetas = seed.snapshots.thetas();
        assert!(thetas.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn lists_respect_topn_contract() {
        let (_, train, theta) = setup();
        let pop = MostPopular::fit(&train);
        let arec = NormalizedScores::new(&pop);
        let cfg = OslgConfig {
            sample_size: 40,
            threads: 3,
            ..OslgConfig::new(5)
        };
        let lists = oslg_topn(&arec, &theta, &train, &cfg);
        for (u, list) in lists.iter().enumerate() {
            assert_eq!(list.len(), 5, "user {u}");
            let mut ids: Vec<u32> = list.iter().map(|i| i.0).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), 5, "user {u} has duplicates");
            for item in list {
                assert!(!train.contains(UserId(u as u32), *item));
            }
        }
    }

    #[test]
    fn deterministic_across_runs_and_thread_counts() {
        let (_, train, theta) = setup();
        let pop = MostPopular::fit(&train);
        let arec = NormalizedScores::new(&pop);
        let mk = |threads| OslgConfig {
            sample_size: 30,
            threads,
            ..OslgConfig::new(5)
        };
        let a = oslg_topn(&arec, &theta, &train, &mk(1));
        let b = oslg_topn(&arec, &theta, &train, &mk(4));
        assert_eq!(a, b);
    }

    #[test]
    fn full_sample_equals_locally_greedy() {
        let (_, train, theta) = setup();
        let pop = MostPopular::fit(&train);
        let arec = NormalizedScores::new(&pop);
        let full = OslgConfig {
            sample_size: train.n_users() as usize,
            ..OslgConfig::new(5)
        };
        let lists = oslg_topn(&arec, &theta, &train, &full);
        // Every user must have been served by the sequential phase (all
        // users sampled), so the total assignment frequency is |U|·N.
        let total: usize = lists.iter().map(|l| l.len()).sum();
        assert_eq!(total, train.n_users() as usize * 5);
    }

    #[test]
    fn theta_zero_reduces_to_pure_accuracy() {
        let (_, train, _) = setup();
        let pop = MostPopular::fit(&train);
        let arec = NormalizedScores::new(&pop);
        let theta = vec![0.0; train.n_users() as usize];
        let cfg = OslgConfig {
            sample_size: 25,
            ..OslgConfig::new(5)
        };
        let lists = oslg_topn(&arec, &theta, &train, &cfg);
        let pure = ganc_recommender::topn::generate_topn_lists(&pop, &train, 5, 2);
        assert_eq!(lists, pure, "θ=0 must ignore coverage entirely");
    }

    #[test]
    fn high_theta_spreads_recommendations() {
        let (_, train, _) = setup();
        let pop = MostPopular::fit(&train);
        let arec = NormalizedScores::new(&pop);
        let low = vec![0.0; train.n_users() as usize];
        let high = vec![0.95; train.n_users() as usize];
        let cfg = OslgConfig {
            sample_size: 60,
            ..OslgConfig::new(5)
        };
        let distinct = |lists: &Vec<Vec<ItemId>>| {
            let mut seen = std::collections::HashSet::new();
            for l in lists {
                seen.extend(l.iter().map(|i| i.0));
            }
            seen.len()
        };
        let d_low = distinct(&oslg_topn(&arec, &low, &train, &cfg));
        let d_high = distinct(&oslg_topn(&arec, &high, &train, &cfg));
        assert!(
            d_high > d_low,
            "high θ coverage {d_high} should exceed low θ coverage {d_low}"
        );
    }

    #[test]
    fn increasing_theta_ordering_helps_objective() {
        // On skewed data the OSLG ordering should not lose to arbitrary
        // ordering in assignment-order objective (paper's motivation for
        // the ordering; allow a small tolerance since this is a heuristic).
        let (_, train, theta) = setup();
        let pop = MostPopular::fit(&train);
        let arec = NormalizedScores::new(&pop);
        let n_users = train.n_users() as usize;
        let mk = |ordering| OslgConfig {
            sample_size: n_users,
            ordering,
            ..OslgConfig::new(5)
        };
        let ordered = oslg_topn(&arec, &theta, &train, &mk(UserOrdering::IncreasingTheta));
        let arbitrary = oslg_topn(&arec, &theta, &train, &mk(UserOrdering::Arbitrary));
        let theta_order: Vec<UserId> = {
            let mut o: Vec<UserId> = (0..n_users as u32).map(UserId).collect();
            o.sort_by(|a, b| theta[a.idx()].partial_cmp(&theta[b.idx()]).unwrap());
            o
        };
        let obj_ordered =
            assignment_order_objective(&ordered, &theta_order, &theta, &arec, train.n_items());
        let sample_order = sample_users_by_kde(&theta, n_users, 0x0516);
        let obj_arbitrary =
            assignment_order_objective(&arbitrary, &sample_order, &theta, &arec, train.n_items());
        assert!(
            obj_ordered >= 0.95 * obj_arbitrary,
            "ordered {obj_ordered:.2} vs arbitrary {obj_arbitrary:.2}"
        );
    }

    #[test]
    fn small_sample_approximates_full_greedy_objective() {
        let (_, train, theta) = setup();
        let pop = MostPopular::fit(&train);
        let arec = NormalizedScores::new(&pop);
        let n_users = train.n_users() as usize;
        let theta_order: Vec<UserId> = {
            let mut o: Vec<UserId> = (0..n_users as u32).map(UserId).collect();
            o.sort_by(|a, b| theta[a.idx()].partial_cmp(&theta[b.idx()]).unwrap());
            o
        };
        let full = oslg_topn(
            &arec,
            &theta,
            &train,
            &OslgConfig {
                sample_size: n_users,
                ..OslgConfig::new(5)
            },
        );
        let sampled = oslg_topn(
            &arec,
            &theta,
            &train,
            &OslgConfig {
                sample_size: n_users / 5,
                ..OslgConfig::new(5)
            },
        );
        let obj =
            |lists| assignment_order_objective(lists, &theta_order, &theta, &arec, train.n_items());
        let (f, s) = (obj(&full), obj(&sampled));
        assert!(
            s > 0.8 * f,
            "sampled objective {s:.2} too far below full {f:.2}"
        );
    }
}
