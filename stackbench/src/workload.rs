//! The four workloads: what each one is, why it exists, how many
//! operations each phase issues, and the artifact each is built from.

use crate::gen::{self, Op, Rating, XorShift};
use ganc_dataset::synth::DatasetProfile;
use ganc_dataset::Interactions;
use ganc_preference::GeneralizedConfig;
use ganc_recommender::pop::MostPopular;
use ganc_recommender::psvd::Psvd;
use ganc_serve::{FitConfig, FittedModel, ModelBundle, Refitter, SaveLoad};
use std::sync::Arc;

/// The dataset is the catalogue the service was deployed with: the same
/// profile, seed and split the repository's `BENCH_*.json` runs use, so
/// numbers stay comparable with them. `--seed` drives the traffic only.
const DATASET_SEED: u64 = 18;
const SPLIT_SEED: u64 = 4;
/// PureSVD rank of `offline_psvd`.
const PSVD_RANK: usize = 50;
const PSVD_SEED: u64 = 0x05EE_D57D;
/// List size N of every workload.
pub const TOP_N: usize = 10;
/// Worker threads of every engine and server: pinned, so a result does not
/// depend on how many cores the box reports.
pub const THREADS: usize = 2;
/// θ-bands of every sharded or routed deployment.
pub const BANDS: usize = 4;
/// Users checked (untimed) against the reference after the refit, beyond
/// the timed first answer.
const AFTER_REFIT_USERS: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EmbedMiss,
    HttpHot,
    RouterMixed,
    OfflinePsvd,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    Pop,
    Psvd,
}

/// How a workload's serve phase is generated.
#[derive(Debug, Clone, Copy)]
pub enum Serve {
    /// Permutation passes over all users, cache flushed between passes.
    MissPasses,
    /// 95 % of requests from a 200-user hot set, 5 % uniform.
    Hot,
    /// 70 % recommends, 20 % keyed ingests, 10 % batches of 64.
    Mixed,
}

/// Compile-time op counts of one round. Never a time limit and never
/// adapted at run time: a round does the same work on every commit, so two
/// commits are compared on equal terms.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub serve: Serve,
    pub serve_ops: usize,
    pub hit_ops: usize,
    pub ingest_ops: usize,
    pub batch_reps: usize,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::EmbedMiss,
        Workload::HttpHot,
        Workload::RouterMixed,
        Workload::OfflinePsvd,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EmbedMiss => "embed_miss",
            Workload::HttpHot => "http_hot",
            Workload::RouterMixed => "router_mixed",
            Workload::OfflinePsvd => "offline_psvd",
        }
    }

    /// Why the workload exists: which layers it loads and which it leaves
    /// idle (one line of at most 200 characters; `BENCHMARK.json` carries
    /// it).
    pub fn why(self) -> &'static str {
        match self {
            Workload::EmbedMiss => "in-process ServingEngine with obs, Pop on large, every request a cache miss: core::query and serve::engine do all the work, ganc-http none; fused-path, LRU, lock and obs changes show here only",
            Workload::HttpHot => "keep-alive HttpClient to an HttpServer over 4 sharded bands, 95% of requests from 200 hot users: http1, event loop, worker hand-off and JSON do nearly all the work, core almost none",
            Workload::RouterMixed => "HttpServer over a RouterNode (2 local bands, 1 remote, 1 replicated pair); 70% recommends, 20% keyed ingests, 10% batches: writes beside reads; router, transport, replica, WAL on the path",
            Workload::OfflinePsvd => "in-process ShardedEngine, PureSVD rank 50 on large, top-N for every user: recommender, linalg and core::oslg dominate; a serving-stack change must predict no change here",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn model(self) -> ModelKind {
        match self {
            Workload::OfflinePsvd => ModelKind::Psvd,
            _ => ModelKind::Pop,
        }
    }

    fn profile(self) -> DatasetProfile {
        match self {
            Workload::EmbedMiss | Workload::OfflinePsvd => DatasetProfile::large(),
            Workload::HttpHot | Workload::RouterMixed => DatasetProfile::medium(),
        }
    }

    /// Whether one op is short enough (< 5 µs) that hit and ingest ops are
    /// timed in chunks: true for the in-process fronts.
    pub fn chunked(self) -> bool {
        matches!(self, Workload::EmbedMiss | Workload::OfflinePsvd)
    }

    pub fn plan(self) -> Plan {
        match self {
            Workload::EmbedMiss => Plan {
                serve: Serve::MissPasses,
                serve_ops: 48_000,
                hit_ops: 640_000,
                ingest_ops: 6_000,
                batch_reps: 6,
            },
            Workload::HttpHot => Plan {
                serve: Serve::Hot,
                serve_ops: 40_000,
                hit_ops: 10_000,
                ingest_ops: 6_000,
                batch_reps: 12,
            },
            Workload::RouterMixed => Plan {
                serve: Serve::Mixed,
                serve_ops: 20_000,
                hit_ops: 8_000,
                // Its ingests ride in the serve mix, beside the reads they
                // invalidate; a separate write-only phase would hide that.
                ingest_ops: 0,
                batch_reps: 12,
            },
            Workload::OfflinePsvd => Plan {
                serve: Serve::MissPasses,
                serve_ops: 6_000,
                hit_ops: 1_280_000,
                ingest_ops: 6_000,
                batch_reps: 1,
            },
        }
    }
}

impl Plan {
    /// The `--smoke` plan: a twentieth of every count, one repetition.
    pub fn smoke(self) -> Plan {
        Plan {
            serve: self.serve,
            serve_ops: self.serve_ops / 20,
            hit_ops: self.hit_ops / 20,
            ingest_ops: self.ingest_ops / 20,
            batch_reps: 1,
        }
    }
}

/// Everything one round issues, generated once per run from `--seed`.
pub struct Script {
    /// Every user id, ascending: the warm, prime and batch request.
    pub all_users: Vec<u32>,
    /// The user whose answer ends set-up and ends the refit.
    pub first_user: u32,
    pub serve: Vec<Op>,
    pub hit: Vec<u32>,
    pub ingest: Vec<Rating>,
    pub batch_reps: usize,
    pub after_refit: Vec<u32>,
}

impl Script {
    /// `incoming` is the pool ingested ratings are taken from, in order.
    pub fn generate(plan: &Plan, seed: u64, n_users: u32, incoming: &[Rating]) -> Script {
        let mut rng = XorShift::new(seed);
        let serve = match plan.serve {
            Serve::MissPasses => gen::miss_passes(&mut rng, n_users, plan.serve_ops),
            Serve::Hot => gen::hot_requests(&mut rng, n_users, 200, 95, plan.serve_ops),
            Serve::Mixed => gen::mixed_ops(&mut rng, seed, n_users, incoming, plan.serve_ops),
        };
        Script {
            all_users: (0..n_users).collect(),
            first_user: rng.below(n_users),
            serve,
            hit: gen::uniform_users(&mut rng, n_users, plan.hit_ops),
            ingest: gen::shuffled_prefix(&mut rng, incoming, plan.ingest_ops),
            batch_reps: plan.batch_reps,
            after_refit: gen::uniform_users(&mut rng, n_users, AFTER_REFIT_USERS),
        }
    }
}

/// The bundle fit configuration of every workload: Dyn coverage, S = 500.
pub fn fit_cfg() -> FitConfig {
    FitConfig {
        sample_size: 500,
        ..FitConfig::new(TOP_N)
    }
}

pub fn fit_model(kind: ModelKind, train: &Interactions) -> FittedModel {
    match kind {
        ModelKind::Pop => FittedModel::Pop(MostPopular::fit(train)),
        ModelKind::Psvd => FittedModel::Psvd(Psvd::train(train, PSVD_RANK, PSVD_SEED)),
    }
}

pub fn estimate_theta(train: &Interactions) -> Vec<f64> {
    GeneralizedConfig::default().estimate(train)
}

/// The refit's model side. With `fixed_theta` the preference estimates of
/// the first fit are kept (the router's case: its θ table cannot be
/// swapped); without, θ is estimated again from the merged ratings.
pub fn refitter(kind: ModelKind, fixed_theta: Option<Arc<Vec<f64>>>) -> Arc<Refitter> {
    Arc::new(move |train: &Interactions| {
        let theta = match &fixed_theta {
            Some(theta) => theta.to_vec(),
            None => estimate_theta(train),
        };
        (fit_model(kind, train), theta)
    })
}

/// A workload's input: the train half of its dataset, and the held-out
/// half as the ratings that arrive while it serves.
pub struct Fixture {
    pub workload: Workload,
    pub train: Interactions,
    /// The held-out ratings in a fixed shuffled order, one of every user
    /// first: real future ratings of the same users, none of them in
    /// `train`.
    pub incoming: Vec<Rating>,
}

impl Fixture {
    /// Generate the dataset (input generation: never timed).
    pub fn generate(workload: Workload) -> Fixture {
        let split = workload
            .profile()
            .generate(DATASET_SEED)
            .split_per_user(0.5, SPLIT_SEED)
            .expect("synthetic profiles give every user enough ratings to split");
        let held_out: Vec<Rating> = split
            .test
            .iter()
            .map(|(user, item, value)| Rating {
                user: user.0,
                item: item.0,
                value,
            })
            .collect();
        // The split lists them by user; arrivals are not ordered by user.
        let shuffled =
            gen::shuffled_prefix(&mut XorShift::new(DATASET_SEED), &held_out, held_out.len());
        // One rating of every user first. A user's first ingest evicts
        // their cached list and hoisted runs and a repeat does not; a phase
        // of at most one rating per user costs the same op after op, so its
        // p50 does not hinge on where in the phase the repeats set in.
        let mut seen = vec![false; split.train.n_users() as usize];
        let (first, repeat): (Vec<Rating>, Vec<Rating>) = shuffled
            .into_iter()
            .partition(|r| !std::mem::replace(&mut seen[r.user as usize], true));
        let incoming = [first, repeat].concat();
        Fixture {
            workload,
            train: split.train,
            incoming,
        }
    }

    /// Fit the base model, θ and the bundle, and encode the artifact: the
    /// first part of every set-up. `train` is a copy made outside the
    /// timed region ([`ModelBundle::fit`] takes it by value).
    pub fn fit_artifact(&self, train: Interactions) -> Vec<u8> {
        let model = fit_model(self.workload.model(), &train);
        let theta = estimate_theta(&train);
        ModelBundle::fit(model, theta, train, &fit_cfg())
            .to_bytes()
            .expect("a freshly fitted bundle encodes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_distinct() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn same_seed_same_script() {
        let plan = Workload::RouterMixed.plan().smoke();
        let incoming: Vec<Rating> = (0..1_000)
            .map(|k| Rating {
                user: k % 2_000,
                item: k % 1_200,
                value: 3.0,
            })
            .collect();
        let a = Script::generate(&plan, 18, 2_000, &incoming);
        let b = Script::generate(&plan, 18, 2_000, &incoming);
        let c = Script::generate(&plan, 19, 2_000, &incoming);
        assert_eq!(a.serve, b.serve);
        assert_eq!((a.first_user, &a.hit), (b.first_user, &b.hit));
        assert_eq!(a.after_refit, b.after_refit);
        assert_ne!(a.serve, c.serve);
    }

    #[test]
    fn miss_plans_issue_whole_passes_and_p99_has_its_samples() {
        for w in Workload::ALL {
            let plan = w.plan();
            // p99 is read from one round's recommend samples: needs ≥ 1000.
            let recs = match plan.serve {
                Serve::Mixed => plan.serve_ops * 7 / 10,
                _ => plan.serve_ops,
            };
            assert!(recs >= 1_000, "{}: {recs} samples", w.name());
        }
    }
}
