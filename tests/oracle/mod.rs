//! The deployment oracle: one seeded schedule replayed against every shape
//! the serving stack can be deployed in.
//!
//! The paper's OSLG serves each user the greedy list for their θ against
//! *shared* coverage state, so a list must not depend on where it is
//! served. A case draws a train set and θ ([`Data`]), a fit
//! ([`Setup`]: base model × coverage kind × accuracy mode × N) and a
//! schedule of [`Step`]s: single and batch recommends under the four
//! option shapes, keyed / unkeyed / resent / unknown-id ingests, and
//! refits. [`replay`] builds every shape over the same bundle — each one
//! an `Arc<dyn PeerTransport>`, so a step is one trait call per shape —
//! and after every step requires the same list or error, the same
//! generation and the same ingest ack from all of them (the ack also the
//! one a model predicts: ids are checked first, an applied key dedups):
//!
//! - the batch `build_topn` reference (generation 0, before any ingest,
//!   default options);
//! - a `ServingEngine`, and one over `ModelBundle::from_bytes(to_bytes())`;
//! - `ShardedEngine`s cut `Quantile(1..=4)` and by uneven `Explicit` cuts
//!   with a duplicate (an empty band), the latter with a WAL attached;
//! - HTTP over `Frontend::Sharded`, through `RemoteShard`, whose raw
//!   `GET`, batch and `/v1/healthz` bodies must also equal the bodies
//!   built here by hand (the wire format is pinned, not only the decoded
//!   answer; healthz carries the refit log's length);
//! - routers over local band slices, over loopback-remote
//!   `Frontend::Single` nodes loaded from `save_shard_artifacts` files,
//!   and over a mix holding a replicated band;
//! - a one-member `ReplicaSet`, and a router whose bands are routers.
//!
//! A refit uses a fixed-θ fitter, because a router cannot re-cut its
//! bands: every `ShardedEngine` runs `refit_once`, the HTTP front takes
//! `POST /admin/refit`, and every other engine swaps to the bundle (or
//! band slice) the first sharded engine installed. That bundle must equal
//! a from-scratch fit of the base train plus every applied ingest, and
//! every shape must answer what a fresh engine over it answers.
//!
//! On a divergence [`check`] drops one step at a time while the schedule
//! still diverges ([`shrink`]) and panics with the case number and the
//! minimal schedule as a Rust literal: paste it into
//! `check(Setup { .. }, vec![..])` in a `#[test]` to replay it. The
//! shrinker lives here rather than in the vendored `proptest`, a stand-in
//! for the real crate that a swap back would drop it with.
//!
//! `tests/deployment_oracle.rs` draws cases; the equivalence suites that
//! predate it keep their test names as pinned draws.

// Each suite that mounts this module calls only part of it.
#![allow(dead_code)]

use ganc::core::query::{band_bounds, cut_theta_bands};
use ganc::core::{build_topn, AccuracyMode, CoverageKind};
use ganc::dataset::dataset::{DatasetBuilder, RatingScale};
use ganc::dataset::synth::DatasetProfile;
use ganc::dataset::{Interactions, ItemId, UserId};
use ganc::http::{
    BackendError, Frontend, HttpClient, HttpServer, PeerTransport, RefitHook, RemoteShard,
    ReplicaConfig, ReplicaSet, RouterNode, ServerConfig, ShardRoute,
};
use ganc::preference::generalized::GeneralizedConfig;
use ganc::recommender::pop::MostPopular;
use ganc::recommender::{psvd, rankmf, rsvd};
use ganc::serve::{
    merge_interactions, save_shard_artifacts, DurableConfig, EngineConfig, FitConfig, FittedModel,
    IngestAck, ModelBundle, RefitOutcome, Refitter, RequestOptions, RerankMode, SaveLoad,
    ServeError, ServingEngine, ShardConfig, ShardPlan, ShardedEngine, SlotAnswer,
};
use proptest::prelude::*;
use std::cell::Cell;
use std::collections::HashSet;
use std::fmt::Debug;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub use self::{Base::*, Data::*, Opt::*, Step::*};
pub use ganc::core::AccuracyMode::{Normalized, TopNIndicator};
pub use ganc::core::CoverageKind::{Dynamic, Random, Static};

/// Where a case's train set and θ come from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Data {
    /// A generated 12 × 26 rating matrix (items may go unrated) with θ on
    /// a 1/8 grid, so duplicate θs are common and land on cuts.
    Grid(u64),
    /// The `tiny` synth profile's per-user split, θ from
    /// `GeneralizedConfig`.
    Tiny(u64),
    /// The same over the skewed `small` profile.
    Small(u64),
}

impl Data {
    /// Users and items a schedule draws ids under (a synth split may
    /// leave the last few items out of the train set; they are unknown
    /// ids then, to every shape alike).
    pub fn dims(self) -> (u32, u32) {
        match self {
            Grid(_) => (12, 26),
            Tiny(_) => (50, 40),
            Small(_) => (400, 300),
        }
    }

    fn sample_size(self) -> usize {
        match self {
            Grid(_) => 10,
            Tiny(_) => 12,
            Small(_) => 25,
        }
    }

    fn draw(self) -> (Interactions, Vec<f64>) {
        let (profile, seed) = match self {
            Grid(seed) => return grid(seed),
            Tiny(seed) => (DatasetProfile::tiny(), seed),
            Small(seed) => (DatasetProfile::small(), seed),
        };
        let train = profile
            .generate(seed)
            .split_per_user(0.5, seed)
            .unwrap()
            .train;
        let theta = GeneralizedConfig::default().estimate(&train);
        (train, theta)
    }
}

fn grid(seed: u64) -> (Interactions, Vec<f64>) {
    let (n_users, n_items) = Grid(seed).dims();
    let rng = &mut proptest::new_rng(seed);
    let triples = collection::vec((0..n_users, 0..n_items, 1u32..=5), 10..140);
    let mut b = DatasetBuilder::new("grid", RatingScale::stars_1_5());
    for (u, i, r) in triples.generate(rng) {
        b.push(UserId(u), ItemId(i), r as f32).unwrap();
    }
    let ratings = b.build().unwrap();
    let train = Interactions::from_ratings(n_users, n_items, ratings.ratings());
    let theta = (0..n_users).map(|_| f64::from((0u32..=8).generate(rng)) / 8.0);
    (train, theta.collect())
}

/// The paper's four base models, at sizes a test fits in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Base {
    Pop,
    Rsvd,
    Psvd,
    RankMf,
}

impl Base {
    pub const ALL: [Base; 4] = [Pop, Rsvd, Psvd, RankMf];

    fn fit(self, train: &Interactions) -> FittedModel {
        match self {
            Pop => FittedModel::Pop(MostPopular::fit(train)),
            Rsvd => FittedModel::Rsvd(rsvd::Rsvd::train(
                train,
                rsvd::RsvdConfig {
                    factors: 8,
                    epochs: 4,
                    ..Default::default()
                },
            )),
            Psvd => FittedModel::Psvd(psvd::Psvd::train(train, 8, 3)),
            RankMf => FittedModel::RankMf(rankmf::RankMf::train(
                train,
                rankmf::RankMfConfig {
                    factors: 8,
                    epochs: 3,
                    ..Default::default()
                },
            )),
        }
    }
}

/// One case's data and fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Setup {
    pub data: Data,
    pub base: Base,
    pub coverage: CoverageKind,
    pub accuracy: AccuracyMode,
    pub n: usize,
}

impl Setup {
    /// A case serving lists of 5.
    pub fn of(data: Data, base: Base, coverage: CoverageKind, accuracy: AccuracyMode) -> Setup {
        Setup {
            data,
            base,
            coverage,
            accuracy,
            n: 5,
        }
    }

    fn fit_config(&self) -> FitConfig {
        FitConfig {
            coverage: self.coverage,
            accuracy_mode: self.accuracy,
            sample_size: self.data.sample_size(),
            ..FitConfig::new(self.n)
        }
    }
}

/// The options one read carries.
#[derive(Debug, Clone, PartialEq)]
pub enum Opt {
    Plain,
    /// θ override of `k / 8`.
    Theta(u8),
    Exclude(Vec<u32>),
    /// Online re-rank: PRA, RBT, 5D for 0, 1, 2.
    Rerank(u8),
}

impl Opt {
    fn options(&self) -> RequestOptions {
        let mut opts = RequestOptions::default();
        match self {
            Plain => {}
            Theta(k) => opts.theta = Some(f64::from(*k) / 8.0),
            Exclude(items) => opts.set_exclude(items.clone()),
            Rerank(m) => {
                opts.rerank =
                    Some([RerankMode::Pra, RerankMode::Rbt, RerankMode::FiveD][*m as usize % 3])
            }
        }
        opts
    }
}

/// One step of a schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// One user's list.
    Get(u32, Opt),
    /// A batch, in request order; unknown and repeated users ride along.
    Batch(Vec<u32>, Opt),
    /// Ingest `(user, item, rating)`, under key `k{key}` when keyed. A
    /// resend repeats an earlier keyed ingest verbatim.
    Ingest(Option<u32>, u32, u32, u8),
    /// Refit on train plus every applied ingest and roll it out.
    Refit,
}

/// Draw a `len`-step schedule over `n_users × n_items`.
pub fn schedule(rng: &mut TestRng, (n_users, n_items): (u32, u32), len: usize) -> Vec<Step> {
    let user = |rng: &mut TestRng| match (0u32..8).generate(rng) {
        0 => n_users + (0u32..3).generate(rng),
        _ => (0..n_users).generate(rng),
    };
    let opt = |rng: &mut TestRng| match (0u32..5).generate(rng) {
        0 => Theta((0u32..=8).generate(rng) as u8),
        1 => Exclude(collection::vec(0..n_items, 1..6).generate(rng)),
        2 => Rerank((0u32..3).generate(rng) as u8),
        _ => Plain,
    };
    let mut steps: Vec<Step> = Vec::with_capacity(len);
    let mut keys = 0;
    while steps.len() < len {
        let (u, i, r) = (
            (0..n_users).generate(rng),
            (0..n_items).generate(rng),
            (1u32..=5).generate(rng) as u8,
        );
        let step = match (0u32..20).generate(rng) {
            0..=5 => Get(user(rng), opt(rng)),
            6..=9 => {
                let size = (1usize..4).generate(rng);
                let pool: Vec<u32> = (0..size).map(|_| user(rng)).collect();
                let picks = collection::vec(0..pool.len(), 0..8).generate(rng);
                Batch(picks.iter().map(|&k| pool[k]).collect(), opt(rng))
            }
            10..=12 => {
                keys += 1;
                Ingest(Some(keys), u, i, r)
            }
            13 | 14 => Ingest(None, u, i, r),
            15 => {
                let sent: Vec<&Step> = steps
                    .iter()
                    .filter(|s| matches!(s, Ingest(Some(_), ..)))
                    .collect();
                match sent.len() {
                    0 => continue,
                    k => sent[(0..k).generate(rng)].clone(),
                }
            }
            16 => {
                keys += 1;
                match (0u32..2).generate(rng) {
                    0 => Ingest(Some(keys), n_users + (0u32..3).generate(rng), i, r),
                    _ => Ingest(Some(keys), u, n_items + (0u32..3).generate(rng), r),
                }
            }
            _ => Refit,
        };
        steps.push(step);
    }
    steps
}

/// A random case: data from either family, any fit, 4–13 steps.
pub fn cases() -> impl Strategy<Value = (Setup, Vec<Step>)> {
    (0u64..u64::MAX, 0u64..u64::MAX).prop_map(|(seed, steps_seed)| {
        let rng = &mut proptest::new_rng(seed);
        let data = match (0u32..4).generate(rng) {
            0 => Tiny(seed),
            _ => Grid(seed),
        };
        let setup = Setup {
            data,
            base: Base::ALL[(0usize..4).generate(rng)],
            coverage: [Random, Static, Dynamic][(0usize..3).generate(rng)],
            accuracy: [Normalized, TopNIndicator][(0usize..2).generate(rng)],
            n: (3usize..7).generate(rng),
        };
        let rng = &mut proptest::new_rng(steps_seed);
        let len = (4usize..14).generate(rng);
        (setup, schedule(rng, data.dims(), len))
    })
}

/// Get every user, one request each, at default options.
pub fn every_user(setup: &Setup) -> Vec<Step> {
    (0..setup.data.dims().0).map(|u| Get(u, Plain)).collect()
}

/// One batch of every user at default options, in reverse, plus the
/// first ten again and an unknown user.
pub fn one_batch(setup: &Setup) -> Step {
    let n = setup.data.dims().0;
    let users = (0..n).rev().chain(0..n.min(10)).chain([n + 7]).collect();
    Batch(users, Plain)
}

thread_local! {
    /// Cases checked so far on this test's thread: the vendored
    /// `proptest!` runs a property's cases in order on one thread, so this
    /// numbers them.
    static CASE: Cell<u64> = const { Cell::new(0) };
}

/// Replay `steps` against every shape; on a divergence shrink the
/// schedule and panic with [`failure`]'s message.
pub fn check(setup: Setup, steps: Vec<Step>) {
    let case = CASE.with(|c| c.replace(c.get() + 1));
    if replay(&setup, &steps).is_ok() {
        return;
    }
    let minimal = shrink(steps, |s| replay(&setup, s).is_err());
    let why = replay(&setup, &minimal).err().unwrap_or_default();
    panic!("{}", failure(case, &setup, &minimal, &why));
}

/// Drop one step at a time while `diverges` still holds: the result is a
/// schedule no single step can be dropped from.
pub fn shrink(mut steps: Vec<Step>, diverges: impl Fn(&[Step]) -> bool) -> Vec<Step> {
    let mut k = 0;
    while k < steps.len() {
        let mut fewer = steps.clone();
        fewer.remove(k);
        if diverges(&fewer) {
            steps = fewer;
        } else {
            k += 1;
        }
    }
    steps
}

/// The panic message of a divergence: the case, why, and a replayable
/// literal.
pub fn failure(case: u64, setup: &Setup, steps: &[Step], why: &str) -> String {
    format!(
        "deployment oracle: case {case} diverged: {why}\n\
         minimal schedule ({} steps), replay with:\n    check({setup:?}, vec!{steps:?});",
        steps.len()
    )
}

/// Replay `steps` on fresh shapes; `Err` describes the first divergence
/// (a panic anywhere counts as one).
fn replay(setup: &Setup, steps: &[Step]) -> Result<(), String> {
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut world = World::build(setup);
        for (k, step) in steps.iter().enumerate() {
            world
                .step(step)
                .map_err(|e| format!("step {k} {step:?}: {e}"))?;
        }
        Ok(())
    }));
    run.unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()));
        Err(format!("panicked: {}", msg.unwrap_or_default()))
    })
}

/// A per-replay directory for the WAL and the band artifacts, removed on
/// drop.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The θ range a whole-bundle engine serves: its "slice" is the bundle.
const FULL: (f64, f64) = (f64::NEG_INFINITY, f64::INFINITY);

struct World {
    setup: Setup,
    cfg: FitConfig,
    train: Interactions,
    theta: Vec<f64>,
    fitter: Arc<Refitter>,
    /// `build_topn`'s lists: what generation 0 serves before any ingest.
    reference: Vec<Vec<ItemId>>,
    pristine: bool,
    applied: Vec<(UserId, ItemId, f32)>,
    /// Keys of applied ingests.
    keys: HashSet<String>,
    /// How many of `applied` the last refit consumed.
    refitted: usize,
    shapes: Vec<(&'static str, Arc<dyn PeerTransport>)>,
    /// Engines that refit themselves.
    sharded: Vec<Arc<ShardedEngine>>,
    /// Every other engine, with the θ range it swaps to on a refit.
    swaps: Vec<(Arc<ServingEngine>, (f64, f64))>,
    client: HttpClient,
    // Dropped after every shape that calls them, and before the scratch.
    servers: Vec<HttpServer>,
    scratch: Scratch,
}

impl World {
    fn build(setup: &Setup) -> World {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("ganc-oracle-{}-{n}", std::process::id()));
        let scratch = Scratch(dir);
        std::fs::create_dir_all(&scratch.0).unwrap();
        let (train, theta) = setup.data.draw();
        let (cfg, base, fixed) = (setup.fit_config(), setup.base, theta.clone());
        let fitter: Arc<Refitter> = Arc::new(move |t: &Interactions| (base.fit(t), fixed.clone()));
        let model = base.fit(&train);
        let reference = build_topn(&model.bind(&train), &theta, &train, &cfg, 2);
        let bundle = ModelBundle::fit(model, theta.clone(), train.clone(), &cfg);
        let restored = ModelBundle::from_bytes(&bundle.to_bytes().unwrap()).unwrap();
        assert!(
            restored == bundle,
            "a reloaded bundle differs from the saved one"
        );

        let hook = RefitHook {
            fitter: Arc::clone(&fitter),
            cfg,
            cadence: None,
        };
        let front = Arc::new(ShardedEngine::new(bundle.clone(), ShardConfig::quantile(3)));
        let front = serve(Frontend::Sharded(front), Some(hook));
        let mut w = World {
            setup: *setup,
            cfg,
            train,
            theta,
            fitter,
            reference,
            pristine: true,
            applied: Vec::new(),
            keys: HashSet::new(),
            refitted: 0,
            shapes: Vec::new(),
            sharded: Vec::new(),
            swaps: Vec::new(),
            client: HttpClient::new(front.local_addr().to_string()),
            servers: Vec::new(),
            scratch,
        };
        let engine = w.engine(bundle.clone(), FULL);
        w.shapes.push(("ServingEngine", engine));
        let engine = w.engine(restored, FULL);
        w.shapes.push(("reloaded ServingEngine", engine));
        let plans = [
            ("Quantile(1)", ShardPlan::Quantile(1)),
            ("Quantile(2)", ShardPlan::Quantile(2)),
            ("Quantile(3)", ShardPlan::Quantile(3)),
            ("Quantile(4)", ShardPlan::Quantile(4)),
            // A sliver band, a duplicate cut (an empty band) and a cut on
            // a θ-grid value; this one logs to a WAL.
            (
                "durable Explicit",
                ShardPlan::Explicit(vec![0.03, 0.5, 0.5, 0.875]),
            ),
        ];
        for (name, plan) in plans {
            let engine = EngineConfig::default();
            let engine = Arc::new(ShardedEngine::new(
                bundle.clone(),
                ShardConfig { plan, engine },
            ));
            w.sharded.push(Arc::clone(&engine));
            w.shapes.push((name, engine));
        }
        let wal = DurableConfig::new(w.scratch.0.join("node.wal"));
        w.sharded[4].attach_durable(wal).unwrap();
        let front = w.remote(front);
        w.shapes.push(("HTTP sharded front", front));

        let cuts = cut_theta_bands(&w.theta, 3);
        let bands: Vec<_> = (0..=cuts.len()).map(|j| band_bounds(&cuts, j)).collect();
        let theta = Arc::new(w.theta.clone());
        let router = |cuts: &[f64], routes: Vec<ShardRoute>| -> Arc<dyn PeerTransport> {
            Arc::new(RouterNode::new(Arc::clone(&theta), cuts.to_vec(), routes))
        };
        let slice = |(lo, hi): (f64, f64)| bundle.slice_theta_band(lo, hi);
        let local = bands
            .iter()
            .map(|&b| ShardRoute::Local(w.engine(slice(b), b)))
            .collect();
        w.shapes
            .push(("router over local bands", router(&cuts, local)));
        let base = w.scratch.0.join("bundle.ganc");
        let paths = save_shard_artifacts(&bundle, &cuts, base).unwrap();
        let mut nodes = Vec::new();
        for (path, &b) in paths.iter().zip(&bands) {
            let node = w.engine(ModelBundle::load(path).unwrap(), b);
            let node = serve(Frontend::Single(node), None);
            nodes.push(ShardRoute::Remote(w.remote(node)));
        }
        w.shapes
            .push(("router over remote nodes", router(&cuts, nodes)));
        let pair: Vec<Arc<dyn PeerTransport>> = vec![
            w.engine(slice(bands[1]), bands[1]),
            w.engine(slice(bands[1]), bands[1]),
        ];
        let mixed = vec![
            ShardRoute::Local(w.engine(slice(bands[0]), bands[0])),
            ShardRoute::replicated(pair, ReplicaConfig::default()),
            ShardRoute::Remote(w.engine(slice(bands[2]), bands[2])),
        ];
        w.shapes
            .push(("router with a replicated band", router(&cuts, mixed)));
        let member: Arc<dyn PeerTransport> = w.engine(bundle.clone(), FULL);
        let set = ReplicaSet::new(vec![member], ReplicaConfig::default());
        w.shapes.push(("one-member ReplicaSet", Arc::new(set)));
        let mut nested = Vec::new();
        for &b in &bands {
            let inner = router(&[], vec![ShardRoute::Remote(w.engine(slice(b), b))]);
            nested.push(ShardRoute::Remote(inner));
        }
        w.shapes
            .push(("router under a router", router(&cuts, nested)));
        w
    }

    /// A `ServingEngine` over `bundle` that swaps to the `band` slice of
    /// every refitted bundle.
    fn engine(&mut self, bundle: ModelBundle, band: (f64, f64)) -> Arc<ServingEngine> {
        let engine = Arc::new(ServingEngine::new(bundle, EngineConfig::default()));
        self.swaps.push((Arc::clone(&engine), band));
        engine
    }

    /// `server` as a peer, reached over HTTP.
    fn remote(&mut self, server: HttpServer) -> Arc<dyn PeerTransport> {
        let peer = RemoteShard::connect(server.local_addr().to_string()).unwrap();
        self.servers.push(server);
        Arc::new(peer)
    }

    fn step(&mut self, step: &Step) -> Result<(), String> {
        match step {
            Get(user, opt) => {
                let (user, opts) = (UserId(*user), opt.options());
                let want = self.agree(|p| p.recommend_with_traced(user, &opts))?;
                if self.pristine && *opt == Plain {
                    let list = self.reference_slot(user).map_err(BackendError::Serve);
                    same("build_topn", &want, &list.map(|l| (l, 0)))?;
                }
                let body = match &want {
                    Ok((list, g)) => {
                        format!("{{\"user\":{},\"generation\":{g},{}}}", user.0, ids(list))
                    }
                    Err(BackendError::Serve(e)) => unknown(e),
                    Err(e) => return Err(format!("no wire body for {e:?}")),
                };
                let path = ganc::http::wire::recommend_path(user, &opts);
                let status = if want.is_ok() { 200 } else { 404 };
                same("raw GET", &self.raw("GET", &path, None), &(status, body))?;
            }
            Batch(users, opt) => {
                let users: Vec<UserId> = users.iter().map(|&u| UserId(u)).collect();
                let opts = opt.options();
                let want = self.agree(|p| p.recommend_batch_with_traced(&users, &opts))?;
                if self.pristine && *opt == Plain {
                    let slots = users.iter().map(|&u| self.reference_slot(u)).collect();
                    same("build_topn", &want, &Ok((slots, 0)))?;
                }
                let Ok((slots, g)) = &want else {
                    return Err(format!("no wire body for {want:?}"));
                };
                let slots: Vec<String> = (users.iter().zip(slots))
                    .map(|(u, slot)| match slot {
                        Ok(list) => format!("{{\"user\":{},{}}}", u.0, ids(list)),
                        Err(e) => unknown(e),
                    })
                    .collect();
                let body = format!("{{\"generation\":{g},\"results\":[{}]}}", slots.join(","));
                let request = ganc::http::wire::batch_request(&users, &opts);
                let request = tinyjson::to_string(&request);
                let raw = self.raw("POST", "/v1/recommend:batch", Some(&request));
                same("raw batch", &raw, &(200, body))?;
            }
            Ingest(key, user, item, rating) => {
                let key = key.map(|k| format!("k{k}"));
                let (user, item, rating) = (UserId(*user), ItemId(*item), f32::from(*rating));
                let ack = self.agree(|p| p.ingest_keyed(key.as_deref(), user, item, rating))?;
                // Ids are checked first; a key applied before dedups.
                let expect = if user.0 >= self.train.n_users() {
                    Err(BackendError::Serve(ServeError::UnknownUser(user)))
                } else if item.0 >= self.train.n_items() {
                    Err(BackendError::Serve(ServeError::UnknownItem(item)))
                } else if key.is_some_and(|k| !self.keys.insert(k)) {
                    Ok(IngestAck::Deduplicated)
                } else {
                    Ok(IngestAck::Applied)
                };
                same("every shape", &ack, &expect)?;
                if ack == Ok(IngestAck::Applied) {
                    self.pristine = false;
                    self.applied.push((user, item, rating));
                }
            }
            Refit => self.refit()?,
        }
        let g = self.agree(|p| p.generation())?.unwrap();
        let pending = self.applied.len() - self.refitted;
        let body = format!("{{\"ok\":true,\"generation\":{g},\"pending_ingests\":{pending}}}");
        same(
            "raw healthz",
            &self.raw("GET", "/v1/healthz", None),
            &(200, body),
        )
    }

    fn reference_slot(&self, user: UserId) -> SlotAnswer {
        let list = self.reference.get(user.idx()).cloned().map(Arc::new);
        list.ok_or(ServeError::UnknownUser(user))
    }

    /// Ask every shape; all must answer what the first one answers.
    fn agree<T: PartialEq + Debug>(
        &self,
        ask: impl Fn(&dyn PeerTransport) -> T,
    ) -> Result<T, String> {
        let want = ask(self.shapes[0].1.as_ref());
        for (name, peer) in &self.shapes[1..] {
            same(name, &ask(peer.as_ref()), &want)?;
        }
        Ok(want)
    }

    /// One raw request to the HTTP front: status and body.
    fn raw(&mut self, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
        let resp = self.client.request(method, path, body).unwrap();
        (resp.status, String::from_utf8(resp.body).unwrap())
    }

    fn refit(&mut self) -> Result<(), String> {
        let generation = self.shapes[0].1.generation().unwrap() + 1;
        let mut installed: Option<Arc<ModelBundle>> = None;
        for engine in &self.sharded {
            let RefitOutcome::Swapped {
                generation: g,
                bundle,
            } = engine.refit_once(self.fitter.as_ref(), &self.cfg)
            else {
                return Err("a sharded refit raced".into());
            };
            let first = installed.get_or_insert_with(|| Arc::clone(&bundle));
            if g != generation || **first != *bundle {
                return Err(format!(
                    "a sharded refit installed generation {g} of another bundle"
                ));
            }
        }
        let body = format!("{{\"outcome\":\"swapped\",\"generation\":{generation}}}");
        same(
            "POST /admin/refit",
            &self.raw("POST", "/admin/refit", None),
            &(200, body),
        )?;
        let bundle = installed.unwrap();
        for (engine, (lo, hi)) in &self.swaps {
            engine.swap_bundle(bundle.slice_theta_band(*lo, *hi));
        }
        self.pristine = false;
        self.refitted = self.applied.len();

        // The rollout installed a from-scratch fit, and serves what a fresh
        // engine over it serves (to every twelfth-or-so user: a refit
        // leaves every list cold, so a whole population per shape per
        // refit would dominate the suite's time).
        let train = merge_interactions(&self.train, &self.applied);
        let model = self.setup.base.fit(&train);
        let fresh = ModelBundle::fit(model, self.theta.clone(), train, &self.cfg);
        if fresh != *bundle {
            return Err("the rolled-out bundle is not a from-scratch fit".into());
        }
        let fresh = ServingEngine::new(fresh, EngineConfig::default());
        let n = self.train.n_users();
        let users: Vec<UserId> = (0..n)
            .step_by(n.div_ceil(12) as usize)
            .map(UserId)
            .collect();
        let (lists, _) = fresh.recommend_batch_traced(&users);
        let want = self.agree(|p| p.recommend_batch_traced(&users))?;
        same("a from-scratch fit", &want, &Ok((lists, generation)))
    }
}

fn serve(frontend: Frontend, hook: Option<RefitHook>) -> HttpServer {
    let cfg = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    HttpServer::bind(frontend, hook, cfg, "127.0.0.1:0").unwrap()
}

fn same<T: PartialEq + Debug>(who: &str, got: &T, want: &T) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    Err(format!("{who} answered {got:?}, the others {want:?}"))
}

/// A list's `"items"` member.
fn ids(list: &[ItemId]) -> String {
    let ids: Vec<String> = list.iter().map(|i| i.0.to_string()).collect();
    format!("\"items\":[{}]", ids.join(","))
}

/// The error body of an unknown user, in a slot or as a 404.
fn unknown(e: &ServeError) -> String {
    match e {
        ServeError::UnknownUser(u) => format!("{{\"error\":\"{e}\",\"unknown_user\":{}}}", u.0),
        other => format!("{other:?}"),
    }
}
