//! Per-request trade-off overrides (θ / exclusions / online re-rank): the
//! override path must be **byte-identical** to the unsharded reference
//! engine's fused path at that θ and exclusion set, across band counts
//! {1, 2, 4} × every coverage kind — and an online `rerank=` request must
//! reproduce the batch `rerank_all` driver's list exactly.
//!
//! The named correctness trap is the user-keyed LRU: a cached default
//! list must never answer an override request, and an override's list
//! must never be served to a later default request. Both directions are
//! pinned here via cache-hit counters and list identity.

mod doubles;

use doubles::RecordingPeer;
use ganc::core::coverage::CoverageKind;
use ganc::core::query::shard_of;
use ganc::dataset::dataset::{DatasetBuilder, RatingScale};
use ganc::dataset::synth::DatasetProfile;
use ganc::dataset::{Interactions, ItemId, UserId};
use ganc::http::{
    CoalescedShard, Frontend, HttpServer, PeerTransport, RemoteShard, ReplicaConfig, ReplicaSet,
    RouterNode, ServerConfig, ShardRoute,
};
use ganc::preference::generalized::GeneralizedConfig;
use ganc::recommender::pop::MostPopular;
use ganc::recommender::rsvd::{Rsvd, RsvdConfig};
use ganc::rerank::rerank_all;
use ganc::serve::{
    build_reranker, BatchConfig, EngineConfig, EngineStats, FitConfig, FittedModel, ModelBundle,
    RequestOptions, RerankMode, ServeError, ServingEngine, ShardConfig, ShardedEngine,
};
use proptest::prelude::*;
use std::sync::Arc;

const N_USERS: u32 = 10;
const N_ITEMS: u32 = 22;
const N: usize = 5;
const BAND_COUNTS: [usize; 3] = [1, 2, 4];
const ALL_KINDS: [CoverageKind; 3] = [
    CoverageKind::Random,
    CoverageKind::Static,
    CoverageKind::Dynamic,
];
const ALL_MODES: [RerankMode; 3] = [RerankMode::Pra, RerankMode::Rbt, RerankMode::FiveD];

fn arb_train() -> impl Strategy<Value = Interactions> {
    proptest::collection::vec((0u32..N_USERS, 0u32..N_ITEMS, 1u32..=5), 10..120).prop_map(
        |triples| {
            let mut b = DatasetBuilder::new("overrides", RatingScale::stars_1_5());
            for (u, i, r) in triples {
                b.push(UserId(u), ItemId(i), r as f32).unwrap();
            }
            let d = b.build().unwrap();
            Interactions::from_ratings(N_USERS, N_ITEMS, d.ratings())
        },
    )
}

fn arb_theta() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0u32..=8, (N_USERS as usize)..(N_USERS as usize + 1))
        .prop_map(|grid| grid.into_iter().map(|k| k as f64 / 8.0).collect())
}

fn fit_cfg(kind: CoverageKind) -> FitConfig {
    FitConfig {
        coverage: kind,
        sample_size: 10,
        ..FitConfig::new(N)
    }
}

fn pop_bundle(train: &Interactions, theta: &[f64], kind: CoverageKind) -> ModelBundle {
    ModelBundle::fit(
        FittedModel::Pop(MostPopular::fit(train)),
        theta.to_vec(),
        train.clone(),
        &fit_cfg(kind),
    )
}

/// A realistic skewed fixture (KDE θ over synthetic data) for the
/// deterministic tests.
fn skewed_bundle(kind: CoverageKind) -> ModelBundle {
    let data = DatasetProfile::tiny().generate(73);
    let split = data.split_per_user(0.5, 3).unwrap();
    let theta = GeneralizedConfig::default().estimate(&split.train);
    pop_bundle(&split.train, &theta, kind)
}

proptest! {
    /// The tentpole oracle: for random data, random θ, a random θ
    /// override and exclusion set, the sharded override answer is
    /// byte-identical to the unsharded reference engine at that
    /// θ/exclusions — across band counts {1, 2, 4} and every coverage
    /// kind.
    #[test]
    fn overridden_answers_match_the_unsharded_reference(
        train in arb_train(),
        theta in arb_theta(),
        theta_override in 0u32..=9, // 9 = "no θ override"
        exclude in proptest::collection::vec(0u32..N_ITEMS, 0..6),
    ) {
        for kind in ALL_KINDS {
            let bundle = pop_bundle(&train, &theta, kind);
            let single = ServingEngine::new(bundle.clone(), EngineConfig::default());
            let mut opts = RequestOptions {
                theta: (theta_override < 9).then(|| theta_override as f64 / 8.0),
                ..RequestOptions::default()
            };
            opts.set_exclude(exclude.clone());
            for bands in BAND_COUNTS {
                let sharded = ShardedEngine::new(bundle.clone(), ShardConfig::quantile(bands));
                for u in (0..N_USERS).map(UserId) {
                    let want = single.recommend_with_traced(u, &opts).unwrap();
                    let got = sharded.recommend_with_traced(u, &opts).unwrap();
                    prop_assert_eq!(
                        got.0.as_slice(), want.0.as_slice(),
                        "kind {:?} bands {} user {:?}", kind, bands, u
                    );
                    prop_assert_eq!(got.1, want.1, "generation must match");
                    for &x in &opts.exclude {
                        prop_assert!(
                            !got.0.contains(&ItemId(x)),
                            "excluded item {} served to {:?}", x, u
                        );
                    }
                }
            }
        }
    }
}

/// Overriding θ to exactly the user's fitted θ must reproduce the default
/// list — the override path is the same fused computation, only
/// parameterized. The one carve-out is Dyn coverage's *seed users*: their
/// default list is the sequential phase's verbatim assignment (matching
/// the batch optimizer), while an override always answers from the fused
/// path, so they are exempt here.
#[test]
fn theta_override_at_fitted_value_reproduces_default_list() {
    for kind in ALL_KINDS {
        let bundle = skewed_bundle(kind);
        let engine = ServingEngine::new(bundle.clone(), EngineConfig::default());
        let seeded: std::collections::BTreeSet<u32> =
            bundle.seed_lists.iter().map(|(u, _)| u.0).collect();
        for u in (0..bundle.n_users()).map(UserId) {
            if seeded.contains(&u.0) {
                continue;
            }
            let default = engine.recommend(u).unwrap();
            let opts = RequestOptions {
                theta: Some(bundle.theta[u.idx()]),
                ..RequestOptions::default()
            };
            let (overridden, _) = engine.recommend_with_traced(u, &opts).unwrap();
            assert_eq!(
                overridden.as_slice(),
                default.as_slice(),
                "{kind:?}: θ=fitted must be the default list for {u:?}"
            );
        }
    }
}

/// The LRU trap, both directions: an override is never answered from the
/// cache (the cached default entry survives untouched and still hits),
/// and an override's list never poisons the cache for later default
/// requests.
#[test]
fn override_requests_never_read_or_write_the_cache() {
    let bundle = skewed_bundle(CoverageKind::Dynamic);
    let engine = ServingEngine::new(bundle.clone(), EngineConfig::default());
    let u = UserId(0);

    // Prime the cache with the default list.
    let default = engine.recommend(u).unwrap();
    let s0 = engine.stats();
    assert_eq!((s0.cache_hits, s0.cache_misses), (0, 1));

    // Exclude the default head: the override must recompute (a cached
    // answer would still carry the excluded item) and must not count a
    // cache hit.
    let opts = RequestOptions {
        exclude: vec![default[0].0],
        ..RequestOptions::default()
    };
    let (overridden, _) = engine.recommend_with_traced(u, &opts).unwrap();
    assert!(
        !overridden.contains(&default[0]),
        "override served the cached default list"
    );
    let s1 = engine.stats();
    assert_eq!(s1.cache_hits, 0, "override must not read the cache");
    assert_eq!(s1.cache_misses, 2);

    // The default entry is still cached and unpoisoned: the next default
    // request hits and returns the original list.
    let again = engine.recommend(u).unwrap();
    assert_eq!(again.as_slice(), default.as_slice());
    let s2 = engine.stats();
    assert_eq!(
        (s2.cache_hits, s2.cache_misses),
        (1, 2),
        "default request after an override must hit the untouched cache"
    );

    // Reverse direction: on a fresh engine, an override served first must
    // not seed the cache — the following default request computes fresh
    // and matches the reference default list.
    let fresh = ServingEngine::new(bundle, EngineConfig::default());
    let (first_override, _) = fresh.recommend_with_traced(u, &opts).unwrap();
    let default_after = fresh.recommend(u).unwrap();
    assert_eq!(default_after.as_slice(), default.as_slice());
    assert_ne!(first_override.as_slice(), default_after.as_slice());
    assert_eq!(
        fresh.stats().cache_hits,
        0,
        "override must not seed the cache"
    );

    // Below the response cache sit the user's hoisted candidate runs,
    // which Static coverage serves every user from (Dyn answers sampled
    // users from seed lists). An exclusion request served first must not
    // leave its shrunken pool behind: the following default list equals a
    // fresh engine's and still contains the excluded item.
    let bundle = skewed_bundle(CoverageKind::Static);
    let u = (0..bundle.n_users())
        .map(UserId)
        .find(|u| bundle.seed_lists.iter().all(|(s, _)| s != u))
        .expect("a non-sampled user");
    let default = ServingEngine::new(bundle.clone(), EngineConfig::default())
        .recommend(u)
        .unwrap();
    let opts = RequestOptions {
        exclude: vec![default[0].0],
        ..RequestOptions::default()
    };
    let engine = ServingEngine::new(bundle, EngineConfig::default());
    let (excluded, _) = engine.recommend_with_traced(u, &opts).unwrap();
    assert!(!excluded.contains(&default[0]));
    let after = engine.recommend(u).unwrap();
    assert_eq!(
        after.as_slice(),
        default.as_slice(),
        "an exclusion request polluted the user's hoisted runs"
    );
    assert!(after.contains(&default[0]));
}

/// Default options are the cached path at every depth: through each
/// layer's `recommend_with_traced(u, &default)` the answer is
/// byte-identical to the `recommend_traced(u)` sugar, and on the engine
/// owning the user the first call is the one miss and every later call a
/// hit. A layer that ever routed default options into the cache-bypassing
/// override arm would count a second miss here.
#[test]
fn default_options_hit_the_owning_engines_cache_at_every_depth() {
    type Answer = (Arc<Vec<ItemId>>, u64);
    fn check(
        depth: &str,
        stats: &dyn Fn() -> EngineStats,
        with_opts: &dyn Fn(&RequestOptions) -> Answer,
        sugar: &dyn Fn() -> Answer,
    ) {
        let default = RequestOptions::default();
        let counters = || {
            let s = stats();
            (s.cache_hits, s.cache_misses)
        };
        let (hits, misses) = counters();
        let first = with_opts(&default);
        assert_eq!(
            counters(),
            (hits, misses + 1),
            "{depth}: first call computes"
        );
        let second = sugar();
        assert_eq!(
            counters(),
            (hits + 1, misses + 1),
            "{depth}: sugar must hit"
        );
        let third = with_opts(&default);
        assert_eq!(
            counters(),
            (hits + 2, misses + 1),
            "{depth}: default options bypassed the cache"
        );
        assert_eq!(first, second, "{depth}");
        assert_eq!(second, third, "{depth}");
    }

    let bundle = skewed_bundle(CoverageKind::Dynamic);
    let u = UserId(1);
    let fresh = || Arc::new(ServingEngine::new(bundle.clone(), EngineConfig::default()));
    let loopback = |engine: &Arc<ServingEngine>| Arc::clone(engine) as Arc<dyn PeerTransport>;
    let through_peer = |depth: &str, engine: &ServingEngine, peer: &dyn PeerTransport| {
        check(
            depth,
            &|| engine.stats(),
            &|o| peer.recommend_with_traced(u, o).unwrap(),
            &|| peer.recommend_traced(u).unwrap(),
        );
    };

    let engine = fresh();
    check(
        "ServingEngine",
        &|| engine.stats(),
        &|o| engine.recommend_with_traced(u, o).unwrap(),
        &|| engine.recommend_traced(u).unwrap(),
    );

    let sharded = ShardedEngine::new(bundle.clone(), ShardConfig::quantile(2));
    check(
        "ShardedEngine",
        &|| sharded.stats(),
        &|o| sharded.recommend_with_traced(u, o).unwrap(),
        &|| sharded.recommend_traced(u).unwrap(),
    );

    // A router over two band slices, once with the bands local and once
    // behind a loopback transport; the owning engine is the user's band.
    use ganc::core::query::{band_bounds, cut_theta_bands};
    let cuts = cut_theta_bands(&bundle.theta, 2);
    let owner = shard_of(&cuts, bundle.theta[u.idx()]);
    for remote in [false, true] {
        let slices: Vec<Arc<ServingEngine>> = (0..2)
            .map(|j| {
                let (lo, hi) = band_bounds(&cuts, j);
                let slice = bundle.slice_theta_band(lo, hi);
                Arc::new(ServingEngine::new(slice, EngineConfig::default()))
            })
            .collect();
        let routes = slices
            .iter()
            .map(|e| match remote {
                true => ShardRoute::Remote(loopback(e)),
                false => ShardRoute::Local(Arc::clone(e)),
            })
            .collect();
        let router = RouterNode::new(Arc::clone(&bundle.theta), cuts.clone(), routes);
        check(
            if remote {
                "RouterNode remote band"
            } else {
                "RouterNode local band"
            },
            &|| slices[owner].stats(),
            &|o| router.recommend_with_traced(u, o).unwrap(),
            &|| router.recommend_traced(u).unwrap(),
        );
    }

    let engine = fresh();
    through_peer("Frontend loopback", &engine, loopback(&engine).as_ref());

    let engine = fresh();
    let replicas = ReplicaSet::new(vec![loopback(&engine)], ReplicaConfig::default());
    check(
        "ReplicaSet",
        &|| engine.stats(),
        &|o| replicas.recommend_with_traced(u, o).unwrap(),
        &|| replicas.recommend_traced(u).unwrap(),
    );

    let engine = fresh();
    let coalesced = CoalescedShard::new(loopback(&engine), BatchConfig::default());
    through_peer("CoalescedShard", &engine, &coalesced);

    let engine = fresh();
    let server = HttpServer::bind(
        Frontend::Single(Arc::clone(&engine)),
        None,
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .expect("ephemeral bind");
    let remote = RemoteShard::connect(server.local_addr().to_string()).expect("reachable");
    through_peer("RemoteShard over HTTP", &engine, &remote);
}

/// Online `rerank=` ≡ the batch `rerank_all` driver, for every re-ranker
/// mode × model (Pop and RSVD) — both sides build their re-ranker through
/// the shared `build_reranker`, so any divergence is in the online path.
#[test]
fn online_rerank_matches_batch_rerank_all() {
    let data = DatasetProfile::tiny().generate(73);
    let split = data.split_per_user(0.5, 3).unwrap();
    let train = split.train;
    let theta = GeneralizedConfig::default().estimate(&train);
    let rsvd_cfg = RsvdConfig {
        factors: 8,
        epochs: 4,
        ..RsvdConfig::default()
    };
    let models: Vec<FittedModel> = vec![
        FittedModel::Pop(MostPopular::fit(&train)),
        FittedModel::Rsvd(Rsvd::train(&train, rsvd_cfg)),
    ];
    for model in models {
        let bundle = ModelBundle::fit(
            model,
            theta.clone(),
            train.clone(),
            &fit_cfg(CoverageKind::Dynamic),
        );
        let engine = ServingEngine::new(bundle.clone(), EngineConfig::default());
        for mode in ALL_MODES {
            let rr = build_reranker(mode, &train, &bundle.model_name);
            let batch = match bundle.model.as_ref() {
                FittedModel::Pop(m) => rerank_all(rr.as_ref(), m, &train, N, 2),
                FittedModel::Rsvd(m) => rerank_all(rr.as_ref(), m, &train, N, 2),
                _ => unreachable!("fixture fits only Pop and RSVD"),
            };
            let opts = RequestOptions {
                rerank: Some(mode),
                ..RequestOptions::default()
            };
            for u in (0..train.n_users()).map(UserId) {
                let (online, _) = engine.recommend_with_traced(u, &opts).unwrap();
                assert_eq!(
                    online.as_slice(),
                    batch[u.idx()].as_slice(),
                    "{} × {:?}: online rerank diverges from rerank_all for {u:?}",
                    bundle.model_name,
                    mode,
                );
            }
        }
    }
}

/// The rerank override through a sharded front equals the single-engine
/// online answer (and hence, transitively, the batch driver), for every
/// mode × band count × coverage kind.
#[test]
fn sharded_rerank_matches_single_across_bands_and_kinds() {
    for kind in ALL_KINDS {
        let bundle = skewed_bundle(kind);
        let single = ServingEngine::new(bundle.clone(), EngineConfig::default());
        for mode in ALL_MODES {
            let opts = RequestOptions {
                rerank: Some(mode),
                ..RequestOptions::default()
            };
            for bands in BAND_COUNTS {
                let sharded = ShardedEngine::new(bundle.clone(), ShardConfig::quantile(bands));
                for u in (0..bundle.n_users()).map(UserId) {
                    assert_eq!(
                        sharded.recommend_with_traced(u, &opts).unwrap().0,
                        single.recommend_with_traced(u, &opts).unwrap().0,
                        "{kind:?} × {mode:?} × {bands} bands: {u:?}"
                    );
                }
            }
        }
    }
}

/// Batch overrides equal the per-user single override path slot for slot,
/// and unknown users error in their slot without failing the batch — for
/// each kind of override, whether the engine computes the batch's slots on
/// one worker thread or fans them out over four.
#[test]
fn batch_override_matches_singles_and_flags_unknown_users() {
    let bundle = skewed_bundle(CoverageKind::Dynamic);
    let n_users = bundle.n_users();
    let cases = [
        RequestOptions {
            theta: Some(0.75),
            exclude: vec![0, 3],
            ..RequestOptions::default()
        },
        RequestOptions {
            theta: Some(0.25),
            ..RequestOptions::default()
        },
        RequestOptions {
            exclude: vec![1, 4, 6],
            ..RequestOptions::default()
        },
        RequestOptions {
            exclude: vec![2],
            rerank: Some(RerankMode::Rbt),
            ..RequestOptions::default()
        },
    ];
    let mut users: Vec<UserId> = (0..n_users).map(UserId).collect();
    users.push(UserId(n_users + 7)); // unknown
    for opts in &cases {
        for threads in [1, 4] {
            for bands in BAND_COUNTS {
                let cfg = ShardConfig {
                    engine: EngineConfig { threads },
                    ..ShardConfig::quantile(bands)
                };
                let engine = ShardedEngine::new(bundle.clone(), cfg);
                let (answers, generation) = engine.recommend_batch_with_traced(&users, opts);
                assert_eq!(generation, 0);
                for (k, answer) in answers.iter().enumerate() {
                    if users[k].0 < n_users {
                        assert_eq!(
                            answer.as_ref().unwrap().as_slice(),
                            engine
                                .recommend_with_traced(users[k], opts)
                                .unwrap()
                                .0
                                .as_slice(),
                            "{opts:?} threads {threads} bands {bands} slot {k}"
                        );
                    } else {
                        assert_eq!(
                            answer.as_ref().unwrap_err(),
                            &ServeError::UnknownUser(users[k]),
                            "unknown user must error in its slot"
                        );
                    }
                }
            }
        }
    }
}

/// Build a router over per-band slices, each band wrapped in a
/// [`RecordingPeer`] so dispatch targets are observable.
fn recording_router(
    bundle: &ModelBundle,
    bands: usize,
) -> (RouterNode, Vec<Arc<RecordingPeer>>, Vec<f64>) {
    use ganc::core::query::{band_bounds, cut_theta_bands};
    let cuts = cut_theta_bands(&bundle.theta, bands);
    let mut routes = Vec::new();
    let mut recorders = Vec::new();
    for j in 0..bands {
        let (lo, hi) = band_bounds(&cuts, j);
        let slice = bundle.slice_theta_band(lo, hi);
        let engine = Arc::new(ServingEngine::new(slice, EngineConfig::default()));
        let frontend: Arc<dyn PeerTransport> = engine;
        let rec = RecordingPeer::new(frontend);
        routes.push(ShardRoute::Remote(
            Arc::clone(&rec) as Arc<dyn PeerTransport>
        ));
        recorders.push(rec);
    }
    let router = RouterNode::new(Arc::clone(&bundle.theta), cuts.clone(), routes);
    (router, recorders, cuts)
}

/// A θ override through a router lands on the band **owning that θ** (not
/// the user's home band) and the answer is byte-identical to the
/// unsharded reference at that θ.
#[test]
fn router_routes_theta_override_to_owning_band() {
    let bundle = skewed_bundle(CoverageKind::Dynamic);
    let single = ServingEngine::new(bundle.clone(), EngineConfig::default());
    for bands in [2usize, 4] {
        let (router, recorders, cuts) = recording_router(&bundle, bands);
        // Pick a user whose home band differs from the override target.
        let theta_override = 0.97;
        let owner = shard_of(&cuts, theta_override);
        let user = (0..bundle.n_users())
            .map(UserId)
            .find(|u| shard_of(&cuts, bundle.theta[u.idx()]) != owner);
        let Some(user) = user else {
            continue; // degenerate cuts: every user already lives there
        };
        let opts = RequestOptions {
            theta: Some(theta_override),
            ..RequestOptions::default()
        };
        let (got, _) = router.recommend_with_traced(user, &opts).unwrap();
        let (want, _) = single.recommend_with_traced(user, &opts).unwrap();
        assert_eq!(got.as_slice(), want.as_slice(), "bands {bands}");
        for (j, rec) in recorders.iter().enumerate() {
            assert_eq!(
                rec.singles(),
                u64::from(j == owner),
                "bands {bands}: only the owning band {owner} may be dispatched, saw band {j}"
            );
        }
    }
}

/// A θ-overridden **batch** collapses onto the owning band and every slot
/// equals the unsharded reference; an exclusion-only batch splits across
/// home bands as usual and still matches the reference.
#[test]
fn router_batch_overrides_match_reference_and_routing() {
    let bundle = skewed_bundle(CoverageKind::Dynamic);
    let single = ServingEngine::new(bundle.clone(), EngineConfig::default());
    let users: Vec<UserId> = (0..bundle.n_users()).map(UserId).collect();
    for bands in [2usize, 4] {
        // θ override: exactly one band sees exactly one batch.
        let (router, recorders, cuts) = recording_router(&bundle, bands);
        let opts = RequestOptions {
            theta: Some(0.12),
            exclude: vec![1, 2],
            ..RequestOptions::default()
        };
        let owner = shard_of(&cuts, 0.12);
        let (answers, _) = router.recommend_batch_with_traced(&users, &opts).unwrap();
        let (want, _) = single.recommend_batch_with_traced(&users, &opts);
        for (k, (got, want)) in answers.iter().zip(&want).enumerate() {
            assert_eq!(
                got.as_ref().unwrap().as_slice(),
                want.as_ref().unwrap().as_slice(),
                "bands {bands} slot {k}"
            );
        }
        for (j, rec) in recorders.iter().enumerate() {
            assert_eq!(
                rec.batches().len(),
                usize::from(j == owner),
                "θ-overridden batch must collapse onto band {owner}"
            );
        }

        // Exclusion-only override: home-band split, same answers as the
        // reference engine with the same exclusions.
        let (router, recorders, cuts) = recording_router(&bundle, bands);
        let opts = RequestOptions {
            exclude: vec![0, 5, 9],
            ..RequestOptions::default()
        };
        let (answers, _) = router.recommend_batch_with_traced(&users, &opts).unwrap();
        let (want, _) = single.recommend_batch_with_traced(&users, &opts);
        for (got, want) in answers.iter().zip(&want) {
            assert_eq!(
                got.as_ref().unwrap().as_slice(),
                want.as_ref().unwrap().as_slice()
            );
        }
        let touched: Vec<usize> = recorders
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.batches().is_empty())
            .map(|(j, _)| j)
            .collect();
        let homes: std::collections::BTreeSet<usize> = users
            .iter()
            .map(|u| shard_of(&cuts, bundle.theta[u.idx()]))
            .collect();
        assert_eq!(
            touched,
            homes.into_iter().collect::<Vec<_>>(),
            "exclusion-only batch must split across home bands"
        );
    }
}

/// End-to-end over a real socket: `RemoteShard` encodes θ/exclude/rerank
/// onto the wire, the server parses them back, and the answer is
/// byte-identical to the in-process override path.
#[test]
fn overrides_roundtrip_the_http_wire() {
    let bundle = skewed_bundle(CoverageKind::Dynamic);
    let engine = Arc::new(ServingEngine::new(bundle.clone(), EngineConfig::default()));
    let server = HttpServer::bind(
        Frontend::Single(Arc::clone(&engine)),
        None,
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .expect("ephemeral bind");
    let remote = RemoteShard::connect(server.local_addr().to_string()).expect("reachable");
    let reference = ServingEngine::new(bundle.clone(), EngineConfig::default());
    let cases = vec![
        RequestOptions {
            theta: Some(0.375),
            ..RequestOptions::default()
        },
        RequestOptions {
            exclude: vec![2, 4, 8],
            ..RequestOptions::default()
        },
        RequestOptions {
            rerank: Some(RerankMode::Pra),
            ..RequestOptions::default()
        },
        RequestOptions {
            theta: Some(1.0),
            exclude: vec![0],
            rerank: Some(RerankMode::FiveD),
        },
    ];
    let users: Vec<UserId> = (0..bundle.n_users()).map(UserId).collect();
    for opts in &cases {
        for &u in &users {
            let (got, g) = remote.recommend_with_traced(u, opts).unwrap();
            let (want, wg) = reference.recommend_with_traced(u, opts).unwrap();
            assert_eq!(got.as_slice(), want.as_slice(), "{opts:?} user {u:?}");
            assert_eq!(g, wg);
        }
        // Batch wire call too.
        let (answers, _) = remote.recommend_batch_with_traced(&users, opts).unwrap();
        let (want, _) = reference.recommend_batch_with_traced(&users, opts);
        for (got, want) in answers.iter().zip(&want) {
            assert_eq!(
                got.as_ref().unwrap().as_slice(),
                want.as_ref().unwrap().as_slice()
            );
        }
    }
    // Wire override requests must not have populated the server engine's
    // cache with override lists: a default request afterwards computes
    // the true default list.
    for &u in &users {
        assert_eq!(
            remote.recommend_traced(u).unwrap().0.as_slice(),
            reference.recommend_traced(u).unwrap().0.as_slice(),
            "default list after wire overrides must be unpoisoned"
        );
    }
    drop(server);
}
