//! Concurrent refit/hot-swap stress suite: reader threads hammer
//! `recommend` while background refits swap bundles. Every response must be
//! consistent with exactly one bundle generation (no torn reads mixing two
//! bundles), batches must be single-generation end to end, post-refit
//! output must equal a from-scratch `ModelBundle::fit` on the same
//! accumulated interactions, and ingests racing a swap must never be lost.
//!
//! The stress fixtures rely on one property of their base model (PureSVD):
//! it is a base model that ingest never mutates (only Pop is bumped on
//! ingest). Ingestion then perturbs only the ingested user's own output
//! (candidate exclusion), so any user outside the designated ingest set has
//! a *constant* expected list per generation — which is what lets readers
//! attribute every observed response to a generation and detect tearing
//! exactly.

use ganc::core::CoverageKind;
use ganc::dataset::synth::DatasetProfile;
use ganc::dataset::{Interactions, ItemId, UserId};
use ganc::obs::SystemClock;
use ganc::preference::generalized::GeneralizedConfig;
use ganc::recommender::pop::MostPopular;
use ganc::recommender::psvd::Psvd;
use ganc::serve::refit::{merge_interactions, RefitOutcome, Refitter};
use ganc::serve::{
    CadenceConfig, EngineConfig, FitConfig, FittedModel, ModelBundle, RefitController,
    ServingEngine, ShardConfig, ShardedEngine,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const N: usize = 5;

fn fit_cfg() -> FitConfig {
    FitConfig {
        coverage: CoverageKind::Dynamic,
        sample_size: 12,
        ..FitConfig::new(N)
    }
}

fn psvd_fitter() -> Arc<Refitter> {
    Arc::new(|train: &Interactions| {
        (
            FittedModel::Psvd(Psvd::train(train, 8, 3)),
            GeneralizedConfig::default().estimate(train),
        )
    })
}

fn fixture() -> (Interactions, ModelBundle) {
    let data = DatasetProfile::tiny().generate(13);
    let split = data.split_per_user(0.5, 4).unwrap();
    let train = split.train;
    let fitter = psvd_fitter();
    let (model, theta) = fitter(&train);
    let bundle = ModelBundle::fit(model, theta, train.clone(), &fit_cfg());
    (train, bundle)
}

/// Expected per-user lists of one bundle generation, served by an
/// independent reference engine.
fn expected_lists(bundle: ModelBundle, users: u32) -> Vec<Arc<Vec<ItemId>>> {
    let reference = ServingEngine::new(bundle, EngineConfig::default());
    (0..users)
        .map(|u| reference.recommend(UserId(u)).unwrap())
        .collect()
}

/// Readers hammer single and batch requests while a swapper thread ingests
/// and refits; every traced response must match the expected output of the
/// generation it reports — a torn read (part old bundle, part new) cannot
/// match any single generation and fails the lookup.
#[test]
fn concurrent_swap_stress_has_no_torn_reads() {
    let (_, bundle) = fixture();
    let n_users = bundle.n_users();
    // Users the swapper ingests for; readers stay clear of them so reader
    // outputs are constant within a generation.
    let ingest_users: Vec<u32> = (n_users - 3..n_users).collect();
    let reader_users: Vec<UserId> = (0..n_users - 3).map(UserId).collect();

    let engine = Arc::new(ShardedEngine::new(bundle.clone(), ShardConfig::quantile(3)));
    type GenerationLists = HashMap<u64, Vec<Arc<Vec<ItemId>>>>;
    let expected: Arc<Mutex<GenerationLists>> = Arc::new(Mutex::new(HashMap::new()));
    expected
        .lock()
        .unwrap()
        .insert(0, expected_lists(bundle, n_users));
    let stop = Arc::new(AtomicBool::new(false));
    let fitter = psvd_fitter();
    let cfg = fit_cfg();

    std::thread::scope(|scope| {
        // Swapper: ingest a little, refit, record the new generation's
        // expected outputs. 8 generations of churn.
        {
            let engine = Arc::clone(&engine);
            let expected = Arc::clone(&expected);
            let stop = Arc::clone(&stop);
            let fitter = Arc::clone(&fitter);
            let ingest_users = ingest_users.clone();
            scope.spawn(move || {
                for round in 0..8u32 {
                    for (k, &u) in ingest_users.iter().enumerate() {
                        let user = UserId(u);
                        let pick = engine.recommend(user).unwrap()[(round as usize + k) % N];
                        engine.ingest(user, pick, 4.0).unwrap();
                    }
                    match engine.refit_once(fitter.as_ref(), &cfg) {
                        RefitOutcome::Swapped { generation, bundle } => {
                            expected
                                .lock()
                                .unwrap()
                                .insert(generation, expected_lists((*bundle).clone(), n_users));
                        }
                        RefitOutcome::Raced => panic!("single swapper cannot race"),
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                stop.store(true, Ordering::Relaxed);
            });
        }

        // Readers: collect traced samples, verify after the churn ends (the
        // expected map for a generation is recorded after its swap, so
        // verification waits until all generations are known).
        let mut readers = Vec::new();
        for t in 0..4usize {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            let reader_users = reader_users.clone();
            readers.push(scope.spawn(move || {
                let mut samples: Vec<(UserId, u64, Arc<Vec<ItemId>>)> = Vec::new();
                let mut batches: Vec<(u64, Vec<Arc<Vec<ItemId>>>)> = Vec::new();
                let mut k = t;
                while !stop.load(Ordering::Relaxed) {
                    let user = reader_users[k % reader_users.len()];
                    let (list, generation) = engine.recommend_traced(user).unwrap();
                    samples.push((user, generation, list));
                    if k % 7 == 0 {
                        let (answers, generation) = engine.recommend_batch_traced(&reader_users);
                        batches.push((
                            generation,
                            answers.into_iter().map(|a| a.unwrap()).collect(),
                        ));
                    }
                    k += 1;
                }
                (samples, batches)
            }));
        }

        let mut total_samples = 0usize;
        let mut seen_generations = std::collections::HashSet::new();
        for reader in readers {
            let (samples, batches) = reader.join().expect("reader panicked");
            let expected = expected.lock().unwrap();
            total_samples += samples.len();
            for (user, generation, list) in samples {
                seen_generations.insert(generation);
                let gen_lists = expected
                    .get(&generation)
                    .unwrap_or_else(|| panic!("response from unknown generation {generation}"));
                assert_eq!(
                    list,
                    gen_lists[user.idx()],
                    "torn read: {user:?} response matches no single bundle of generation \
                     {generation}"
                );
            }
            for (generation, lists) in batches {
                let gen_lists = expected
                    .get(&generation)
                    .unwrap_or_else(|| panic!("batch from unknown generation {generation}"));
                for (user, list) in reader_users.iter().zip(lists) {
                    assert_eq!(
                        list,
                        gen_lists[user.idx()],
                        "mixed-generation batch: {user:?} diverges from generation {generation}"
                    );
                }
            }
        }
        assert!(total_samples > 0, "readers never sampled");
        assert!(
            seen_generations.len() >= 2,
            "stress must observe multiple generations, saw {seen_generations:?}"
        );
    });
    assert_eq!(engine.generation(), 8);
}

/// Ingests fired concurrently with background refits are never lost: after
/// the churn quiesces, one final refit must land exactly on a from-scratch
/// fit of base train + every ingest ever submitted.
#[test]
fn racing_ingests_survive_swaps_and_match_from_scratch_fit() {
    let (train, bundle) = fixture();
    let n_users = bundle.n_users();
    let engine = Arc::new(ShardedEngine::new(bundle, ShardConfig::quantile(2)));
    let fitter = psvd_fitter();
    let cfg = fit_cfg();

    // Single ingester thread (its send order defines last-wins), racing a
    // refit loop.
    let sent: Vec<(UserId, ItemId, f32)> = std::thread::scope(|scope| {
        let refitting = {
            let engine = Arc::clone(&engine);
            let fitter = Arc::clone(&fitter);
            scope.spawn(move || {
                for _ in 0..6 {
                    engine.refit_once(fitter.as_ref(), &cfg);
                }
            })
        };
        let ingester = {
            let engine = Arc::clone(&engine);
            scope.spawn(move || {
                let mut sent = Vec::new();
                for k in 0..40u32 {
                    let user = UserId(k % n_users);
                    let item = engine.recommend(user).unwrap()[k as usize % N];
                    let rating = 3.0 + (k % 3) as f32;
                    engine.ingest(user, item, rating).unwrap();
                    sent.push((user, item, rating));
                }
                sent
            })
        };
        refitting.join().expect("refitter panicked");
        ingester.join().expect("ingester panicked")
    });

    // Quiesced: one final refit consumes whatever tail remains.
    let outcome = engine.refit_once(fitter.as_ref(), &cfg);
    assert!(matches!(outcome, RefitOutcome::Swapped { .. }));
    assert_eq!(engine.pending_ingests(), 0);

    // From-scratch on the full accumulated stream (merge is associative
    // over refit boundaries: last rating per pair wins either way).
    let accumulated = merge_interactions(&train, &sent);
    let (model, theta) = fitter(&accumulated);
    let reference = ServingEngine::new(
        ModelBundle::fit(model, theta, accumulated, &cfg),
        EngineConfig::default(),
    );
    for u in 0..n_users {
        assert_eq!(
            engine.recommend(UserId(u)).unwrap(),
            reference.recommend(UserId(u)).unwrap(),
            "user {u} diverges from the from-scratch fit on accumulated interactions"
        );
    }
}

/// The background controller itself under reader load: batches re-queried
/// at an unchanged generation must be identical (within-generation
/// determinism for non-ingested users), and after shutdown the engine
/// serves exactly the from-scratch fit of everything ingested.
#[test]
fn controller_swaps_under_load_stay_consistent() {
    let (train, bundle) = fixture();
    let n_users = bundle.n_users();
    let reader_users: Vec<UserId> = (0..n_users - 2).map(UserId).collect();
    let engine = Arc::new(ShardedEngine::new(bundle, ShardConfig::quantile(3)));
    let fitter = psvd_fitter();
    let cfg = fit_cfg();
    // Anything pending is refitted after 1 ms: the tightest cadence.
    let mut controller = RefitController::spawn_adaptive(
        Arc::clone(&engine),
        Arc::clone(&fitter),
        cfg,
        CadenceConfig {
            volume_threshold: 1,
            min_interval: Duration::from_millis(1),
            max_interval: Duration::from_millis(1),
        },
        Arc::new(SystemClock::new()),
    );

    let sent: Vec<(UserId, ItemId, f32)> = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..3)
            .map(|t| {
                let engine = Arc::clone(&engine);
                let reader_users = reader_users.clone();
                scope.spawn(move || {
                    for k in 0..120usize {
                        let (first, g1) = engine.recommend_batch_traced(&reader_users);
                        let (second, g2) = engine.recommend_batch_traced(&reader_users);
                        if g1 == g2 {
                            for (a, b) in first.iter().zip(&second) {
                                assert_eq!(
                                    a.as_ref().unwrap(),
                                    b.as_ref().unwrap(),
                                    "same generation must serve identical lists (t={t} k={k})"
                                );
                            }
                        }
                    }
                })
            })
            .collect();
        let ingester = {
            let engine = Arc::clone(&engine);
            scope.spawn(move || {
                let mut sent = Vec::new();
                for k in 0..30u32 {
                    let user = UserId(n_users - 1 - (k % 2));
                    let item = engine.recommend(user).unwrap()[k as usize % N];
                    engine.ingest(user, item, 5.0).unwrap();
                    sent.push((user, item, 5.0));
                    std::thread::sleep(Duration::from_micros(200));
                }
                sent
            })
        };
        for r in readers {
            r.join().expect("reader panicked");
        }
        ingester.join().expect("ingester panicked")
    });

    controller.shutdown();
    assert!(controller.refits() > 0, "controller never refitted");
    // Quiesce and compare against the from-scratch fit.
    engine.refit_once(fitter.as_ref(), &cfg);
    let accumulated = merge_interactions(&train, &sent);
    let (model, theta) = fitter(&accumulated);
    let reference = ServingEngine::new(
        ModelBundle::fit(model, theta, accumulated, &cfg),
        EngineConfig::default(),
    );
    for u in 0..n_users {
        assert_eq!(
            engine.recommend(UserId(u)).unwrap(),
            reference.recommend(UserId(u)).unwrap(),
            "user {u} diverges after controller churn"
        );
    }
}

/// Regression for the batch/lock hoist: `recommend_batch` holds one state
/// read lock across the whole batch (cache hits included), so a hot swap
/// can never produce a mixed-generation batch. Alternating swaps between
/// two bundles with different θ make any mix detectable: generation parity
/// pins which bundle every response must come from.
#[test]
fn recommend_batch_is_single_generation_under_swaps() {
    let data = DatasetProfile::tiny().generate(21);
    let split = data.split_per_user(0.5, 3).unwrap();
    let train = split.train;
    let cfg = FitConfig {
        coverage: CoverageKind::Static,
        sample_size: 12,
        ..FitConfig::new(N)
    };
    let n_users = train.n_users();
    let mk = |theta: Vec<f64>| {
        ModelBundle::fit(
            FittedModel::Pop(MostPopular::fit(&train)),
            theta,
            train.clone(),
            &cfg,
        )
    };
    // Generation parity ↔ bundle: even = accuracy-only, odd = coverage-only.
    let bundle_even = mk(vec![0.0; n_users as usize]);
    let bundle_odd = mk(vec![1.0; n_users as usize]);
    let expected_even = expected_lists(bundle_even.clone(), n_users);
    let expected_odd = expected_lists(bundle_odd.clone(), n_users);
    assert!(
        expected_even.iter().zip(&expected_odd).any(|(a, b)| a != b),
        "θ flip must change at least one list or the test detects nothing"
    );

    let engine = Arc::new(ServingEngine::new(
        bundle_even.clone(),
        EngineConfig::default(),
    ));
    let users: Vec<UserId> = (0..n_users).map(UserId).collect();
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                for swap in 0..60u64 {
                    let next = if swap % 2 == 0 {
                        bundle_odd.clone()
                    } else {
                        bundle_even.clone()
                    };
                    assert_eq!(engine.swap_bundle(next), swap + 1);
                }
                stop.store(true, Ordering::Relaxed);
            });
        }
        for _ in 0..3 {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            let users = users.clone();
            let expected_even = &expected_even;
            let expected_odd = &expected_odd;
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let (answers, generation) = engine.recommend_batch_traced(&users);
                    let expected = if generation % 2 == 0 {
                        expected_even
                    } else {
                        expected_odd
                    };
                    for (u, got) in users.iter().zip(answers) {
                        assert_eq!(
                            got.unwrap(),
                            expected[u.idx()],
                            "mixed-generation batch at generation {generation}, {u:?}"
                        );
                    }
                }
            });
        }
    });
    assert_eq!(engine.generation(), 60);
}
