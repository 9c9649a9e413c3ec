//! The remote-hop coalescer ([`CoalescedShard`]) merges concurrent single
//! requests into one `/v1/recommend:batch` wire call — and must be
//! *invisible* in the answers: every coalesced single equals the
//! uncoalesced per-request response, every coalesced batch is served from
//! exactly one bundle generation even while refits hot-swap underneath,
//! the linger is bounded, and shutdown flushes instead of dropping.
//!
//! Determinism: the congestion that forces coalescing is injected with the
//! `ganc::http::testing` doubles (a gate parks the wire while a backlog
//! piles up — condition variables, not sleeps), and the churn equivalence
//! uses the per-generation attribution trick from `tests/refit_hotswap.rs`.

use ganc::core::coverage::CoverageKind;
use ganc::dataset::synth::DatasetProfile;
use ganc::dataset::{Interactions, ItemId, UserId};
use ganc::http::testing::{FlakyPeer, GatedPeer, RecordingPeer};
use ganc::http::{
    BackendError, CoalescedShard, Frontend, HttpServer, PeerTransport, RemoteShard, ServerConfig,
};
use ganc::preference::generalized::GeneralizedConfig;
use ganc::recommender::pop::MostPopular;
use ganc::recommender::psvd::Psvd;
use ganc::serve::refit::Refitter;
use ganc::serve::{
    BatchConfig, EngineConfig, FitConfig, FittedModel, ModelBundle, ServeError, ServingEngine,
    ShardConfig, ShardedEngine,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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

fn pop_bundle() -> ModelBundle {
    let data = DatasetProfile::tiny().generate(59);
    let split = data.split_per_user(0.5, 4).unwrap();
    let theta = GeneralizedConfig::default().estimate(&split.train);
    let pop = MostPopular::fit(&split.train);
    ModelBundle::fit(FittedModel::Pop(pop), theta, split.train, &fit_cfg())
}

fn psvd_fitter() -> Arc<Refitter> {
    Arc::new(|train: &Interactions| {
        (
            FittedModel::Psvd(Psvd::train(train, 8, 3)),
            GeneralizedConfig::default().estimate(train),
        )
    })
}

/// No linger, big cap: flushes are driven purely by arrival order, which
/// the gate controls — fully deterministic batch boundaries.
fn no_linger() -> BatchConfig {
    BatchConfig {
        max_batch: 64,
        max_wait: Duration::ZERO,
    }
}

/// Spin (yield, no sleep) until `cond` holds or a deadline proves it never
/// will.
fn await_cond(context: &str, cond: impl Fn() -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(
            std::time::Instant::now() < deadline,
            "timed out awaiting: {context}"
        );
        std::thread::yield_now();
    }
}

/// Park the wire behind a gate, pile five more singles onto a coalescer
/// mid-flight, lift the gate: the backlog must go out as ONE wire batch,
/// and every caller's answer must equal the uncoalesced per-request
/// response.
#[test]
fn backlogged_singles_coalesce_into_one_wire_batch() {
    let engine = Arc::new(ServingEngine::new(pop_bundle(), EngineConfig::default()));
    let frontend: Arc<dyn PeerTransport> = engine.clone();
    let gated = GatedPeer::new(frontend);
    let recording = RecordingPeer::new(Arc::clone(&gated) as Arc<dyn PeerTransport>);
    let coalesced = CoalescedShard::new(
        Arc::clone(&recording) as Arc<dyn PeerTransport>,
        no_linger(),
    );

    std::thread::scope(|scope| {
        let coalesced = &coalesced;
        let engine = &engine;
        let first = scope.spawn(move || coalesced.recommend_traced(UserId(0)));
        // The first single is on the wire (parked at the gate)...
        gated.wait_arrivals(1);
        // ...while five more pile up behind it.
        let backlog: Vec<_> = (1u32..6)
            .map(|u| scope.spawn(move || coalesced.recommend_traced(UserId(u))))
            .collect();
        await_cond("6 requests accepted", || coalesced.pending() == 6);
        gated.open();

        let (list, generation) = first.join().unwrap().expect("first single");
        assert_eq!(generation, 0);
        assert_eq!(list, engine.recommend(UserId(0)).unwrap());
        for (u, handle) in (1u32..6).zip(backlog) {
            let (list, generation) = handle.join().unwrap().expect("backlogged single");
            assert_eq!(generation, 0, "user {u}");
            assert_eq!(
                list,
                engine.recommend(UserId(u)).unwrap(),
                "coalesced single for user {u} diverges from per-request"
            );
        }
    });

    let batches = recording.batches();
    assert_eq!(
        batches.len(),
        2,
        "one in-flight single + one coalesced backlog"
    );
    assert_eq!(batches[0].users, vec![UserId(0)]);
    let mut merged = batches[1].users.clone();
    merged.sort_unstable();
    assert_eq!(
        merged,
        (1u32..6).map(UserId).collect::<Vec<_>>(),
        "the whole backlog must ride one wire call"
    );
    assert_eq!(batches[1].generation, Some(0));
    assert_eq!(recording.singles(), 0, "singles never bypass the coalescer");
}

/// Coalesced singles over a real HTTP hop equal both the uncoalesced
/// `RemoteShard` per-request responses and the engine's ground truth.
#[test]
fn coalesced_singles_match_uncoalesced_over_real_http() {
    let engine = Arc::new(ServingEngine::new(pop_bundle(), EngineConfig::default()));
    let n_users = engine.n_users();
    let server = HttpServer::bind(
        Frontend::Single(Arc::clone(&engine)),
        None,
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let coalesced = Arc::new(CoalescedShard::new(
        Arc::new(RemoteShard::connect(addr.clone()).unwrap()) as Arc<dyn PeerTransport>,
        BatchConfig::default(),
    ));
    let uncoalesced = RemoteShard::connect(addr).unwrap();

    std::thread::scope(|scope| {
        for t in 0..4u32 {
            let coalesced = Arc::clone(&coalesced);
            let engine = Arc::clone(&engine);
            scope.spawn(move || {
                for k in 0..40u32 {
                    let u = UserId((t * 17 + k) % n_users);
                    let (list, generation) = coalesced.recommend_traced(u).unwrap();
                    assert_eq!(generation, 0);
                    assert_eq!(list, engine.recommend(u).unwrap(), "user {u:?}");
                }
            });
        }
    });
    for u in (0..n_users).step_by(7) {
        let coalesced_answer = coalesced.recommend_traced(UserId(u)).unwrap();
        let direct_answer = uncoalesced.recommend_traced(UserId(u)).unwrap();
        assert_eq!(
            coalesced_answer, direct_answer,
            "user {u}: coalesced and per-request answers diverge on the wire"
        );
    }
}

/// Under `POST /admin/refit` churn, every coalesced answer attributes to
/// exactly one generation — the list it carries is that generation's
/// uncoalesced per-request response, never a mix.
#[test]
fn coalesced_batches_are_never_mixed_generation_under_refit_churn() {
    let data = DatasetProfile::tiny().generate(77);
    let split = data.split_per_user(0.5, 6).unwrap();
    let train = split.train;
    let fitter = psvd_fitter();
    let (model, theta) = fitter(&train);
    let bundle = ModelBundle::fit(model, theta, train, &fit_cfg());
    let n_users = bundle.n_users();
    let ingest_users: Vec<u32> = (n_users - 3..n_users).collect();
    let reader_users: Vec<u32> = (0..n_users - 3).collect();

    let engine = Arc::new(ShardedEngine::new(bundle.clone(), ShardConfig::quantile(3)));
    // The refit endpoint drives the same refit_once path; exercise it over
    // real HTTP so the churn includes the wire.
    let server = HttpServer::bind(
        Frontend::Sharded(Arc::clone(&engine)),
        Some(ganc::http::RefitHook {
            fitter: Arc::clone(&fitter),
            cfg: fit_cfg(),
            cadence: None,
        }),
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let recording = RecordingPeer::new(
        Arc::new(RemoteShard::connect(addr.clone()).unwrap()) as Arc<dyn PeerTransport>
    );
    let coalesced = Arc::new(CoalescedShard::new(
        Arc::clone(&recording) as Arc<dyn PeerTransport>,
        BatchConfig {
            max_batch: 8,
            max_wait: Duration::from_micros(200),
        },
    ));

    let expected_lists = |bundle: ModelBundle| -> Vec<Arc<Vec<ItemId>>> {
        let reference = ServingEngine::new(bundle, EngineConfig::default());
        (0..n_users)
            .map(|u| reference.recommend(UserId(u)).unwrap())
            .collect()
    };
    type GenerationLists = HashMap<u64, Vec<Arc<Vec<ItemId>>>>;
    let expected: Arc<Mutex<GenerationLists>> = Arc::new(Mutex::new(HashMap::new()));
    expected.lock().unwrap().insert(0, expected_lists(bundle));
    let stop = Arc::new(AtomicBool::new(false));
    let sampled = Arc::new(AtomicU64::new(0));

    std::thread::scope(|scope| {
        // Churn: ingest through the coalesced transport, swap via
        // /admin/refit, record each new generation's reference output.
        {
            let engine = Arc::clone(&engine);
            let expected = Arc::clone(&expected);
            let stop = Arc::clone(&stop);
            let sampled = Arc::clone(&sampled);
            let coalesced = Arc::clone(&coalesced);
            let addr = addr.clone();
            let ingest_users = ingest_users.clone();
            scope.spawn(move || {
                let mut admin = ganc::http::HttpClient::new(addr);
                for round in 0..4u32 {
                    let floor = sampled.load(Ordering::Relaxed) + 15;
                    while sampled.load(Ordering::Relaxed) < floor {
                        std::thread::yield_now();
                    }
                    for (k, &u) in ingest_users.iter().enumerate() {
                        let (items, _) = coalesced.recommend_traced(UserId(u)).unwrap();
                        let pick = items[(round as usize + k) % N];
                        coalesced.ingest(UserId(u), pick, 4.0).unwrap();
                    }
                    let resp = admin.request("POST", "/admin/refit", None).unwrap();
                    assert_eq!(resp.status, 200, "refit endpoint");
                    let v = tinyjson::from_str(std::str::from_utf8(&resp.body).unwrap()).unwrap();
                    let generation = v["generation"].as_u64().unwrap();
                    let baseline = engine.baseline_bundle();
                    expected
                        .lock()
                        .unwrap()
                        .insert(generation, expected_lists((*baseline).clone()));
                }
                stop.store(true, Ordering::Relaxed);
            });
        }

        // Coalesced readers.
        let mut readers = Vec::new();
        for t in 0..3usize {
            let coalesced = Arc::clone(&coalesced);
            let stop = Arc::clone(&stop);
            let sampled = Arc::clone(&sampled);
            let reader_users = reader_users.clone();
            readers.push(scope.spawn(move || {
                let mut samples: Vec<(u32, u64, Arc<Vec<ItemId>>)> = Vec::new();
                let mut k = t;
                while !stop.load(Ordering::Relaxed) {
                    let u = reader_users[k % reader_users.len()];
                    let (list, generation) = coalesced.recommend_traced(UserId(u)).unwrap();
                    samples.push((u, generation, list));
                    sampled.fetch_add(1, Ordering::Relaxed);
                    k += 1;
                }
                samples
            }));
        }

        let mut seen_generations = std::collections::HashSet::new();
        let mut total = 0usize;
        for reader in readers {
            let samples = reader.join().expect("reader panicked");
            let expected = expected.lock().unwrap();
            total += samples.len();
            for (u, generation, list) in samples {
                seen_generations.insert(generation);
                let lists = expected
                    .get(&generation)
                    .unwrap_or_else(|| panic!("answer from unknown generation {generation}"));
                assert_eq!(
                    list, lists[u as usize],
                    "user {u}: coalesced answer mixes generations (tagged {generation})"
                );
            }
        }
        assert!(total > 0, "readers never sampled");
        assert!(
            seen_generations.len() >= 2,
            "churn must be observed across generations, saw {seen_generations:?}"
        );
    });

    // The wire witness: every coalesced batch reported exactly one
    // generation (the per-answer check above pins the lists to it).
    let batches = recording.batches();
    assert!(!batches.is_empty());
    for batch in &batches {
        assert!(
            batch.generation.is_some(),
            "a coalesced batch failed mid-churn"
        );
    }
    assert_eq!(engine.generation(), 4);
}

/// The linger is a bound, not a floor-fill: a lone request flushes as a
/// batch of one instead of waiting for companions that never come.
#[test]
fn lone_request_flushes_within_the_linger_bound() {
    let engine = Arc::new(ServingEngine::new(pop_bundle(), EngineConfig::default()));
    let frontend: Arc<dyn PeerTransport> = engine.clone();
    let recording = RecordingPeer::new(frontend);
    let coalesced = CoalescedShard::new(
        Arc::clone(&recording) as Arc<dyn PeerTransport>,
        BatchConfig {
            max_batch: 64,
            max_wait: Duration::from_millis(20),
        },
    );
    let started = std::time::Instant::now();
    let (list, generation) = coalesced.recommend_traced(UserId(3)).unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "lone request must not wait for a full batch"
    );
    assert_eq!(generation, 0);
    assert_eq!(list, engine.recommend(UserId(3)).unwrap());
    let batches = recording.batches();
    assert_eq!(batches.len(), 1);
    assert_eq!(batches[0].users, vec![UserId(3)], "a batch of one is fine");
}

/// Shutdown flushes: requests already accepted are answered (from a worker
/// that would otherwise linger for a minute), then the worker exits.
#[test]
fn shutdown_flushes_accepted_requests() {
    let engine = Arc::new(ServingEngine::new(pop_bundle(), EngineConfig::default()));
    let frontend: Arc<dyn PeerTransport> = engine.clone();
    let recording = RecordingPeer::new(frontend);
    let coalesced = CoalescedShard::new(
        Arc::clone(&recording) as Arc<dyn PeerTransport>,
        BatchConfig {
            max_batch: 100,
            // A minute of linger: if shutdown did NOT cut it, this test
            // times out — completing instantly is the proof.
            max_wait: Duration::from_secs(60),
        },
    );
    std::thread::scope(|scope| {
        let coalesced = &coalesced;
        let handles: Vec<_> = (0u32..3)
            .map(|u| scope.spawn(move || coalesced.recommend_traced(UserId(u))))
            .collect();
        await_cond("3 requests accepted", || coalesced.pending() == 3);
        coalesced.shutdown();
        for (u, handle) in (0u32..3).zip(handles) {
            let (list, _) = handle.join().unwrap().expect("flushed on shutdown");
            assert_eq!(list, engine.recommend(UserId(u)).unwrap(), "user {u}");
        }
    });
    let total: usize = recording.batches().iter().map(|b| b.users.len()).sum();
    assert_eq!(total, 3, "every accepted request went out exactly once");
}

/// A request that loses the race with `shutdown()` is refused as a
/// transport failure in both directions — the caller (an HTTP worker in
/// production) gets an error it can answer with, never a panic.
#[test]
fn requests_after_shutdown_fail_as_transport_errors() {
    let engine = Arc::new(ServingEngine::new(pop_bundle(), EngineConfig::default()));
    let frontend: Arc<dyn PeerTransport> = engine;
    let coalesced = CoalescedShard::new(frontend, no_linger());
    assert!(coalesced.recommend_traced(UserId(0)).is_ok());
    coalesced.shutdown();
    let read = coalesced.recommend_traced(UserId(0));
    assert!(
        matches!(read, Err(BackendError::Transport(_))),
        "recommend after shutdown: {read:?}"
    );
    let write = coalesced.ingest_keyed(Some("k-1"), UserId(0), ItemId(1), 4.0);
    assert!(
        matches!(write, Err(BackendError::Transport(_))),
        "ingest after shutdown: {write:?}"
    );
    assert_eq!(coalesced.pending(), 0, "a refused request is not pending");
}

/// A whole-batch wire failure is delivered to *every* caller the batch
/// coalesced — no one hangs, no one gets a stale answer.
#[test]
fn wire_failure_reaches_every_coalesced_caller() {
    let engine = Arc::new(ServingEngine::new(pop_bundle(), EngineConfig::default()));
    let frontend: Arc<dyn PeerTransport> = engine;
    let gated = GatedPeer::new(frontend);
    let flaky = FlakyPeer::new(Arc::clone(&gated) as Arc<dyn PeerTransport>);
    let coalesced = CoalescedShard::new(Arc::clone(&flaky) as Arc<dyn PeerTransport>, no_linger());

    std::thread::scope(|scope| {
        let coalesced = &coalesced;
        let first = scope.spawn(move || coalesced.recommend_traced(UserId(0)));
        gated.wait_arrivals(1);
        let doomed: Vec<_> = (1u32..4)
            .map(|u| scope.spawn(move || coalesced.recommend_traced(UserId(u))))
            .collect();
        await_cond("4 requests accepted", || coalesced.pending() == 4);
        // The next wire call (the coalesced backlog of three) fails.
        flaky.fail_next(1);
        gated.open();
        assert!(first.join().unwrap().is_ok(), "pre-failure batch unharmed");
        for handle in doomed {
            match handle.join().unwrap() {
                Err(BackendError::Transport(msg)) => {
                    assert!(msg.contains("injected failure"), "{msg}");
                }
                other => panic!("caller must see the batch failure, got {other:?}"),
            }
        }
    });
    // The double healed; the coalescer keeps serving.
    assert!(coalesced.recommend_traced(UserId(5)).is_ok());
}

/// Per-user serving rejections stay per-caller: an unknown user coalesced
/// into a healthy batch gets their typed error, neighbors are unaffected.
#[test]
fn unknown_user_stays_a_per_caller_error() {
    let engine = Arc::new(ServingEngine::new(pop_bundle(), EngineConfig::default()));
    let n_users = engine.n_users();
    let frontend: Arc<dyn PeerTransport> = engine.clone();
    let gated = GatedPeer::new(frontend);
    let coalesced = CoalescedShard::new(Arc::clone(&gated) as Arc<dyn PeerTransport>, no_linger());
    let bad = UserId(n_users + 9);

    std::thread::scope(|scope| {
        let coalesced = &coalesced;
        let first = scope.spawn(move || coalesced.recommend_traced(UserId(1)));
        gated.wait_arrivals(1);
        let unknown = scope.spawn(move || coalesced.recommend_traced(bad));
        let neighbor = scope.spawn(move || coalesced.recommend_traced(UserId(2)));
        await_cond("3 requests accepted", || coalesced.pending() == 3);
        gated.open();
        assert!(first.join().unwrap().is_ok());
        match unknown.join().unwrap() {
            Err(BackendError::Serve(ServeError::UnknownUser(u))) => assert_eq!(u, bad),
            other => panic!("expected the typed rejection, got {other:?}"),
        }
        let (list, _) = neighbor.join().unwrap().expect("neighbor unaffected");
        assert_eq!(list, engine.recommend(UserId(2)).unwrap());
    });
}
