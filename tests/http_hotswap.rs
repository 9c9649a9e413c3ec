//! Transport-level twin of `tests/refit_hotswap.rs`: concurrent HTTP
//! clients hammer `/v1/recommend` and `/v1/ingest` while `POST
//! /admin/refit` hot-swaps bundles underneath them. Every response must
//! match exactly one generation's expected output (no torn reads crossing
//! the socket), every batch response must be single-generation, and
//! ingests racing a swap must survive into the post-churn fit.
//!
//! Same attribution trick as the in-process suite: a base model that
//! ingest never mutates (PureSVD; only Pop is bumped on ingest) makes
//! non-ingested users' lists constant within a generation, so each
//! observed (user, generation, items) triple either matches that
//! generation's reference output or proves a tear.

use ganc::core::coverage::CoverageKind;
use ganc::dataset::synth::DatasetProfile;
use ganc::dataset::{Interactions, ItemId, UserId};
use ganc::http::{wire, Frontend, HttpClient, HttpServer, RefitHook, Response, ServerConfig};
use ganc::obs::ObsHub;
use ganc::preference::generalized::GeneralizedConfig;
use ganc::recommender::psvd::Psvd;
use ganc::serve::refit::{merge_interactions, Refitter};
use ganc::serve::{
    EngineConfig, FitConfig, FittedModel, ModelBundle, ServingEngine, ShardConfig, ShardedEngine,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use tinyjson::Value;

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
    let data = DatasetProfile::tiny().generate(77);
    let split = data.split_per_user(0.5, 6).unwrap();
    let train = split.train;
    let fitter = psvd_fitter();
    let (model, theta) = fitter(&train);
    let bundle = ModelBundle::fit(model, theta, train.clone(), &fit_cfg());
    (train, bundle)
}

fn expected_lists(bundle: ModelBundle, users: u32) -> Vec<Arc<Vec<ItemId>>> {
    let reference = ServingEngine::new(bundle, EngineConfig::default());
    (0..users)
        .map(|u| reference.recommend(UserId(u)).unwrap())
        .collect()
}

/// A recommend answer, decoded by the product's own decoder.
fn parse_recommend(resp: &Response) -> (u64, Vec<ItemId>) {
    let answer = wire::answer_json(resp).unwrap();
    let (items, generation) = wire::recommend_answer_from(&answer).unwrap();
    (generation, items.to_vec())
}

/// Readers over HTTP while an HTTP-triggered refit loop swaps: every
/// single response and every batch attributes to exactly one generation.
#[test]
fn http_swap_stress_has_no_torn_reads() {
    let (_, bundle) = fixture();
    let n_users = bundle.n_users();
    let ingest_users: Vec<u32> = (n_users - 3..n_users).collect();
    let reader_users: Vec<u32> = (0..n_users - 3).collect();

    let engine = Arc::new(ShardedEngine::new(bundle.clone(), ShardConfig::quantile(3)));
    let hook = RefitHook {
        fitter: psvd_fitter(),
        cfg: fit_cfg(),
        cadence: None,
    };
    let server = HttpServer::bind(
        Frontend::Sharded(Arc::clone(&engine)),
        Some(hook),
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = server.local_addr().to_string();

    type GenerationLists = HashMap<u64, Vec<Arc<Vec<ItemId>>>>;
    let expected: Arc<Mutex<GenerationLists>> = Arc::new(Mutex::new(HashMap::new()));
    expected
        .lock()
        .unwrap()
        .insert(0, expected_lists(bundle, n_users));
    let stop = Arc::new(AtomicBool::new(false));
    // Refits are milliseconds while HTTP readers are setting up; pacing the
    // swapper on observed reader traffic keeps every generation actually
    // exercised under load instead of swapped away unseen.
    let sampled = Arc::new(std::sync::atomic::AtomicU64::new(0));

    std::thread::scope(|scope| {
        // Swapper: ingest over HTTP, POST /admin/refit, record the new
        // generation's expected lists from the installed baseline bundle.
        {
            let engine = Arc::clone(&engine);
            let expected = Arc::clone(&expected);
            let stop = Arc::clone(&stop);
            let sampled = Arc::clone(&sampled);
            let addr = addr.clone();
            let ingest_users = ingest_users.clone();
            scope.spawn(move || {
                let mut client = HttpClient::new(addr);
                for round in 0..6u32 {
                    // Wait for ~20 fresh reader samples on the current
                    // generation before swapping it out.
                    let floor = sampled.load(Ordering::Relaxed) + 20;
                    while sampled.load(Ordering::Relaxed) < floor {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                    for (k, &u) in ingest_users.iter().enumerate() {
                        let resp = client
                            .request("GET", &format!("/v1/recommend/{u}"), None)
                            .unwrap();
                        let (_, items) = parse_recommend(&resp);
                        let pick = items[(round as usize + k) % N];
                        let body = format!("{{\"user\":{u},\"item\":{},\"rating\":4.0}}", pick.0);
                        let resp = client.request("POST", "/v1/ingest", Some(&body)).unwrap();
                        assert_eq!(resp.status, 200, "ingest over HTTP");
                    }
                    let resp = client.request("POST", "/admin/refit", None).unwrap();
                    assert_eq!(resp.status, 200);
                    let v: Value =
                        tinyjson::from_str(std::str::from_utf8(&resp.body).unwrap()).unwrap();
                    assert_eq!(
                        v["outcome"].as_str(),
                        Some("swapped"),
                        "single swapper cannot race"
                    );
                    let generation = v["generation"].as_u64().unwrap();
                    // The installed baseline is exactly what the new
                    // generation serves; record its reference output.
                    let baseline = engine.baseline_bundle();
                    expected
                        .lock()
                        .unwrap()
                        .insert(generation, expected_lists((*baseline).clone(), n_users));
                }
                stop.store(true, Ordering::Relaxed);
            });
        }

        // HTTP readers: single requests + batches, verified post-churn.
        let mut readers = Vec::new();
        for t in 0..3usize {
            let stop = Arc::clone(&stop);
            let sampled = Arc::clone(&sampled);
            let addr = addr.clone();
            let reader_users = reader_users.clone();
            readers.push(scope.spawn(move || {
                let mut client = HttpClient::new(addr);
                let mut samples: Vec<(u32, u64, Vec<ItemId>)> = Vec::new();
                let mut batches: Vec<(u64, Vec<Arc<Vec<ItemId>>>)> = Vec::new();
                let batch_body = {
                    let ids: Vec<String> = reader_users.iter().map(|u| u.to_string()).collect();
                    format!("{{\"users\":[{}]}}", ids.join(","))
                };
                let mut k = t;
                while !stop.load(Ordering::Relaxed) {
                    let u = reader_users[k % reader_users.len()];
                    let resp = client
                        .request("GET", &format!("/v1/recommend/{u}"), None)
                        .unwrap();
                    assert_eq!(resp.status, 200);
                    let (generation, items) = parse_recommend(&resp);
                    samples.push((u, generation, items));
                    sampled.fetch_add(1, Ordering::Relaxed);
                    if k % 5 == 0 {
                        let resp = client
                            .request("POST", "/v1/recommend:batch", Some(&batch_body))
                            .unwrap();
                        assert_eq!(resp.status, 200);
                        let (slots, generation) = wire::batch_answer_from(
                            &wire::answer_json(&resp).unwrap(),
                            reader_users.len(),
                        )
                        .unwrap();
                        let lists: Vec<_> = slots.into_iter().map(Result::unwrap).collect();
                        batches.push((generation, lists));
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
            for (u, generation, items) in samples {
                seen_generations.insert(generation);
                let gen_lists = expected
                    .get(&generation)
                    .unwrap_or_else(|| panic!("response from unknown generation {generation}"));
                assert_eq!(
                    items, *gen_lists[u as usize],
                    "torn read over HTTP: user {u} matches no single generation {generation}"
                );
            }
            for (generation, lists) in batches {
                let gen_lists = expected
                    .get(&generation)
                    .unwrap_or_else(|| panic!("batch from unknown generation {generation}"));
                for (&u, items) in reader_users.iter().zip(lists) {
                    assert_eq!(
                        items, gen_lists[u as usize],
                        "mixed-generation HTTP batch: user {u} diverges from {generation}"
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
    assert_eq!(engine.generation(), 6);
}

/// Ingests fired over HTTP while refits race are never lost: after the
/// churn quiesces, the served state equals a from-scratch fit of
/// base train + every interaction ever POSTed.
#[test]
fn http_ingests_survive_swaps_and_match_from_scratch_fit() {
    let (train, bundle) = fixture();
    let n_users = bundle.n_users();
    let engine = Arc::new(ShardedEngine::new(bundle, ShardConfig::quantile(2)));
    let fitter = psvd_fitter();
    let hook = RefitHook {
        fitter: Arc::clone(&fitter),
        cfg: fit_cfg(),
        cadence: None,
    };
    let server = HttpServer::bind(
        Frontend::Sharded(Arc::clone(&engine)),
        Some(hook),
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = server.local_addr().to_string();

    let sent: Vec<(UserId, ItemId, f32)> = std::thread::scope(|scope| {
        let refitting = {
            let addr = addr.clone();
            scope.spawn(move || {
                let mut client = HttpClient::new(addr);
                for _ in 0..5 {
                    let resp = client.request("POST", "/admin/refit", None).unwrap();
                    assert_eq!(resp.status, 200);
                }
            })
        };
        let ingester = {
            let addr = addr.clone();
            scope.spawn(move || {
                let mut client = HttpClient::new(addr);
                let mut sent = Vec::new();
                for k in 0..30u32 {
                    let user = k % n_users;
                    let resp = client
                        .request("GET", &format!("/v1/recommend/{user}"), None)
                        .unwrap();
                    let (_, items) = parse_recommend(&resp);
                    let item = items[k as usize % N];
                    let rating = 3.0 + (k % 3) as f32;
                    let body = format!(
                        "{{\"user\":{user},\"item\":{},\"rating\":{rating}}}",
                        item.0
                    );
                    let resp = client.request("POST", "/v1/ingest", Some(&body)).unwrap();
                    assert_eq!(resp.status, 200, "racing ingest must be accepted");
                    sent.push((UserId(user), item, rating));
                }
                sent
            })
        };
        refitting.join().expect("refitter panicked");
        ingester.join().expect("ingester panicked")
    });

    // Quiesce through the HTTP endpoint, consuming any log tail.
    let mut client = HttpClient::new(addr);
    let resp = client.request("POST", "/admin/refit", None).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(engine.pending_ingests(), 0);

    let accumulated = merge_interactions(&train, &sent);
    let (model, theta) = fitter(&accumulated);
    let reference = ServingEngine::new(
        ModelBundle::fit(model, theta, accumulated, &fit_cfg()),
        EngineConfig::default(),
    );
    for u in 0..n_users {
        let resp = client
            .request("GET", &format!("/v1/recommend/{u}"), None)
            .unwrap();
        let (_, items) = parse_recommend(&resp);
        assert_eq!(
            items,
            *reference.recommend(UserId(u)).unwrap(),
            "user {u} diverges from the from-scratch fit on everything POSTed"
        );
    }
}

/// The event loop answers cached recommends itself, so the cache it probes
/// must never outlive the state it was computed from: the first request
/// after an ingest for that user, and after a refit swap, is a miss a
/// worker computes on the new state — never a stale list answered inline —
/// and only the request after *that* is an inline hit again.
#[test]
fn ingest_and_swap_are_followed_by_a_worker_miss_never_a_stale_inline_hit() {
    let (_, bundle) = fixture();
    let engine = Arc::new(ShardedEngine::new(bundle, ShardConfig::quantile(3)));
    let hub = ObsHub::new();
    let server = HttpServer::bind(
        Frontend::Sharded(Arc::clone(&engine)),
        Some(RefitHook {
            fitter: psvd_fitter(),
            cfg: fit_cfg(),
            cadence: None,
        }),
        ServerConfig {
            obs: Some(Arc::clone(&hub)),
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let mut client = HttpClient::new(server.local_addr().to_string());
    // (inline answers, engine misses across bands): both are counted
    // before the response they belong to is written.
    let counts = || {
        let text = hub.metrics.render();
        let sum = |family: &str, label: &str| -> f64 {
            text.lines()
                .filter(|l| l.starts_with(family) && l.contains(label))
                .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
                .sum()
        };
        (
            sum("ganc_http_inline_total", ""),
            sum("ganc_engine_requests_total", "result=\"miss\""),
        )
    };
    let u = 4u32;
    let mut ask = || {
        let resp = client
            .request("GET", &format!("/v1/recommend/{u}"), None)
            .unwrap();
        assert_eq!(resp.status, 200);
        parse_recommend(&resp)
    };

    let (g0, computed) = ask();
    assert_eq!((g0, counts()), (0, (0.0, 1.0)), "first ask computes");
    assert_eq!(ask(), (0, computed.clone()));
    assert_eq!(counts(), (1.0, 1.0), "second ask is the inline hit");

    // Ingest: the consumed item must be gone from the very next answer,
    // which therefore cannot have come from the loop's cache probe.
    let consumed = computed[0];
    let body = format!("{{\"user\":{u},\"item\":{},\"rating\":5.0}}", consumed.0);
    let mut writer = HttpClient::new(server.local_addr().to_string());
    assert_eq!(
        writer
            .request("POST", "/v1/ingest", Some(&body))
            .unwrap()
            .status,
        200
    );
    let (g, after_ingest) = ask();
    assert_eq!(counts(), (1.0, 2.0), "post-ingest ask is a worker's miss");
    assert_eq!(g, 0);
    assert!(
        !after_ingest.contains(&consumed),
        "stale list after ingest: {consumed:?} still recommended"
    );
    assert_eq!(ask(), (0, after_ingest));
    assert_eq!(counts(), (2.0, 2.0), "then it is cached again");

    // Refit swap: new shard set, empty caches, next generation.
    let resp = writer.request("POST", "/admin/refit", None).unwrap();
    assert_eq!(resp.status, 200);
    let expected = expected_lists((*engine.baseline_bundle()).clone(), u + 1);
    let (g, after_swap) = ask();
    assert_eq!(counts(), (2.0, 3.0), "post-swap ask is a worker's miss");
    assert_eq!(g, 1, "answered from the new generation");
    assert_eq!(after_swap, *expected[u as usize]);
    assert_eq!(ask(), (1, after_swap));
    assert_eq!(counts(), (3.0, 3.0));
}

/// The refit endpoint without a configured hook (or on a single-engine
/// front) refuses cleanly instead of crashing or half-swapping.
#[test]
fn refit_endpoint_requires_hook_and_sharded_front() {
    let (_, bundle) = fixture();
    // Sharded front, no hook.
    let engine = Arc::new(ShardedEngine::new(bundle.clone(), ShardConfig::quantile(2)));
    let server = HttpServer::bind(
        Frontend::Sharded(engine),
        None,
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .unwrap();
    let mut client = HttpClient::new(server.local_addr().to_string());
    let resp = client.request("POST", "/admin/refit", None).unwrap();
    assert_eq!(resp.status, 400);

    // Single front, hook present: still refused (no ingest log to refit
    // from), and the engine's generation must not move.
    let single = Arc::new(ServingEngine::new(bundle, EngineConfig::default()));
    let server = HttpServer::bind(
        Frontend::Single(Arc::clone(&single)),
        Some(RefitHook {
            fitter: psvd_fitter(),
            cfg: fit_cfg(),
            cadence: None,
        }),
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .unwrap();
    let mut client = HttpClient::new(server.local_addr().to_string());
    let resp = client.request("POST", "/admin/refit", None).unwrap();
    assert_eq!(resp.status, 400);
    assert_eq!(single.generation(), 0);
}
