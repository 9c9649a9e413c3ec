//! Socket-level equivalence: responses served over HTTP must be
//! *byte-identical* to what the in-process engines produce — across every
//! base model, Stat/Dyn coverage, sharded and unsharded fronts, generation
//! tags included. The deployment oracle (`tests/deployment_oracle.rs`)
//! checks every answer of its HTTP front against bodies it builds by hand
//! from the in-process answer, so the wire format itself is pinned, and
//! routes bands to `Frontend::Single` nodes loaded from per-band artifact
//! files; the first five tests here are pinned draws of it. The rest pin
//! what only a server shows: inline cache answers, `?n=` and `/v1/stats`.

mod oracle;

use ganc::core::coverage::CoverageKind;
use ganc::core::query::{cut_theta_bands, shard_of};
use ganc::dataset::synth::DatasetProfile;
use ganc::dataset::{Interactions, ItemId, UserId};
use ganc::http::{
    Frontend, HttpClient, HttpServer, PeerTransport, RouterNode, ServerConfig, ShardRoute,
};
use ganc::obs::ObsHub;
use ganc::preference::generalized::GeneralizedConfig;
use ganc::recommender::pop::MostPopular;
use ganc::serve::{
    EngineConfig, FitConfig, FittedModel, ModelBundle, ServingEngine, ShardConfig, ShardedEngine,
};
use oracle::*;
use std::sync::Arc;

const N: usize = 5;

fn fixture() -> (Interactions, Vec<f64>) {
    let data = DatasetProfile::tiny().generate(97);
    let split = data.split_per_user(0.5, 3).unwrap();
    let theta = GeneralizedConfig::default().estimate(&split.train);
    (split.train, theta)
}

fn bundle_for(model: FittedModel, kind: CoverageKind) -> ModelBundle {
    let (train, theta) = fixture();
    let cfg = FitConfig {
        coverage: kind,
        sample_size: 12,
        ..FitConfig::new(N)
    };
    ModelBundle::fit(model, theta, train, &cfg)
}

fn serve(frontend: Frontend) -> (HttpServer, HttpClient) {
    let server = HttpServer::bind(frontend, None, ServerConfig::default(), "127.0.0.1:0")
        .expect("ephemeral bind");
    let client = HttpClient::new(server.local_addr().to_string());
    (server, client)
}

/// The exact wire body `GET /v1/recommend/{user}` must produce for a traced
/// in-process response.
fn expected_recommend_body(user: u32, generation: u64, items: &[ItemId]) -> String {
    let items: Vec<String> = items.iter().map(|i| i.0.to_string()).collect();
    format!(
        "{{\"user\":{user},\"generation\":{generation},\"items\":[{}]}}",
        items.join(",")
    )
}

/// `steps(setup)` for every base model × Stat/Dyn on the tiny fixture.
fn every_model_and_coverage(steps: impl Fn(&Setup) -> Vec<Step>) {
    for coverage in [Static, Dynamic] {
        for base in Base::ALL {
            let setup = fixture_setup(base, coverage);
            check(setup, steps(&setup));
        }
    }
}

fn fixture_setup(base: Base, coverage: CoverageKind) -> Setup {
    Setup::of(Tiny(97), base, coverage, Normalized)
}

/// All 4 base models × Stat/Dyn: every user's HTTP body equals the
/// in-process answer, generation tag included.
#[test]
fn http_matches_in_process_for_every_model_and_coverage() {
    every_model_and_coverage(every_user);
}

/// The same through a batch straddling every band of the sharded front.
#[test]
fn http_matches_in_process_sharded() {
    every_model_and_coverage(|setup| vec![one_batch(setup)]);
}

/// The batch endpoint: one generation for the whole batch, slots in
/// request order, unknown users reported in-slot.
#[test]
fn http_batch_matches_in_process_and_reports_one_generation() {
    let setup = fixture_setup(Pop, Dynamic);
    let n = setup.data.dims().0;
    check(
        setup,
        vec![Batch(vec![2, n + 7, 0, 2, n], Plain), one_batch(&setup)],
    );
}

/// Generation tags over HTTP follow a refit: every front bumps the
/// generation, and the bodies are the new generation's output.
#[test]
fn generation_tags_follow_hot_swap_over_http() {
    let setup = fixture_setup(Pop, Static);
    let steps = vec![
        Get(0, Plain),
        Ingest(Some(1), 0, 5, 5),
        Refit,
        Get(0, Plain),
        one_batch(&setup),
        Refit,
        Get(0, Plain),
    ];
    check(setup, steps);
}

/// **Acceptance criterion**: nodes load their band's persisted
/// `bundle.shardK.ganc` slice and serve it over HTTP; a router over them
/// answers byte-identically to a single-process `ShardedEngine` — for
/// every user, every band, and batches that straddle the remote hops.
#[test]
fn two_node_remote_shard_deployment_matches_single_process() {
    let setup = fixture_setup(Pop, Dynamic);
    let mut steps = every_user(&setup);
    steps.push(one_batch(&setup));
    check(setup, steps);
}

/// `?n=` serves a prefix of the bundle's top-N without recomputing.
#[test]
fn recommend_n_param_truncates_to_prefix() {
    let engine = Arc::new(ServingEngine::new(
        bundle_for(
            FittedModel::Pop(MostPopular::fit(&fixture().0)),
            CoverageKind::Dynamic,
        ),
        EngineConfig::default(),
    ));
    let (_server, mut client) = serve(Frontend::Single(Arc::clone(&engine)));
    let (full, generation) = engine.recommend_traced(UserId(2)).unwrap();
    for n in [0usize, 1, 3, N, N + 9] {
        let resp = client
            .request("GET", &format!("/v1/recommend/2?n={n}"), None)
            .unwrap();
        assert_eq!(resp.status, 200);
        let shown = n.min(full.len());
        assert_eq!(
            String::from_utf8(resp.body).unwrap(),
            expected_recommend_body(2, generation, &full[..shown]),
            "n={n}"
        );
    }
}

/// Sum of every rendered sample of `family` whose label set contains
/// `labels` (bands report under their own series; the sum is the front's).
fn metric(hub: &ObsHub, family: &str, labels: &str) -> f64 {
    hub.metrics
        .render()
        .lines()
        .filter(|l| match l.strip_prefix(family) {
            Some(rest) => (rest.starts_with('{') || rest.starts_with(' ')) && l.contains(labels),
            None => false,
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

/// A cached default-options recommend is answered on the event-loop thread
/// (`ganc_http_inline_total`), and nothing but that counter can tell: the
/// bytes equal the worker-answered first response, and the engine, stage
/// and request counters read what the same sequence read when every
/// request went through a worker — one miss per user, then hits; a probe
/// never counts a miss. Overrides, unknown users and bands behind a peer
/// transport are never probed into an inline answer.
#[test]
fn cached_recommends_are_answered_inline_with_identical_bytes_and_counters() {
    let bundle = bundle_for(
        FittedModel::Pop(MostPopular::fit(&fixture().0)),
        CoverageKind::Dynamic,
    );
    // Users a, b on band 0 of a two-band cut and c on band 1: the router
    // front below serves band 0 from a local slice and band 1 through a
    // peer transport, so c is the user a router must never answer inline.
    let cuts = cut_theta_bands(&bundle.theta, 2);
    let band = |u: &u32| shard_of(&cuts, bundle.theta[*u as usize]);
    let on_band0: Vec<u32> = (0..bundle.n_users()).filter(|u| band(u) == 0).collect();
    let (a, b) = (on_band0[0], on_band0[1]);
    let c = (0..bundle.n_users()).find(|u| band(u) == 1).unwrap();

    let single = Frontend::Single(Arc::new(ServingEngine::new(
        bundle.clone(),
        EngineConfig::default(),
    )));
    let sharded = Frontend::Sharded(Arc::new(ShardedEngine::new(
        bundle.clone(),
        ShardConfig::quantile(2),
    )));
    let slice = |lo, hi| {
        Arc::new(ServingEngine::new(
            bundle.slice_theta_band(lo, hi),
            EngineConfig::default(),
        ))
    };
    let peer: Arc<dyn PeerTransport> = slice(cuts[0], f64::INFINITY);
    let router = Frontend::Router(Arc::new(RouterNode::new(
        Arc::clone(&bundle.theta),
        cuts.clone(),
        vec![
            ShardRoute::Local(slice(f64::NEG_INFINITY, cuts[0])),
            ShardRoute::Remote(peer),
        ],
    )));

    // (front, is c's band probed in place?) — c's second request is an
    // inline hit everywhere but behind the router's peer transport, whose
    // engine also reports to no hub of this server.
    for (label, frontend, c_is_local) in [
        ("single", single, true),
        ("sharded", sharded, true),
        ("router", router, false),
    ] {
        let hub = ObsHub::new();
        let cfg = ServerConfig {
            obs: Some(Arc::clone(&hub)),
            ..ServerConfig::default()
        };
        let server = HttpServer::bind(frontend, None, cfg, "127.0.0.1:0").unwrap();
        let mut client = HttpClient::new(server.local_addr().to_string());
        let inline = || metric(&hub, "ganc_http_inline_total", "");
        let mut get = |path: String, status: u16| {
            let resp = client.request("GET", &path, None).unwrap();
            assert_eq!(resp.status, status, "{label}: {path}");
            resp.body
        };

        // First ask: a miss, computed on a worker. Second: the LRU hit,
        // answered inline — byte for byte the same response.
        let first = get(format!("/v1/recommend/{a}"), 200);
        assert_eq!(inline(), 0.0, "{label}: a miss is a worker's");
        assert_eq!(get(format!("/v1/recommend/{a}"), 200), first, "{label}");
        assert_eq!(inline(), 1.0, "{label}: the hit is answered inline");
        // `?n=` only truncates: it qualifies, and truncates the same way.
        let first = get(format!("/v1/recommend/{b}?n=3"), 200);
        assert_eq!(inline(), 1.0, "{label}");
        assert_eq!(get(format!("/v1/recommend/{b}?n=3"), 200), first, "{label}");
        assert_eq!(inline(), 2.0, "{label}: ?n= qualifies");
        // An override never reads the cache, so it is never probed; an
        // unknown user is the worker's 404 to write.
        get(format!("/v1/recommend/{a}?exclude=1"), 200);
        get("/v1/recommend/999999".to_string(), 404);
        assert_eq!(inline(), 2.0, "{label}: override / unknown user");
        // Band 1: local to the single and sharded fronts, a peer hop for
        // the router.
        let first = get(format!("/v1/recommend/{c}"), 200);
        assert_eq!(get(format!("/v1/recommend/{c}"), 200), first, "{label}");
        let c_hits = if c_is_local { 1.0 } else { 0.0 };
        assert_eq!(inline(), 2.0 + c_hits, "{label}: band 1");

        // A response is accounted after it is written: joining the
        // server's threads orders every count before the reads below.
        drop(server);
        // What the same eight requests counted before any was answered
        // inline: a, b, the override (and c where its engine reports here)
        // computed once each; the repeats of a, b (and c) hit.
        let engine = |result: &str| {
            metric(
                &hub,
                "ganc_engine_requests_total",
                &format!("result=\"{result}\""),
            )
        };
        assert_eq!(engine("miss"), 3.0 + c_hits, "{label}: engine misses");
        assert_eq!(engine("hit"), 2.0 + c_hits, "{label}: engine hits");
        let answered = |status: &str| {
            metric(
                &hub,
                "ganc_http_requests_total",
                &format!("endpoint=\"recommend\",status=\"{status}\""),
            )
        };
        assert_eq!(answered("200"), 7.0, "{label}");
        assert_eq!(answered("404"), 1.0, "{label}");
        for stage in ["parse", "dispatch", "write"] {
            assert_eq!(
                metric(
                    &hub,
                    "ganc_http_stage_us_count",
                    &format!("stage=\"{stage}\"")
                ),
                8.0,
                "{label}: every answer observes stage {stage} once"
            );
        }
    }
}

/// Stats expose generation, cache hit rate, and the shard map.
#[test]
fn stats_report_cache_and_shard_map() {
    let engine = Arc::new(ShardedEngine::new(
        bundle_for(
            FittedModel::Pop(MostPopular::fit(&fixture().0)),
            CoverageKind::Dynamic,
        ),
        ShardConfig::quantile(3),
    ));
    let (_server, mut client) = serve(Frontend::Sharded(Arc::clone(&engine)));
    client.request("GET", "/v1/recommend/1", None).unwrap();
    client.request("GET", "/v1/recommend/1", None).unwrap();
    let resp = client.request("GET", "/v1/stats", None).unwrap();
    assert_eq!(resp.status, 200);
    let v = tinyjson::from_str(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    assert_eq!(v["backend"].as_str(), Some("sharded"));
    assert_eq!(v["generation"].as_u64(), Some(0));
    assert_eq!(v["cache"]["hits"].as_u64(), Some(1));
    assert_eq!(v["cache"]["misses"].as_u64(), Some(1));
    assert_eq!(v["cache"]["hit_rate"].as_f64(), Some(0.5));
    let shards = v["shards"].as_array().unwrap();
    assert_eq!(shards.len(), 3);
    let info = engine.shard_info();
    for (j, (shard, expect)) in shards.iter().zip(&info).enumerate() {
        assert_eq!(
            shard["users"].as_u64(),
            Some(expect.users as u64),
            "shard {j}"
        );
        assert_eq!(shard["snapshots"].as_u64(), Some(expect.snapshots as u64));
    }
    // ±∞ band edges encode as null.
    assert!(shards[0]["theta_lo"].is_null());
    assert!(shards[2]["theta_hi"].is_null());
}
