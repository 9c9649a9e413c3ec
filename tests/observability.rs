//! The PR 6 observability layer, locked down end to end: histogram
//! accounting and Prometheus exposition round-trips (property-tested),
//! rolling beyond-accuracy windows proven against a from-scratch oracle
//! under a `ManualClock` (exact boundary expiry included), and the HTTP
//! surface — `/v1/metrics`, `/v1/trace`, the expanded `/v1/stats`, and
//! `/v1/healthz` with a live background adaptive-refit controller.

use ganc::core::coverage::CoverageKind;
use ganc::core::query::{band_bounds, cut_theta_bands, shard_of};
use ganc::dataset::synth::DatasetProfile;
use ganc::dataset::{Interactions, ItemId, UserId};
use ganc::http::testing::{FlakyPeer, GatedPeer};
use ganc::http::{
    CoalescedShard, Frontend, HttpClient, HttpServer, PeerTransport, RefitHook, RemoteShard,
    ReplicaConfig, ReplicaSet, RouterNode, ServerConfig, ShardRoute,
};
use ganc::obs::{
    bucket_bounds_us, CatalogProfile, Clock, ManualClock, MetricsRegistry, ObsHub, RollingWindow,
};
use ganc::preference::generalized::GeneralizedConfig;
use ganc::recommender::psvd::Psvd;
use ganc::serve::refit::Refitter;
use ganc::serve::{
    BatchConfig, CadenceConfig, DurableConfig, EngineConfig, FitConfig, FittedModel, ModelBundle,
    ServingEngine, ShardConfig, ShardedEngine,
};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;
use tinyjson::Value;

const N: usize = 5;

fn fit_cfg() -> FitConfig {
    FitConfig {
        coverage: CoverageKind::Dynamic,
        sample_size: 12,
        ..FitConfig::new(N)
    }
}

fn fitter() -> Arc<Refitter> {
    Arc::new(|train: &Interactions| {
        (
            FittedModel::Psvd(Psvd::train(train, 8, 3)),
            GeneralizedConfig::default().estimate(train),
        )
    })
}

fn fixture_bundle(seed: u64) -> ModelBundle {
    let data = DatasetProfile::tiny().generate(seed);
    let split = data.split_per_user(0.5, 3).unwrap();
    let (model, theta) = fitter()(&split.train);
    ModelBundle::fit(model, theta, split.train, &fit_cfg())
}

fn manual_hub() -> (Arc<ManualClock>, Arc<ObsHub>) {
    let clock = Arc::new(ManualClock::new());
    let hub = ObsHub::with_clock(Arc::clone(&clock) as Arc<dyn Clock>);
    (clock, hub)
}

fn get_json(client: &mut HttpClient, path: &str) -> Value {
    let resp = client.request("GET", path, None).unwrap();
    assert_eq!(resp.status, 200, "{path}");
    tinyjson::from_str(std::str::from_utf8(&resp.body).unwrap()).unwrap()
}

// ---------------------------------------------------------------- metrics

proptest! {
    /// Every observation lands in exactly one bucket: per-bucket counts sum
    /// to the observation count, and the +Inf bucket exists so the
    /// cumulative rendering always converges to `_count`.
    #[test]
    fn histogram_buckets_sum_to_observation_count(
        values in proptest::collection::vec(0u64..50_000_000, 1..200),
    ) {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("t_sum_us", "bucket accounting", &[]);
        let mut sum = 0u64;
        for &v in &values {
            h.observe_us(v);
            sum += v;
        }
        let counts = h.bucket_counts();
        prop_assert_eq!(counts.iter().sum::<u64>(), values.len() as u64);
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.sum_us(), sum);
        // Each value must sit in the first bucket whose bound holds it.
        let bounds = bucket_bounds_us();
        for &v in &values {
            let j = bounds.iter().position(|&b| v <= b).unwrap_or(bounds.len());
            prop_assert!(counts[j] > 0, "value {} missing from bucket {}", v, j);
        }
    }
}

/// A minimal Prometheus text parser: `name{labels} value` / `name value`
/// sample lines plus `# HELP` / `# TYPE` comments. Returns (name, labels,
/// value) triples.
fn parse_prometheus(text: &str) -> Vec<(String, String, f64)> {
    let mut samples = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let kind = parts.next().unwrap();
            assert!(
                kind == "HELP" || kind == "TYPE",
                "unknown comment kind in {line:?}"
            );
            assert!(parts.next().is_some(), "comment names a metric: {line:?}");
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample has a value");
        let value: f64 = value.parse().unwrap_or_else(|_| {
            if value == "+Inf" {
                f64::INFINITY
            } else {
                panic!("unparseable sample value {value:?} in {line:?}")
            }
        });
        let (name, labels) = match series.split_once('{') {
            Some((name, rest)) => {
                assert!(rest.ends_with('}'), "unterminated label set in {line:?}");
                (name.to_string(), rest[..rest.len() - 1].to_string())
            }
            None => (series.to_string(), String::new()),
        };
        assert!(
            name.chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_'),
            "invalid metric name {name:?}"
        );
        samples.push((name, labels, value));
    }
    samples
}

proptest! {
    /// The registry's Prometheus rendering is parseable, deterministic, and
    /// faithful: counter/gauge values survive the round-trip, histogram
    /// `_bucket` series are cumulative and monotonically non-decreasing in
    /// `le` order, and the +Inf bucket equals `_count`.
    #[test]
    fn prometheus_render_round_trips(
        counts in proptest::collection::vec(0u64..10_000, 1..5),
        gauge_value in -1.0e6..1.0e6f64,
        observations in proptest::collection::vec(0u64..100_000_000, 0..100),
    ) {
        let registry = MetricsRegistry::new();
        for (j, &c) in counts.iter().enumerate() {
            let band = j.to_string();
            registry
                .counter("t_requests_total", "test counter", &[("band", &band)])
                .add(c);
        }
        registry.gauge("t_gauge", "test gauge", &[]).set(gauge_value);
        let h = registry.histogram("t_lat_us", "test histogram", &[("stage", "x")]);
        for &v in &observations {
            h.observe_us(v);
        }

        let text = registry.render();
        prop_assert_eq!(&text, &registry.render(), "rendering must be deterministic");
        let samples = parse_prometheus(&text);

        for (j, &c) in counts.iter().enumerate() {
            let labels = format!("band=\"{j}\"");
            let got = samples
                .iter()
                .find(|(n, l, _)| n == "t_requests_total" && *l == labels)
                .map(|&(_, _, v)| v);
            prop_assert_eq!(got, Some(c as f64));
        }
        let gauge = samples.iter().find(|(n, _, _)| n == "t_gauge").unwrap().2;
        prop_assert!((gauge - gauge_value).abs() <= 1e-6 * gauge_value.abs().max(1.0));

        let buckets: Vec<f64> = samples
            .iter()
            .filter(|(n, _, _)| n == "t_lat_us_bucket")
            .map(|&(_, _, v)| v)
            .collect();
        prop_assert!(
            buckets.windows(2).all(|w| w[0] <= w[1]),
            "cumulative buckets must be non-decreasing: {:?}",
            buckets
        );
        let count = samples.iter().find(|(n, _, _)| n == "t_lat_us_count").unwrap().2;
        prop_assert_eq!(*buckets.last().unwrap(), count);
        prop_assert_eq!(count, observations.len() as f64);
        let sum = samples.iter().find(|(n, _, _)| n == "t_lat_us_sum").unwrap().2;
        prop_assert_eq!(sum, observations.iter().sum::<u64>() as f64);
    }
}

// ---------------------------------------------------------------- windows

/// An entry observed at `t` with window `w` serves stats for every query
/// in `[t, t+w)` and is gone at exactly `t + w` — not an instant later.
#[test]
fn rolling_window_expires_exactly_at_boundary() {
    let catalog = CatalogProfile::new(vec![1_000_000; 4], vec![false; 4]);
    let mut window = RollingWindow::new(Duration::from_micros(100), 4);
    window.observe(0, vec![0, 1], &catalog);
    window.observe(40, vec![2], &catalog);
    assert_eq!(window.stats(0).lists, 2);
    assert_eq!(window.stats(99).lists, 2, "one tick before expiry");
    let at_100 = window.stats(100);
    assert_eq!(at_100.lists, 1, "entry at t=0 expires exactly at t=100");
    assert_eq!(at_100.coverage, 0.25, "only item 2 remains");
    assert_eq!(window.stats(139).lists, 1);
    assert_eq!(window.stats(140).lists, 0, "entry at t=40 expires at t=140");
}

/// From-scratch oracle for one window state: recompute coverage, mean
/// novelty, and long-tail share over exactly the live lists.
fn oracle_stats(live: &[&Vec<u32>], catalog: &CatalogProfile) -> (f64, f64, f64, u64) {
    let mut distinct = BTreeSet::new();
    let mut items = 0u64;
    let mut novelty_sum = 0.0f64;
    let mut tail_hits = 0u64;
    for list in live {
        for &i in *list {
            distinct.insert(i);
            items += 1;
            novelty_sum += catalog.novelty_microbits(i) as f64 / 1e6;
            if catalog.is_tail(i) {
                tail_hits += 1;
            }
        }
    }
    let coverage = distinct.len() as f64 / catalog.n_items() as f64;
    let novelty = if items == 0 {
        0.0
    } else {
        novelty_sum / items as f64
    };
    let tail = if items == 0 {
        0.0
    } else {
        tail_hits as f64 / items as f64
    };
    (coverage, novelty, tail, items)
}

proptest! {
    /// The O(1)-amortized incremental window equals a from-scratch
    /// recompute over the live entries, for arbitrary lists, arrival
    /// times, and query times — and the novelty convention matches the
    /// paper-metric formula (`-log2 p`, `p` floored at `1/(|U|+1)` for
    /// unseen items) used by `ganc::metrics`.
    #[test]
    fn rolling_window_matches_from_scratch_oracle(
        popularity in proptest::collection::vec(0u32..50, 8..20),
        lists in proptest::collection::vec(
            proptest::collection::vec(0u32..8, 1..6),
            1..30,
        ),
        gaps in proptest::collection::vec(0u64..40, 1..30),
        query_offset in 0u64..120,
        window_us in 1u64..100,
    ) {
        let n_users = 100u32;
        let n_items = popularity.len();
        let tail: Vec<bool> = (0..n_items).map(|i| i % 3 == 0).collect();
        let catalog = CatalogProfile::from_popularity(&popularity, n_users, tail);

        // Cross-check the frozen novelty attribution against the metric
        // formula the paper's tables use.
        for (i, &f) in popularity.iter().enumerate() {
            let p = if f == 0 {
                1.0 / (n_users as f64 + 1.0)
            } else {
                f as f64 / n_users as f64
            };
            let expect = (-p.log2() * 1e6).round() as u64;
            prop_assert_eq!(catalog.novelty_microbits(i as u32), expect);
        }

        let mut window = RollingWindow::new(Duration::from_micros(window_us), n_items);
        let mut at = 0u64;
        let mut arrivals: Vec<(u64, Vec<u32>)> = Vec::new();
        for (list, &gap) in lists.iter().zip(gaps.iter().cycle()) {
            at += gap;
            // Clamp list entries so they only reference catalog items.
            let list: Vec<u32> = list.iter().map(|&i| i % n_items as u32).collect();
            window.observe(at, list.clone(), &catalog);
            arrivals.push((at, list));
        }
        let now = at + query_offset;
        let live: Vec<&Vec<u32>> = arrivals
            .iter()
            .filter(|(t, _)| t + window_us > now)
            .map(|(_, l)| l)
            .collect();
        let (coverage, novelty, tail_share, items) = oracle_stats(&live, &catalog);

        let got = window.stats(now);
        prop_assert_eq!(got.lists, live.len() as u64);
        prop_assert_eq!(got.items, items);
        prop_assert_eq!(got.coverage, coverage, "coverage is an exact rational");
        prop_assert!((got.mean_novelty_bits - novelty).abs() < 1e-9);
        prop_assert_eq!(got.long_tail_share, tail_share);
    }
}

/// Engine-level windows under an injected `ManualClock`: lists served now
/// are visible, and advancing the clock past the window expires them all —
/// deterministic, no sleeps.
#[test]
fn engine_window_stats_deterministic_under_manual_clock() {
    let bundle = fixture_bundle(21);
    let n_users = bundle.n_users();
    let engine = ServingEngine::new(bundle, EngineConfig::default());
    let (clock, hub) = manual_hub();
    engine.attach_obs(Arc::clone(&hub), None, Duration::from_micros(1_000));

    let mut union: BTreeSet<u32> = BTreeSet::new();
    for u in 0..n_users {
        let list = engine.recommend(UserId(u)).unwrap();
        union.extend(list.iter().map(|i| i.0));
    }
    let stats = engine.window_stats().expect("obs attached at bind");
    assert_eq!(stats.lists, n_users as u64);
    assert_eq!(stats.items, (n_users as usize * N) as u64);
    assert!(stats.coverage > 0.0);

    clock.advance(Duration::from_micros(999));
    assert_eq!(
        engine.window_stats().unwrap().lists,
        n_users as u64,
        "still inside the window"
    );
    clock.advance(Duration::from_micros(1));
    let expired = engine.window_stats().unwrap();
    assert_eq!(expired.lists, 0, "whole window expires at the boundary");
    assert_eq!(expired.coverage, 0.0);
}

/// The sharded aggregate is a true cross-band union — distinct items are
/// deduplicated across bands, not averaged — and per-band list counts sum.
#[test]
fn sharded_window_aggregate_matches_union_oracle() {
    let bundle = fixture_bundle(33);
    let n_users = bundle.n_users();
    let n_items = bundle.n_items() as usize;
    let engine = ShardedEngine::new(bundle, ShardConfig::quantile(3));
    let (_clock, hub) = manual_hub();
    engine.attach_obs(Arc::clone(&hub), Duration::from_secs(60));

    let mut union: BTreeSet<u32> = BTreeSet::new();
    for u in 0..n_users {
        let list = engine.recommend(UserId(u)).unwrap();
        union.extend(list.iter().map(|i| i.0));
    }
    let (bands, aggregate) = engine.window_stats();
    let aggregate = aggregate.expect("obs attached");
    let bands: Vec<_> = bands
        .into_iter()
        .map(|b| b.expect("obs attached"))
        .collect();
    assert_eq!(bands.len(), 3);
    assert_eq!(
        bands.iter().map(|b| b.lists).sum::<u64>(),
        n_users as u64,
        "every served list lands in exactly one band's window"
    );
    assert_eq!(aggregate.lists, n_users as u64);
    assert_eq!(
        aggregate.coverage,
        union.len() as f64 / n_items as f64,
        "aggregate coverage is the union, not a mean of band coverages"
    );
    for band in &bands {
        assert!(band.coverage <= aggregate.coverage + 1e-12);
    }
}

// ------------------------------------------------------------------ http

/// `/v1/metrics` answers valid Prometheus text exposition carrying the
/// engine, window, and HTTP stage families with per-band/per-stage labels.
#[test]
fn http_metrics_endpoint_serves_valid_prometheus() {
    let bundle = fixture_bundle(55);
    let n_users = bundle.n_users();
    let engine = Arc::new(ServingEngine::new(bundle, EngineConfig::default()));
    let server = HttpServer::bind(
        Frontend::Single(engine),
        None,
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .unwrap();
    let mut client = HttpClient::new(server.local_addr().to_string());

    for u in 0..n_users.min(8) {
        let resp = client
            .request("GET", &format!("/v1/recommend/{u}"), None)
            .unwrap();
        assert_eq!(resp.status, 200);
    }
    let resp = client.request("GET", "/v1/metrics", None).unwrap();
    assert_eq!(resp.status, 200);
    let text = String::from_utf8(resp.body).unwrap();
    let samples = parse_prometheus(&text);

    let served = samples
        .iter()
        .find(|(n, l, _)| {
            n == "ganc_engine_requests_total"
                && l.contains("band=\"all\"")
                && l.contains("result=\"miss\"")
        })
        .expect("engine request counter present")
        .2;
    assert_eq!(served, n_users.min(8) as f64);
    for family in [
        "ganc_engine_request_us_bucket",
        "ganc_http_stage_us_bucket",
        "ganc_http_requests_total",
        "ganc_window_coverage",
        "ganc_window_novelty_bits",
        "ganc_window_long_tail_share",
        "ganc_engine_generation",
    ] {
        assert!(
            samples.iter().any(|(n, _, _)| n == family),
            "family {family} missing from exposition"
        );
    }
    for stage in ["parse", "dispatch", "write"] {
        let label = format!("stage=\"{stage}\"");
        assert!(
            samples
                .iter()
                .any(|(n, l, _)| n == "ganc_http_stage_us_count" && l.contains(&label)),
            "stage {stage} missing"
        );
    }
}

/// `/v1/trace` drains the ring exactly once and records the full request +
/// refit lifecycle: http/request events for traffic, ingest events, and
/// `refit_started` → `refit_swapped` with generations for `/admin/refit`.
#[test]
fn http_trace_records_request_and_refit_lifecycle() {
    let bundle = fixture_bundle(77);
    let engine = Arc::new(ShardedEngine::new(bundle, ShardConfig::quantile(2)));
    let hook = RefitHook {
        fitter: fitter(),
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
    let mut client = HttpClient::new(server.local_addr().to_string());

    assert_eq!(
        client
            .request("GET", "/v1/recommend/0", None)
            .unwrap()
            .status,
        200
    );
    assert_eq!(
        client
            .request(
                "POST",
                "/v1/ingest",
                Some("{\"user\":1,\"item\":2,\"rating\":4.0}")
            )
            .unwrap()
            .status,
        200
    );
    assert_eq!(
        client.request("POST", "/admin/refit", None).unwrap().status,
        200
    );

    let trace = get_json(&mut client, "/v1/trace");
    assert_eq!(trace["dropped"].as_u64(), Some(0));
    let events = trace["events"].as_array().unwrap();
    let kinds: Vec<&str> = events.iter().map(|e| e["kind"].as_str().unwrap()).collect();
    for expected in [
        "http",
        "request",
        "ingest",
        "refit_started",
        "refit_swapped",
    ] {
        assert!(
            kinds.contains(&expected),
            "missing kind {expected}: {kinds:?}"
        );
    }
    let swapped = events
        .iter()
        .find(|e| e["kind"].as_str() == Some("refit_swapped"))
        .unwrap();
    assert_eq!(swapped["data"]["generation"].as_u64(), Some(1));
    let seqs: Vec<u64> = events.iter().map(|e| e["seq"].as_u64().unwrap()).collect();
    assert!(
        seqs.windows(2).all(|w| w[0] < w[1]),
        "seq strictly increases"
    );

    // Drained means drained: a second poll only holds what happened since
    // (the first poll's own http event), none of the refit lifecycle.
    let again = get_json(&mut client, "/v1/trace");
    let kinds: Vec<String> = again["events"]
        .as_array()
        .unwrap()
        .iter()
        .map(|e| e["kind"].as_str().unwrap().to_string())
        .collect();
    assert!(
        kinds.iter().all(|k| k == "http"),
        "second drain must not replay engine events: {kinds:?}"
    );
}

/// A sharded engine's bands report the generation they serve: after a
/// refit, the `request` event a band records and its
/// `ganc_engine_generation{band=…}` gauge both say 1, as the response does.
/// (Each refit used to build its band engines at generation 0.)
#[test]
fn sharded_band_events_and_gauges_carry_the_generation_after_a_refit() {
    let engine = Arc::new(ShardedEngine::new(
        fixture_bundle(61),
        ShardConfig::quantile(2),
    ));
    let hook = RefitHook {
        fitter: fitter(),
        cfg: fit_cfg(),
        cadence: None,
    };
    let server = HttpServer::bind(
        Frontend::Sharded(engine),
        Some(hook),
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .unwrap();
    let mut client = HttpClient::new(server.local_addr().to_string());
    let refit = client.request("POST", "/admin/refit", None).unwrap();
    assert_eq!(refit.status, 200);
    let answer = get_json(&mut client, "/v1/recommend/0");
    assert_eq!(answer["generation"].as_u64(), Some(1));

    let trace = get_json(&mut client, "/v1/trace");
    let events = trace["events"].as_array().unwrap();
    let swapped = events
        .iter()
        .position(|e| e["kind"].as_str() == Some("refit_swapped"))
        .expect("refit_swapped recorded");
    let request = events[swapped..]
        .iter()
        .find(|e| e["kind"].as_str() == Some("request"))
        .expect("the recommend after the refit is recorded");
    assert_eq!(request["data"]["generation"].as_u64(), Some(1));

    let resp = client.request("GET", "/v1/metrics", None).unwrap();
    let samples = parse_prometheus(std::str::from_utf8(&resp.body).unwrap());
    let gauge = samples
        .iter()
        .find(|(n, l, _)| n == "ganc_engine_generation" && l.contains("band=\"0\""))
        .expect("band 0 generation gauge")
        .2;
    assert_eq!(gauge, 1.0);
}

/// With `RefitHook::cadence` set, bind spawns the background adaptive
/// controller and `/v1/healthz` surfaces its liveness, refit count, and
/// the pending ingest volume feeding its trigger.
#[test]
fn healthz_reports_adaptive_controller_and_pending_ingests() {
    let bundle = fixture_bundle(91);
    let engine = Arc::new(ShardedEngine::new(bundle, ShardConfig::quantile(2)));
    let hook = RefitHook {
        fitter: fitter(),
        cfg: fit_cfg(),
        // A volume threshold no test traffic reaches: the controller must
        // stay alive and *not* refit, so the counters are deterministic.
        cadence: Some(CadenceConfig {
            volume_threshold: usize::MAX,
            min_interval: Duration::from_millis(1),
            max_interval: Duration::from_secs(3600),
        }),
    };
    let server = HttpServer::bind(
        Frontend::Sharded(Arc::clone(&engine)),
        Some(hook.clone()),
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .unwrap();
    let mut client = HttpClient::new(server.local_addr().to_string());

    for k in 0..3u32 {
        let body = format!("{{\"user\":{k},\"item\":1,\"rating\":3.0}}");
        assert_eq!(
            client
                .request("POST", "/v1/ingest", Some(&body))
                .unwrap()
                .status,
            200
        );
    }
    let health = get_json(&mut client, "/v1/healthz");
    assert_eq!(health["ok"].as_bool(), Some(true));
    assert_eq!(health["generation"].as_u64(), Some(0));
    assert_eq!(health["pending_ingests"].as_u64(), Some(3));
    assert_eq!(health["refit"]["alive"].as_bool(), Some(true));
    assert_eq!(health["refit"]["refits"].as_u64(), Some(0));

    // A cadence on a non-sharded front is a configuration error at bind.
    let single = Arc::new(ServingEngine::new(
        fixture_bundle(91),
        EngineConfig::default(),
    ));
    let err = match HttpServer::bind(
        Frontend::Single(single),
        Some(hook),
        ServerConfig::default(),
        "127.0.0.1:0",
    ) {
        Err(e) => e,
        Ok(_) => panic!("cadence on a single-engine front must be rejected"),
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
}

/// The `Frontend::Router` `/v1/stats` fix: every route reports its band
/// index, kind (local / coalesced), peer address, own generation, and the
/// coalescer's queue depth where one exists.
#[test]
fn router_stats_reports_per_band_kind_generation_and_pending() {
    let bundle = fixture_bundle(13);
    let cuts = cut_theta_bands(&bundle.theta, 2);
    let (lo0, hi0) = band_bounds(&cuts, 0);
    let (lo1, hi1) = band_bounds(&cuts, 1);
    let local = Arc::new(ServingEngine::new(
        bundle.slice_theta_band(lo0, hi0),
        EngineConfig::default(),
    ));
    let remote_engine = Arc::new(ServingEngine::new(
        bundle.slice_theta_band(lo1, hi1),
        EngineConfig::default(),
    ));
    let peer: Arc<dyn PeerTransport> = remote_engine;
    let coalesced = CoalescedShard::new(peer, BatchConfig::default());
    let router = Arc::new(RouterNode::new(
        Arc::clone(&bundle.theta),
        cuts,
        vec![
            ShardRoute::Local(local),
            ShardRoute::Remote(Arc::new(coalesced)),
        ],
    ));
    let server = HttpServer::bind(
        Frontend::Router(router),
        None,
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .unwrap();
    let mut client = HttpClient::new(server.local_addr().to_string());

    let stats = get_json(&mut client, "/v1/stats");
    assert_eq!(stats["backend"].as_str(), Some("router"));
    let shards = stats["shards"].as_array().unwrap();
    assert_eq!(shards.len(), 2);

    assert_eq!(shards[0]["band"].as_u64(), Some(0));
    assert_eq!(shards[0]["kind"].as_str(), Some("local"));
    assert!(shards[0]["addr"].is_null());
    assert_eq!(shards[0]["generation"].as_u64(), Some(0));
    assert!(shards[0]["pending"].is_null(), "local routes hold no queue");

    assert_eq!(shards[1]["band"].as_u64(), Some(1));
    assert_eq!(shards[1]["kind"].as_str(), Some("coalesced"));
    assert_eq!(shards[1]["addr"].as_str(), Some("in-process:single"));
    assert_eq!(shards[1]["generation"].as_u64(), Some(0));
    assert_eq!(shards[1]["pending"].as_u64(), Some(0));
}

/// The remote-band window fix: a router's `/v1/stats` used to report
/// windows only for local slices — remote bands (the common deployment)
/// silently vanished from the fold. Now the window rides the wire
/// (`GET /v1/window` against each shard node) and the router's aggregate
/// is the exact union across the deployment.
#[test]
fn router_stats_folds_remote_band_windows_over_the_wire() {
    let bundle = fixture_bundle(13);
    let cuts = cut_theta_bands(&bundle.theta, 2);
    let (lo0, hi0) = band_bounds(&cuts, 0);
    let (lo1, hi1) = band_bounds(&cuts, 1);
    let local = Arc::new(ServingEngine::new(
        bundle.slice_theta_band(lo0, hi0),
        EngineConfig::default(),
    ));
    // Band 1 runs behind a real shard server on its own hub: its window
    // can only reach the router over HTTP, not through shared memory.
    let shard_server = HttpServer::bind(
        Frontend::Single(Arc::new(ServingEngine::new(
            bundle.slice_theta_band(lo1, hi1),
            EngineConfig::default(),
        ))),
        None,
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .unwrap();
    let remote = RemoteShard::connect(shard_server.local_addr().to_string()).unwrap();
    let router = Arc::new(RouterNode::new(
        Arc::clone(&bundle.theta),
        cuts.clone(),
        vec![ShardRoute::Local(local), ShardRoute::remote(remote)],
    ));
    let server = HttpServer::bind(
        Frontend::Router(router),
        None,
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .unwrap();
    let mut client = HttpClient::new(server.local_addr().to_string());

    // One recommendation through each band, so both slices have live
    // window entries.
    let user_in = |band: usize| {
        (0..bundle.n_users())
            .map(UserId)
            .find(|u| shard_of(&cuts, bundle.theta[u.idx()]) == band)
            .unwrap()
    };
    for band in 0..2 {
        let path = format!("/v1/recommend/{}", user_in(band).0);
        assert_eq!(client.request("GET", &path, None).unwrap().status, 200);
    }

    let stats = get_json(&mut client, "/v1/stats");
    let window = &stats["window"];
    assert!(
        !window.is_null(),
        "router stats must fold band windows: {stats:?}"
    );
    let bands = window["bands"].as_array().unwrap();
    assert_eq!(bands.len(), 2);
    assert!(!bands[0].is_null(), "local band window present");
    assert!(
        !bands[1].is_null(),
        "remote band window must come over the wire"
    );
    assert_eq!(bands[1]["lists"].as_u64(), Some(1));
    // The aggregate is the exact union: one list per band served above.
    assert_eq!(window["aggregate"]["lists"].as_u64(), Some(2));
    assert_eq!(window["aggregate"]["items"].as_u64(), Some(2 * N as u64));

    // The shard node's own `/v1/window` is the wire surface the router
    // consumed — non-null for engine fronts, null for router fronts
    // (a router's union must not be re-exported and double-counted).
    let mut shard_client = HttpClient::new(shard_server.local_addr().to_string());
    let wire = get_json(&mut shard_client, "/v1/window");
    assert_eq!(wire["window"]["lists"].as_u64(), Some(1));
    let router_wire = get_json(&mut client, "/v1/window");
    assert!(router_wire["window"].is_null());
}

/// The PR 7 availability counters are not decorative: a parked primary
/// moves `ganc_router_band_hedges_total` off its pre-registered 0, a flaky
/// primary moves the failover counter, both leave typed trace events
/// (`band_hedge` / `band_failover`) with replica indices, and `/v1/stats`
/// mirrors the same numbers per band.
#[test]
fn router_replica_counters_and_trace_events_move_under_faults() {
    let bundle = fixture_bundle(13);
    let cuts = cut_theta_bands(&bundle.theta, 2);
    // Frozen clock: the server-spawned probe loops stay provably idle, so
    // every counter below is exactly what the two requests caused.
    let clock = Arc::new(ManualClock::new());
    let mut routes = Vec::new();
    let mut gates: Vec<Vec<Arc<GatedPeer>>> = Vec::new();
    let mut flaky: Vec<Vec<Arc<FlakyPeer>>> = Vec::new();
    for j in 0..2 {
        let (lo, hi) = band_bounds(&cuts, j);
        let slice = bundle.slice_theta_band(lo, hi);
        let mut peers: Vec<Arc<dyn PeerTransport>> = Vec::new();
        let mut band_gates = Vec::new();
        let mut band_flaky = Vec::new();
        for _ in 0..2 {
            let engine = Arc::new(ServingEngine::new(slice.clone(), EngineConfig::default()));
            let frontend: Arc<dyn PeerTransport> = engine;
            let flaky_r = FlakyPeer::new(frontend);
            let gate = GatedPeer::new(Arc::clone(&flaky_r) as Arc<dyn PeerTransport>);
            gate.open();
            peers.push(Arc::clone(&gate) as Arc<dyn PeerTransport>);
            band_gates.push(gate);
            band_flaky.push(flaky_r);
        }
        // Band 0 hedges immediately; band 1 is failover-only.
        let cfg = ReplicaConfig {
            hedge_budget: if j == 0 { Some(Duration::ZERO) } else { None },
            ..ReplicaConfig::default()
        };
        routes.push(ShardRoute::Replicas(ReplicaSet::with_clock(
            peers,
            cfg,
            Arc::clone(&clock) as Arc<dyn Clock>,
        )));
        gates.push(band_gates);
        flaky.push(band_flaky);
    }
    let router = Arc::new(RouterNode::new(
        Arc::clone(&bundle.theta),
        cuts.clone(),
        routes,
    ));
    let server = HttpServer::bind(
        Frontend::Router(router),
        None,
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .unwrap();
    let mut client = HttpClient::new(server.local_addr().to_string());

    let user_in = |band: usize| {
        (0..bundle.n_users())
            .map(UserId)
            .find(|u| shard_of(&cuts, bundle.theta[u.idx()]) == band)
            .expect("fixture straddles both bands")
    };

    // Slow primary on band 0: the zero budget re-issues to replica 1,
    // whose answer unblocks the request while replica 0 stays parked.
    gates[0][0].close();
    let resp = client
        .request("GET", &format!("/v1/recommend/{}", user_in(0).0), None)
        .unwrap();
    assert_eq!(resp.status, 200);
    // Dead primary on band 1: one injected failure, failover answers.
    flaky[1][0].fail_next(1);
    let resp = client
        .request("GET", &format!("/v1/recommend/{}", user_in(1).0), None)
        .unwrap();
    assert_eq!(resp.status, 200);

    let resp = client.request("GET", "/v1/metrics", None).unwrap();
    let samples = parse_prometheus(std::str::from_utf8(&resp.body).unwrap());
    let series = |name: &str, band: &str| {
        let label = format!("band=\"{band}\"");
        samples
            .iter()
            .find(|(n, l, _)| n == name && l.contains(&label) && l.contains("kind=\"replicas\""))
            .unwrap_or_else(|| panic!("{name} band {band} missing"))
            .2
    };
    assert_eq!(series("ganc_router_band_hedges_total", "0"), 1.0);
    assert_eq!(series("ganc_router_band_hedges_total", "1"), 0.0);
    assert_eq!(series("ganc_router_band_failovers_total", "0"), 0.0);
    assert_eq!(series("ganc_router_band_failovers_total", "1"), 1.0);
    assert_eq!(series("ganc_router_band_ejections_total", "0"), 0.0);
    assert_eq!(series("ganc_router_band_restores_total", "1"), 0.0);

    let trace = get_json(&mut client, "/v1/trace");
    let events = trace["events"].as_array().unwrap();
    let hedge = events
        .iter()
        .find(|e| e["kind"].as_str() == Some("band_hedge"))
        .expect("band_hedge event recorded");
    assert_eq!(hedge["data"]["band"].as_u64(), Some(0));
    assert_eq!(hedge["data"]["primary"].as_u64(), Some(0));
    assert_eq!(hedge["data"]["hedge"].as_u64(), Some(1));
    let failover = events
        .iter()
        .find(|e| e["kind"].as_str() == Some("band_failover"))
        .expect("band_failover event recorded");
    assert_eq!(failover["data"]["band"].as_u64(), Some(1));
    assert_eq!(failover["data"]["from"].as_u64(), Some(0));
    assert_eq!(failover["data"]["to"].as_u64(), Some(1));

    let stats = get_json(&mut client, "/v1/stats");
    let shards = stats["shards"].as_array().unwrap();
    assert_eq!(shards[0]["kind"].as_str(), Some("replicas"));
    assert_eq!(shards[0]["replicas"]["count"].as_u64(), Some(2));
    assert_eq!(shards[0]["replicas"]["healthy"].as_u64(), Some(2));
    assert_eq!(shards[0]["replicas"]["hedges"].as_u64(), Some(1));
    assert_eq!(shards[1]["replicas"]["failovers"].as_u64(), Some(1));

    gates[0][0].open();
}

/// The PR 8 durability surface is observable end to end: a startup replay
/// that ran *before* obs attach is backfilled into the `ganc_wal_*`
/// counters and leaves a typed `wal_replay` trace event; live keyed
/// ingests move the append and dedup-hit counters; a refit's compaction
/// moves the truncation counter and leaves a `wal_truncate` event; and
/// `/v1/healthz` exposes the durable log's current size.
#[test]
fn wal_counters_trace_events_and_healthz_surface() {
    let path = std::env::temp_dir().join(format!("ganc_obs_wal_{}.bin", std::process::id()));
    let artifact = std::env::temp_dir().join(format!("ganc_obs_wal_{}.ganc", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&artifact);

    // A previous life of the node acknowledges two keyed ingests into its
    // WAL, then "crashes" (dropped without refit).
    {
        let engine = ShardedEngine::new(fixture_bundle(47), ShardConfig::quantile(2));
        engine.attach_durable(DurableConfig::new(&path)).unwrap();
        engine
            .ingest_keyed(Some("obs-0"), UserId(0), ItemId(1), 4.0)
            .unwrap();
        engine
            .ingest_keyed(Some("obs-1"), UserId(1), ItemId(2), 3.0)
            .unwrap();
    }

    // Restart: the replay happens at attach_durable, before bind attaches
    // the hub — the counters must be backfilled, not lost.
    let engine = Arc::new(ShardedEngine::new(
        fixture_bundle(47),
        ShardConfig::quantile(2),
    ));
    // Refit compaction only truncates once the refitted bundle is
    // persisted somewhere; give the restarted node an artifact path so
    // the truncation counter asserted below can move.
    let mut durable_cfg = DurableConfig::new(&path);
    durable_cfg.artifact_path = Some(artifact.clone());
    let replay = engine.attach_durable(durable_cfg).unwrap();
    assert_eq!(replay.records, 2);
    let hook = RefitHook {
        fitter: fitter(),
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
    let mut client = HttpClient::new(server.local_addr().to_string());

    // One new keyed ingest plus a resend under the same key.
    let body = "{\"user\":2,\"item\":3,\"rating\":5.0}";
    let resp = client
        .request_keyed("POST", "/v1/ingest", Some(body), "obs-2")
        .unwrap();
    assert_eq!(resp.status, 200);
    let resp = client
        .request_keyed("POST", "/v1/ingest", Some(body), "obs-2")
        .unwrap();
    let v: Value = tinyjson::from_str(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    assert_eq!(v["deduplicated"].as_bool(), Some(true));

    let health = get_json(&mut client, "/v1/healthz");
    assert_eq!(health["wal"]["records"].as_u64(), Some(3));
    assert!(health["wal"]["bytes"].as_u64().unwrap() > 0);

    // Refit drains the three pending ingests and compacts the WAL.
    assert_eq!(
        client.request("POST", "/admin/refit", None).unwrap().status,
        200
    );

    let resp = client.request("GET", "/v1/metrics", None).unwrap();
    let samples = parse_prometheus(std::str::from_utf8(&resp.body).unwrap());
    let counter = |name: &str| {
        samples
            .iter()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("{name} missing from exposition"))
            .2
    };
    assert_eq!(
        counter("ganc_wal_replayed_total"),
        2.0,
        "pre-attach replay backfilled"
    );
    assert_eq!(
        counter("ganc_wal_appends_total"),
        1.0,
        "the one post-restart ingest"
    );
    assert_eq!(counter("ganc_wal_dedup_hits_total"), 1.0);
    assert_eq!(counter("ganc_wal_truncations_total"), 1.0);

    let trace = get_json(&mut client, "/v1/trace");
    let events = trace["events"].as_array().unwrap();
    let replay_ev = events
        .iter()
        .find(|e| e["kind"].as_str() == Some("wal_replay"))
        .expect("wal_replay event recorded at attach");
    assert_eq!(replay_ev["data"]["records"].as_u64(), Some(2));
    assert_eq!(replay_ev["data"]["corrupted"].as_bool(), Some(false));
    let trunc = events
        .iter()
        .find(|e| e["kind"].as_str() == Some("wal_truncate"))
        .expect("wal_truncate event recorded at refit");
    assert_eq!(trunc["data"]["generation"].as_u64(), Some(1));
    assert_eq!(
        trunc["data"]["retained"].as_u64(),
        Some(3),
        "all three keys survive as dedup stubs"
    );

    // After compaction the log holds exactly the three key stubs.
    let health = get_json(&mut client, "/v1/healthz");
    assert_eq!(health["wal"]["records"].as_u64(), Some(3));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&artifact);
}

/// `/v1/stats` windows agree with the engine's own view, and a `GET
/// /v1/metrics` scrape returns the same rolling gauges the stats endpoint
/// just published — one source of truth, two expositions.
#[test]
fn stats_windows_and_metrics_gauges_agree() {
    let bundle = fixture_bundle(101);
    let n_users = bundle.n_users();
    let engine = Arc::new(ServingEngine::new(bundle, EngineConfig::default()));
    let server = HttpServer::bind(
        Frontend::Single(Arc::clone(&engine)),
        None,
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .unwrap();
    let mut client = HttpClient::new(server.local_addr().to_string());

    for u in 0..n_users {
        client
            .request("GET", &format!("/v1/recommend/{u}"), None)
            .unwrap();
    }
    let stats = get_json(&mut client, "/v1/stats");
    let window = &stats["window"]["aggregate"];
    assert_eq!(window["lists"].as_u64(), Some(n_users as u64));
    let coverage = window["coverage"].as_f64().unwrap();
    assert!(coverage > 0.0);

    let resp = client.request("GET", "/v1/metrics", None).unwrap();
    let samples = parse_prometheus(std::str::from_utf8(&resp.body).unwrap());
    let gauge = samples
        .iter()
        .find(|(n, l, _)| n == "ganc_window_coverage" && l.contains("band=\"all\""))
        .unwrap()
        .2;
    assert_eq!(gauge, coverage, "stats and metrics publish the same window");
}

// ------------------------------------------------ one count per event

/// A three-band sharded engine behind HTTP, with `/admin/refit` wired.
fn sharded_server(seed: u64) -> (Arc<ShardedEngine>, HttpServer, HttpClient) {
    let engine = Arc::new(ShardedEngine::new(
        fixture_bundle(seed),
        ShardConfig::quantile(3),
    ));
    let hook = RefitHook {
        fitter: fitter(),
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
    let client = HttpClient::new(server.local_addr().to_string());
    (engine, server, client)
}

/// The sum over every band of the `name` samples whose labels contain
/// `labels` — what one scrape reports for the whole engine.
fn scraped(client: &mut HttpClient, name: &str, labels: &str) -> f64 {
    let resp = client.request("GET", "/v1/metrics", None).unwrap();
    assert_eq!(resp.status, 200);
    let samples = parse_prometheus(std::str::from_utf8(&resp.body).unwrap());
    let matching: Vec<f64> = samples
        .iter()
        .filter(|(n, l, _)| n == name && l.contains(labels))
        .map(|s| s.2)
        .collect();
    assert!(!matching.is_empty(), "{name}{{{labels}}} missing");
    matching.iter().sum()
}

/// A scrape on its own reads the engine's live state: the lists inside the
/// rolling windows and the ingests awaiting a refit, with no `/v1/stats`
/// call beforehand to push them.
#[test]
fn a_scrape_alone_reads_the_live_window_and_pending_ingests() {
    let (engine, _server, mut client) = sharded_server(211);
    let users = engine.n_users().min(20);
    for u in 0..users {
        let resp = client
            .request("GET", &format!("/v1/recommend/{u}"), None)
            .unwrap();
        assert_eq!(resp.status, 200);
    }
    for k in 0..7u32 {
        let body = format!("{{\"user\":{k},\"item\":{},\"rating\":4.0}}", k + 1);
        let resp = client.request("POST", "/v1/ingest", Some(&body)).unwrap();
        assert_eq!(resp.status, 200);
    }
    assert_eq!(engine.pending_ingests(), 7);
    assert_eq!(scraped(&mut client, "ganc_window_lists", ""), users as f64);
    assert_eq!(scraped(&mut client, "ganc_refit_pending_ingests", ""), 7.0);
}

/// A sharded engine's counters belong to its bands, not to one
/// generation: `stats()`, `/v1/stats`' cache block and the request metric
/// keep counting across `POST /admin/refit`.
#[test]
fn sharded_stats_keep_counting_across_a_refit() {
    let (engine, _server, mut client) = sharded_server(223);
    let users = engine.n_users().min(10);
    for _ in 0..2 {
        for u in 0..users {
            let resp = client
                .request("GET", &format!("/v1/recommend/{u}"), None)
                .unwrap();
            assert_eq!(resp.status, 200);
        }
    }
    let resp = client
        .request(
            "POST",
            "/v1/ingest",
            Some("{\"user\":1,\"item\":2,\"rating\":4.0}"),
        )
        .unwrap();
    assert_eq!(resp.status, 200);
    let before = engine.stats();
    assert_eq!(
        (before.cache_hits, before.cache_misses),
        (users as u64, users as u64)
    );
    assert_eq!(
        before.ingested,
        engine.shards() as u64,
        "one apply per band"
    );

    let refit = client.request("POST", "/admin/refit", None).unwrap();
    assert_eq!(refit.status, 200);
    assert_eq!(engine.generation(), 1);
    let after = engine.stats();
    assert_eq!(
        (after.cache_hits, after.cache_misses, after.ingested),
        (before.cache_hits, before.cache_misses, before.ingested),
        "a refit reset the counters"
    );
    let stats = get_json(&mut client, "/v1/stats");
    assert_eq!(stats["cache"]["hits"].as_u64(), Some(users as u64));
    assert_eq!(stats["cache"]["misses"].as_u64(), Some(users as u64));
    assert_eq!(stats["ingested"].as_u64(), Some(before.ingested));

    // The next request counts on top, in both views.
    let resp = client.request("GET", "/v1/recommend/0", None).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(engine.stats().cache_misses, users as u64 + 1);
    let misses = scraped(&mut client, "ganc_engine_requests_total", "result=\"miss\"");
    assert_eq!(misses, (users + 1) as f64);
}

/// A batch's slots count in `ganc_engine_requests_total` exactly as they
/// count in `/v1/stats`: one count per event, read by both.
#[test]
fn batch_slots_count_once_in_stats_and_metrics() {
    let (engine, _server, mut client) = sharded_server(227);
    let users: Vec<String> = (0..engine.n_users().min(10))
        .map(|u| u.to_string())
        .collect();
    let body = format!("{{\"users\":[{}]}}", users.join(","));
    for _ in 0..2 {
        let resp = client
            .request("POST", "/v1/recommend:batch", Some(&body))
            .unwrap();
        assert_eq!(resp.status, 200);
    }
    let stats = get_json(&mut client, "/v1/stats");
    let hits = stats["cache"]["hits"].as_u64().unwrap();
    let misses = stats["cache"]["misses"].as_u64().unwrap();
    assert_eq!((hits, misses), (users.len() as u64, users.len() as u64));
    let metric = |client: &mut HttpClient, result: &str| {
        let labels = format!("result=\"{result}\"");
        scraped(client, "ganc_engine_requests_total", &labels)
    };
    assert_eq!(metric(&mut client, "hit"), hits as f64);
    assert_eq!(metric(&mut client, "miss"), misses as f64);
}
