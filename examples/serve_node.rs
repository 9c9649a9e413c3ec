//! A self-contained serving-node demo with the full PR 6 observability
//! surface: fit a small bundle, stand up a θ-band sharded [`HttpServer`]
//! with an **adaptive background refit** (`--refit-cadence <ms>`), drive
//! traffic at it, and walk the three observability endpoints —
//! `/v1/metrics` (Prometheus text), `/v1/trace` (structured events), and
//! the expanded `/v1/stats` (rolling coverage / novelty / long-tail
//! windows).
//!
//! ```text
//! cargo run --release --example serve_node               # default 50ms cadence
//! cargo run --release --example serve_node -- --refit-cadence 200
//! ```
//!
//! The demo is self-terminating: it ingests enough interactions to trip
//! the adaptive cadence's volume threshold, waits for the background
//! controller to hot-swap a new generation, prints the endpoint excerpts,
//! and exits.

use ganc::core::coverage::CoverageKind;
use ganc::dataset::synth::DatasetProfile;
use ganc::dataset::Interactions;
use ganc::http::{Frontend, HttpClient, HttpServer, RefitHook, ServerConfig};
use ganc::preference::generalized::GeneralizedConfig;
use ganc::recommender::psvd::Psvd;
use ganc::serve::refit::Refitter;
use ganc::serve::{CadenceConfig, FitConfig, FittedModel, ModelBundle, ShardConfig, ShardedEngine};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn fit_cfg() -> FitConfig {
    FitConfig {
        coverage: CoverageKind::Dynamic,
        sample_size: 12,
        ..FitConfig::new(5)
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

fn main() {
    let mut cadence_ms = 50u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--refit-cadence" => {
                cadence_ms = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--refit-cadence takes milliseconds");
            }
            other => panic!("unknown argument {other:?}"),
        }
    }

    // ---- fit a small sharded deployment ----
    let data = DatasetProfile::tiny().generate(7);
    let split = data.split_per_user(0.5, 3).unwrap();
    let train = split.train;
    let n_users = train.n_users();
    let (model, theta) = fitter()(&train);
    let bundle = ModelBundle::fit(model, theta, train, &fit_cfg());
    let engine = Arc::new(ShardedEngine::new(bundle, ShardConfig::quantile(3)));

    // ---- serve it, with a background adaptive refit controller ----
    // volume_threshold 32: the controller refits once 32 interactions
    // accumulate (and at most every min_interval) — no /admin/refit needed.
    let hook = RefitHook {
        fitter: fitter(),
        cfg: fit_cfg(),
        cadence: Some(CadenceConfig {
            volume_threshold: 32,
            min_interval: Duration::from_millis(cadence_ms),
            max_interval: Duration::from_secs(60),
        }),
    };
    let server = HttpServer::bind(
        Frontend::Sharded(Arc::clone(&engine)),
        Some(hook),
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    println!("serving on http://{addr} (refit cadence {cadence_ms}ms)\n");
    let mut client = HttpClient::new(addr);

    // ---- traffic: recommendations + enough ingests to trip the refit ----
    for u in 0..n_users {
        let resp = client
            .request("GET", &format!("/v1/recommend/{u}?n=5"), None)
            .unwrap();
        assert_eq!(resp.status, 200);
    }
    for k in 0..40u32 {
        let body = format!(
            "{{\"user\":{},\"item\":{},\"rating\":4.5}}",
            k % n_users,
            k % 7
        );
        let resp = client.request("POST", "/v1/ingest", Some(&body)).unwrap();
        assert_eq!(resp.status, 200);
    }

    // ---- wait for the background controller to hot-swap ----
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let resp = client.request("GET", "/v1/healthz", None).unwrap();
        let health = tinyjson::from_str(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let generation = health["generation"].as_u64().unwrap();
        if generation > 0 {
            println!("healthz after background refit:\n  {}\n", body_of(&resp));
            break;
        }
        assert!(
            Instant::now() < deadline,
            "adaptive refit never swapped: {}",
            body_of(&resp)
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // ---- the observability surface ----
    let resp = client.request("GET", "/v1/stats", None).unwrap();
    println!(
        "stats (rolling windows + shard map):\n  {}\n",
        body_of(&resp)
    );

    let resp = client.request("GET", "/v1/metrics", None).unwrap();
    let metrics = body_of(&resp);
    println!(
        "metrics excerpt (full exposition is {} bytes):",
        metrics.len()
    );
    for line in metrics
        .lines()
        .filter(|l| {
            l.starts_with("ganc_engine_requests_total")
                || l.starts_with("ganc_window_coverage")
                || l.starts_with("ganc_refit_")
                || l.starts_with("ganc_http_requests_total")
        })
        .take(12)
    {
        println!("  {line}");
    }
    println!();

    let resp = client.request("GET", "/v1/trace", None).unwrap();
    let trace = tinyjson::from_str(&body_of(&resp)).unwrap();
    let events = trace["events"].as_array().unwrap();
    let kinds: Vec<&str> = events.iter().map(|e| e["kind"].as_str().unwrap()).collect();
    println!("trace drained {} events; kinds seen:", events.len());
    let mut seen: Vec<&str> = Vec::new();
    for k in kinds {
        if !seen.contains(&k) {
            seen.push(k);
        }
    }
    println!("  {}", seen.join(", "));
    assert!(
        seen.contains(&"refit_swapped"),
        "trace must record the background hot-swap lifecycle"
    );
    println!("\ndemo complete: background refit observed end to end.");
}

fn body_of(resp: &ganc::http::Response) -> String {
    String::from_utf8_lossy(&resp.body).into_owned()
}
