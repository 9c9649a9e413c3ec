//! Hot-path benchmarks for the fused GANC query pipeline: cold and cached
//! single-request latency, OSLG seed-phase (fit) wall time, and the
//! delta-encoded snapshot footprint versus the dense `S·|I|·4`-byte floor.
//!
//! Runs the medium-sim profile the serving bench uses (so
//! `BENCH_query.json` is directly comparable with `BENCH_serve.json`'s
//! 13.97µs cold baseline) plus a large-sim profile for catalog scale.
//! Written as JSON (default `BENCH_query.json` at the repo root, override
//! with `GANC_BENCH_OUT`) so the perf trajectory is tracked across PRs.

use criterion::{criterion_group, criterion_main, Criterion};
use ganc_bench::{fast_mode, latency_stats, LatencyStats};
use ganc_dataset::synth::DatasetProfile;
use ganc_dataset::{Interactions, UserId};
use ganc_preference::GeneralizedConfig;
use ganc_recommender::pop::MostPopular;
use ganc_serve::{
    CoverageState, EngineConfig, FitConfig, FittedModel, ModelBundle, RequestOptions, SaveLoad,
    ServingEngine,
};
use std::hint::black_box;
use std::time::Instant;

struct ProfileReport {
    users: u32,
    items: u32,
    nnz: usize,
    fit_ms: f64,
    cold: LatencyStats,
    cached: LatencyStats,
    snapshot_bytes_v2: usize,
    snapshot_bytes_dense_floor: usize,
    bundle_bytes: usize,
}

impl ProfileReport {
    fn json(&self) -> String {
        format!(
            concat!(
                "{{\n",
                "    \"dataset\": {{\"users\": {users}, \"items\": {items}, ",
                "\"ratings\": {nnz}}},\n",
                "    \"n\": 10,\n",
                "    \"sample_size\": 500,\n",
                "    \"seed_phase_fit_ms\": {fit_ms:.1},\n",
                "    \"single_request_cold\": {{\"mean_us\": {cm:.2}, \"p50_us\": {c50:.2}, ",
                "\"p99_us\": {c99:.2}, \"requests\": {creq}}},\n",
                "    \"single_request_cached\": {{\"mean_us\": {hm:.3}, \"p50_us\": {h50:.3}, ",
                "\"p99_us\": {h99:.3}, \"requests\": {hreq}}},\n",
                "    \"snapshot_bytes_v2\": {sv2},\n",
                "    \"snapshot_bytes_dense_floor\": {dense},\n",
                "    \"snapshot_compression\": {comp:.1},\n",
                "    \"bundle_bytes\": {bb}\n",
                "  }}"
            ),
            users = self.users,
            items = self.items,
            nnz = self.nnz,
            fit_ms = self.fit_ms,
            cm = self.cold.mean_us,
            c50 = self.cold.p50_us,
            c99 = self.cold.p99_us,
            creq = self.cold.requests,
            hm = self.cached.mean_us,
            h50 = self.cached.p50_us,
            h99 = self.cached.p99_us,
            hreq = self.cached.requests,
            sv2 = self.snapshot_bytes_v2,
            dense = self.snapshot_bytes_dense_floor,
            comp = self.snapshot_bytes_dense_floor as f64 / self.snapshot_bytes_v2.max(1) as f64,
            bb = self.bundle_bytes,
        )
    }
}

fn measure_profile(
    train: Interactions,
    cold_requests: usize,
    cached_requests: usize,
) -> (ProfileReport, ServingEngine) {
    let n_users = train.n_users();
    let theta = GeneralizedConfig::default().estimate(&train);
    let pop = MostPopular::fit(&train);
    let cfg = FitConfig {
        sample_size: 500,
        ..FitConfig::new(10)
    };

    let fit_start = Instant::now();
    let bundle = ModelBundle::fit(FittedModel::Pop(pop), theta, train.clone(), &cfg);
    let fit_ms = fit_start.elapsed().as_secs_f64() * 1_000.0;

    // Dense floor: one `u32` count per item per snapshot, headers aside.
    let (snapshot_bytes_v2, snapshot_bytes_dense_floor) = match &bundle.coverage {
        CoverageState::Dynamic(snaps) => (
            snaps.to_bytes().expect("snapshot encode").len(),
            snaps.len() * snaps.n_items() * 4,
        ),
        _ => (0, 0),
    };
    let bundle_bytes = bundle.to_bytes().expect("bundle encode").len();

    let engine = ServingEngine::new(bundle, EngineConfig::default());

    let mut cold_ns = Vec::with_capacity(cold_requests);
    for k in 0..cold_requests {
        let u = UserId((k as u32 * 193) % n_users);
        engine.flush_cache();
        let start = Instant::now();
        black_box(engine.recommend(u).unwrap());
        cold_ns.push(start.elapsed().as_nanos() as f64);
    }
    let cold = latency_stats(cold_ns);

    engine.recommend(UserId(0)).unwrap();
    let mut cached_ns = Vec::with_capacity(cached_requests);
    for _ in 0..cached_requests {
        let start = Instant::now();
        black_box(engine.recommend(UserId(0)).unwrap());
        cached_ns.push(start.elapsed().as_nanos() as f64);
    }
    let cached = latency_stats(cached_ns);

    (
        ProfileReport {
            users: n_users,
            items: train.n_items(),
            nnz: train.nnz(),
            fit_ms,
            cold,
            cached,
            snapshot_bytes_v2,
            snapshot_bytes_dense_floor,
            bundle_bytes,
        },
        engine,
    )
}

fn bench_query(c: &mut Criterion) {
    // Medium: the profile/seed/split BENCH_serve.json's cold baseline was
    // measured on, so the two artifacts compare like for like.
    let medium_split = DatasetProfile::medium()
        .generate(18)
        .split_per_user(0.5, 4)
        .unwrap();
    let cold_requests = if fast_mode() { 200 } else { 3_000 };
    let cached_requests = if fast_mode() { 200 } else { 20_000 };
    let (medium, engine) = measure_profile(medium_split.train, cold_requests, cached_requests);
    let n_users = medium.users;

    // Large: catalog scale (skipped in fast/smoke mode).
    let large = if fast_mode() {
        None
    } else {
        let split = DatasetProfile::large()
            .generate(18)
            .split_per_user(0.5, 4)
            .unwrap();
        Some(measure_profile(split.train, 1_000, 5_000).0)
    };

    // ---- per-request override path (θ override, bypasses the cache) ----
    // Measured beside the default cold path so a regression in the
    // override plumbing (or the default path paying for it) is visible:
    // the default cold p50 above is the CI guard's baseline.
    let opts = RequestOptions {
        theta: Some(0.5),
        ..RequestOptions::default()
    };
    let mut override_ns = Vec::with_capacity(cold_requests);
    for k in 0..cold_requests {
        let u = UserId((k as u32 * 193) % n_users);
        let start = Instant::now();
        black_box(engine.recommend_with_traced(u, &opts).unwrap());
        override_ns.push(start.elapsed().as_nanos() as f64);
    }
    let override_cold = latency_stats(override_ns);

    // ---- criterion-style measurements for the console ----
    let mut g = c.benchmark_group("query");
    g.sample_size(if fast_mode() { 10 } else { 60 })
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(3));
    let mut k = 0u32;
    g.bench_function("fused_cold_request_medium", |b| {
        b.iter(|| {
            k = k.wrapping_add(193);
            engine.flush_cache();
            black_box(engine.recommend(UserId(k % n_users)).unwrap())
        })
    });
    g.finish();

    // ---- JSON artifact ----
    let out_path = std::env::var("GANC_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_query.json", env!("CARGO_MANIFEST_DIR")));
    let large_json = large.as_ref().map_or("null".to_string(), |l| l.json());
    let json = format!(
        concat!(
            "{{\n  \"bench\": \"query\",\n  \"medium\": {},\n",
            "  \"override_theta_cold\": {{\"mean_us\": {om:.2}, \"p50_us\": {o50:.2}, ",
            "\"p99_us\": {o99:.2}, \"requests\": {oreq}}},\n",
            "  \"large\": {}\n}}\n"
        ),
        medium.json(),
        large_json,
        om = override_cold.mean_us,
        o50 = override_cold.p50_us,
        o99 = override_cold.p99_us,
        oreq = override_cold.requests,
    );
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => eprintln!("could not write {out_path}: {e}"),
    }
    print!("{json}");
}

criterion_group!(benches, bench_query);
criterion_main!(benches);
