//! HTTP front-end benchmarks over loopback: keep-alive vs cold-connect
//! request latency, transport overhead on cache hits, and batched
//! throughput through `POST /v1/recommend:batch`.
//!
//! Writes `BENCH_http.json` (override with `GANC_BENCH_OUT`). CI compares
//! the keep-alive cold p50 against the in-process cold p50 from
//! `BENCH_query.json` measured in the same run and fails beyond 10× — the
//! transport may cost a socket round-trip and a JSON encode, but never an
//! order of magnitude.

use criterion::{criterion_group, criterion_main, Criterion};
use ganc_bench::{fast_mode, latency_stats};
use ganc_core::query::{band_bounds, cut_theta_bands};
use ganc_dataset::synth::DatasetProfile;
use ganc_dataset::UserId;
use ganc_http::{
    Frontend, HttpClient, HttpServer, PeerTransport, RemoteShard, ReplicaConfig, RouterNode,
    ServerConfig, ShardRoute,
};
use ganc_preference::GeneralizedConfig;
use ganc_recommender::pop::MostPopular;
use ganc_serve::{EngineConfig, FitConfig, FittedModel, ModelBundle, ServingEngine};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

fn bench_http(c: &mut Criterion) {
    let data = DatasetProfile::medium().generate(18);
    let split = data.split_per_user(0.5, 4).unwrap();
    let train = split.train;
    let n_users = train.n_users();
    let theta = GeneralizedConfig::default().estimate(&train);
    let pop = MostPopular::fit(&train);
    let cfg = FitConfig {
        sample_size: 500,
        ..FitConfig::new(10)
    };
    let bundle = ModelBundle::fit(FittedModel::Pop(pop), theta, train.clone(), &cfg);
    let engine = Arc::new(ServingEngine::new(bundle.clone(), EngineConfig::default()));
    let server = HttpServer::bind(
        Frontend::Single(Arc::clone(&engine)),
        None,
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .expect("bind loopback");
    let addr = server.local_addr().to_string();
    let mut client = HttpClient::new(addr.clone());

    // Warm the path (allocator, route table, socket buffers).
    for k in 0..200u32 {
        client
            .request("GET", &format!("/v1/recommend/{}", k % n_users), None)
            .unwrap();
    }

    // ---- keep-alive, cold engine (recompute per request) ----
    let cold_requests = if fast_mode() { 200 } else { 3_000 };
    let mut keepalive_cold_ns = Vec::with_capacity(cold_requests);
    for k in 0..cold_requests {
        let u = (k as u32 * 193) % n_users;
        engine.flush_cache();
        let start = Instant::now();
        let resp = client
            .request("GET", &format!("/v1/recommend/{u}"), None)
            .unwrap();
        keepalive_cold_ns.push(start.elapsed().as_nanos() as f64);
        debug_assert_eq!(resp.status, 200);
        black_box(resp);
    }
    let keepalive_cold = latency_stats(keepalive_cold_ns);

    // ---- keep-alive, cached engine (pure transport + JSON overhead) ----
    let cached_requests = if fast_mode() { 200 } else { 10_000 };
    client.request("GET", "/v1/recommend/1", None).unwrap();
    let mut keepalive_cached_ns = Vec::with_capacity(cached_requests);
    for _ in 0..cached_requests {
        let start = Instant::now();
        black_box(client.request("GET", "/v1/recommend/1", None).unwrap());
        keepalive_cached_ns.push(start.elapsed().as_nanos() as f64);
    }
    let keepalive_cached = latency_stats(keepalive_cached_ns);

    // ---- cold connect (TCP handshake per request) ----
    let connect_requests = if fast_mode() { 100 } else { 1_000 };
    let mut cold_connect_ns = Vec::with_capacity(connect_requests);
    for k in 0..connect_requests {
        let u = (k as u32 * 193) % n_users;
        engine.flush_cache();
        let start = Instant::now();
        let resp =
            HttpClient::request_once(&addr, "GET", &format!("/v1/recommend/{u}"), None).unwrap();
        cold_connect_ns.push(start.elapsed().as_nanos() as f64);
        debug_assert_eq!(resp.status, 200);
        black_box(resp);
    }
    let cold_connect = latency_stats(cold_connect_ns);

    // ---- batched throughput over one keep-alive connection ----
    let ids: Vec<String> = (0..n_users).map(|u| u.to_string()).collect();
    let batch_body = format!("{{\"users\":[{}]}}", ids.join(","));
    let batch_rounds = if fast_mode() { 3 } else { 10 };
    engine.flush_cache();
    let batch_start = Instant::now();
    for _ in 0..batch_rounds {
        engine.flush_cache();
        let resp = client
            .request("POST", "/v1/recommend:batch", Some(&batch_body))
            .unwrap();
        assert_eq!(resp.status, 200);
        black_box(resp);
    }
    let batch_s = batch_start.elapsed().as_secs_f64();
    let batch_rps = (n_users as usize * batch_rounds) as f64 / batch_s;

    // ---- router fan-out: parallel vs sequential 4-band dispatch ----
    // Four peer servers each serve one θ-band slice over loopback; a
    // RouterNode splits a full-population batch across them, dispatched
    // both ways. Raw loopback numbers are informational; the guarded
    // configuration (below) adds a simulated per-hop delay, where the
    // parallel fan-out's win is structural.
    const BANDS: usize = 4;
    let cuts = cut_theta_bands(&bundle.theta, BANDS);
    let mut band_servers = Vec::with_capacity(BANDS);
    let mut band_engines = Vec::with_capacity(BANDS);
    let mut routes = Vec::with_capacity(BANDS);
    for j in 0..BANDS {
        let (lo, hi) = band_bounds(&cuts, j);
        // One worker thread per band engine: on a single bench box all
        // four "nodes" share the same cores, so an unconstrained band
        // engine already saturates the machine and sequential dispatch
        // measures nothing but compute. Serializing each peer's compute
        // models what fan-out actually overlaps in production — four
        // *separate* nodes working concurrently — without oversubscribing
        // the box 4×.
        let band_engine = Arc::new(ServingEngine::new(
            bundle.slice_theta_band(lo, hi),
            EngineConfig {
                threads: 1,
                ..EngineConfig::default()
            },
        ));
        let band_server = HttpServer::bind(
            Frontend::Single(Arc::clone(&band_engine)),
            None,
            ServerConfig::default(),
            "127.0.0.1:0",
        )
        .expect("bind band server");
        let remote = RemoteShard::connect(band_server.local_addr().to_string())
            .expect("band server reachable");
        routes.push(ShardRoute::Remote(
            Arc::new(remote) as Arc<dyn PeerTransport>
        ));
        band_engines.push(band_engine);
        band_servers.push(band_server);
    }
    let router = RouterNode::new(Arc::clone(&bundle.theta), cuts.clone(), routes);
    let router_users: Vec<UserId> = (0..n_users).map(UserId).collect();
    let flush_bands = |engines: &[Arc<ServingEngine>]| {
        for e in engines {
            e.flush_cache();
        }
    };
    let measure = |router: &RouterNode, rounds: usize| {
        // Warm both paths (connections, allocators).
        router
            .recommend_batch_traced_sequential(&router_users)
            .unwrap();
        router.recommend_batch_traced(&router_users).unwrap();
        let (mut seq_s, mut par_s) = (0.0f64, 0.0f64);
        for _ in 0..rounds {
            // Interleaved and cold per round, so machine noise hits both
            // strategies evenly and the bands really compute.
            flush_bands(&band_engines);
            let t = Instant::now();
            black_box(
                router
                    .recommend_batch_traced_sequential(&router_users)
                    .unwrap(),
            );
            seq_s += t.elapsed().as_secs_f64();
            flush_bands(&band_engines);
            let t = Instant::now();
            black_box(router.recommend_batch_traced(&router_users).unwrap());
            par_s += t.elapsed().as_secs_f64();
        }
        let served = (n_users as usize * rounds) as f64;
        (served / seq_s, served / par_s)
    };
    let router_rounds = if fast_mode() { 3 } else { 10 };
    let (loopback_seq_rps, loopback_par_rps) = measure(&router, router_rounds);

    // Loopback has no wire latency to hide — on a small box the bands'
    // compute shares the same cores either way, so loopback numbers only
    // show the dispatch overhead. What the fan-out exists to overlap is
    // the *remote hop*: model it by injecting a fixed per-call delay in
    // front of each peer (a stand-in for real inter-node RTT + queueing),
    // where sequential dispatch pays 4 hops end-to-end and parallel pays
    // one. This is the guarded number: the overlap is a property of the
    // dispatch strategy, not of how many cores the bench box has.
    const SIMULATED_HOP: std::time::Duration = std::time::Duration::from_micros(500);
    struct DelayedPeer(RemoteShard, std::time::Duration);
    impl PeerTransport for DelayedPeer {
        fn label(&self) -> String {
            format!("delayed({})", self.0.addr())
        }
        fn recommend_with_traced(
            &self,
            user: UserId,
            opts: &ganc_serve::RequestOptions,
        ) -> ganc_http::SingleAnswer {
            std::thread::sleep(self.1);
            self.0.recommend_with_traced(user, opts)
        }
        fn recommend_batch_with_traced(
            &self,
            users: &[UserId],
            opts: &ganc_serve::RequestOptions,
        ) -> ganc_http::BatchAnswer {
            std::thread::sleep(self.1);
            self.0.recommend_batch_with_traced(users, opts)
        }
        fn ingest_keyed(
            &self,
            key: Option<&str>,
            user: UserId,
            item: ganc_dataset::ItemId,
            rating: f32,
        ) -> Result<ganc_serve::IngestAck, ganc_http::BackendError> {
            self.0.ingest_keyed(key, user, item, rating)
        }
        fn generation(&self) -> Result<u64, ganc_http::BackendError> {
            self.0.generation()
        }
    }
    let delayed_routes: Vec<ShardRoute> = band_servers
        .iter()
        .map(|s| {
            let remote =
                RemoteShard::connect(s.local_addr().to_string()).expect("band server reachable");
            ShardRoute::Remote(
                Arc::new(DelayedPeer(remote, SIMULATED_HOP)) as Arc<dyn PeerTransport>
            )
        })
        .collect();
    let delayed_router = RouterNode::new(Arc::clone(&bundle.theta), cuts.clone(), delayed_routes);
    let (hop_seq_rps, hop_par_rps) = measure(&delayed_router, router_rounds);

    // ---- replicas: hedged vs unhedged dispatch around a stalled primary ----
    // Each band becomes a two-replica group over the same peer server: the
    // primary stalls far beyond the hedge budget before forwarding, the
    // second replica is the plain fast loopback shard. The hedged router
    // re-issues to the fast replica once the budget elapses; the unhedged
    // router (same topology, no budget) waits out the stall every batch.
    // The stall must dwarf the budget *and* the serve cost: hedging
    // duplicates the straggler's request when it fires, and on this 1-CPU
    // bench box a merely-slow primary (hop comparable to the serve) would
    // correctly show that duplication cost instead of a win. With a
    // stalled primary the straggler is parked off-CPU for the whole
    // measured window, which is exactly the unresponsive-peer scenario
    // hedging exists for. CI guards `byte_identical` and hedged >
    // unhedged, not the magnitude.
    const HEDGE_BUDGET: std::time::Duration = std::time::Duration::from_micros(100);
    const REPLICA_STALL: std::time::Duration = std::time::Duration::from_millis(250);
    let replicated_routes = |hedge_budget: Option<std::time::Duration>| -> Vec<ShardRoute> {
        band_servers
            .iter()
            .map(|s| {
                let slow = RemoteShard::connect(s.local_addr().to_string())
                    .expect("band server reachable");
                let fast = RemoteShard::connect(s.local_addr().to_string())
                    .expect("band server reachable");
                ShardRoute::replicated(
                    vec![
                        Arc::new(DelayedPeer(slow, REPLICA_STALL)) as Arc<dyn PeerTransport>,
                        Arc::new(fast) as Arc<dyn PeerTransport>,
                    ],
                    ReplicaConfig {
                        hedge_budget,
                        ..ReplicaConfig::default()
                    },
                )
            })
            .collect()
    };
    let hedged_router = RouterNode::new(
        Arc::clone(&bundle.theta),
        cuts.clone(),
        replicated_routes(Some(HEDGE_BUDGET)),
    );
    let unhedged_router = RouterNode::new(Arc::clone(&bundle.theta), cuts, replicated_routes(None));
    let (hedged_slots, hedged_gen) = hedged_router.recommend_batch_traced(&router_users).unwrap();
    let (unhedged_slots, unhedged_gen) = unhedged_router
        .recommend_batch_traced(&router_users)
        .unwrap();
    let byte_identical =
        hedged_gen == unhedged_gen && format!("{hedged_slots:?}") == format!("{unhedged_slots:?}");
    let measure_parallel = |router: &RouterNode, rounds: usize| {
        router.recommend_batch_traced(&router_users).unwrap();
        let mut spent = 0.0f64;
        for _ in 0..rounds {
            let t = Instant::now();
            black_box(router.recommend_batch_traced(&router_users).unwrap());
            spent += t.elapsed().as_secs_f64();
        }
        (n_users as usize * rounds) as f64 / spent
    };
    // Few rounds: every unhedged batch pays the full stall by design.
    let replica_rounds = router_rounds.min(4);
    let unhedged_rps = measure_parallel(&unhedged_router, replica_rounds);
    let hedged_rps = measure_parallel(&hedged_router, replica_rounds);
    // Let parked hedge stragglers finish against live servers before
    // tearing the topology down.
    std::thread::sleep(REPLICA_STALL + std::time::Duration::from_millis(100));
    drop(band_servers);

    // ---- criterion console output ----
    let mut g = c.benchmark_group("http");
    g.sample_size(if fast_mode() { 10 } else { 40 })
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(3));
    let mut k = 0u32;
    g.bench_function("keepalive_cold", |b| {
        b.iter(|| {
            k = k.wrapping_add(193);
            engine.flush_cache();
            black_box(
                client
                    .request("GET", &format!("/v1/recommend/{}", k % n_users), None)
                    .unwrap(),
            )
        })
    });
    g.bench_function("keepalive_cached", |b| {
        b.iter(|| black_box(client.request("GET", "/v1/recommend/1", None).unwrap()))
    });
    g.finish();

    // Sanity: responses really are the engine's output.
    let resp = client.request("GET", "/v1/recommend/7", None).unwrap();
    let v = tinyjson::from_str(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    let got: Vec<u32> = v["items"]
        .as_array()
        .unwrap()
        .iter()
        .map(|i| i.as_u64().unwrap() as u32)
        .collect();
    let expect: Vec<u32> = engine
        .recommend(UserId(7))
        .unwrap()
        .iter()
        .map(|i| i.0)
        .collect();
    assert_eq!(got, expect, "bench server must serve real engine output");

    // ---- JSON artifact ----
    let out_path = std::env::var("GANC_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_http.json", env!("CARGO_MANIFEST_DIR")));
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"http\",\n",
            "  \"dataset\": {{\"users\": {users}, \"items\": {items}, \"ratings\": {nnz}}},\n",
            "  \"n\": 10,\n",
            "  \"keepalive_cold\": {{\"mean_us\": {kcm:.2}, \"p50_us\": {kc50:.2}, ",
            "\"p99_us\": {kc99:.2}, \"requests\": {kcreq}}},\n",
            "  \"keepalive_cached\": {{\"mean_us\": {khm:.2}, \"p50_us\": {kh50:.2}, ",
            "\"p99_us\": {kh99:.2}, \"requests\": {khreq}}},\n",
            "  \"cold_connect\": {{\"mean_us\": {ccm:.2}, \"p50_us\": {cc50:.2}, ",
            "\"p99_us\": {cc99:.2}, \"requests\": {ccreq}}},\n",
            "  \"batch\": {{\"batch_size\": {bsize}, \"rounds\": {brounds}, ",
            "\"throughput_rps\": {brps:.0}}},\n",
            "  \"router\": {{\"bands\": {rbands}, \"batch_size\": {bsize}, ",
            "\"rounds\": {rrounds}, ",
            "\"loopback\": {{\"parallel_rps\": {lpar:.0}, \"sequential_rps\": {lseq:.0}, ",
            "\"speedup\": {lspeed:.2}}}, ",
            "\"simulated_hop_us\": {hopus}, ",
            "\"remote_hop\": {{\"parallel_rps\": {hpar:.0}, \"sequential_rps\": {hseq:.0}, ",
            "\"speedup\": {hspeed:.2}}}}},\n",
            "  \"replicas\": {{\"bands\": {rbands}, \"replicas_per_band\": 2, ",
            "\"hedge_budget_us\": {hbudget}, \"stalled_primary_us\": {stallus}, ",
            "\"byte_identical\": {bytei}, \"hedged_rps\": {hrps:.0}, ",
            "\"unhedged_rps\": {urps:.0}, \"speedup\": {rspeed:.2}}}\n",
            "}}\n"
        ),
        users = n_users,
        items = train.n_items(),
        nnz = train.nnz(),
        kcm = keepalive_cold.mean_us,
        kc50 = keepalive_cold.p50_us,
        kc99 = keepalive_cold.p99_us,
        kcreq = keepalive_cold.requests,
        khm = keepalive_cached.mean_us,
        kh50 = keepalive_cached.p50_us,
        kh99 = keepalive_cached.p99_us,
        khreq = keepalive_cached.requests,
        ccm = cold_connect.mean_us,
        cc50 = cold_connect.p50_us,
        cc99 = cold_connect.p99_us,
        ccreq = cold_connect.requests,
        bsize = n_users,
        brounds = batch_rounds,
        brps = batch_rps,
        rbands = BANDS,
        rrounds = router_rounds,
        lpar = loopback_par_rps,
        lseq = loopback_seq_rps,
        lspeed = loopback_par_rps / loopback_seq_rps,
        hopus = SIMULATED_HOP.as_micros(),
        hpar = hop_par_rps,
        hseq = hop_seq_rps,
        hspeed = hop_par_rps / hop_seq_rps,
        hbudget = HEDGE_BUDGET.as_micros(),
        stallus = REPLICA_STALL.as_micros(),
        bytei = byte_identical,
        hrps = hedged_rps,
        urps = unhedged_rps,
        rspeed = hedged_rps / unhedged_rps,
    );
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => eprintln!("could not write {out_path}: {e}"),
    }
    print!("{json}");
}

criterion_group!(benches, bench_http);
criterion_main!(benches);
