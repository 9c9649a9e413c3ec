//! The traced run (`--trace 1`): per-layer metrics.
//!
//! First the workload's own round, untraced and traced in alternation, for
//! `trace_overhead`, the per-phase op counts and the exact cache counters.
//! Then the **ladder**: one request set issued at each depth of the stack —
//! fused scoring → `ServingEngine` → `ShardedEngine` → `RouterNode`
//! (all-local, then with remote bands) → HTTP — on the workload's own
//! dataset and model. A layer's self time is its depth's p50 minus the p50
//! of the depth below. Fit-side layers are timed one call each. Every call
//! is recorded as a span.

use crate::affinity::Cpus;
use crate::gen::{permutation, shuffled_prefix, Rating, XorShift};
use crate::report::{Metric, RunResult};
use crate::round::PHASES;
use crate::run::{
    add_counts, measured_round, pin_to_one_cpu, prepare, Options, Prepared, Scratch, MIN_ROUNDS,
};
use crate::spans::SpanLog;
use crate::stacks::{engine_cfg, router_cuts, server_cfg, shard_cfg, RouterTopology};
use crate::stats::{per_op_ns, percentile, self_time, CHUNK};
use crate::workload::{
    estimate_theta, fit_cfg, fit_model, refitter, Workload, BANDS, THREADS, TOP_N,
};
use ganc_core::accuracy::AccuracyMode;
use ganc_core::query::{band_bounds, candidate_runs, fused_select_runs, CoverageProvider};
use ganc_core::{oslg_seed_phase, OslgConfig, UserQuery};
use ganc_dataset::stats::min_max_normalize;
use ganc_dataset::{Interactions, ItemId, UserId};
use ganc_http::http1::{self, Limits, ReadOutcome};
use ganc_http::{
    Frontend, HttpClient, HttpServer, PeerTransport, RemoteShard, ReplicaConfig, ReplicaSet,
    RouterNode, ShardRoute,
};
use ganc_linalg::{randomized_svd, DMat, LinOp, SvdConfig};
use ganc_obs::ObsHub;
use ganc_recommender::topn::{non_train_items, train_item_mask};
use ganc_recommender::Recommender;
use ganc_serve::{
    make_scorer, merge_interactions, BatchConfig, CoverageState, DurableConfig, DurableLog,
    MicroBatcher, ModelBundle, RefitOutcome, SaveLoad, ServingEngine, ShardedEngine,
};
use std::hint::black_box;
use std::io::Cursor;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A per-layer metric, named `<crate>.<module>.<what>`. Which end-to-end
/// metric each should move, on which workload, is tabled in `README.md`.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Exact counts repeat bit-for-bit for the same `--seed`.
    pub exact: bool,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    exact: bool,
) -> Layer {
    Layer {
        name,
        unit,
        higher_is_better,
        exact,
    }
}

pub const PER_LAYER: [Layer; 60] = [
    layer("core.query.fused_us", "us", false, false),
    layer("recommender.score_user_us", "us", false, false),
    layer("core.oslg.seed_fit_ms", "ms", false, false),
    layer("recommender.fit_ms", "ms", false, false),
    layer("linalg.svd_ms", "ms", false, false),
    layer("preference.theta_ms", "ms", false, false),
    layer("serve.bundle.fit_ms", "ms", false, false),
    layer("serve.bundle.encode_ms", "ms", false, false),
    layer("serve.bundle.decode_ms", "ms", false, false),
    layer("serve.bundle.bytes", "bytes", false, true),
    layer("core.coverage.snapshot_bytes", "bytes", false, true),
    layer("serve.engine.miss_us", "us", false, false),
    layer("serve.engine.self_us", "us", false, false),
    layer("serve.engine.hit_ns", "ns", false, false),
    layer("serve.engine.ingest_us", "us", false, false),
    layer("serve.engine.batch_users_per_s", "users/s", true, false),
    layer("serve.engine.swap_ms", "ms", false, false),
    layer("serve.lru.hit_ratio", "ratio", true, true),
    layer("serve.lru.invalidated", "count", false, true),
    layer("obs.miss_overhead_us", "us", false, false),
    layer("obs.hit_overhead_ns", "ns", false, false),
    layer("obs.metrics_render_us", "us", false, false),
    layer("serve.shard.miss_us", "us", false, false),
    layer("serve.shard.self_us", "us", false, false),
    layer("serve.shard.band_skew", "ratio", false, true),
    layer("serve.wal.append_us", "us", false, false),
    layer("serve.wal.bytes_per_ingest", "bytes", false, true),
    layer("http.router.ingest_fanout_us", "us", false, false),
    layer("serve.refit.merge_ms", "ms", false, false),
    layer("serve.refit.install_ms", "ms", false, false),
    layer("serve.batch.microbatch_rps", "1/s", true, false),
    layer("http.http1.parse_us", "us", false, false),
    layer("http.http1.write_us", "us", false, false),
    layer("http.server.stage_parse_us", "us", false, false),
    layer("http.server.stage_dispatch_us", "us", false, false),
    layer("http.server.stage_write_us", "us", false, false),
    layer("http.server.self_us", "us", false, false),
    layer("http.router.single_us", "us", false, false),
    layer("http.router.self_us", "us", false, false),
    layer("http.router.batch_par_users_per_s", "users/s", true, false),
    layer("http.router.batch_seq_users_per_s", "users/s", true, false),
    layer("http.transport.remote_hop_us", "us", false, false),
    layer("http.client.decode_us", "us", false, false),
    layer("http.replica.self_us", "us", false, false),
    layer("trace_overhead", "ratio", false, false),
    layer("traced.recommend_p50_us", "us", false, false),
    layer("traced.recommend_p99_us", "us", false, false),
    layer("ladder.sum_us", "us", false, false),
    layer("ladder.residual_us", "us", false, false),
    layer("serve.ops_attempted", "count", true, true),
    layer("serve.ops_failed", "count", false, true),
    layer("hit.ops_attempted", "count", true, true),
    layer("hit.ops_failed", "count", false, true),
    layer("ingest.ops_attempted", "count", true, true),
    layer("ingest.ops_failed", "count", false, true),
    layer("batch.ops_attempted", "count", true, true),
    layer("batch.ops_failed", "count", false, true),
    layer("refit.ops_attempted", "count", true, true),
    layer("refit.ops_failed", "count", false, true),
    layer("spans.recorded", "count", true, false),
];

/// Users in the ladder's request set, and ratings its write probes ingest.
const LADDER_USERS: usize = 1_000;
const LADDER_INGESTS: usize = 1_024;
/// Hit-path requests per probe (cached lists, so cheap).
const LADDER_HITS: usize = 64 * 256;

/// Values of one ladder round, by metric name.
type Values = Vec<(&'static str, f64)>;

/// The sparse train matrix as a linear operator — the same products
/// `Psvd::train` feeds `randomized_svd`, so `linalg.svd_ms` times the
/// linalg layer on the workload's own ratings.
struct TrainOp<'a>(&'a Interactions);

impl TrainOp<'_> {
    fn scatter(&self, x: &DMat, rows: usize, transposed: bool) -> DMat {
        let mut out = DMat::zeros(rows, x.cols());
        for u in 0..self.0.n_users() {
            let (items, values) = self.0.user_row(UserId(u));
            for (&i, &r) in items.iter().zip(values) {
                let (from, to) = if transposed {
                    (u as usize, i as usize)
                } else {
                    (i as usize, u as usize)
                };
                for (o, &v) in out.row_mut(to).iter_mut().zip(x.row(from)) {
                    *o += r as f64 * v;
                }
            }
        }
        out
    }
}

impl LinOp for TrainOp<'_> {
    fn rows(&self) -> usize {
        self.0.n_users() as usize
    }
    fn cols(&self) -> usize {
        self.0.n_items() as usize
    }
    fn apply(&self, x: &DMat) -> DMat {
        self.scatter(x, self.rows(), false)
    }
    fn apply_t(&self, x: &DMat) -> DMat {
        self.scatter(x, self.cols(), true)
    }
}

/// One depth of a ladder: `before` runs untimed ahead of every timed
/// `call` (a cache flush on the miss ladders, nothing on the hit ladders).
struct Depth<'a> {
    name: &'static str,
    before: &'a dyn Fn(),
    call: &'a mut dyn FnMut(u32),
}

fn nothing() {}

/// Times calls into the program, records each as a span, reduces to p50s.
struct Prober<'a> {
    spans: &'a mut SpanLog,
    round: usize,
    /// Draws the order depths are visited in, request by request.
    order: XorShift,
}

impl Prober<'_> {
    /// p50 in µs of each depth over `users`. Every request is issued at
    /// every depth back to back, in an order drawn afresh for each request:
    /// machine drift, and the warmth a depth inherits from whichever ran
    /// just before it, fall on all depths alike, so the p50s can be
    /// subtracted. One untimed pass per depth comes first, so every stack
    /// serves from its warmed state.
    fn ladder(&mut self, group: &'static str, users: &[u32], depths: &mut [Depth<'_>]) -> Vec<f64> {
        for depth in depths.iter_mut() {
            (depth.before)();
            users.iter().for_each(|&u| (depth.call)(u));
        }
        self.spans.open(group, self.round);
        let mut ns = vec![Vec::with_capacity(users.len()); depths.len()];
        for (k, &user) in users.iter().enumerate() {
            for d in permutation(&mut self.order, depths.len() as u32) {
                let d = d as usize;
                (depths[d].before)();
                let t0 = Instant::now();
                (depths[d].call)(user);
                let t1 = Instant::now();
                ns[d].push((t1 - t0).as_nanos() as f64);
                self.spans.record(depths[d].name, k as u64, t0, t1);
            }
        }
        self.spans.close();
        ns.iter_mut().map(|ns| percentile(ns, 50.0) / 1e3).collect()
    }

    /// p50 in µs of one call over `users`.
    fn each(&mut self, name: &'static str, users: &[u32], mut call: impl FnMut(u32)) -> f64 {
        let mut depths = [Depth {
            name,
            before: &nothing,
            call: &mut call,
        }];
        self.ladder(name, users, &mut depths)[0]
    }

    /// p50 in ns per op of each call, timed [`CHUNK`] ops at a time, the
    /// calls taking turns chunk by chunk.
    fn chunked(
        &mut self,
        group: &'static str,
        ops: usize,
        calls: &mut [(&'static str, &mut dyn FnMut(usize))],
    ) -> Vec<f64> {
        self.spans.open(group, self.round);
        let mut ns = vec![Vec::with_capacity(ops / CHUNK + 1); calls.len()];
        let mut k = 0;
        while k < ops {
            let n = CHUNK.min(ops - k);
            for (c, (name, call)) in calls.iter_mut().enumerate() {
                let t0 = Instant::now();
                for j in k..k + n {
                    call(j);
                }
                let t1 = Instant::now();
                ns[c].push(per_op_ns((t1 - t0).as_nanos() as u64, n));
                self.spans.record(name, k as u64, t0, t1);
            }
            k += n;
        }
        self.spans.close();
        ns.iter_mut().map(|ns| percentile(ns, 50.0)).collect()
    }

    /// One timed call, in ms.
    fn once<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> (T, f64) {
        let t0 = Instant::now();
        let out = call();
        let t1 = Instant::now();
        self.spans.record(name, 0, t0, t1);
        (out, (t1 - t0).as_secs_f64() * 1e3)
    }
}

/// What the ladder needs of the workload, prepared once.
struct LadderInput<'a> {
    prepared: &'a Prepared,
    /// The request set: seeded, without the users whose lists OSLG's
    /// sequential phase precomputed (the engine answers those from a
    /// table, so no depth below it would do the same work).
    users: Vec<u32>,
    ratings: Vec<Rating>,
}

fn uid(users: &[u32]) -> Vec<UserId> {
    users.iter().map(|&u| UserId(u)).collect()
}

/// Sum of `ganc_http_stage_us` `_sum` and `_count` for one stage, scraped
/// from a `/v1/metrics` body.
fn stage_totals(metrics: &str, stage: &str) -> (f64, f64) {
    let read = |suffix: &str| {
        let prefix = format!("ganc_http_stage_us_{suffix}{{stage=\"{stage}\"}} ");
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(prefix.as_str())?.trim().parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (read("sum"), read("count"))
}

fn scrape(client: &mut HttpClient) -> Result<String, String> {
    let resp = client
        .request("GET", "/v1/metrics", None)
        .map_err(|e| format!("scrape /v1/metrics: {e}"))?;
    String::from_utf8(resp.body).map_err(|e| format!("scrape /v1/metrics: {e}"))
}

/// One round of the whole ladder.
fn ladder_round(
    input: &LadderInput<'_>,
    cpus: Option<&Cpus>,
    scratch: &Path,
    probe: &mut Prober<'_>,
) -> Result<Values, String> {
    let workload = input.prepared.fixture.workload;
    let kind = workload.model();
    let train = &input.prepared.fixture.train;
    let users = &input.users;
    let all_users: Vec<UserId> = (0..train.n_users()).map(UserId).collect();
    let place = |one: bool| -> Result<(), String> {
        match cpus {
            Some(cpus) => cpus.pin(one).map_err(|e| format!("set CPU affinity: {e}")),
            None => Ok(()),
        }
    };
    let mut v: Values = Vec::new();

    // ---- fit side: one timed call per layer ----
    let (model, fit_ms) = probe.once("recommender.fit", || fit_model(kind, train));
    v.push(("recommender.fit_ms", fit_ms));
    let (_, svd_ms) = probe.once("linalg.svd", || {
        black_box(randomized_svd(&TrainOp(train), SvdConfig::with_rank(50)))
    });
    v.push(("linalg.svd_ms", svd_ms));
    let (theta, theta_ms) = probe.once("preference.theta", || estimate_theta(train));
    v.push(("preference.theta_ms", theta_ms));
    let cfg = fit_cfg();
    {
        let bound = model.bind(train);
        let scorer = make_scorer(&bound, cfg.accuracy_mode, train, cfg.n);
        let oslg = OslgConfig {
            n: cfg.n,
            sample_size: cfg.sample_size,
            ordering: cfg.ordering,
            threads: 1,
            seed: cfg.seed,
        };
        let (_, seed_ms) = probe.once("core.oslg.seed_phase", || {
            black_box(oslg_seed_phase(scorer.as_ref(), &theta, train, &oslg))
        });
        v.push(("core.oslg.seed_fit_ms", seed_ms));
    }
    let train_copy = train.clone();
    let (bundle, bundle_ms) = probe.once("serve.bundle.fit", || {
        ModelBundle::fit(model, theta, train_copy, &cfg)
    });
    v.push(("serve.bundle.fit_ms", bundle_ms));
    let (bytes, encode_ms) = probe.once("serve.bundle.encode", || bundle.to_bytes());
    let bytes = bytes.map_err(|e| format!("encode bundle: {e}"))?;
    v.push(("serve.bundle.encode_ms", encode_ms));
    v.push(("serve.bundle.bytes", bytes.len() as f64));
    let (decoded, decode_ms) =
        probe.once("serve.bundle.decode", || ModelBundle::from_bytes(&bytes));
    let bundle = decoded.map_err(|e| format!("decode bundle: {e}"))?;
    v.push(("serve.bundle.decode_ms", decode_ms));
    let snapshot_bytes = match &bundle.coverage {
        CoverageState::Dynamic(snaps) => snaps
            .to_bytes()
            .map_err(|e| format!("encode snapshots: {e}"))?
            .len(),
        _ => 0,
    };
    v.push(("core.coverage.snapshot_bytes", snapshot_bytes as f64));

    // ---- the miss ladder: one request set at every in-process depth ----
    let in_train = train_item_mask(&bundle.train);
    let non_train = non_train_items(&in_train);
    // Indexed by user id, as the engine holds them; empty outside the set.
    let mut runs: Vec<Vec<(u32, u32)>> = vec![Vec::new(); bundle.n_users() as usize];
    for &u in users {
        runs[u as usize] = candidate_runs(&bundle.train, UserId(u), &[], &non_train);
    }
    let bound = bundle.model.bind(&bundle.train);
    let provider: &dyn CoverageProvider = bundle.coverage.provider();
    let scorer = make_scorer(&bound, bundle.accuracy_mode, &bundle.train, bundle.n);
    let mut query = UserQuery::new(scorer.as_ref(), &bundle.train, &in_train, bundle.n);
    // What `ServingEngine` does for a model whose scores ignore the user:
    // one normalized accuracy vector, shared by every request.
    let shared_accuracy = (bundle.accuracy_mode == AccuracyMode::Normalized
        && bound.scores_are_user_independent())
    .then(|| {
        let mut a = vec![0.0f64; bundle.n_items() as usize];
        bound.score_items(UserId(0), &mut a);
        min_max_normalize(&mut a);
        a
    });
    let mut scores = vec![0.0f64; bundle.n_items() as usize];

    let bare = Arc::new(ServingEngine::new(bundle.clone(), engine_cfg()));
    let with_obs = ServingEngine::new(bundle.clone(), engine_cfg());
    let hub = ObsHub::new();
    with_obs.attach_obs(Arc::clone(&hub), None, Duration::from_secs(300));
    let sharded = ShardedEngine::new(bundle.clone(), shard_cfg());
    let cuts = router_cuts(&bundle.theta);
    let local_engines: Vec<Arc<ServingEngine>> = (0..BANDS)
        .map(|band| {
            let (lo, hi) = band_bounds(&cuts, band);
            Arc::new(ServingEngine::new(
                bundle.slice_theta_band(lo, hi),
                engine_cfg(),
            ))
        })
        .collect();
    let local_router = RouterNode::new(
        Arc::clone(&bundle.theta),
        cuts.clone(),
        local_engines
            .iter()
            .map(|e| ShardRoute::Local(Arc::clone(e)))
            .collect(),
    );
    let flush_local = || local_engines.iter().for_each(|e| e.flush_cache());

    let miss = probe.ladder(
        "ladder.miss",
        users,
        &mut [
            Depth {
                name: "recommender.score_items",
                before: &nothing,
                call: &mut |u| {
                    bound.score_items(UserId(u), &mut scores);
                    black_box(&scores);
                },
            },
            Depth {
                name: "core.query.fused",
                before: &nothing,
                call: &mut |u| {
                    let theta_u = bundle.theta[u as usize];
                    match &shared_accuracy {
                        Some(a) => {
                            let view = provider.view(UserId(u), theta_u);
                            let runs = &runs[u as usize];
                            black_box(fused_select_runs(bundle.n, theta_u, a, &view, runs));
                        }
                        None => {
                            black_box(query.topn_with_runs(
                                UserId(u),
                                theta_u,
                                provider,
                                &runs[u as usize],
                            ));
                        }
                    }
                },
            },
            Depth {
                name: "serve.engine.recommend",
                before: &|| bare.flush_cache(),
                call: &mut |u| {
                    black_box(bare.recommend_traced(UserId(u)).ok());
                },
            },
            Depth {
                name: "serve.engine.recommend.obs",
                before: &|| with_obs.flush_cache(),
                call: &mut |u| {
                    black_box(with_obs.recommend_traced(UserId(u)).ok());
                },
            },
            Depth {
                name: "serve.shard.recommend",
                before: &|| sharded.flush_cache(),
                call: &mut |u| {
                    black_box(sharded.recommend_traced(UserId(u)).ok());
                },
            },
            Depth {
                name: "http.router.recommend.local",
                before: &flush_local,
                call: &mut |u| {
                    black_box(local_router.recommend_traced(UserId(u)).ok());
                },
            },
        ],
    );
    let (score_us, fused_us, engine_miss, obs_miss, shard_miss, router_miss) =
        (miss[0], miss[1], miss[2], miss[3], miss[4], miss[5]);
    v.push(("recommender.score_user_us", score_us));
    v.push(("core.query.fused_us", fused_us));
    v.push(("serve.engine.miss_us", engine_miss));
    v.push(("serve.engine.self_us", self_time(engine_miss, fused_us)));
    v.push(("obs.miss_overhead_us", self_time(obs_miss, engine_miss)));
    v.push(("serve.shard.miss_us", shard_miss));
    v.push(("serve.shard.self_us", self_time(shard_miss, engine_miss)));
    v.push(("http.router.single_us", router_miss));
    v.push(("http.router.self_us", self_time(router_miss, engine_miss)));
    let band_users: Vec<f64> = sharded
        .shard_info()
        .iter()
        .map(|i| i.users as f64)
        .collect();
    let mean_band = band_users.iter().sum::<f64>() / band_users.len() as f64;
    let max_band = band_users.iter().copied().fold(0.0, f64::max);
    v.push(("serve.shard.band_skew", max_band / mean_band));

    // ---- the hit path in-process: bare against instrumented ----
    users.iter().for_each(|&u| {
        black_box(bare.recommend_traced(UserId(u)).ok());
        black_box(with_obs.recommend_traced(UserId(u)).ok());
    });
    let hit_user = |k: usize| UserId(users[k % users.len()]);
    let hits = probe.chunked(
        "ladder.hit",
        LADDER_HITS,
        &mut [
            ("serve.engine.recommend.hit", &mut |k| {
                black_box(bare.recommend_traced(hit_user(k)).ok());
            }),
            ("serve.engine.recommend.hit.obs", &mut |k| {
                black_box(with_obs.recommend_traced(hit_user(k)).ok());
            }),
        ],
    );
    let (engine_hit, obs_hit) = (hits[0], hits[1]);
    v.push(("serve.engine.hit_ns", engine_hit));
    v.push(("obs.hit_overhead_ns", self_time(obs_hit, engine_hit)));
    let render_us = probe.each("obs.metrics.render", &users[..200.min(users.len())], |_| {
        black_box(hub.metrics.render());
    });
    v.push(("obs.metrics_render_us", render_us));

    // ---- the routed deployment: what a remote band adds to a miss ----
    let topology = RouterTopology::build(&bundle, scratch)?;
    let band_of = |u: u32| ganc_core::query::shard_of(&cuts, bundle.theta[u as usize]);
    let remote_users: Vec<u32> = users.iter().copied().filter(|&u| band_of(u) == 2).collect();
    let replica_users: Vec<u32> = users.iter().copied().filter(|&u| band_of(u) == 3).collect();
    if remote_users.is_empty() || replica_users.is_empty() {
        return Err("the request set leaves a remote band without users".to_string());
    }
    let hop = probe.ladder(
        "ladder.remote_hop",
        &remote_users,
        &mut [
            Depth {
                name: "http.router.recommend.local",
                before: &flush_local,
                call: &mut |u| {
                    black_box(local_router.recommend_traced(UserId(u)).ok());
                },
            },
            Depth {
                name: "http.router.recommend.remote",
                before: &|| topology.flush(),
                call: &mut |u| {
                    black_box(topology.router.recommend_traced(UserId(u)).ok());
                },
            },
        ],
    );
    v.push(("http.transport.remote_hop_us", self_time(hop[1], hop[0])));

    // Cached lists on the peers: what the typed client adds to the raw
    // request, and what a replica group adds to the typed client.
    let dial =
        |addr: &String| RemoteShard::connect(addr.clone()).map_err(|e| format!("dial peer: {e}"));
    let peer = dial(&topology.peer_addrs[0])?;
    let mut raw = HttpClient::new(topology.peer_addrs[0].clone());
    let decode = probe.ladder(
        "ladder.client",
        &remote_users,
        &mut [
            Depth {
                name: "http.client.request.hit",
                before: &nothing,
                call: &mut |u| {
                    black_box(raw.request("GET", &format!("/v1/recommend/{u}"), None).ok());
                },
            },
            Depth {
                name: "http.client.remote_shard.hit",
                before: &nothing,
                call: &mut |u| {
                    black_box(peer.recommend_traced(UserId(u)).ok());
                },
            },
        ],
    );
    v.push(("http.client.decode_us", self_time(decode[1], decode[0])));
    let replica_peer = dial(&topology.peer_addrs[1])?;
    let replicas = ReplicaSet::new(
        vec![
            Arc::new(dial(&topology.peer_addrs[1])?) as Arc<dyn PeerTransport>,
            Arc::new(dial(&topology.peer_addrs[2])?) as Arc<dyn PeerTransport>,
        ],
        ReplicaConfig {
            hedge_budget: None,
            ..ReplicaConfig::default()
        },
    );
    let replica = probe.ladder(
        "ladder.replica",
        &replica_users,
        &mut [
            Depth {
                name: "http.replica.direct.hit",
                before: &nothing,
                call: &mut |u| {
                    black_box(replica_peer.recommend_traced(UserId(u)).ok());
                },
            },
            Depth {
                name: "http.replica.set.hit",
                before: &nothing,
                call: &mut |u| {
                    black_box(replicas.recommend_traced(UserId(u)).ok());
                },
            },
        ],
    );
    v.push(("http.replica.self_us", self_time(replica[1], replica[0])));

    // ---- HTTP round trip over one engine against the same engine called
    // in-process, cached lists. `bind` attaches obs to the engine it
    // serves, so the depth below is the instrumented hit. ----
    let served = Arc::new(ServingEngine::new(bundle.clone(), engine_cfg()));
    let server = HttpServer::bind(
        Frontend::Single(Arc::clone(&served)),
        None,
        server_cfg(),
        "127.0.0.1:0",
    )
    .map_err(|e| format!("bind ladder server: {e}"))?;
    let addr = server.local_addr().to_string();
    let mut client = HttpClient::new(addr.clone());
    let mut scraper = HttpClient::new(addr);
    // The ladder's own untimed warm pass also goes through the server, so
    // scrape after a pass of our own and count from there.
    users.iter().for_each(|&u| {
        black_box(
            client
                .request("GET", &format!("/v1/recommend/{u}"), None)
                .ok(),
        );
    });
    let before = scrape(&mut scraper)?;
    let http = probe.ladder(
        "ladder.http",
        users,
        &mut [
            Depth {
                name: "serve.engine.recommend.hit.obs",
                before: &nothing,
                call: &mut |u| {
                    black_box(served.recommend_traced(UserId(u)).ok());
                },
            },
            Depth {
                name: "http.server.recommend.hit",
                before: &nothing,
                call: &mut |u| {
                    black_box(
                        client
                            .request("GET", &format!("/v1/recommend/{u}"), None)
                            .ok(),
                    );
                },
            },
        ],
    );
    let after = scrape(&mut scraper)?;
    v.push(("http.server.self_us", self_time(http[1], http[0])));
    for (name, stage) in [
        ("http.server.stage_parse_us", "parse"),
        ("http.server.stage_dispatch_us", "dispatch"),
        ("http.server.stage_write_us", "write"),
    ] {
        let (s0, c0) = stage_totals(&before, stage);
        let (s1, c1) = stage_totals(&after, stage);
        v.push((name, (s1 - s0) / (c1 - c0).max(1.0)));
    }
    drop(server);

    // ---- http1 framing, on a request and a response like the above ----
    let request = format!(
        "GET /v1/recommend/{} HTTP/1.1\r\nConnection: keep-alive\r\n\r\n",
        users[0]
    );
    let body = format!(
        "{{\"user\":{},\"generation\":0,\"items\":[{}]}}",
        users[0],
        (0..TOP_N)
            .map(|i| (i * 37).to_string())
            .collect::<Vec<_>>()
            .join(",")
    );
    let mut wire = Vec::with_capacity(256);
    let framing = probe.chunked(
        "ladder.http1",
        2_048,
        &mut [
            ("http.http1.read_request", &mut |_| {
                let outcome =
                    http1::read_request(&mut Cursor::new(request.as_bytes()), Limits::default());
                assert!(
                    matches!(outcome, ReadOutcome::Request(_)),
                    "the probe request parses"
                );
            }),
            ("http.http1.write_response", &mut |_| {
                wire.clear();
                http1::write_response(&mut wire, 200, body.as_bytes(), true)
                    .expect("write to a Vec");
                black_box(&wire);
            }),
        ],
    );
    v.push(("http.http1.parse_us", framing[0] / 1e3));
    v.push(("http.http1.write_us", framing[1] / 1e3));

    // ---- write side: engine ingest, router fan-out, WAL append ----
    let ratings = &input.ratings;
    let (wal, _) = DurableLog::open(DurableConfig::new(scratch.join("ladder.wal")))
        .map_err(|e| format!("open WAL: {e}"))?;
    let writes = probe.chunked(
        "ladder.write",
        ratings.len(),
        &mut [
            ("serve.engine.ingest", &mut |k| {
                let r = &ratings[k];
                bare.ingest(UserId(r.user), ItemId(r.item), r.value)
                    .expect("ingest ids come from the dataset");
            }),
            ("http.router.ingest", &mut |k| {
                let r = &ratings[k];
                local_router
                    .ingest(UserId(r.user), ItemId(r.item), r.value)
                    .expect("ingest ids come from the dataset");
            }),
            ("serve.wal.append", &mut |k| {
                let r = &ratings[k];
                wal.append(None, 0, UserId(r.user), ItemId(r.item), r.value)
                    .expect("append to the scratch WAL");
            }),
        ],
    );
    v.push(("serve.engine.ingest_us", writes[0] / 1e3));
    v.push(("http.router.ingest_fanout_us", writes[1] / 1e3));
    v.push(("serve.wal.append_us", writes[2] / 1e3));
    v.push((
        "serve.wal.bytes_per_ingest",
        wal.stats().bytes as f64 / ratings.len() as f64,
    ));

    // ---- parallel paths: every CPU the process was given. These are the
    // only numbers of the benchmark that see parallel speed-up (or its
    // loss); they have no bound, because the second virtual CPU of the box
    // they were defined on comes and goes. ----
    place(false)?;
    let fresh = Arc::new(ServingEngine::new(bundle.clone(), engine_cfg()));
    black_box(fresh.recommend_batch(&all_users));
    fresh.flush_cache();
    let (_, batch_ms) = probe.once("serve.engine.recommend_batch", || {
        black_box(fresh.recommend_batch(&all_users))
    });
    v.push((
        "serve.engine.batch_users_per_s",
        all_users.len() as f64 / (batch_ms / 1e3),
    ));
    // Parallel and sequential dispatch take turns, so drift hits both.
    const ROUTER_BATCH_REPS: usize = 2;
    let (mut par_ms, mut seq_ms) = (0.0, 0.0);
    topology
        .router
        .recommend_batch_traced(&all_users)
        .map_err(|e| format!("router batch: {e}"))?;
    for _ in 0..ROUTER_BATCH_REPS {
        topology.flush();
        let (answer, ms) = probe.once("http.router.recommend_batch", || {
            topology.router.recommend_batch_traced(&all_users)
        });
        answer.map_err(|e| format!("router batch: {e}"))?;
        par_ms += ms;
        topology.flush();
        let (answer, ms) = probe.once("http.router.recommend_batch.sequential", || {
            topology
                .router
                .recommend_batch_traced_sequential(&all_users)
        });
        answer.map_err(|e| format!("router sequential batch: {e}"))?;
        seq_ms += ms;
    }
    let batched = (ROUTER_BATCH_REPS * all_users.len()) as f64;
    v.push((
        "http.router.batch_par_users_per_s",
        batched / (par_ms / 1e3),
    ));
    v.push((
        "http.router.batch_seq_users_per_s",
        batched / (seq_ms / 1e3),
    ));
    {
        // Two callers, not one: a micro-batcher has nothing to coalesce for
        // a single closed-loop caller. The one place the generator uses a
        // second thread.
        let batcher = MicroBatcher::spawn(Arc::clone(&fresh), BatchConfig::default());
        fresh.flush_cache();
        let ids = uid(users);
        let (_, batcher_ms) = probe.once("serve.batch.micro_batcher", || {
            std::thread::scope(|scope| {
                for half in ids.chunks(ids.len().div_ceil(THREADS)) {
                    let batcher = &batcher;
                    scope.spawn(move || {
                        for &user in half {
                            black_box(batcher.request(user).ok());
                        }
                    });
                }
            });
        });
        v.push((
            "serve.batch.microbatch_rps",
            ids.len() as f64 / (batcher_ms / 1e3),
        ));
    }

    place(true)?;

    // ---- refit: swap alone, then merge / fit / install apart ----
    let next = bundle.clone();
    let (_, swap_ms) = probe.once("serve.engine.swap_bundle", || fresh.swap_bundle(next));
    v.push(("serve.engine.swap_ms", swap_ms));
    let log: Vec<(UserId, ItemId, f32)> = ratings
        .iter()
        .map(|r| (UserId(r.user), ItemId(r.item), r.value))
        .collect();
    for &(user, item, value) in &log {
        sharded
            .ingest(user, item, value)
            .map_err(|e| format!("ingest before refit: {e}"))?;
    }
    let (merged, merge_ms) = probe.once("serve.refit.merge_interactions", || {
        merge_interactions(&bundle.train, &log)
    });
    v.push(("serve.refit.merge_ms", merge_ms));
    let fitter_ns = Arc::new(AtomicU64::new(0));
    let inner = refitter(kind, None);
    let timed_fitter = {
        let fitter_ns = Arc::clone(&fitter_ns);
        move |train: &Interactions| {
            let t0 = Instant::now();
            let out = inner(train);
            fitter_ns.store(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            out
        }
    };
    let (outcome, refit_ms) = probe.once("serve.refit.refit_once", || {
        sharded.refit_once(&timed_fitter, &cfg)
    });
    let RefitOutcome::Swapped {
        bundle: refitted, ..
    } = outcome
    else {
        return Err("ladder refit raced with no competing swap".to_string());
    };
    // The same bundle fit `refit_once` ran, timed on its own.
    let (model, theta) = (refitted.model.as_ref().clone(), refitted.theta.to_vec());
    let (_, refit_bundle_ms) = probe.once("serve.refit.bundle_fit", || {
        black_box(ModelBundle::fit(model, theta, merged, &cfg))
    });
    let fitter_ms = fitter_ns.load(Ordering::Relaxed) as f64 / 1e6;
    v.push((
        "serve.refit.install_ms",
        refit_ms - merge_ms - fitter_ms - refit_bundle_ms,
    ));
    Ok(v)
}

/// Which self times lie on each workload's request path: summed, they
/// should come to the traced run's own `recommend_p50_us`.
fn ladder_sum(workload: Workload, value: &dyn Fn(&str) -> f64) -> f64 {
    let hit_us = (value("serve.engine.hit_ns") + value("obs.hit_overhead_ns")) / 1e3;
    let miss_us = value("core.query.fused_us") + value("serve.engine.self_us");
    match workload {
        Workload::EmbedMiss => miss_us + value("obs.miss_overhead_us"),
        Workload::OfflinePsvd => miss_us + value("serve.shard.self_us"),
        // 95 % of its requests are hits; the median request is one.
        Workload::HttpHot => hit_us + value("http.server.self_us"),
        // 96 % of its recommends are hits and 60 % of its users are on
        // local bands: the median request is a hit on a local band, behind
        // the router, behind HTTP.
        Workload::RouterMixed => {
            hit_us + value("http.router.self_us") + value("http.server.self_us")
        }
    }
}

pub fn run(opts: &Options, spans_path: Option<&Path>) -> Result<RunResult, String> {
    let prepared = prepare(opts)?;
    let scratch = Scratch::create()?;
    let cpus = pin_to_one_cpu();
    let mut spans = SpanLog::new();
    let mut result = RunResult::start(opts.workload.name(), opts.seed, opts.smoke, true);

    // ---- the workload's round, untraced then traced, in alternation ----
    let started = Instant::now();
    let pairs_until = opts.seconds / 3.0;
    let (mut untraced, mut traced, mut traced_p99) = (Vec::new(), Vec::new(), Vec::new());
    let mut first_counts = None;
    let mut first_cache = None;
    let mut pair = 0;
    while pair < 1 || (!opts.smoke && started.elapsed().as_secs_f64() < pairs_until) {
        for with_spans in [false, true] {
            let dir = scratch.sub(&format!("round-{pair}-{with_spans}"))?;
            if with_spans {
                spans.open("round", pair);
            }
            let outcome = measured_round(&prepared, &dir, with_spans.then_some(&mut spans));
            spans.close();
            match outcome {
                Ok((_, mut times)) => {
                    add_counts(&mut result.counts, &times.counts);
                    first_counts.get_or_insert(times.counts);
                    first_cache.get_or_insert((
                        times.serve_hits,
                        times.serve_lookups,
                        times.invalidated,
                    ));
                    let p50 = percentile(&mut times.rec_ns, 50.0) / 1e3;
                    if with_spans {
                        traced_p99.push(percentile(&mut times.rec_ns, 99.0) / 1e3);
                    }
                    if with_spans {
                        &mut traced
                    } else {
                        &mut untraced
                    }
                    .push(p50);
                }
                Err(failure) => {
                    add_counts(&mut result.counts, &failure.counts);
                    result.failure = Some(format!("{}: {}", failure.phase, failure.detail));
                    return Ok(result);
                }
            }
        }
        pair += 1;
    }

    // ---- the ladder ----
    let train = &prepared.fixture.train;
    let precomputed: std::collections::HashSet<u32> =
        prepared.precomputed_users.iter().copied().collect();
    let mut rng = XorShift::new(opts.seed ^ 0x1ADD_E800);
    let users: Vec<u32> = permutation(&mut rng, train.n_users())
        .into_iter()
        .filter(|u| !precomputed.contains(u))
        .take(if opts.smoke {
            LADDER_USERS / 5
        } else {
            LADDER_USERS
        })
        .collect();
    let input = LadderInput {
        prepared: &prepared,
        users,
        ratings: shuffled_prefix(&mut rng, &prepared.fixture.incoming, LADDER_INGESTS),
    };
    let min_rounds = if opts.smoke { 1 } else { MIN_ROUNDS - 1 };
    let mut rounds: Vec<Values> = Vec::new();
    while rounds.len() < min_rounds
        || (!opts.smoke && started.elapsed().as_secs_f64() < opts.seconds)
    {
        let dir = scratch.sub(&format!("ladder-{}", rounds.len()))?;
        let mut probe = Prober {
            spans: &mut spans,
            round: rounds.len(),
            order: XorShift::new(opts.seed.wrapping_add(rounds.len() as u64)),
        };
        rounds.push(ladder_round(&input, cpus.as_ref(), &dir, &mut probe)?);
    }
    result.rounds = rounds.len();

    // ---- reduce: per-round values, then the once-per-run ones ----
    let direction = |name: &str| {
        PER_LAYER
            .iter()
            .find(|l| l.name == name)
            .map(|l| (l.unit, l.higher_is_better))
            .ok_or_else(|| format!("{name} is not in the per-layer table"))
    };
    let mut measured: Vec<Metric> = Vec::new();
    for (k, (name, _)) in rounds[0].iter().enumerate() {
        let values: Vec<f64> = rounds.iter().map(|r| r[k].1).collect();
        let (unit, higher) = direction(name)?;
        measured.push(Metric::over_rounds(*name, unit, &values, higher));
    }
    let (hits, lookups, invalidated) = first_cache.expect("at least one round ran");
    let counts = first_counts.expect("at least one round ran");
    let traced_p50 = Metric::over_rounds("traced.recommend_p50_us", "us", &traced, false);
    let untraced_p50 = Metric::over_rounds("", "us", &untraced, false);
    let value = |name: &str| {
        measured
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    };
    let sum = ladder_sum(opts.workload, &value);
    let mut once: Vec<(String, f64)> = vec![
        (
            "serve.lru.hit_ratio".to_string(),
            hits as f64 / lookups.max(1) as f64,
        ),
        ("serve.lru.invalidated".to_string(), invalidated as f64),
        (
            "trace_overhead".to_string(),
            traced_p50.value / untraced_p50.value,
        ),
        ("ladder.sum_us".to_string(), sum),
        ("ladder.residual_us".to_string(), traced_p50.value - sum),
        ("spans.recorded".to_string(), spans.len() as f64),
    ];
    for (phase, c) in PHASES.iter().zip(&counts) {
        once.push((format!("{phase}.ops_attempted"), c.attempted as f64));
        once.push((format!("{phase}.ops_failed"), c.failed as f64));
    }
    measured.push(traced_p50);
    measured.push(Metric::over_rounds(
        "traced.recommend_p99_us",
        "us",
        &traced_p99,
        false,
    ));
    for (name, value) in once {
        let (unit, _) = direction(&name)?;
        measured.push(Metric::single(name, unit, value));
    }

    // Report in the table's order.
    for layer in &PER_LAYER {
        let k = measured
            .iter()
            .position(|m| m.name == layer.name)
            .ok_or_else(|| format!("the ladder did not measure {}", layer.name))?;
        result.metrics.push(measured.swap_remove(k));
    }
    if let Some(path) = spans_path {
        spans
            .write(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_totals_reads_sum_and_count_of_one_stage() {
        let text = "# TYPE ganc_http_stage_us histogram\n\
ganc_http_stage_us_bucket{stage=\"parse\",le=\"1\"} 3\n\
ganc_http_stage_us_sum{stage=\"dispatch\"} 900\n\
ganc_http_stage_us_count{stage=\"dispatch\"} 30\n\
ganc_http_stage_us_sum{stage=\"parse\"} 12\n\
ganc_http_stage_us_count{stage=\"parse\"} 4\n";
        assert_eq!(stage_totals(text, "parse"), (12.0, 4.0));
        assert_eq!(stage_totals(text, "dispatch"), (900.0, 30.0));
        assert_eq!(stage_totals(text, "write"), (0.0, 0.0));
    }

    #[test]
    fn ladder_sum_adds_the_layers_on_the_workload_path() {
        let value = |name: &str| match name {
            "core.query.fused_us" => 10.0,
            "serve.engine.self_us" => 2.0,
            "obs.miss_overhead_us" => 0.5,
            "serve.shard.self_us" => 0.25,
            "serve.engine.hit_ns" => 100.0,
            "obs.hit_overhead_ns" => 300.0,
            "http.server.self_us" => 20.0,
            "http.router.self_us" => 1.0,
            other => panic!("{other} is not on any request path"),
        };
        assert_eq!(ladder_sum(Workload::EmbedMiss, &value), 12.5);
        assert_eq!(ladder_sum(Workload::OfflinePsvd, &value), 12.25);
        assert_eq!(ladder_sum(Workload::HttpHot, &value), 20.4);
        assert_eq!(ladder_sum(Workload::RouterMixed, &value), 21.4);
    }

    #[test]
    fn per_layer_names_are_unique_and_fit_the_contract() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|l| l.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
        for l in &PER_LAYER {
            assert!(l.name.len() <= 64 && l.unit.len() <= 16, "{}", l.name);
        }
        assert!(PER_LAYER.len() <= 128);
    }
}
