//! The parallel router fan-out is **byte-identical** to an in-process
//! `ShardedEngine` and to the sequential dispatch — under adversarial
//! timing, not just on a quiet loopback. The deterministic doubles from `tests/doubles` inject
//! the adversities as pure synchronization (no sleeps, no sockets):
//!
//! * [`SlowPeer`] — an arbitrary band provably answers *after* every other
//!   touched band (it waits on their completion ledger);
//! * [`ReorderingPeer`] — all touched bands complete in reverse dispatch
//!   order;
//! * [`FlakyPeer`] — a band fails, and the error (which names the band,
//!   `BackendError::Band`) must be the same one the sequential path
//!   reports;
//! * generation skew mid-deployment must be detected with the identical
//!   error either way.
//!
//! Compared surfaces: per-slot lists, per-slot errors, ordering, the
//! batch's generation tag, and (for the HTTP case) the raw response bytes.

mod doubles;
mod oracle;

use doubles::{FlakyPeer, Ledger, LedgerPeer, ReorderGate, ReorderingPeer, SlowPeer};
use ganc::core::coverage::CoverageKind;
use ganc::core::query::{band_bounds, cut_theta_bands, shard_of};
use ganc::dataset::synth::DatasetProfile;
use ganc::dataset::{ItemId, UserId};
use ganc::http::{
    BackendError, Frontend, HttpClient, HttpServer, PeerTransport, ReplicaConfig, RouterNode,
    ServerConfig, ShardRoute,
};
use ganc::preference::generalized::GeneralizedConfig;
use ganc::recommender::pop::MostPopular;
use ganc::serve::{
    EngineConfig, FitConfig, FittedModel, ModelBundle, RequestOptions, RerankMode, ServeError,
    ServingEngine, ShardConfig, ShardedEngine,
};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

const N: usize = 5;
const BAND_COUNTS: [usize; 4] = [1, 2, 4, 7];

fn fixture_bundle() -> &'static ModelBundle {
    static BUNDLE: OnceLock<ModelBundle> = OnceLock::new();
    BUNDLE.get_or_init(|| {
        let data = DatasetProfile::tiny().generate(41);
        let split = data.split_per_user(0.5, 3).unwrap();
        let theta = GeneralizedConfig::default().estimate(&split.train);
        let pop = MostPopular::fit(&split.train);
        let cfg = FitConfig {
            coverage: CoverageKind::Dynamic,
            sample_size: 12,
            ..FitConfig::new(N)
        };
        ModelBundle::fit(FittedModel::Pop(pop), theta, split.train, &cfg)
    })
}

/// A router whose every band is a remote double chain
/// `SlowPeer(LedgerPeer(FlakyPeer(Frontend)))` over that band's bundle
/// slice — any band can be made slow or flaky per scenario.
struct Harness {
    router: RouterNode,
    slow: Vec<Arc<SlowPeer>>,
    flaky: Vec<Arc<FlakyPeer>>,
    engines: Vec<Arc<ServingEngine>>,
    slices: Vec<ModelBundle>,
    ledger: Arc<Ledger>,
    cuts: Vec<f64>,
}

impl Harness {
    fn build(bands: usize) -> Harness {
        let bundle = fixture_bundle();
        let cuts = cut_theta_bands(&bundle.theta, bands);
        let ledger = Ledger::new();
        let mut routes = Vec::new();
        let mut slow = Vec::new();
        let mut flaky = Vec::new();
        let mut engines = Vec::new();
        let mut slices = Vec::new();
        for j in 0..bands {
            let (lo, hi) = band_bounds(&cuts, j);
            let slice = bundle.slice_theta_band(lo, hi);
            let engine = Arc::new(ServingEngine::new(slice.clone(), EngineConfig::default()));
            let frontend: Arc<dyn PeerTransport> = engine.clone();
            let flaky_j = FlakyPeer::new(frontend);
            let ledgered: Arc<dyn PeerTransport> = Arc::new(LedgerPeer::new(
                Arc::clone(&flaky_j) as Arc<dyn PeerTransport>,
                Arc::clone(&ledger),
            ));
            let slow_j = SlowPeer::new(ledgered, Arc::clone(&ledger));
            routes.push(ShardRoute::Remote(
                Arc::clone(&slow_j) as Arc<dyn PeerTransport>
            ));
            slow.push(slow_j);
            flaky.push(flaky_j);
            engines.push(engine);
            slices.push(slice);
        }
        let router = RouterNode::new(Arc::clone(&bundle.theta), cuts.clone(), routes);
        Harness {
            router,
            slow,
            flaky,
            engines,
            slices,
            ledger,
            cuts,
        }
    }

    /// The distinct bands a batch's placeable users land in.
    fn touched(&self, users: &[UserId]) -> BTreeSet<usize> {
        let theta = &fixture_bundle().theta;
        users
            .iter()
            .filter_map(|u| theta.get(u.idx()).map(|&t| shard_of(&self.cuts, t)))
            .collect()
    }

    /// Arm `band` to answer only after every *other* touched band of the
    /// next batch has completed.
    fn arm_slow(&self, band: usize, users: &[UserId]) {
        let others = self
            .touched(users)
            .into_iter()
            .filter(|&j| j != band)
            .count() as u64;
        self.slow[band].delay_until(self.ledger.completed() + others);
    }
}

type Batch = Result<(Vec<Result<Arc<Vec<ItemId>>, ServeError>>, u64), BackendError>;

/// Both dispatch strategies must produce the same value — including which
/// error, when they fail.
fn assert_equivalent(sequential: Batch, parallel: Batch, context: &str) {
    match (sequential, parallel) {
        (Ok((seq_slots, seq_gen)), Ok((par_slots, par_gen))) => {
            assert_eq!(seq_slots, par_slots, "{context}: slots diverge");
            assert_eq!(seq_gen, par_gen, "{context}: generation tag diverges");
        }
        (Err(seq), Err(par)) => {
            assert_eq!(
                format!("{seq:?}"),
                format!("{par:?}"),
                "{context}: errors diverge"
            );
        }
        (seq, par) => panic!("{context}: outcome diverges: {seq:?} vs {par:?}"),
    }
}

/// One of the four option shapes a batch can carry: default, exclude-only,
/// rerank-only, θ override.
fn arb_opts() -> impl Strategy<Value = RequestOptions> {
    (
        0usize..4,
        0u32..=8,
        proptest::collection::vec(0u32..40, 1..6),
    )
        .prop_map(|(shape, grid, exclude)| {
            let mut opts = RequestOptions::default();
            match shape {
                0 => {}
                1 => opts.set_exclude(exclude),
                2 => {
                    let modes = [RerankMode::Pra, RerankMode::Rbt, RerankMode::FiveD];
                    opts.rerank = Some(modes[grid as usize % 3]);
                }
                _ => opts.theta = Some(grid as f64 / 8.0),
            }
            opts
        })
}

proptest! {
    /// Across band counts {1,2,4,7}, arbitrary batches (straddling bands,
    /// duplicates, unknown users), every option shape, and an arbitrary
    /// provably-last band: the parallel fan-out's slots, ordering,
    /// per-slot errors, and generation tag are identical to an in-process
    /// `ShardedEngine` over the same bundle and cuts.
    #[test]
    fn parallel_fanout_matches_sequential_under_a_slow_band(
        s_idx in 0usize..BAND_COUNTS.len(),
        slow_pick in 0usize..7,
        raw_users in proptest::collection::vec(0u32..60, 0..30),
        opts in arb_opts(),
    ) {
        let bands = BAND_COUNTS[s_idx];
        let h = Harness::build(bands);
        let sharded = ShardedEngine::new(fixture_bundle().clone(), ShardConfig::quantile(bands));
        // 0..60 over a 50-user fixture: unknown users ride along in-slot.
        let users: Vec<UserId> = raw_users.iter().map(|&u| UserId(u)).collect();
        let expected = sharded.recommend_batch_with_traced(&users, &opts);
        let slow_band = slow_pick % bands;
        // A θ override collapses the batch onto the one band owning that
        // θ: no other band ever completes, so there is nothing to wait for.
        if opts.theta.is_none() {
            h.arm_slow(slow_band, &users);
        }
        let parallel = h.router.recommend_batch_with_traced(&users, &opts);
        h.slow[slow_band].delay_until(0);
        prop_assert_eq!(
            parallel,
            Ok(expected),
            "bands={} slow={} opts={:?} users={:?}", bands, slow_band, opts, raw_users
        );
    }
}

/// A dense straddling batch (every user, reversed, plus duplicates) with
/// the middle band provably last: parallel == sequential, and both equal
/// the in-process sharded engine.
#[test]
fn straddling_batch_with_slow_band_matches_in_process_sharded() {
    let bundle = fixture_bundle();
    let h = Harness::build(4);
    let sharded = ShardedEngine::new(bundle.clone(), ShardConfig::quantile(4));
    let mut users: Vec<UserId> = (0..bundle.n_users()).rev().map(UserId).collect();
    users.extend((0..10).map(UserId));

    let sequential = h.router.recommend_batch_traced_sequential(&users);
    h.arm_slow(2, &users);
    let parallel = h.router.recommend_batch_traced(&users);
    h.slow[2].delay_until(0);

    let (expected_slots, expected_gen) = sharded.recommend_batch_traced(&users);
    let (par_slots, par_gen) = parallel.as_ref().expect("healthy dispatch").clone();
    assert_eq!(par_slots, expected_slots, "router diverges from in-process");
    assert_eq!(par_gen, expected_gen);
    assert_equivalent(sequential, parallel, "straddle/slow band 2");
}

/// All four touched bands complete in reverse dispatch order: reassembly
/// must not depend on completion order.
#[test]
fn reordered_band_completion_preserves_order_and_results() {
    let bundle = fixture_bundle();
    let cuts = cut_theta_bands(&bundle.theta, 4);
    let gate = ReorderGate::new();
    let routes: Vec<ShardRoute> = (0..4)
        .map(|j| {
            let (lo, hi) = band_bounds(&cuts, j);
            let engine = Arc::new(ServingEngine::new(
                bundle.slice_theta_band(lo, hi),
                EngineConfig::default(),
            ));
            let frontend: Arc<dyn PeerTransport> = engine;
            ShardRoute::remote(ReorderingPeer::new(frontend, Arc::clone(&gate)))
        })
        .collect();
    let router = RouterNode::new(Arc::clone(&bundle.theta), cuts.clone(), routes);
    let users: Vec<UserId> = (0..bundle.n_users()).map(UserId).collect();
    let touched: BTreeSet<usize> = users
        .iter()
        .map(|u| shard_of(&cuts, bundle.theta[u.idx()]))
        .collect();
    assert_eq!(touched.len(), 4, "fixture must straddle all bands");

    // Sequential reference first, gate disarmed (an armed gate would
    // deadlock a one-at-a-time dispatcher — that is the point of it).
    let sequential = router.recommend_batch_traced_sequential(&users);
    gate.arm(4);
    let parallel = router.recommend_batch_traced(&users);
    assert_equivalent(sequential, parallel, "LIFO band completion");
}

/// A failed band produces the *same* error under both strategies, and the
/// error names the band index instead of surfacing positionally.
#[test]
fn failed_band_error_is_identical_and_carries_the_band_index() {
    let h = Harness::build(4);
    let users: Vec<UserId> = (0..fixture_bundle().n_users()).map(UserId).collect();
    let touched: Vec<usize> = h.touched(&users).into_iter().collect();
    assert_eq!(touched, vec![0, 1, 2, 3]);

    for &bad in &[0usize, 2] {
        h.flaky[bad].fail_next(1);
        let sequential = h.router.recommend_batch_traced_sequential(&users);
        h.flaky[bad].fail_next(1);
        let parallel = h.router.recommend_batch_traced(&users);
        let err = match &parallel {
            Err(BackendError::Band { band, message }) => {
                assert_eq!(*band, bad, "error must carry the failed band");
                assert!(
                    message.contains("injected failure"),
                    "cause preserved: {message}"
                );
                format!("{:?}", parallel.as_ref().err().unwrap())
            }
            other => panic!("expected a band error, got {other:?}"),
        };
        assert_equivalent(sequential, parallel, &format!("flaky band {bad}"));
        drop(err);
    }

    // Two bands down: both strategies report the lowest touched band (the
    // sequential path never even dispatches past it; the parallel path
    // folds in band order).
    h.flaky[1].fail_next(1);
    h.flaky[3].fail_next(1);
    let sequential = h.router.recommend_batch_traced_sequential(&users);
    h.flaky[1].fail_next(1);
    h.flaky[3].fail_next(1);
    let parallel = h.router.recommend_batch_traced(&users);
    assert!(
        matches!(parallel, Err(BackendError::Band { band: 1, .. })),
        "lowest failed band wins: {parallel:?}"
    );
    assert_equivalent(sequential, parallel, "two flaky bands");
    // Doubles healed: the deployment serves again.
    assert!(h.router.recommend_batch_traced(&users).is_ok());
}

/// Generation tags ride through the parallel dispatch, and skew between
/// bands is detected with the identical hard error.
#[test]
fn generation_skew_detection_is_byte_identical() {
    let h = Harness::build(2);
    let users: Vec<UserId> = (0..fixture_bundle().n_users()).map(UserId).collect();
    assert_eq!(h.touched(&users).len(), 2);

    // Band 1 hot-swaps (same content, new generation): the deployment is
    // skewed and both strategies must refuse identically.
    h.engines[1].swap_bundle(h.slices[1].clone());
    let sequential = h.router.recommend_batch_traced_sequential(&users);
    let parallel = h.router.recommend_batch_traced(&users);
    assert!(
        matches!(&parallel, Err(BackendError::Transport(msg)) if msg.contains("generation skew")),
        "skew must be a hard error: {parallel:?}"
    );
    assert_equivalent(sequential, parallel, "skewed deployment");

    // Band 0 catches up: healthy again, and the batch is tagged with the
    // new generation under both strategies.
    h.engines[0].swap_bundle(h.slices[0].clone());
    let sequential = h.router.recommend_batch_traced_sequential(&users);
    let parallel = h.router.recommend_batch_traced(&users);
    let (_, generation) = parallel.as_ref().expect("aligned deployment").clone();
    assert_eq!(generation, 1, "batch must carry the swapped generation");
    assert_equivalent(sequential, parallel, "re-aligned deployment");
}

/// Over real HTTP: a router front-end with a provably-last band answers
/// byte-identically to a server over the in-process sharded engine.
#[test]
fn http_batch_bytes_identical_with_a_slow_band() {
    let bundle = fixture_bundle();
    let h = Harness::build(4);
    let reference = Arc::new(ShardedEngine::new(bundle.clone(), ShardConfig::quantile(4)));
    let ref_server = HttpServer::bind(
        Frontend::Sharded(reference),
        None,
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .unwrap();

    let users: Vec<UserId> = (0..bundle.n_users()).rev().map(UserId).collect();
    h.arm_slow(1, &users);
    let router_server = HttpServer::bind(
        Frontend::Router(Arc::new(h.router)),
        None,
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .unwrap();

    let ids: Vec<String> = users.iter().map(|u| u.0.to_string()).collect();
    let body = format!("{{\"users\":[{}]}}", ids.join(","));
    let mut router_client = HttpClient::new(router_server.local_addr().to_string());
    let mut ref_client = HttpClient::new(ref_server.local_addr().to_string());
    let via_router = router_client
        .request("POST", "/v1/recommend:batch", Some(&body))
        .unwrap();
    let via_reference = ref_client
        .request("POST", "/v1/recommend:batch", Some(&body))
        .unwrap();
    assert_eq!(via_router.status, 200);
    assert_eq!(
        String::from_utf8(via_router.body).unwrap(),
        String::from_utf8(via_reference.body).unwrap(),
        "slow-band parallel fan-out changed the wire bytes"
    );
}

/// Unknown users in a batch stay in-slot errors (never a whole-batch
/// failure), identically under both strategies, even when every placeable
/// user routes to one band that is provably last.
#[test]
fn unknown_users_stay_in_slot_under_parallel_dispatch() {
    let h = Harness::build(2);
    let n = fixture_bundle().n_users();
    let bad = UserId(n + 7);
    let users = vec![UserId(0), bad, UserId(0), UserId(n + 100)];
    let sequential = h.router.recommend_batch_traced_sequential(&users);
    let band = h.touched(&users).into_iter().next().unwrap();
    h.arm_slow(band, &users);
    let parallel = h.router.recommend_batch_traced(&users);
    h.slow[band].delay_until(0);
    let (slots, _) = parallel.as_ref().expect("in-slot errors only").clone();
    assert_eq!(slots[1], Err(ServeError::UnknownUser(bad)));
    assert_eq!(slots[3], Err(ServeError::UnknownUser(UserId(n + 100))));
    assert!(slots[0].is_ok());
    assert_eq!(slots[0], slots[2]);
    assert_equivalent(sequential, parallel, "unknown users in-slot");
}

/// The serving stack's promise, as a table: the same fitted bundle
/// answers the same list, generation, typed rejection and ingest ack
/// however it is mounted — a pinned draw of the deployment oracle
/// (`tests/deployment_oracle.rs`), whose shapes include an engine as a
/// `dyn PeerTransport`, a router's `Local` and `Remote` bands, a one-member
/// replica group, a router under a router and WAL-less sharded engines:
/// reads under default options, a θ override and an exclusion, then an
/// applied keyed and unkeyed ingest, both typed rejections and a keyed
/// resend every mount dedups, then the reads again.
#[test]
fn a_mount_does_not_change_an_answer() {
    let setup = oracle::Setup::of(
        oracle::Tiny(41),
        oracle::Pop,
        oracle::Dynamic,
        oracle::Normalized,
    );
    let stranger = setup.data.dims().0 + 3;
    let reads = || {
        let mut steps = Vec::new();
        for opt in [oracle::Plain, oracle::Theta(7), oracle::Exclude(vec![1, 2])] {
            for user in [0, 3, stranger] {
                steps.push(oracle::Get(user, opt.clone()));
            }
            steps.push(oracle::Batch(vec![3, stranger, 0, 3], opt));
        }
        steps
    };
    let mut steps = reads();
    steps.extend([
        oracle::Ingest(Some(0), 3, 1, 5),
        oracle::Ingest(None, 0, 2, 5),
        oracle::Ingest(Some(1), stranger, 1, 5),
        oracle::Ingest(Some(2), 3, u32::MAX, 5),
        oracle::Ingest(Some(0), 3, 1, 5),
    ]);
    steps.extend(reads());
    oracle::check(setup, steps);
}

/// What an operator sees of a mount is its *mount*, not the type behind
/// it: the same in-process engine reports `kind="local"` with no address
/// as a `Local` band, `kind="remote"` under its label as a `Remote` band
/// (never probed inline, dispatched like any peer), and `kind="replicas"`
/// inside a group — in `/v1/stats` and in the router's metric label sets.
#[test]
fn the_operator_view_names_the_mount_not_the_type_behind_it() {
    let bundle = fixture_bundle();
    let cuts = cut_theta_bands(&bundle.theta, 3);
    let band_engine = |j: usize| {
        let (lo, hi) = band_bounds(&cuts, j);
        let slice = bundle.slice_theta_band(lo, hi);
        Arc::new(ServingEngine::new(slice, EngineConfig::default()))
    };
    let routes = vec![
        ShardRoute::Local(band_engine(0)),
        ShardRoute::Remote(band_engine(1)),
        ShardRoute::replicated(vec![band_engine(2)], ReplicaConfig::default()),
    ];
    let router = RouterNode::new(Arc::clone(&bundle.theta), cuts.clone(), routes);
    let server = HttpServer::bind(
        Frontend::Router(Arc::new(router)),
        None,
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .unwrap();
    let mut client = HttpClient::new(server.local_addr().to_string());
    // Twice each, so the second GET of a `Local` band's user is a cache hit.
    for user in (0..bundle.n_users()).chain(0..bundle.n_users()) {
        let path = format!("/v1/recommend/{user}");
        assert_eq!(client.request("GET", &path, None).unwrap().status, 200);
    }

    let stats = client.request("GET", "/v1/stats", None).unwrap();
    let stats = String::from_utf8(stats.body).unwrap();
    let replica_view = |count_healthy: &str| {
        format!("\"replicas\":{{{count_healthy},\"primary\":0,\"hedges\":0,\"failovers\":0,\"ejections\":0,\"restores\":0}}")
    };
    let one = replica_view("\"count\":1,\"healthy\":1");
    let shards = format!(
        "\"shards\":[\
         {{\"band\":0,\"kind\":\"local\",\"addr\":null,\"generation\":0,\"pending\":null,{one}}},\
         {{\"band\":1,\"kind\":\"remote\",\"addr\":\"in-process:single\",\"generation\":0,\"pending\":null,{one}}},\
         {{\"band\":2,\"kind\":\"replicas\",\"addr\":\"replicas[in-process:single]\",\"generation\":0,\"pending\":null,{one}}}]"
    );
    assert!(
        stats.starts_with(&format!(
            "{{\"backend\":\"router\",\"generation\":0,{shards},"
        )),
        "{stats}"
    );

    let metrics = client.request("GET", "/v1/metrics", None).unwrap();
    let metrics = String::from_utf8(metrics.body).unwrap();
    let mounts = ["local", "remote", "replicas"];
    for (band, kind) in mounts.into_iter().enumerate() {
        let labels = format!("{{band=\"{band}\",kind=\"{kind}\"}}");
        for series in [
            "ganc_router_band_dispatch_us_count",
            "ganc_router_band_errors_total",
            "ganc_router_band_hedges_total",
            "ganc_router_band_failovers_total",
            "ganc_router_band_ejections_total",
            "ganc_router_band_restores_total",
        ] {
            let line = format!("{series}{labels} ");
            assert!(metrics.contains(&line), "missing {line}");
        }
    }
    // Only the `Local` band's repeats were answered on the loop thread.
    let in_band_0 = |&&t: &&f64| shard_of(&cuts, t) == 0;
    let inline = bundle.theta.iter().filter(in_band_0).count();
    assert!(inline > 0, "the fixture leaves band 0 empty");
    let inline_line = format!("ganc_http_inline_total {inline}\n");
    assert!(metrics.contains(&inline_line), "want {inline_line}");
    let mislabelled = metrics
        .lines()
        .filter(|l| l.starts_with("ganc_router_band_"))
        .filter(|l| {
            // Bucket lines carry a third label, `le`, after these two.
            let named = |(band, kind): (usize, &str)| {
                l.contains(&format!("band=\"{band}\",kind=\"{kind}\""))
            };
            !mounts.into_iter().enumerate().any(named)
        })
        .count();
    assert_eq!(mislabelled, 0, "a band series under another mount's labels");
}
