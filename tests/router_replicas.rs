//! Replicated θ-bands are **byte-identical** to single-backend routes —
//! under every injected fault class, not just on a healthy loopback. The
//! deterministic doubles from `ganc::http::testing` inject the faults as
//! pure synchronization (no sleeps, no sockets):
//!
//! * a **parked primary** ([`GatedPeer`] closed) forces a hedge — with a
//!   zero budget deterministically, with a real budget only once the
//!   injected [`ManualClock`] crosses the deadline;
//! * a **dead/flaky primary** ([`FlakyPeer`]) forces failover, feeds the
//!   consecutive-failure breaker, and (once ejected) is restored by
//!   [`ReplicaSet::probe_once`] with the primary rotating back;
//! * a **mid-hedge hot-swap** must never mix bundle generations inside
//!   one batch — a sub-batch is always one replica's answer;
//! * **all replicas down** must surface the existing machine-readable
//!   `BackendError::Band` contract, in-process and over HTTP.
//!
//! Compared surfaces: per-slot lists, per-slot errors, ordering, the
//! batch's generation tag, replica-set counters, and (for the HTTP case)
//! the raw response bytes.

use ganc::core::coverage::CoverageKind;
use ganc::core::query::{band_bounds, cut_theta_bands, shard_of};
use ganc::dataset::synth::DatasetProfile;
use ganc::dataset::{ItemId, UserId};
use ganc::http::testing::{FlakyPeer, GatedPeer, Hooks, Injected, RecordingPeer};
use ganc::http::{
    BackendError, CoalescedShard, Frontend, HttpClient, HttpServer, IngestEntry, PeerTransport,
    RemoteShard, ReplicaConfig, ReplicaSet, RouterNode, ServerConfig, ShardRoute,
};
use ganc::obs::{Clock, ManualClock};
use ganc::preference::generalized::GeneralizedConfig;
use ganc::recommender::pop::MostPopular;
use ganc::serve::{
    BatchConfig, DurableConfig, EngineConfig, FitConfig, FittedModel, IngestAck, ModelBundle,
    ServeError, ServingEngine, ShardConfig, ShardedEngine,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

const N: usize = 5;
const BAND_COUNTS: [usize; 3] = [1, 2, 4];

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

/// Zero hedge budget: every first attempt hedges immediately — the
/// deterministic way to exercise the hedge path without a clock thread.
fn hedge_now() -> ReplicaConfig {
    ReplicaConfig {
        hedge_budget: Some(Duration::ZERO),
        ..ReplicaConfig::default()
    }
}

/// Two routers over the same fixture: `replicated` serves every band from
/// a replica group of `GatedPeer(FlakyPeer(Frontend))` chains over that
/// band's slice, `reference` serves each band from one plain local engine
/// over an identical slice — the byte-identity oracle. Gates start open;
/// a test closes one to park a replica.
struct Harness {
    replicated: RouterNode,
    reference: RouterNode,
    sets: Vec<Arc<ReplicaSet>>,
    /// `gates[band][replica]`.
    gates: Vec<Vec<Arc<GatedPeer>>>,
    /// `flaky[band][replica]`.
    flaky: Vec<Vec<Arc<FlakyPeer>>>,
    /// `engines[band][replica]`.
    engines: Vec<Vec<Arc<ServingEngine>>>,
    slices: Vec<ModelBundle>,
    clock: Arc<ManualClock>,
    cuts: Vec<f64>,
}

impl Harness {
    fn build(bands: usize, replicas: usize, cfg: ReplicaConfig) -> Harness {
        let bundle = fixture_bundle();
        let cuts = cut_theta_bands(&bundle.theta, bands);
        let clock = Arc::new(ManualClock::new());
        let mut routes = Vec::new();
        let mut ref_routes = Vec::new();
        let mut sets = Vec::new();
        let mut gates = Vec::new();
        let mut flaky = Vec::new();
        let mut engines = Vec::new();
        let mut slices = Vec::new();
        for j in 0..bands {
            let (lo, hi) = band_bounds(&cuts, j);
            let slice = bundle.slice_theta_band(lo, hi);
            let mut peers: Vec<Arc<dyn PeerTransport>> = Vec::new();
            let mut band_gates = Vec::new();
            let mut band_flaky = Vec::new();
            let mut band_engines = Vec::new();
            for _ in 0..replicas {
                let engine = Arc::new(ServingEngine::new(slice.clone(), EngineConfig::default()));
                let frontend: Arc<dyn PeerTransport> = engine.clone();
                let flaky_r = FlakyPeer::new(frontend);
                let gate = GatedPeer::new(Arc::clone(&flaky_r) as Arc<dyn PeerTransport>);
                gate.open();
                peers.push(Arc::clone(&gate) as Arc<dyn PeerTransport>);
                band_gates.push(gate);
                band_flaky.push(flaky_r);
                band_engines.push(engine);
            }
            let set = ReplicaSet::with_clock(peers, cfg, Arc::clone(&clock) as Arc<dyn Clock>);
            routes.push(ShardRoute::Replicas(Arc::clone(&set)));
            ref_routes.push(ShardRoute::Local(Arc::new(ServingEngine::new(
                slice.clone(),
                EngineConfig::default(),
            ))));
            sets.push(set);
            gates.push(band_gates);
            flaky.push(band_flaky);
            engines.push(band_engines);
            slices.push(slice);
        }
        let theta = Arc::clone(&bundle.theta);
        Harness {
            replicated: RouterNode::new(Arc::clone(&theta), cuts.clone(), routes),
            reference: RouterNode::new(theta, cuts.clone(), ref_routes),
            sets,
            gates,
            flaky,
            engines,
            slices,
            clock,
            cuts,
        }
    }

    /// Every fixture user, reversed, plus duplicates — straddles every
    /// band.
    fn straddling_batch(&self) -> Vec<UserId> {
        let mut users: Vec<UserId> = (0..fixture_bundle().n_users()).rev().map(UserId).collect();
        users.extend((0..10).map(UserId));
        users
    }

    /// The band a user routes to.
    fn band_of(&self, user: UserId) -> usize {
        shard_of(&self.cuts, fixture_bundle().theta[user.idx()])
    }

    /// A user routed to `band` (the fixture straddles every band).
    fn user_in(&self, band: usize) -> UserId {
        (0..fixture_bundle().n_users())
            .map(UserId)
            .find(|&u| self.band_of(u) == band)
            .expect("fixture covers every band")
    }

    /// Release every parked straggler so detached hedge threads finish.
    fn open_all(&self) {
        for band in &self.gates {
            for gate in band {
                gate.open();
            }
        }
    }
}

type Batch = Result<(Vec<Result<Arc<Vec<ItemId>>, ServeError>>, u64), BackendError>;

/// Both outcomes must be the same value — including which error.
fn assert_equivalent(a: Batch, b: Batch, context: &str) {
    match (a, b) {
        (Ok((a_slots, a_gen)), Ok((b_slots, b_gen))) => {
            assert_eq!(a_slots, b_slots, "{context}: slots diverge");
            assert_eq!(a_gen, b_gen, "{context}: generation tag diverges");
        }
        (Err(a), Err(b)) => {
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "{context}: errors diverge"
            );
        }
        (a, b) => panic!("{context}: outcome diverges: {a:?} vs {b:?}"),
    }
}

proptest! {
    /// Across band counts, arbitrary batches (straddling bands,
    /// duplicates, unknown users), with hedging armed on *every* dispatch
    /// (zero budget): the replicated router's parallel fan-out, its
    /// sequential reference, and the single-backend reference router all
    /// produce identical slots, ordering, and generation tags.
    #[test]
    fn replicated_hedged_dispatch_matches_single_backend_reference(
        b_idx in 0usize..BAND_COUNTS.len(),
        raw_users in proptest::collection::vec(0u32..60, 0..30),
    ) {
        let bands = BAND_COUNTS[b_idx];
        let h = Harness::build(bands, 2, hedge_now());
        // 0..60 over a 50-user fixture: unknown users ride along in-slot.
        let users: Vec<UserId> = raw_users.iter().map(|&u| UserId(u)).collect();
        let context = format!("bands={bands} users={raw_users:?}");
        let expected = h.reference.recommend_batch_traced(&users);
        let sequential = h.replicated.recommend_batch_traced_sequential(&users);
        let parallel = h.replicated.recommend_batch_traced(&users);
        match (&expected, &parallel) {
            (Ok(_), Ok(_)) => {}
            (e, p) => prop_assert!(false, "healthy deployments must answer: {e:?} vs {p:?}"),
        }
        assert_equivalent(expected.clone(), parallel, &context);
        assert_equivalent(expected, sequential, &context);
    }
}

/// A parked primary (gate closed) forces the hedge: the batch is answered
/// by the other replica, byte-identical to the reference, under both
/// dispatch strategies — and the hedge counter moves while the failover
/// counter stays at zero (a slow primary is not a failed primary).
#[test]
fn parked_primary_hedges_to_the_next_replica() {
    let h = Harness::build(2, 2, hedge_now());
    let users = h.straddling_batch();
    h.gates[0][0].close();

    let expected = h.reference.recommend_batch_traced(&users);
    let sequential = h.replicated.recommend_batch_traced_sequential(&users);
    let parallel = h.replicated.recommend_batch_traced(&users);
    assert_equivalent(expected.clone(), sequential, "parked primary, sequential");
    assert_equivalent(expected, parallel, "parked primary, parallel");

    let single = h
        .replicated
        .recommend_traced(h.user_in(0))
        .expect("hedge answers singles too");
    assert_eq!(
        single,
        h.reference.recommend_traced(h.user_in(0)).unwrap(),
        "single-request hedge diverges"
    );

    let stats = h.sets[0].stats();
    assert!(stats.hedges >= 3, "every band-0 dispatch hedged: {stats:?}");
    assert_eq!(stats.failovers, 0, "a parked primary is not a failure");
    assert_eq!(stats.healthy, 2, "nobody failed, nobody is ejected");
    h.open_all();
}

/// A dead primary (one injected failure) fails over to the next replica
/// without surfacing: the caller sees the reference answer, the failover
/// counter moves, and one failure is below the breaker threshold so
/// nothing is ejected.
#[test]
fn dead_primary_fails_over_without_surfacing() {
    let h = Harness::build(2, 2, ReplicaConfig::default());
    let users = h.straddling_batch();
    h.flaky[0][0].fail_next(1);

    let expected = h.reference.recommend_batch_traced(&users);
    let parallel = h.replicated.recommend_batch_traced(&users);
    assert_equivalent(expected, parallel, "dead primary");

    let stats = h.sets[0].stats();
    assert_eq!(stats.failovers, 1, "{stats:?}");
    assert_eq!(stats.hedges, 0, "no budget configured, no hedging");
    assert_eq!(stats.healthy, 2, "one failure is below the threshold");
    assert_eq!(stats.primary, 0, "primary only rotates on ejection");

    // Healed: the next batch is served by the primary again, no new
    // failover.
    let again = h.replicated.recommend_batch_traced(&users);
    assert!(again.is_ok());
    assert_eq!(h.sets[0].stats().failovers, 1);
}

/// Consecutive failures cross the breaker threshold: the replica is
/// ejected, the primary rotates to the next healthy index, and later
/// dispatches skip the ejected replica entirely (no more failovers).
#[test]
fn breaker_ejects_the_primary_and_rotates() {
    let cfg = ReplicaConfig {
        failure_threshold: 2,
        ..ReplicaConfig::default()
    };
    let h = Harness::build(1, 3, cfg);
    let users = h.straddling_batch();
    h.flaky[0][0].fail_next(2);

    for round in 0..2 {
        let expected = h.reference.recommend_batch_traced(&users);
        let parallel = h.replicated.recommend_batch_traced(&users);
        assert_equivalent(expected, parallel, &format!("breaker round {round}"));
    }
    let stats = h.sets[0].stats();
    assert_eq!(stats.failovers, 2, "{stats:?}");
    assert_eq!(stats.ejections, 1, "{stats:?}");
    assert_eq!(stats.healthy, 2, "replica 0 is out of rotation");
    assert_eq!(stats.primary, 1, "primary rotated off the ejected replica");

    // The ejected replica is skipped: dispatch goes straight to the new
    // primary, no failover.
    let after = h.replicated.recommend_batch_traced(&users);
    assert!(after.is_ok());
    assert_eq!(
        h.sets[0].stats().failovers,
        2,
        "no retry against an ejected replica"
    );
}

/// A probe pass restores an ejected replica that answers health checks
/// again and rotates the primary back to the lowest healthy index — the
/// recovered original primary takes over.
#[test]
fn probe_restores_the_ejected_replica_and_rotates_back() {
    let cfg = ReplicaConfig {
        failure_threshold: 1,
        ..ReplicaConfig::default()
    };
    let h = Harness::build(1, 2, cfg);
    let users = h.straddling_batch();
    h.flaky[0][0].fail_next(1);
    let expected = h.reference.recommend_batch_traced(&users);
    let parallel = h.replicated.recommend_batch_traced(&users);
    assert_equivalent(expected, parallel, "threshold-1 ejection");
    let tripped = h.sets[0].stats();
    assert_eq!(
        (tripped.ejections, tripped.healthy, tripped.primary),
        (1, 1, 1)
    );

    // The flaky double is healed (its failure budget is spent), so the
    // probe's health check answers and the replica rejoins rotation.
    assert_eq!(h.sets[0].probe_once(), 1, "one replica restored");
    assert_eq!(h.sets[0].probe_once(), 0, "probe is idempotent");
    let restored = h.sets[0].stats();
    assert_eq!((restored.restores, restored.healthy), (1, 2));
    assert_eq!(
        restored.primary, 0,
        "recovered original primary rotates back"
    );

    let after = h.replicated.recommend_batch_traced(&users);
    let reference = h.reference.recommend_batch_traced(&users);
    assert_equivalent(reference, after, "after restore");
}

/// The background probe is that same pass on the injected clock: a frozen
/// clock keeps it idle however much wall time passes, and reaching
/// `probe_interval` restores the replica with no one calling `probe_once`.
#[test]
fn background_probe_restores_when_the_clock_reaches_its_interval() {
    let cfg = ReplicaConfig {
        failure_threshold: 1,
        probe_interval: Duration::from_secs(5),
        ..ReplicaConfig::default()
    };
    let h = Harness::build(1, 2, cfg);
    h.flaky[0][0].fail_next(1);
    h.replicated
        .recommend_batch_traced(&h.straddling_batch())
        .unwrap();
    assert_eq!(h.sets[0].stats().healthy, 1, "replica 0 ejected");

    let probe = h.sets[0].spawn_probe();
    h.clock.advance(Duration::from_secs(4));
    std::thread::sleep(Duration::from_millis(30));
    assert_eq!(h.sets[0].stats().restores, 0, "4 s < the 5 s interval");

    h.clock.advance(Duration::from_secs(1));
    let deadline = Instant::now() + Duration::from_secs(10);
    // A pass restores first and rotates the primary back last.
    while h.sets[0].stats().primary != 0 && Instant::now() < deadline {
        std::thread::yield_now();
    }
    let restored = h.sets[0].stats();
    assert_eq!(
        (restored.restores, restored.healthy, restored.primary),
        (1, 2, 0)
    );
    assert!(probe.alive());
}

/// Every replica of one band down: both dispatch strategies surface the
/// identical `BackendError::Band` naming that band, with the underlying
/// cause preserved — and the deployment serves again once the band heals.
#[test]
fn all_replicas_down_surfaces_the_band_error_contract() {
    let h = Harness::build(2, 2, ReplicaConfig::default());
    let users = h.straddling_batch();

    h.flaky[1][0].fail_next(8);
    h.flaky[1][1].fail_next(8);
    let sequential = h.replicated.recommend_batch_traced_sequential(&users);
    let parallel = h.replicated.recommend_batch_traced(&users);
    match &parallel {
        Err(BackendError::Band { band, message }) => {
            assert_eq!(*band, 1, "error must carry the failed band");
            assert!(
                message.contains("injected failure"),
                "cause preserved: {message}"
            );
        }
        other => panic!("expected a band error, got {other:?}"),
    }
    assert_equivalent(sequential, parallel, "all band-1 replicas down");

    // Healed: byte-identical service resumes.
    h.flaky[1][0].fail_next(0);
    h.flaky[1][1].fail_next(0);
    let expected = h.reference.recommend_batch_traced(&users);
    let healed = h.replicated.recommend_batch_traced(&users);
    assert_equivalent(expected, healed, "healed band");
}

/// The same all-replicas-down failure over real HTTP: the response is the
/// existing 502 contract with the machine-readable `"band"` field.
#[test]
fn all_replicas_down_over_http_keeps_the_band_error_body() {
    let h = Harness::build(2, 2, ReplicaConfig::default());
    let users = h.straddling_batch();
    let flaky = h.flaky.clone();
    let server = HttpServer::bind(
        Frontend::Router(Arc::new(h.replicated)),
        None,
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .unwrap();

    flaky[1][0].fail_next(1);
    flaky[1][1].fail_next(1);
    let ids: Vec<String> = users.iter().map(|u| u.0.to_string()).collect();
    let body = format!("{{\"users\":[{}]}}", ids.join(","));
    let mut client = HttpClient::new(server.local_addr().to_string());
    let resp = client
        .request("POST", "/v1/recommend:batch", Some(&body))
        .unwrap();
    assert_eq!(resp.status, 502);
    let v: tinyjson::Value = tinyjson::from_str(&String::from_utf8(resp.body).unwrap()).unwrap();
    assert_eq!(
        v["band"].as_u64(),
        Some(1),
        "band field must survive replication"
    );
    assert!(v["error"].as_str().is_some());

    // Healed over the same connection.
    let healed = client
        .request("POST", "/v1/recommend:batch", Some(&body))
        .unwrap();
    assert_eq!(healed.status, 200);
}

/// A hot-swap landing mid-hedge must never mix generations inside one
/// batch: the sub-batch is whoever answered, whole — so the batch carries
/// exactly one replica's generation and the reference's list bytes.
#[test]
fn mid_hedge_hot_swap_never_mixes_generations() {
    let h = Harness::build(1, 2, hedge_now());
    let users = h.straddling_batch();
    let (ref_slots, ref_gen) = h.reference.recommend_batch_traced(&users).unwrap();
    assert_eq!(ref_gen, 0);

    // Park the primary and swap the hedge replica's bundle (same content,
    // new generation) — the "refit raced the hedge" scenario.
    h.gates[0][0].close();
    assert_eq!(h.engines[0][1].swap_bundle(h.slices[0].clone()), 1);
    let (slots, generation) = h
        .replicated
        .recommend_batch_traced(&users)
        .expect("hedge answers");
    assert_eq!(slots, ref_slots, "content is generation-independent");
    assert_eq!(
        generation, 1,
        "the whole batch is the hedge replica's answer"
    );

    // Straggler released: now either replica may win the zero-budget
    // race, but the batch must still be exactly ONE replica's answer —
    // generation 0 or 1, never a mix (a mix is unrepresentable: the
    // sub-batch is one transport call).
    h.open_all();
    let (slots, generation) = h
        .replicated
        .recommend_batch_traced(&users)
        .expect("both replicas live");
    assert_eq!(slots, ref_slots);
    assert!(
        generation == 0 || generation == 1,
        "batch generation must be one replica's: {generation}"
    );
}

/// Replication does not weaken the cross-band skew check: when band 1's
/// replicas are all on a newer generation than band 0, a straddling batch
/// is refused with the identical hard error under both strategies.
#[test]
fn cross_band_generation_skew_is_still_detected() {
    let h = Harness::build(2, 2, ReplicaConfig::default());
    let users = h.straddling_batch();
    h.engines[1][0].swap_bundle(h.slices[1].clone());
    h.engines[1][1].swap_bundle(h.slices[1].clone());

    let sequential = h.replicated.recommend_batch_traced_sequential(&users);
    let parallel = h.replicated.recommend_batch_traced(&users);
    assert!(
        matches!(&parallel, Err(BackendError::Transport(msg)) if msg.contains("generation skew")),
        "skew must be a hard error: {parallel:?}"
    );
    assert_equivalent(sequential, parallel, "skewed replicated deployment");
}

/// The hedge budget reads the *injected* clock: with the clock frozen the
/// hedge provably cannot fire no matter how long the primary is parked;
/// one manual advance across the deadline fires it. No wall sleeps.
#[test]
fn hedge_budget_gates_on_the_injected_clock() {
    let cfg = ReplicaConfig {
        hedge_budget: Some(Duration::from_millis(10)),
        ..ReplicaConfig::default()
    };
    let h = Harness::build(1, 2, cfg);
    let users = h.straddling_batch();
    let expected = h.reference.recommend_batch_traced(&users);
    h.gates[0][0].close();

    std::thread::scope(|scope| {
        let router = &h.replicated;
        let dispatch = scope.spawn(move || router.recommend_batch_traced(&users));
        // The primary is parked at the gate; the coordinator is waiting on
        // a frozen clock, so the 10ms budget can never elapse.
        h.gates[0][0].wait_arrivals(1);
        assert_eq!(h.sets[0].stats().hedges, 0, "no hedge before the deadline");
        h.clock.advance(Duration::from_millis(10));
        let parallel = dispatch.join().expect("dispatch thread");
        assert_equivalent(expected, parallel, "clock-driven hedge");
    });
    assert_eq!(h.sets[0].stats().hedges, 1, "exactly one hedge fired");
    h.open_all();
}

/// A WAL-backed sharded replica behind a [`FlakyPeer`], for the
/// exactly-once ingest regressions.
fn durable_replica(tag: &str) -> (Arc<ShardedEngine>, Arc<FlakyPeer>, std::path::PathBuf) {
    let engine = Arc::new(ShardedEngine::new(
        fixture_bundle().clone(),
        ShardConfig::quantile(2),
    ));
    let path = std::env::temp_dir().join(format!(
        "ganc_router_replicas_{tag}_{}.bin",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    engine.attach_durable(DurableConfig::new(&path)).unwrap();
    let flaky = FlakyPeer::new(Arc::clone(&engine) as Arc<dyn PeerTransport>);
    (engine, flaky, path)
}

/// The keyed ingest fan-out is exactly-once against WAL-backed replicas
/// under both ingest fault classes:
///
/// * a **lost request** (replica errors before its engine sees the write)
///   is healed by the in-call retry;
/// * a **lost ack** (replica applies, then the ack is dropped) makes the
///   retry come back `Deduplicated` from the WAL's key window instead of
///   double-applying;
///
/// and a caller-level resend of the whole storm under the same keys is a
/// no-op. Each replica's WAL ends up holding each interaction exactly
/// once.
#[test]
fn flaky_replica_keyed_ingest_fan_out_is_exactly_once() {
    let (e0, f0, p0) = durable_replica("lost_req");
    let (e1, f1, p1) = durable_replica("lost_ack");
    let set = ReplicaSet::new(
        vec![
            Arc::clone(&f0) as Arc<dyn PeerTransport>,
            Arc::clone(&f1) as Arc<dyn PeerTransport>,
        ],
        ReplicaConfig::default(),
    );

    // Lost request on replica 0: the first attempt fails before the
    // engine sees it; the in-call retry delivers it.
    f0.fail_ingests(1);
    set.ingest_keyed(Some("storm-0"), UserId(0), ItemId(1), 5.0)
        .unwrap();

    // Lost ack on replica 1: the engine applies, the ack is dropped, and
    // the retry hits the idempotency window — not the model twice.
    f1.fail_ingest_acks(1);
    set.ingest_keyed(Some("storm-1"), UserId(1), ItemId(2), 4.0)
        .unwrap();

    // A caller resending the acknowledged storm (same keys) is a no-op.
    set.ingest_keyed(Some("storm-0"), UserId(0), ItemId(1), 5.0)
        .unwrap();
    set.ingest_keyed(Some("storm-1"), UserId(1), ItemId(2), 4.0)
        .unwrap();

    for (r, e) in [&e0, &e1].into_iter().enumerate() {
        let w = e.wal_stats().expect("durable replica");
        assert_eq!(
            w.records, 2,
            "replica {r} must hold each interaction exactly once: {w:?}"
        );
        assert_eq!(e.pending_ingests(), 2, "replica {r} pending for refit");
    }
    // Replica 0 absorbed the two resends; replica 1 additionally absorbed
    // the retry after its lost ack.
    assert_eq!(e0.dedup_stats().hits, 2);
    assert_eq!(e1.dedup_stats().hits, 3);
    let _ = std::fs::remove_file(p0);
    let _ = std::fs::remove_file(p1);
}

/// The in-call retry is exactly-once against memory-only replicas too: a
/// replica whose engine applied the ingest but lost the ack answers the
/// retry `Deduplicated` from the engine's own key window.
#[test]
fn memory_only_replica_dedups_the_retry_after_a_lost_ack() {
    let engines: Vec<Arc<ServingEngine>> = (0..2)
        .map(|_| {
            let bundle = fixture_bundle().clone();
            Arc::new(ServingEngine::new(bundle, EngineConfig::default()))
        })
        .collect();
    let flaky: Vec<Arc<FlakyPeer>> = engines
        .iter()
        .map(|e| FlakyPeer::new(Arc::clone(e) as Arc<dyn PeerTransport>))
        .collect();
    let peers = flaky
        .iter()
        .map(|f| Arc::clone(f) as Arc<dyn PeerTransport>);
    let set = ReplicaSet::new(peers.collect(), ReplicaConfig::default());

    flaky[0].fail_ingest_acks(1);
    let ack = set.ingest_keyed(Some("lost-ack"), UserId(0), ItemId(1), 5.0);
    assert_eq!(ack, Ok(IngestAck::Applied));
    for (r, engine) in engines.iter().enumerate() {
        assert_eq!(engine.stats().ingested, 1, "replica {r} applied it once");
    }
}

/// Hooks that fail the next `k` ingests the way a node does whose WAL
/// append failed: before the write is applied, with the typed error.
struct WalFault(AtomicU32);

impl Hooks for WalFault {
    const NAME: &'static str = "wal-fault";

    fn before_ingest(&self, _batch: Option<&[IngestEntry]>) -> Result<(), BackendError> {
        match self
            .0
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
        {
            Ok(_) => Err(BackendError::Serve(ServeError::Durability)),
            Err(_) => Ok(()),
        }
    }
}

/// A single-engine peer whose next `failures` ingests fail as [`WalFault`]s.
fn wal_faulty_peer(failures: u32) -> (Arc<ServingEngine>, Arc<dyn PeerTransport>) {
    let engine = Arc::new(ServingEngine::new(
        fixture_bundle().clone(),
        EngineConfig::default(),
    ));
    let inner = Arc::clone(&engine);
    let hooks = WalFault(AtomicU32::new(failures));
    (engine, Arc::new(Injected::wrap(inner, hooks)))
}

/// A failed WAL append is a node fault, not a verdict on the request: a
/// replica that answers it once and then applies is delivered within the
/// in-call retry budget (only unknown ids skip the retry), and a remote
/// caller sees the same typed error whichever endpoint carried it — the
/// 502 body of `/v1/ingest` on a plain route, a slot of `/v1/ingest:batch`
/// on a coalesced one.
#[test]
fn durability_failures_are_retried_and_decode_alike_on_every_route() {
    let (engine, peer) = wal_faulty_peer(1);
    let cfg = ReplicaConfig {
        ingest_retries: 2,
        ..ReplicaConfig::default()
    };
    let set = ReplicaSet::new(vec![peer], cfg);
    set.ingest_keyed(Some("wal-0"), UserId(0), ItemId(1), 5.0)
        .expect("one durability failure is inside the retry budget");
    assert_eq!(engine.stats().ingested, 1, "applied once, by the retry");
    // An unknown id is deterministic and still answers without a retry.
    let unknown = set.ingest_keyed(Some("wal-1"), UserId(0), ItemId(u32::MAX), 5.0);
    let rejected = BackendError::Serve(ServeError::UnknownItem(ItemId(u32::MAX)));
    assert_eq!(unknown.unwrap_err(), rejected);

    // Over the wire: the node fronts a router whose one band is the
    // faulty peer, so its handlers see `Serve(Durability)` from a backend.
    let (engine, peer) = wal_faulty_peer(2);
    let theta = Arc::clone(&fixture_bundle().theta);
    let router = RouterNode::new(theta, Vec::new(), vec![ShardRoute::Remote(peer)]);
    let server = HttpServer::bind(
        Frontend::Router(Arc::new(router)),
        None,
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .unwrap();
    let connect = || Arc::new(RemoteShard::connect(server.local_addr().to_string()).unwrap());
    let plain: Arc<dyn PeerTransport> = connect();
    let coalesced = CoalescedShard::new(connect(), BatchConfig::default());
    let durability = BackendError::Serve(ServeError::Durability);
    let over_plain = plain.ingest_keyed(Some("wal-2"), UserId(0), ItemId(1), 5.0);
    assert_eq!(over_plain.unwrap_err(), durability, "plain route");
    let over_batch = coalesced.ingest_keyed(Some("wal-3"), UserId(0), ItemId(1), 5.0);
    assert_eq!(over_batch.unwrap_err(), durability, "coalesced route");
    assert_eq!(
        engine.stats().ingested,
        0,
        "a failed append applies nothing"
    );
}

/// Hedged dispatch composes with [`CoalescedShard`]-wrapped replicas: a
/// primary parked *inside its coalescer* is hedged around byte-identically
/// to a plain single-backend oracle, a keyed ingest travels to every
/// replica as **one** `ingest_batch` wire call carrying the key (never a
/// single-ingest call), and the read path still matches afterwards.
#[test]
fn coalesced_replicas_hedge_byte_identically_under_a_parked_primary() {
    let bundle = fixture_bundle();
    let oracle_engine = Arc::new(ServingEngine::new(bundle.clone(), EngineConfig::default()));
    let oracle: Arc<dyn PeerTransport> = oracle_engine.clone();

    let mut peers: Vec<Arc<dyn PeerTransport>> = Vec::new();
    let mut gates = Vec::new();
    let mut recorders = Vec::new();
    let mut engines = Vec::new();
    for _ in 0..2 {
        let engine = Arc::new(ServingEngine::new(bundle.clone(), EngineConfig::default()));
        let gate = GatedPeer::new(Arc::clone(&engine) as Arc<dyn PeerTransport>);
        gate.open();
        let recorder = RecordingPeer::new(Arc::clone(&gate) as Arc<dyn PeerTransport>);
        peers.push(Arc::new(CoalescedShard::new(
            Arc::clone(&recorder) as Arc<dyn PeerTransport>,
            BatchConfig::default(),
        )));
        gates.push(gate);
        recorders.push(recorder);
        engines.push(engine);
    }
    let set = ReplicaSet::new(peers, hedge_now());

    let mut users: Vec<UserId> = (0..bundle.n_users()).rev().map(UserId).collect();
    users.extend((0..10).map(UserId));
    let expected = oracle.recommend_batch_traced(&users).unwrap();

    // Park the primary inside its coalescer: the zero-budget hedge must
    // answer from the other coalesced replica, byte-identically.
    gates[0].close();
    let hedged = set.recommend_batch_traced(&users).expect("hedge answers");
    assert_eq!(hedged, expected, "coalesced hedge diverges from the oracle");
    let stats = set.stats();
    assert!(
        stats.hedges >= 1,
        "the parked primary forced a hedge: {stats:?}"
    );
    assert_eq!(stats.failovers, 0, "a parked coalescer is not a failure");
    gates[0].open();

    // A keyed ingest through the coalescers reaches every replica exactly
    // once, as a batched wire call that carries the idempotency key.
    set.ingest_keyed(Some("coalesced-0"), UserId(0), ItemId(1), 5.0)
        .unwrap();
    oracle_engine.ingest(UserId(0), ItemId(1), 5.0).unwrap();
    for (r, engine) in engines.iter().enumerate() {
        assert_eq!(engine.stats().ingested, 1, "replica {r} missed the ingest");
    }
    for (r, recorder) in recorders.iter().enumerate() {
        let batches = recorder.ingest_batches();
        assert_eq!(batches.len(), 1, "replica {r}: exactly one wire batch");
        assert_eq!(batches[0].len(), 1, "replica {r}");
        assert_eq!(
            batches[0][0].key.as_deref(),
            Some("coalesced-0"),
            "replica {r}: the key must survive coalescing"
        );
        assert_eq!(
            recorder.ingest_singles(),
            0,
            "replica {r}: coalesced ingest must not use the single-ingest call"
        );
    }

    // The hedged+coalesced read path still matches after the ingest.
    let after = oracle.recommend_batch_traced(&users).unwrap();
    let replicated = set.recommend_batch_traced(&users).expect("both live");
    assert_eq!(replicated, after, "post-ingest read path diverges");
}

/// Ingest fans to **every** replica of every band (healthy or not), so no
/// replica serves stale popularity after a restore.
#[test]
fn ingest_reaches_every_replica_of_every_band() {
    let h = Harness::build(2, 2, ReplicaConfig::default());
    let user = UserId(0);
    let item = ItemId(1);
    h.replicated.ingest(user, item, 5.0).unwrap();
    for (j, band) in h.engines.iter().enumerate() {
        for (r, engine) in band.iter().enumerate() {
            assert_eq!(
                engine.stats().ingested,
                1,
                "band {j} replica {r} missed the ingest"
            );
        }
    }
}
