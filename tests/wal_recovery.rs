//! Crash-recovery oracle suite for the per-node WAL and exactly-once
//! ingestion (PR 8).
//!
//! The contract under test: an ingest is acknowledged only after it is in
//! the write-ahead log, so a node killed at *any* moment — including
//! SIGKILL mid-ingest-storm, with torn bytes at the log's tail — recovers
//! on restart to exactly the state a from-scratch
//! `ModelBundle::fit` produces on base train + every acknowledged
//! interaction. Idempotency keys make the ack itself retryable: resending
//! an acknowledged interaction (same key) is a no-op across restarts.
//!
//! Three layers of evidence:
//!
//! 1. **Framing properties** (proptest): record encode/decode round-trips
//!    exactly; a stream cut at an arbitrary byte recovers the longest
//!    valid prefix; a flipped byte never panics the decoder and never
//!    yields a record that was not written.
//! 2. **In-process crash simulation**: drop an engine without refitting
//!    (the WAL survives, nothing else does), re-attach, and compare
//!    against the from-scratch oracle — including a torn tail and a
//!    crash *between* artifact persist and WAL truncation (the bounded
//!    double-apply that must self-heal); and generated schedules of
//!    ingests, refits and crash-restarts, after every step of which a node
//!    rebuilt from disk must serve exactly what the live node serves.
//! 3. **Two-process SIGKILL oracle**: a real HTTP node (this test binary
//!    re-executed, the `examples/http_demo.rs` pattern) is killed with
//!    SIGKILL in the middle of a keyed ingest storm, restarted on the
//!    same WAL + artifact, re-sent the full storm under the same keys,
//!    refit, and compared user-by-user against the oracle.

mod doubles;

use doubles::FlakyPeer;
use ganc::core::query::{band_bounds, cut_theta_bands};
use ganc::core::CoverageKind;
use ganc::dataset::synth::DatasetProfile;
use ganc::dataset::{Interactions, ItemId, UserId};
use ganc::http::{
    Frontend, HttpClient, HttpServer, PeerTransport, RefitHook, RouterNode, ServerConfig,
    ShardRoute,
};
use ganc::preference::generalized::GeneralizedConfig;
use ganc::recommender::psvd::Psvd;
use ganc::serve::refit::{merge_interactions, RefitOutcome, Refitter};
use ganc::serve::{
    decode_stream, encode_record, DurableConfig, DurableLog, EngineConfig, FitConfig, FittedModel,
    IngestAck, ModelBundle, Recovered, SaveLoad, ServingEngine, ShardConfig, ShardedEngine, Wal,
    WalRecord,
};
use proptest::prelude::*;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
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
    let data = DatasetProfile::tiny().generate(29);
    let split = data.split_per_user(0.5, 6).unwrap();
    let train = split.train;
    let fitter = psvd_fitter();
    let (model, theta) = fitter(&train);
    let bundle = ModelBundle::fit(model, theta, train.clone(), &fit_cfg());
    (train, bundle)
}

/// A per-test scratch file under the OS temp dir (unique per process so
/// parallel `cargo test` runs never collide).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ganc_wal_recovery");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join(format!("{name}_{}.bin", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// The oracle: a fresh engine over a from-scratch fit of base train plus
/// `sent`, in send order (merge is last-rating-wins).
fn oracle_engine(train: &Interactions, sent: &[(UserId, ItemId, f32)]) -> ServingEngine {
    let accumulated = merge_interactions(train, sent);
    let fitter = psvd_fitter();
    let (model, theta) = fitter(&accumulated);
    ServingEngine::new(
        ModelBundle::fit(model, theta, accumulated, &fit_cfg()),
        EngineConfig::default(),
    )
}

/// Every user's list must match the oracle exactly.
fn assert_matches_oracle(engine: &ShardedEngine, oracle: &ServingEngine, n_users: u32, ctx: &str) {
    for u in 0..n_users {
        assert_eq!(
            engine.recommend(UserId(u)).unwrap(),
            oracle.recommend(UserId(u)).unwrap(),
            "{ctx}: user {u} diverges from the from-scratch fit"
        );
    }
}

/// Deterministic storm of `n` interactions inside the fixture's id space.
fn storm(n: usize, n_users: u32, n_items: u32) -> Vec<(UserId, ItemId, f32)> {
    (0..n)
        .map(|k| {
            (
                UserId(k as u32 % n_users),
                ItemId((k as u32 * 7 + 3) % n_items),
                1.0 + (k % 8) as f32 * 0.5,
            )
        })
        .collect()
}

// ---------------------------------------------------------------------------
// 1. Framing properties
// ---------------------------------------------------------------------------

/// Arbitrary WAL records: any generation, ids, bit-exact ratings on a
/// 0.1 grid, and optional short alphanumeric keys.
fn arb_records() -> impl Strategy<Value = Vec<WalRecord>> {
    let key = proptest::collection::vec(0u32..36, 0..12).prop_map(|chars| {
        chars
            .iter()
            .map(|&c| char::from_digit(c, 36).unwrap())
            .collect::<String>()
    });
    proptest::collection::vec(
        (0u64..u64::MAX, (0u32..1000, 0u32..1000), 0u32..100, key),
        0..20,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .map(|(generation, (u, i), r, key)| {
                if key.is_empty() && generation % 5 == 0 {
                    WalRecord::Key {
                        generation,
                        key: format!("g{generation}"),
                    }
                } else {
                    WalRecord::Ingest {
                        generation,
                        user: UserId(u),
                        item: ItemId(i),
                        rating: r as f32 / 10.0,
                        key: (!key.is_empty()).then_some(key),
                    }
                }
            })
            .collect()
    })
}

fn encode_all(records: &[WalRecord]) -> (Vec<u8>, Vec<usize>) {
    let mut stream = Vec::new();
    let mut ends = Vec::new();
    for rec in records {
        stream.extend_from_slice(&encode_record(rec));
        ends.push(stream.len());
    }
    (stream, ends)
}

proptest! {
    /// Encode → decode is the identity on any record sequence, and a
    /// clean stream is never reported corrupted.
    #[test]
    fn prop_record_framing_round_trips(records in arb_records()) {
        let (stream, _) = encode_all(&records);
        let (decoded, summary) = decode_stream(&stream);
        prop_assert_eq!(&decoded, &records);
        prop_assert!(!summary.corrupted, "clean stream flagged corrupted");
        prop_assert_eq!(summary.records, records.len() as u64);
        prop_assert_eq!(summary.bytes, stream.len() as u64);
    }

    /// A stream cut at an arbitrary byte (a torn tail) recovers exactly
    /// the records whose frames lie fully before the cut — the longest
    /// valid prefix — and flags the tear iff bytes were dropped.
    #[test]
    fn prop_truncation_recovers_longest_valid_prefix(
        records in arb_records(),
        cut_permille in 0usize..=1000,
    ) {
        let (stream, ends) = encode_all(&records);
        let cut = stream.len() * cut_permille / 1000;
        let (decoded, summary) = decode_stream(&stream[..cut]);
        let whole = ends.iter().filter(|&&e| e <= cut).count();
        prop_assert_eq!(decoded.len(), whole, "cut at {} of {}", cut, stream.len());
        prop_assert_eq!(&decoded, &records[..whole]);
        // A cut exactly on a frame boundary leaves a clean (shorter) log;
        // anywhere else leaves a torn frame the decoder must report.
        let clean = cut == 0 || ends.contains(&cut);
        prop_assert_eq!(summary.corrupted, !clean);
    }

    /// A flipped byte anywhere in the stream never panics the decoder and
    /// never conjures a record that was not written: whatever decodes is a
    /// prefix of the original sequence (CRC/length checks stop the replay
    /// at the damaged record; with ~2^-32 CRC-collision odds excepted).
    #[test]
    fn prop_bit_flips_never_panic_and_never_fabricate(
        records in arb_records(),
        at_permille in 0usize..1000,
        flip in 1u32..=255,
    ) {
        let (mut stream, _) = encode_all(&records);
        if stream.is_empty() {
            return;
        }
        let at = (stream.len() - 1) * at_permille / 1000;
        stream[at] ^= flip as u8;
        let (decoded, _) = decode_stream(&stream);
        prop_assert!(decoded.len() <= records.len());
        prop_assert_eq!(&decoded[..], &records[..decoded.len()]);
    }
}

// ---------------------------------------------------------------------------
// 2. Durable-log semantics across reopen
// ---------------------------------------------------------------------------

/// Keys acknowledged before a restart come back from the replay, in log
/// order, for the engine to re-arm its dedup window with, and pending
/// records replay 1:1.
#[test]
fn dedup_and_pending_survive_reopen() {
    let path = scratch("reopen");
    let keys: Vec<String> = (0..4).map(|k| format!("r{k}")).collect();
    {
        let (log, recovered) = DurableLog::open(DurableConfig::new(&path)).unwrap();
        assert_eq!(
            recovered,
            Recovered::default(),
            "fresh log recovered something"
        );
        for (k, key) in (0..4u32).zip(&keys) {
            log.append(Some(key), 0, UserId(k), ItemId(k), 2.0).unwrap();
        }
    }
    let (log, recovered) = DurableLog::open(DurableConfig::new(&path)).unwrap();
    let expect: Vec<(UserId, ItemId, f32)> = (0..4).map(|k| (UserId(k), ItemId(k), 2.0)).collect();
    assert_eq!(recovered.interactions, expect);
    assert!(!log.replay_summary().corrupted);
    assert_eq!(recovered.keys, keys, "an acknowledged key was forgotten");
    std::fs::remove_file(&path).ok();
}

/// Truncation keeps racing ingests whole, writes the keys the engine hands
/// it as stubs, and both halves survive a reopen: racers replay, and every
/// key comes back in the window order it was handed over.
#[test]
fn truncate_retains_racers_and_remembers_consumed_keys() {
    let path = scratch("truncate");
    let window: Vec<String> = (0..5).map(|k| format!("t{k}")).collect();
    {
        let (log, _) = DurableLog::open(DurableConfig::new(&path)).unwrap();
        for (k, key) in (0..5u32).zip(&window) {
            log.append(Some(key), 0, UserId(k), ItemId(k), 1.5).unwrap();
        }
        // A refit consumed the first 3; records 3 and 4 raced it.
        let keep = Recovered {
            interactions: (3..5).map(|k| (UserId(k), ItemId(k), 1.5)).collect(),
            keys: window.clone(),
        };
        log.truncate(keep, 7).unwrap();
        let stats = log.stats();
        assert_eq!(stats.truncations, 1);
        assert_eq!(stats.records, 7, "5 key stubs + 2 keyless racers");
    }
    let (_, recovered) = DurableLog::open(DurableConfig::new(&path)).unwrap();
    let racers: Vec<(UserId, ItemId, f32)> = (3..5).map(|k| (UserId(k), ItemId(k), 1.5)).collect();
    assert_eq!(
        recovered.interactions, racers,
        "only racers re-apply after a refit"
    );
    assert_eq!(
        recovered.keys, window,
        "every key must come back, consumed or racing"
    );
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------------
// 3. In-process crash simulation against the oracle
// ---------------------------------------------------------------------------

/// Crash without a single refit: every acknowledged ingest lives only in
/// the WAL. A fresh engine (different shard plan, same base artifact)
/// replays it and must land exactly on the from-scratch fit; resending
/// every key is a pure no-op.
#[test]
fn crash_recovery_matches_from_scratch_fit() {
    let path = scratch("crash_sim");
    let (train, bundle) = fixture();
    let n_users = bundle.n_users();
    let sent = storm(30, n_users, bundle.n_items());

    let engine = ShardedEngine::new(bundle.clone(), ShardConfig::quantile(2));
    engine.attach_durable(DurableConfig::new(&path)).unwrap();
    for (k, &(u, i, r)) in sent.iter().enumerate() {
        let ack = engine
            .ingest_keyed(Some(&format!("sim-{k}")), u, i, r)
            .unwrap();
        assert_eq!(ack, IngestAck::Applied);
    }
    drop(engine); // SIGKILL stand-in: no refit, no truncate, WAL remains.

    let revived = ShardedEngine::new(bundle, ShardConfig::quantile(3));
    let replay = revived.attach_durable(DurableConfig::new(&path)).unwrap();
    assert_eq!(replay.records, 30, "every acknowledged ingest replays");
    assert!(!replay.corrupted);

    // Exactly-once across the restart: the full storm resent under its
    // original keys changes nothing.
    for (k, &(u, i, r)) in sent.iter().enumerate() {
        let ack = revived
            .ingest_keyed(Some(&format!("sim-{k}")), u, i, r)
            .unwrap();
        assert_eq!(ack, IngestAck::Deduplicated, "resend {k} re-applied");
    }
    assert_eq!(
        revived.pending_ingests(),
        30,
        "dedup no-ops must not grow the log"
    );

    let fitter = psvd_fitter();
    let outcome = revived.refit_once(fitter.as_ref(), &fit_cfg());
    assert!(matches!(outcome, RefitOutcome::Swapped { .. }));
    assert_matches_oracle(
        &revived,
        &oracle_engine(&train, &sent),
        n_users,
        "crash recovery",
    );
    std::fs::remove_file(&path).ok();
}

/// With no `artifact_path` configured, a refit swap exists only in
/// memory — the WAL is the *sole* durable copy of every acknowledged
/// ingest. Truncating it after such a swap would orphan the consumed
/// ingests on the next crash, so the refit must leave the WAL alone and a
/// post-refit crash must still recover everything.
#[test]
fn refit_without_artifact_path_keeps_wal_records() {
    let path = scratch("no_artifact_refit");
    let (train, bundle) = fixture();
    let n_users = bundle.n_users();
    let sent = storm(12, n_users, bundle.n_items());

    let engine = ShardedEngine::new(bundle, ShardConfig::quantile(2));
    engine.attach_durable(DurableConfig::new(&path)).unwrap();
    for (k, &(u, i, r)) in sent.iter().enumerate() {
        let ack = engine
            .ingest_keyed(Some(&format!("na{k}")), u, i, r)
            .unwrap();
        assert_eq!(ack, IngestAck::Applied);
    }

    let fitter = psvd_fitter();
    let outcome = engine.refit_once(fitter.as_ref(), &fit_cfg());
    assert!(matches!(outcome, RefitOutcome::Swapped { .. }));
    let stats = engine.wal_stats().expect("stats after attach");
    assert_eq!(
        stats.truncations, 0,
        "in-memory-only swap must not truncate"
    );
    assert_eq!(stats.records, 12, "every acknowledged ingest stays on disk");
    drop(engine); // SIGKILL stand-in: the swapped bundle is gone.

    // Restart on the *original* bundle — exactly what a real crash sees.
    let (_, bundle) = fixture();
    let revived = ShardedEngine::new(bundle, ShardConfig::quantile(2));
    let replay = revived.attach_durable(DurableConfig::new(&path)).unwrap();
    assert_eq!(replay.records, 12, "nothing was orphaned by the refit");
    assert!(!replay.corrupted);
    revived.refit_once(fitter.as_ref(), &fit_cfg());
    assert_matches_oracle(
        &revived,
        &oracle_engine(&train, &sent),
        n_users,
        "refit without artifact",
    );
    std::fs::remove_file(&path).ok();
}

/// A tear in the last record (the crash landed mid-`write`) is dropped
/// cleanly: replay applies exactly the intact prefix, never panics, never
/// applies garbage — and the recovered node still matches the oracle for
/// that prefix.
#[test]
fn torn_tail_applies_exactly_the_intact_prefix() {
    let path = scratch("torn_tail");
    let (train, bundle) = fixture();
    let n_users = bundle.n_users();
    let sent = storm(12, n_users, bundle.n_items());

    let engine = ShardedEngine::new(bundle.clone(), ShardConfig::quantile(2));
    engine.attach_durable(DurableConfig::new(&path)).unwrap();
    for &(u, i, r) in &sent {
        engine.ingest(u, i, r).unwrap();
    }
    drop(engine);

    // Tear the last record: chop 3 bytes off the file's tail.
    let len = std::fs::metadata(&path).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    f.set_len(len - 3).unwrap();
    drop(f);

    let revived = ShardedEngine::new(bundle, ShardConfig::quantile(2));
    let replay = revived.attach_durable(DurableConfig::new(&path)).unwrap();
    assert_eq!(replay.records, 11, "the torn record must not replay");
    assert!(replay.corrupted, "the tear must be reported");

    let fitter = psvd_fitter();
    revived.refit_once(fitter.as_ref(), &fit_cfg());
    assert_matches_oracle(
        &revived,
        &oracle_engine(&train, &sent[..11]),
        n_users,
        "torn tail",
    );
    std::fs::remove_file(&path).ok();
}

/// Crash *between* "persist refitted artifact" and "truncate WAL": the
/// node restarts on the new artifact with the old, un-truncated WAL, so
/// every consumed ingest re-applies on top of a bundle that already
/// contains it. The merge is last-rating-wins, so this double-apply must
/// converge to the same oracle — the invariant that makes
/// persist-then-truncate crash-safe in that order.
#[test]
fn double_apply_after_unpersisted_truncate_self_heals() {
    let path = scratch("double_apply");
    let (train, bundle) = fixture();
    let n_users = bundle.n_users();
    let sent = storm(20, n_users, bundle.n_items());

    // Build the WAL of the storm (acknowledged, never truncated).
    {
        let (log, _) = DurableLog::open(DurableConfig::new(&path)).unwrap();
        for (k, &(u, i, r)) in sent.iter().enumerate() {
            log.append(Some(&format!("d{k}")), 0, u, i, r).unwrap();
        }
    }
    // The "persisted artifact": a from-scratch fit that already contains
    // the storm — exactly what refit persisted before the crash.
    let accumulated = merge_interactions(&train, &sent);
    let fitter = psvd_fitter();
    let (model, theta) = fitter(&accumulated);
    let refitted = ModelBundle::fit(model, theta, accumulated, &fit_cfg());

    let revived = ShardedEngine::new(refitted, ShardConfig::quantile(2));
    let replay = revived.attach_durable(DurableConfig::new(&path)).unwrap();
    assert_eq!(replay.records, 20, "the whole WAL re-applies");

    revived.refit_once(fitter.as_ref(), &fit_cfg());
    assert_matches_oracle(
        &revived,
        &oracle_engine(&train, &sent),
        n_users,
        "double apply",
    );
    std::fs::remove_file(&path).ok();
}

/// The local-slice dedup fix: a keyed ingest resent after a partial
/// fan-out failure used to double-bump the live popularity of local
/// `ServingEngine` slices behind a router — they have no WAL to dedup
/// through, and the router only remembered keys after *fully* successful
/// fan-outs. The router now dedups local applies itself: the resend
/// repairs the failed remote while local counters stay bumped exactly
/// once, and a further resend is acknowledged as deduplicated without
/// touching anything.
#[test]
fn resent_keyed_ingest_after_partial_fanout_bumps_locals_once() {
    let (_, bundle) = fixture();
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
    let flaky = FlakyPeer::new(Arc::clone(&remote_engine) as Arc<dyn PeerTransport>);
    let router = Arc::new(RouterNode::new(
        Arc::clone(&bundle.theta),
        cuts,
        vec![
            ShardRoute::Local(Arc::clone(&local)),
            ShardRoute::Remote(Arc::clone(&flaky) as Arc<dyn PeerTransport>),
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
    let json =
        |resp: &[u8]| -> Value { tinyjson::from_str(std::str::from_utf8(resp).unwrap()).unwrap() };
    let body = r#"{"user":0,"item":1,"rating":4.0,"key":"retry-0"}"#;

    // First send: the remote band fails after the local slice applied.
    // The 502 means "at least one route is missing this — resend, same
    // key"; at-least-once would be lost without the retry.
    flaky.fail_ingests(1);
    let resp = client.request("POST", "/v1/ingest", Some(body)).unwrap();
    assert_eq!(resp.status, 502, "partial fan-out must not be acked");
    assert_eq!(local.stats().ingested, 1, "local slice applied");
    assert_eq!(remote_engine.stats().ingested, 0, "remote missed it");

    // The resend repairs the remote; the local slice is *not* re-applied.
    let resp = client.request("POST", "/v1/ingest", Some(body)).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(json(&resp.body)["deduplicated"].as_bool(), Some(false));
    assert_eq!(
        local.stats().ingested,
        1,
        "resend must not double-bump local live popularity"
    );
    assert_eq!(remote_engine.stats().ingested, 1, "remote repaired");

    // Fully applied: a third resend short-circuits as deduplicated.
    let resp = client.request("POST", "/v1/ingest", Some(body)).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(json(&resp.body)["deduplicated"].as_bool(), Some(true));
    assert_eq!(local.stats().ingested, 1);
    assert_eq!(remote_engine.stats().ingested, 1);
}

/// The router-restart dedup fix: the router's key windows used to be
/// memory-only, so a restart mid-repair-sequence forgot every consumed
/// key — a client retrying "resend on 502, same key" against the new
/// process would double-bump local live popularity and re-apply to
/// remotes. With a router WAL ([`RouterNode::with_wal`]) the windows are
/// persisted as key stubs and replayed on construction: a resent
/// fully-acked key answers `Deduplicated` before any dispatch, and a
/// mid-repair key (locals applied, a remote still missing it) repairs
/// the remote without touching local counters.
#[test]
fn router_restart_remembers_consumed_keys_mid_repair() {
    let path = scratch("router_dedup");
    let (_, bundle) = fixture();
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
    let flaky = FlakyPeer::new(Arc::clone(&remote_engine) as Arc<dyn PeerTransport>);
    let routes = || {
        vec![
            ShardRoute::Local(Arc::clone(&local)),
            ShardRoute::Remote(Arc::clone(&flaky) as Arc<dyn PeerTransport>),
        ]
    };
    let router =
        RouterNode::with_wal(Arc::clone(&bundle.theta), cuts.clone(), routes(), &path).unwrap();

    // "full-1" lands everywhere: both windows remember it.
    let ack = router
        .ingest_keyed(Some("full-1"), UserId(0), ItemId(1), 4.0)
        .unwrap();
    assert_eq!(ack, IngestAck::Applied);

    // "partial-1" fails on the remote hop after the local slice applied:
    // the local window remembers it, the fully-acked window must not.
    flaky.fail_ingests(1);
    router
        .ingest_keyed(Some("partial-1"), UserId(0), ItemId(2), 3.0)
        .expect_err("partial fan-out must not be acked");
    assert_eq!(local.stats().ingested, 2, "local slice applied both");
    assert_eq!(remote_engine.stats().ingested, 1, "remote missed partial-1");

    // Kill the router mid-repair-sequence; the client's retry loop does
    // not know and will resend both keys against the next process.
    drop(router);
    let router = RouterNode::with_wal(Arc::clone(&bundle.theta), cuts, routes(), &path).unwrap();

    // The fully-acked key short-circuits before any dispatch — the
    // remote engine's counter proves no route saw the resend.
    let ack = router
        .ingest_keyed(Some("full-1"), UserId(0), ItemId(1), 4.0)
        .unwrap();
    assert_eq!(ack, IngestAck::Deduplicated, "restart forgot full-1");
    assert_eq!(remote_engine.stats().ingested, 1, "dedup must not dispatch");
    assert_eq!(local.stats().ingested, 2);

    // The mid-repair key repairs the remote, locals stay bumped once.
    let ack = router
        .ingest_keyed(Some("partial-1"), UserId(0), ItemId(2), 3.0)
        .unwrap();
    assert_eq!(ack, IngestAck::Applied);
    assert_eq!(remote_engine.stats().ingested, 2, "remote repaired");
    assert_eq!(
        local.stats().ingested,
        2,
        "restart + resend must not double-bump local live popularity"
    );

    // And the repair itself is durable: a further restart still answers
    // the third resend as deduplicated.
    drop(router);
    let cuts = cut_theta_bands(&bundle.theta, 2);
    let router = RouterNode::with_wal(Arc::clone(&bundle.theta), cuts, routes(), &path).unwrap();
    let ack = router
        .ingest_keyed(Some("partial-1"), UserId(0), ItemId(2), 3.0)
        .unwrap();
    assert_eq!(ack, IngestAck::Deduplicated);
    assert_eq!(remote_engine.stats().ingested, 2);
    assert_eq!(local.stats().ingested, 2);
    std::fs::remove_file(&path).ok();
}

/// A lost ack on a router's remote band: the remote engine applied the
/// ingest but the router saw an error, so the first send is not
/// acknowledged. The resend under the same key reaches every route again,
/// and each engine — the local slice and the memory-only remote alike —
/// recognises the key it applied: nothing is applied twice.
#[test]
fn resend_after_a_lost_remote_ack_applies_once_on_every_engine() {
    let (_, bundle) = fixture();
    let cuts = cut_theta_bands(&bundle.theta, 2);
    let band_engine = |j: usize| {
        let (lo, hi) = band_bounds(&cuts, j);
        let slice = bundle.slice_theta_band(lo, hi);
        Arc::new(ServingEngine::new(slice, EngineConfig::default()))
    };
    let (local, remote_engine) = (band_engine(0), band_engine(1));
    let flaky = FlakyPeer::new(Arc::clone(&remote_engine) as Arc<dyn PeerTransport>);
    let router = RouterNode::new(
        Arc::clone(&bundle.theta),
        cuts.clone(),
        vec![
            ShardRoute::Local(Arc::clone(&local)),
            ShardRoute::Remote(Arc::clone(&flaky) as Arc<dyn PeerTransport>),
        ],
    );
    let send = || router.ingest_keyed(Some("lost-ack"), UserId(0), ItemId(1), 4.0);

    flaky.fail_ingest_acks(1);
    send().expect_err("a lost ack must not be acknowledged");
    assert_eq!(local.stats().ingested, 1);
    assert_eq!(remote_engine.stats().ingested, 1, "applied, ack lost");

    let ack = send().expect("the resend is acknowledged");
    assert_eq!(ack, IngestAck::Deduplicated, "every route already had it");
    assert_eq!(local.stats().ingested, 1, "local applied once");
    assert_eq!(remote_engine.stats().ingested, 1, "remote applied once");
}

/// The router's key WAL holds only fully acknowledged keys, as
/// generation-0 stubs. A stub of any other generation — written when the
/// router also logged keys only its local slices had applied — must not
/// short-circuit a resend: that resend is what repairs the routes still
/// missing the interaction.
#[test]
fn router_replay_short_circuits_only_fully_acknowledged_stubs() {
    let path = scratch("router_stub_generations");
    let (mut wal, _, _) = Wal::open(&path).unwrap();
    for (generation, key) in [(0, "fully-acked"), (1, "local-only")] {
        let key = key.to_string();
        wal.append(&WalRecord::Key { generation, key }).unwrap();
    }
    drop(wal);
    let (_, bundle) = fixture();
    let engine = Arc::new(ServingEngine::new(bundle.clone(), EngineConfig::default()));
    let routes = vec![ShardRoute::Local(Arc::clone(&engine))];
    let router =
        RouterNode::with_wal(Arc::clone(&bundle.theta), Vec::new(), routes, &path).unwrap();

    let ack = router.ingest_keyed(Some("fully-acked"), UserId(0), ItemId(1), 4.0);
    assert_eq!(ack, Ok(IngestAck::Deduplicated));
    assert_eq!(
        engine.stats().ingested,
        0,
        "short-circuited before dispatch"
    );
    let ack = router.ingest_keyed(Some("local-only"), UserId(0), ItemId(1), 4.0);
    assert_eq!(ack, Ok(IngestAck::Applied), "a resend repairs");
    assert_eq!(engine.stats().ingested, 1);
    std::fs::remove_file(&path).ok();
}

/// The dedup window of the generated schedules below: small, so schedules
/// also resend keys the window has already forgotten.
const WINDOW: usize = 6;

/// A node rebuilt from what is on disk alone: the persisted artifact (the
/// base bundle before any refit persisted one) plus the WAL.
fn rebuild(base: &ModelBundle, wal: &Path, artifact: &Path) -> ShardedEngine {
    let bundle = match artifact.exists() {
        true => ModelBundle::load(artifact).expect("load the persisted artifact"),
        false => base.clone(),
    };
    let engine = ShardedEngine::new(bundle, ShardConfig::quantile(2));
    let cfg = DurableConfig {
        dedup_window: WINDOW,
        artifact_path: Some(artifact.to_path_buf()),
        ..DurableConfig::new(wal)
    };
    engine.attach_durable(cfg).expect("attach the WAL");
    engine
}

proptest! {
    /// Generated schedules of keyed, unkeyed and resent ingests, refit
    /// passes and crash-restarts (drop the engine, rebuild it from disk)
    /// against a durable engine with an artifact path. After every step a
    /// node rebuilt from disk serves every user the live engine's list,
    /// byte for byte, and answers every acknowledged key still inside the
    /// dedup window `Deduplicated`: the refit log and the WAL agree.
    #[test]
    fn prop_a_node_rebuilt_from_disk_matches_the_live_engine(
        steps in proptest::collection::vec((0u32..10, 0u32..1000, 0u32..1000, 0u32..8), 1..10),
    ) {
        let (wal, artifact) = (scratch("schedule_wal"), scratch("schedule_artifact"));
        let (_, base) = fixture();
        let fitter = psvd_fitter();
        let mut live = rebuild(&base, &wal, &artifact);
        // The window the schedule should have left, and every fresh key.
        let mut window: VecDeque<String> = VecDeque::new();
        let mut keyed: Vec<(String, (UserId, ItemId, f32))> = Vec::new();
        for (n, &(op, a, b, r)) in steps.iter().enumerate() {
            let (u, i) = (UserId(a % base.n_users()), ItemId(b % base.n_items()));
            let fresh = (u, i, 1.0 + r as f32 * 0.5);
            let send = match op {
                0..=3 => Some((format!("k{n}"), fresh)),
                6..=7 if !keyed.is_empty() => Some(keyed[a as usize % keyed.len()].clone()),
                4..=7 => {
                    live.ingest(fresh.0, fresh.1, fresh.2).unwrap();
                    None
                }
                8 => {
                    let outcome = live.refit_once(fitter.as_ref(), &fit_cfg());
                    prop_assert!(matches!(outcome, RefitOutcome::Swapped { .. }));
                    None
                }
                _ => {
                    drop(live);
                    live = rebuild(&base, &wal, &artifact);
                    None
                }
            };
            if let Some((key, (u, i, r))) = send {
                let ack = live.ingest_keyed(Some(&key), u, i, r).unwrap();
                let known = window.contains(&key);
                prop_assert_eq!(ack == IngestAck::Deduplicated, known, "step {}: {}", n, key);
                if !known {
                    window.push_back(key.clone());
                    if window.len() > WINDOW {
                        window.pop_front();
                    }
                }
                if op <= 3 {
                    keyed.push((key, (u, i, r)));
                }
            }
            let disk = rebuild(&base, &wal, &artifact);
            for u in 0..base.n_users() {
                let (got, want) = (disk.recommend(UserId(u)), live.recommend(UserId(u)));
                prop_assert_eq!(got.unwrap(), want.unwrap(), "step {}: user {}", n, u);
            }
            for key in &window {
                let ack = disk.ingest_keyed(Some(key), UserId(0), ItemId(0), 1.0).unwrap();
                prop_assert_eq!(ack, IngestAck::Deduplicated, "step {}: {} forgotten", n, key);
            }
        }
        drop(live);
        std::fs::remove_file(&wal).ok();
        std::fs::remove_file(&artifact).ok();
    }
}

/// A refused second `attach_durable` mutates nothing: it is refused before
/// it opens the WAL, so the records the first attach replayed and the
/// ingests since are neither pushed onto the refit log nor applied again.
#[test]
fn second_attach_is_refused_before_it_replays_anything() {
    let path = scratch("second_attach");
    let (_, bundle) = fixture();
    let engine = ShardedEngine::new(bundle, ShardConfig::quantile(2));
    engine.attach_durable(DurableConfig::new(&path)).unwrap();
    for k in 0..3u32 {
        engine
            .ingest_keyed(Some(&format!("a{k}")), UserId(k), ItemId(k + 1), 4.0)
            .unwrap();
    }
    let lists = |e: &ShardedEngine| -> Vec<_> {
        (0..e.n_users())
            .map(|u| e.recommend(UserId(u)).unwrap())
            .collect()
    };
    let (before, ingested) = (lists(&engine), engine.stats().ingested);
    assert!(engine.attach_durable(DurableConfig::new(&path)).is_err());
    assert_eq!(engine.pending_ingests(), 3, "the refit log grew");
    assert_eq!(engine.stats().ingested, ingested, "the bands re-applied");
    assert_eq!(lists(&engine), before);
    std::fs::remove_file(&path).ok();
}

/// A WAL whose records are outside the artifact's id space is a
/// deployment error (wrong pairing) and must be refused loudly — never
/// silently dropped, never applied.
#[test]
fn recovery_refuses_wal_from_wrong_artifact() {
    let path = scratch("wrong_artifact");
    {
        let (log, _) = DurableLog::open(DurableConfig::new(&path)).unwrap();
        log.append(Some("w0"), 0, UserId(999_999), ItemId(0), 3.0)
            .unwrap();
    }
    let (_, bundle) = fixture();
    let engine = ShardedEngine::new(bundle, ShardConfig::quantile(2));
    let err = engine
        .attach_durable(DurableConfig::new(&path))
        .expect_err("a foreign WAL must be refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert_eq!(engine.pending_ingests(), 0, "nothing may apply");
    std::fs::remove_file(&path).ok();
}

/// Missing and empty WAL files are clean cold starts, and a fresh attach
/// surfaces zeroed stats.
#[test]
fn missing_wal_is_a_clean_cold_start() {
    let path = scratch("cold_start");
    let (_, bundle) = fixture();
    let engine = ShardedEngine::new(bundle, ShardConfig::quantile(2));
    assert!(engine.wal_stats().is_none(), "no stats before attach");
    let replay = engine.attach_durable(DurableConfig::new(&path)).unwrap();
    assert_eq!((replay.records, replay.bytes), (0, 0));
    assert!(!replay.corrupted);
    let stats = engine.wal_stats().expect("stats after attach");
    assert_eq!((stats.records, stats.appends), (0, 0));
    assert_eq!(engine.dedup_stats().hits, 0);
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------------
// 4. The two-process SIGKILL oracle
// ---------------------------------------------------------------------------

/// Child half of the SIGKILL test: when `GANC_WAL_CHILD` is set (to
/// `"<artifact>|<wal>"`), become a durable shard node — load the
/// artifact, attach the WAL, serve HTTP, announce the port, and block
/// until the parent closes stdin (or SIGKILLs us mid-storm). Without the
/// variable (a normal `cargo test` run) this is a no-op.
#[test]
fn child_node_entrypoint() {
    let Ok(spec) = std::env::var("GANC_WAL_CHILD") else {
        return;
    };
    let (artifact, wal) = spec.split_once('|').expect("artifact|wal");
    let bundle = ModelBundle::load(artifact).expect("load artifact");
    let engine = Arc::new(ShardedEngine::new(bundle, ShardConfig::quantile(2)));
    let mut cfg = DurableConfig::new(wal);
    cfg.artifact_path = Some(PathBuf::from(artifact));
    engine.attach_durable(cfg).expect("attach WAL");
    let server = HttpServer::bind(
        Frontend::Sharded(engine),
        Some(RefitHook {
            fitter: psvd_fitter(),
            cfg: fit_cfg(),
            cadence: None,
        }),
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .expect("bind child node");
    println!("LISTENING {}", server.local_addr());
    std::io::stdout().flush().unwrap();
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
}

/// Spawn this test binary as a durable shard node and return (process,
/// announced address).
fn spawn_node(artifact: &Path, wal: &Path) -> (Child, String) {
    let mut child = Command::new(std::env::current_exe().unwrap())
        .args(["child_node_entrypoint", "--exact", "--nocapture"])
        .env(
            "GANC_WAL_CHILD",
            format!("{}|{}", artifact.display(), wal.display()),
        )
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn child node");
    let stdout = child.stdout.take().unwrap();
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("child exited before announcing")
            .expect("read child stdout");
        // libtest prints `test child_node_entrypoint ... ` without a trailing
        // newline before the test body runs, so the announcement can share a
        // line with the harness banner — match it as a substring.
        if let Some(pos) = line.find("LISTENING ") {
            break line[pos + "LISTENING ".len()..].trim().to_string();
        }
    };
    // Keep draining stdout so the child's harness never hits a broken pipe
    // when it prints its summary; the thread exits once the pipe closes.
    std::thread::spawn(move || for _ in lines {});
    (child, addr)
}

/// The tentpole oracle: SIGKILL a real node mid-keyed-ingest-storm,
/// restart it on the same WAL + artifact, resend the whole storm under
/// the same keys (acknowledged ones must come back `deduplicated`),
/// refit, and verify every user's recommendations equal a from-scratch
/// fit on base train + the full storm. Also pins the `/v1/healthz` WAL
/// surface across the restart.
#[test]
fn sigkill_mid_storm_recovers_to_from_scratch_fit() {
    let artifact = scratch("sigkill_artifact");
    let wal = scratch("sigkill_wal");
    let (train, bundle) = fixture();
    let n_users = bundle.n_users();
    let sent = storm(60, n_users, bundle.n_items());
    bundle.save(&artifact).expect("save artifact");

    // --- first life: keyed storm, SIGKILL once ≥20 acks are in ---
    let (mut child, addr) = spawn_node(&artifact, &wal);
    let acked = Arc::new(AtomicUsize::new(0));
    let ack_flags: Vec<bool> = std::thread::scope(|scope| {
        let storm_thread = {
            let acked = Arc::clone(&acked);
            let addr = addr.clone();
            let sent = sent.clone();
            scope.spawn(move || {
                let mut client = HttpClient::new(addr);
                let mut flags = vec![false; sent.len()];
                for (k, &(u, i, r)) in sent.iter().enumerate() {
                    let body = format!("{{\"user\":{},\"item\":{},\"rating\":{}}}", u.0, i.0, r);
                    match client.request_keyed(
                        "POST",
                        "/v1/ingest",
                        Some(&body),
                        &format!("crash-{k}"),
                    ) {
                        Ok(resp) if resp.status == 200 => {
                            flags[k] = true;
                            acked.fetch_add(1, Ordering::SeqCst);
                        }
                        // Killed under us: the rest of the storm is lost
                        // in flight — exactly the scenario under test.
                        _ => {}
                    }
                }
                flags
            })
        };
        // Kill mid-storm, not after it: wait for a healthy prefix of
        // acks, then SIGKILL while requests are still in flight.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        while acked.load(Ordering::SeqCst) < 20 {
            assert!(
                std::time::Instant::now() < deadline,
                "child never acknowledged 20 ingests"
            );
            std::thread::yield_now();
        }
        child.kill().expect("SIGKILL child");
        child.wait().expect("reap child");
        storm_thread.join().expect("storm thread panicked")
    });
    let acked_n = ack_flags.iter().filter(|&&f| f).count();
    assert!(acked_n >= 20, "storm acked only {acked_n} before the kill");

    // --- second life: same WAL, same artifact ---
    let (mut child, addr) = spawn_node(&artifact, &wal);
    let mut client = HttpClient::new(addr);

    // Replay must have recovered at least every acknowledged ingest
    // (unacked in-flight ones may or may not have reached the log).
    let resp = client.request("GET", "/v1/healthz", None).unwrap();
    assert_eq!(resp.status, 200);
    let health: Value = tinyjson::from_str(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    let recovered = health["wal"]["records"]
        .as_u64()
        .expect("healthz wal.records");
    assert!(
        recovered >= acked_n as u64,
        "recovered {recovered} < acked {acked_n}: an acknowledged ingest was lost"
    );

    // Exactly-once: resend the ENTIRE storm under the original keys.
    // Acknowledged ingests must dedup; lost ones apply now. Afterward the
    // node deterministically holds train + the full storm.
    for (k, &(u, i, r)) in sent.iter().enumerate() {
        let body = format!("{{\"user\":{},\"item\":{},\"rating\":{}}}", u.0, i.0, r);
        let resp = client
            .request_keyed("POST", "/v1/ingest", Some(&body), &format!("crash-{k}"))
            .unwrap();
        assert_eq!(resp.status, 200, "resend {k} failed");
        let v: Value = tinyjson::from_str(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        if ack_flags[k] {
            assert_eq!(
                v["deduplicated"].as_bool(),
                Some(true),
                "acked ingest {k} re-applied instead of deduplicating"
            );
        }
    }

    // Quiesce: one refit folds the replayed + resent log into a new
    // artifact and truncates the WAL down to key stubs.
    let resp = client.request("POST", "/admin/refit", None).unwrap();
    assert_eq!(resp.status, 200);

    // The oracle comparison, over the wire, for every user.
    let oracle = oracle_engine(&train, &sent);
    for u in 0..n_users {
        let resp = client
            .request("GET", &format!("/v1/recommend/{u}"), None)
            .unwrap();
        assert_eq!(resp.status, 200, "user {u}");
        let v: Value = tinyjson::from_str(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let got: Vec<u32> = v["items"]
            .as_array()
            .unwrap()
            .iter()
            .map(|i| i.as_u64().unwrap() as u32)
            .collect();
        let expect: Vec<u32> = oracle
            .recommend(UserId(u))
            .unwrap()
            .iter()
            .map(|i| i.0)
            .collect();
        assert_eq!(got, expect, "user {u}: recovered node ≠ from-scratch fit");
    }

    drop(child.stdin.take());
    child.wait().expect("child shutdown");
    std::fs::remove_file(&artifact).ok();
    std::fs::remove_file(&wal).ok();
}
