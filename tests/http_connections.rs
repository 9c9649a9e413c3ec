//! The event-driven HTTP front-end's connection behavior (PR 9): timeout
//! evictions driven by a `ManualClock` (no sleeps deciding semantics —
//! real time only orders steps), slow-loris defense, the structural
//! connection ≫ worker decoupling, capacity rejection, and graceful
//! shutdown.
//!
//! The load-bearing test is [`connections_scale_far_beyond_worker_count`]:
//! with a compute pool of **one** worker, hundreds-to-thousands of
//! concurrent keep-alive connections are all served and all stay open.
//! Under the old worker-per-connection architecture this deadlocks at the
//! second connection (the lone worker camps on the first keep-alive
//! socket), so the test is a structural proof that connection concurrency
//! is no longer coupled to `ServerConfig::workers`.

use ganc::core::coverage::CoverageKind;
use ganc::dataset::synth::DatasetProfile;
use ganc::http::http1::{read_response, write_response};
use ganc::http::{Frontend, HttpClient, HttpServer, ServerConfig};
use ganc::obs::{Clock, ManualClock, ObsHub, TraceData};
use ganc::preference::generalized::GeneralizedConfig;
use ganc::recommender::pop::MostPopular;
use ganc::serve::{
    EngineConfig, FitConfig, FittedModel, ModelBundle, ServingEngine, ShardConfig, ShardedEngine,
};
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn fixture_bundle() -> ModelBundle {
    let data = DatasetProfile::tiny().generate(7);
    let split = data.split_per_user(0.5, 3).unwrap();
    let theta = GeneralizedConfig::default().estimate(&split.train);
    let pop = MostPopular::fit(&split.train);
    let cfg = FitConfig {
        coverage: CoverageKind::Dynamic,
        sample_size: 12,
        ..FitConfig::new(5)
    };
    ModelBundle::fit(FittedModel::Pop(pop), theta, split.train, &cfg)
}

fn fixture_engine() -> Arc<ServingEngine> {
    Arc::new(ServingEngine::new(
        fixture_bundle(),
        EngineConfig::default(),
    ))
}

fn bind(cfg: ServerConfig) -> HttpServer {
    HttpServer::bind(Frontend::Single(fixture_engine()), None, cfg, "127.0.0.1:0").unwrap()
}

fn manual_hub() -> (Arc<ManualClock>, Arc<ObsHub>) {
    let clock = Arc::new(ManualClock::new());
    let hub = ObsHub::with_clock(Arc::clone(&clock) as Arc<dyn Clock>);
    (clock, hub)
}

/// Real time only *orders* steps (lets the event loop catch up); all
/// timeout semantics run on the `ManualClock`.
fn wait_until(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The value of the first rendered sample whose series starts with
/// `needle` (e.g. `name{label="x"}`), or 0.0 when absent.
fn sample(hub: &ObsHub, needle: &str) -> f64 {
    hub.metrics
        .render()
        .lines()
        .find(|l| l.starts_with(needle))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

const HEALTHZ: &[u8] = b"GET /v1/healthz HTTP/1.1\r\n\r\n";

/// True once `stream` reaches EOF (the server closed it). Bounded by a
/// real-time read timeout so a missed eviction fails loudly, not by hang.
fn assert_server_closed(stream: &TcpStream, what: &str) {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut scratch = [0u8; 64];
    loop {
        match (&*stream).read(&mut scratch) {
            Ok(0) => return,
            Ok(_) => continue, // stray bytes before the close
            Err(e) => panic!("expected server-side close for {what}, got {e}"),
        }
    }
}

/// An idle keep-alive connection is evicted exactly when the hub clock
/// crosses `read_timeout` — silently (no response bytes), counted under
/// `reason="idle"`, and visible as `conn_accept`/`conn_evict` trace
/// events.
#[test]
fn idle_keep_alive_connection_is_evicted_on_the_manual_clock() {
    let (clock, hub) = manual_hub();
    let cfg = ServerConfig {
        read_timeout: Duration::from_secs(5),
        obs: Some(Arc::clone(&hub)),
        ..ServerConfig::default()
    };
    let server = bind(cfg);
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(&stream);
    (&stream).write_all(HEALTHZ).unwrap();
    let resp = read_response(&mut reader).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, b"{\"ok\":true,\"generation\":0}");

    // Served and now idle: the connection survives as long as the clock
    // stands still…
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(
        sample(&hub, "ganc_http_conn_evicted_total"),
        0.0,
        "a frozen clock must never evict"
    );

    // …and dies as soon as it crosses the progress timeout.
    clock.advance(Duration::from_secs(6));
    wait_until(
        || sample(&hub, "ganc_http_conn_evicted_total{reason=\"idle\"}") >= 1.0,
        "idle eviction counter",
    );
    assert_server_closed(&stream, "idle keep-alive eviction");

    let events = hub.trace.drain();
    assert!(
        events
            .iter()
            .any(|e| matches!(e.data, TraceData::ConnAccept { .. })),
        "accept must leave a trace event"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e.data, TraceData::ConnEvict { reason: "idle", .. })),
        "eviction must leave a typed trace event"
    );
}

/// A slow-loris peer trickling one header byte per window dodges the
/// progress timeout forever; `request_deadline` caps the request's total
/// read time and evicts it anyway (reason `deadline`, no response).
#[test]
fn slow_loris_trickle_is_evicted_at_the_request_deadline() {
    let (clock, hub) = manual_hub();
    let cfg = ServerConfig {
        read_timeout: Duration::from_secs(10),
        request_deadline: Duration::from_secs(30),
        obs: Some(Arc::clone(&hub)),
        ..ServerConfig::default()
    };
    let server = bind(cfg);
    let stream = TcpStream::connect(server.local_addr()).unwrap();

    // One byte every 8 hub-seconds: always under the 10s progress
    // timeout, never completing a head. The sleeps only let the event
    // loop consume each byte before the clock moves.
    for (i, byte) in [b'G', b'E', b'T'].into_iter().enumerate() {
        (&stream).write_all(&[byte]).unwrap();
        std::thread::sleep(Duration::from_millis(40));
        clock.advance(Duration::from_secs(8));
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(
            sample(&hub, "ganc_http_conn_evicted_total"),
            0.0,
            "trickle at {}s is under both timeouts",
            (i + 1) * 8
        );
    }
    // Byte 4 at t=24s, then the clock passes the 30s total deadline.
    (&stream).write_all(b" ").unwrap();
    std::thread::sleep(Duration::from_millis(40));
    clock.advance(Duration::from_secs(8));
    wait_until(
        || sample(&hub, "ganc_http_conn_evicted_total{reason=\"deadline\"}") >= 1.0,
        "slow-loris deadline eviction",
    );
    assert_server_closed(&stream, "slow-loris eviction");
}

/// The deadline is not trigger-happy: a request whose head arrives in two
/// installments inside the deadline is served normally, and the
/// connection stays open for the next one.
#[test]
fn split_request_completing_within_deadline_is_served() {
    let (clock, hub) = manual_hub();
    let cfg = ServerConfig {
        read_timeout: Duration::from_secs(10),
        request_deadline: Duration::from_secs(30),
        obs: Some(Arc::clone(&hub)),
        ..ServerConfig::default()
    };
    let server = bind(cfg);
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(&stream);

    let (first, rest) = HEALTHZ.split_at(9);
    (&stream).write_all(first).unwrap();
    std::thread::sleep(Duration::from_millis(40));
    clock.advance(Duration::from_secs(8));
    std::thread::sleep(Duration::from_millis(40));
    (&stream).write_all(rest).unwrap();
    assert_eq!(read_response(&mut reader).unwrap().status, 200);
    assert_eq!(sample(&hub, "ganc_http_conn_evicted_total"), 0.0);

    // Keep-alive: the same connection serves the next request whole.
    (&stream).write_all(HEALTHZ).unwrap();
    assert_eq!(read_response(&mut reader).unwrap().status, 200);
}

/// Structural decoupling proof: with a compute pool of ONE worker, far
/// more concurrent keep-alive connections than workers are all served —
/// twice, to prove they stay open concurrently — and the per-state
/// connection gauges account for every one of them. Scale defaults to
/// 1200 live connections and can be raised via `GANC_CONN_SCALE` (e.g.
/// 10000 where the fd limit allows ~2× that, client + server side).
#[test]
fn connections_scale_far_beyond_worker_count() {
    let n: usize = std::env::var("GANC_CONN_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1200);
    let hub = ObsHub::new();
    let cfg = ServerConfig {
        workers: 1,
        // Real clock: keep every timeout far away from the test's runtime.
        read_timeout: Duration::from_secs(3600),
        request_deadline: Duration::from_secs(3600),
        max_connections: n + 64,
        obs: Some(Arc::clone(&hub)),
        ..ServerConfig::default()
    };
    let server = bind(cfg);
    let addr = server.local_addr().to_string();

    let mut clients: Vec<HttpClient> = (0..n).map(|_| HttpClient::new(addr.clone())).collect();
    for (i, client) in clients.iter_mut().enumerate() {
        let resp = client.request("GET", "/v1/healthz", None).unwrap();
        assert_eq!(resp.status, 200, "connection {i} of {n}");
    }
    // Every connection is still open: the gauges see all N parked in
    // `reading`, none waiting on the lone worker.
    wait_until(
        || sample(&hub, "ganc_http_connections{state=\"reading\"}") >= n as f64,
        "all connections parked in reading state",
    );
    assert_eq!(sample(&hub, "ganc_http_conn_accepted_total"), n as f64);
    assert_eq!(sample(&hub, "ganc_http_conn_evicted_total"), 0.0);

    // Second pass over the *same* sockets: N concurrent keep-alive
    // connections served again through one worker. Under the old
    // worker-per-connection design this is where connection 2 starves.
    for (i, client) in clients.iter_mut().enumerate() {
        let resp = client.request("GET", "/v1/healthz", None).unwrap();
        assert_eq!(resp.status, 200, "second pass, connection {i}");
        assert_eq!(resp.body, b"{\"ok\":true,\"generation\":0}");
    }
}

/// Accepts beyond `max_connections` are closed immediately and accounted
/// as `capacity` evictions; established connections are unaffected.
#[test]
fn connections_beyond_capacity_are_rejected_not_queued() {
    let (_clock, hub) = manual_hub();
    let cfg = ServerConfig {
        max_connections: 2,
        obs: Some(Arc::clone(&hub)),
        ..ServerConfig::default()
    };
    let server = bind(cfg);

    let keep: Vec<TcpStream> = (0..2)
        .map(|_| {
            let stream = TcpStream::connect(server.local_addr()).unwrap();
            let mut reader = BufReader::new(&stream);
            (&stream).write_all(HEALTHZ).unwrap();
            assert_eq!(read_response(&mut reader).unwrap().status, 200);
            stream
        })
        .collect();

    let overflow = TcpStream::connect(server.local_addr()).unwrap();
    wait_until(
        || sample(&hub, "ganc_http_conn_evicted_total{reason=\"capacity\"}") >= 1.0,
        "capacity eviction",
    );
    assert_server_closed(&overflow, "capacity overflow");

    // The two established connections still serve.
    for stream in &keep {
        let mut reader = BufReader::new(stream);
        (&*stream).write_all(HEALTHZ).unwrap();
        assert_eq!(read_response(&mut reader).unwrap().status, 200);
    }
}

/// Graceful shutdown closes idle keep-alive connections (traced as
/// `shutdown` evictions), stops accepting, and joins the event loop and
/// every worker — promptly, not at the drain cap.
#[test]
fn graceful_shutdown_closes_idle_connections_and_joins() {
    let (_clock, hub) = manual_hub();
    let cfg = ServerConfig {
        obs: Some(Arc::clone(&hub)),
        ..ServerConfig::default()
    };
    let mut server = bind(cfg);
    let addr = server.local_addr();

    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(&stream);
    (&stream).write_all(HEALTHZ).unwrap();
    assert_eq!(read_response(&mut reader).unwrap().status, 200);

    let begun = Instant::now();
    server.shutdown();
    assert!(
        begun.elapsed() < Duration::from_secs(4),
        "an idle connection must not hold shutdown to the drain cap"
    );
    assert_server_closed(&stream, "shutdown drain");
    assert!(
        sample(&hub, "ganc_http_conn_evicted_total{reason=\"shutdown\"}") >= 1.0,
        "shutdown evictions are accounted"
    );
    assert!(
        TcpStream::connect(addr).map_or(true, |s| {
            let mut reader = BufReader::new(&s);
            (&s).write_all(HEALTHZ).ok();
            read_response(&mut reader).is_err()
        }),
        "a stopped server must not serve new connections"
    );
}

/// The resend `HttpClient::request_keyed` makes when its reused
/// connection dies before the answer arrives is a no-op on a WAL-less
/// sharded front. A relay between client and server passes the first
/// answer on its first connection, swallows the second — the server has
/// already applied that keyed ingest — and closes the connection; the
/// client's retry on a fresh connection is answered `"deduplicated":true`,
/// and nothing the first send moved moves again.
#[test]
fn a_keyed_retry_after_a_lost_answer_is_deduplicated_by_a_sharded_front() {
    let engine = Arc::new(ShardedEngine::new(
        fixture_bundle(),
        ShardConfig::quantile(2),
    ));
    let frontend = Frontend::Sharded(Arc::clone(&engine));
    let server = HttpServer::bind(frontend, None, ServerConfig::default(), "127.0.0.1:0").unwrap();
    let upstream = server.local_addr();
    let relay = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = relay.local_addr().unwrap().to_string();
    let relay = std::thread::spawn(move || {
        // Which answer to swallow, per accepted connection.
        for (lose, conn) in [Some(1), None].into_iter().zip(relay.incoming()) {
            let client = conn.unwrap();
            let server = TcpStream::connect(upstream).unwrap();
            let (mut requests, mut to_server) =
                (client.try_clone().unwrap(), server.try_clone().unwrap());
            // Requests pass through until the client hangs up, which the
            // server then sees too.
            let forward = std::thread::spawn(move || {
                let _ = std::io::copy(&mut requests, &mut to_server);
                let _ = to_server.shutdown(Shutdown::Write);
            });
            let mut answers = BufReader::new(server);
            for n in 0.. {
                let Ok(resp) = read_response(&mut answers) else {
                    break;
                };
                if lose == Some(n) {
                    break;
                }
                write_response(&mut &client, resp.status, &resp.body, resp.keep_alive).unwrap();
            }
            let _ = client.shutdown(Shutdown::Both);
            forward.join().unwrap();
        }
    });

    let mut client = HttpClient::new(addr);
    // The connection the ingest reuses.
    assert_eq!(
        client.request("GET", "/v1/healthz", None).unwrap().status,
        200
    );
    let body = "{\"user\":1,\"item\":2,\"rating\":5.0}";
    let resend = |client: &mut HttpClient| {
        let resp = client
            .request_keyed("POST", "/v1/ingest", Some(body), "lost-answer")
            .unwrap();
        assert_eq!(resp.status, 200);
        String::from_utf8(resp.body).unwrap()
    };
    assert_eq!(
        resend(&mut client),
        "{\"ok\":true,\"deduplicated\":true}",
        "the retry re-applied the ingest"
    );
    let applied = engine.stats();
    assert_eq!(
        applied.ingested,
        engine.shards() as u64,
        "one apply per band"
    );
    assert_eq!(engine.pending_ingests(), 1);
    // A further resend, on the relay's pass-through connection.
    assert_eq!(resend(&mut client), "{\"ok\":true,\"deduplicated\":true}");
    assert_eq!(engine.stats(), applied, "a counter moved");
    assert_eq!(engine.pending_ingests(), 1);
    assert_eq!(engine.dedup_stats().hits, 2);

    drop(client);
    relay.join().unwrap();
}
