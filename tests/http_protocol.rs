//! Protocol robustness fuzz: the server must survive arbitrary bytes on
//! the wire — torn heads, oversized bodies, bad JSON, pipelined junk —
//! without ever panicking, always answering with a JSON error body on one
//! of the contract statuses (400/404/413), and keeping its connection
//! state machine consistent: framing violations close the connection,
//! semantically bad requests keep it, and the server stays fully
//! serviceable for the next connection either way.

mod doubles;

use ganc::core::coverage::CoverageKind;
use ganc::dataset::synth::DatasetProfile;
use ganc::http::http1;
use ganc::http::{Frontend, HttpClient, HttpServer, ServerConfig};
use ganc::preference::generalized::GeneralizedConfig;
use ganc::recommender::pop::MostPopular;
use ganc::serve::{EngineConfig, FitConfig, FittedModel, ModelBundle, ServingEngine};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Statuses the fuzz contract allows (200 for bytes that happen to form a
/// valid request, plus the three error codes the API answers junk with).
const ALLOWED: [u16; 4] = [200, 400, 404, 413];

fn bundle() -> ModelBundle {
    static BUNDLE: OnceLock<ModelBundle> = OnceLock::new();
    BUNDLE
        .get_or_init(|| {
            let data = DatasetProfile::tiny().generate(31);
            let split = data.split_per_user(0.5, 2).unwrap();
            let theta = GeneralizedConfig::default().estimate(&split.train);
            let pop = MostPopular::fit(&split.train);
            let cfg = FitConfig {
                coverage: CoverageKind::Dynamic,
                sample_size: 10,
                ..FitConfig::new(5)
            };
            ModelBundle::fit(FittedModel::Pop(pop), theta, split.train, &cfg)
        })
        .clone()
}

fn spawn_server() -> HttpServer {
    let engine = Arc::new(ServingEngine::new(bundle(), EngineConfig::default()));
    let cfg = ServerConfig {
        // Short read timeout: junk that never completes a request must not
        // pin a worker (or this test) for long.
        read_timeout: Duration::from_millis(300),
        limits: ganc::http::Limits {
            max_head_bytes: 2048,
            max_body_bytes: 4096,
        },
        ..ServerConfig::default()
    };
    HttpServer::bind(Frontend::Single(engine), None, cfg, "127.0.0.1:0").unwrap()
}

/// Write raw bytes on a fresh connection, half-close, and collect whatever
/// the server answers (possibly several pipelined responses).
fn exchange(server: &HttpServer, bytes: &[u8]) -> Vec<u8> {
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    (&stream).write_all(bytes).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut out = Vec::new();
    let _ = (&stream).read_to_end(&mut out);
    out
}

/// Parse every response on a wire capture, asserting each obeys the error
/// contract: allowed status, JSON body, `"error"` key on non-200.
fn check_responses(wire: &[u8], context: &str) -> Vec<u16> {
    let mut reader = BufReader::new(wire);
    let mut statuses = Vec::new();
    loop {
        // Peek through the buffer: stop at end of capture.
        if reader.fill_buf().map(|b| b.is_empty()).unwrap_or(true) {
            break;
        }
        match http1::read_response(&mut reader) {
            Ok(resp) => {
                assert!(
                    ALLOWED.contains(&resp.status),
                    "{context}: status {} outside the 200/400/404/413 contract",
                    resp.status
                );
                let text = std::str::from_utf8(&resp.body)
                    .unwrap_or_else(|_| panic!("{context}: non-UTF-8 body"));
                let v = tinyjson::from_str(text)
                    .unwrap_or_else(|e| panic!("{context}: body is not JSON ({e}): {text:?}"));
                if resp.status != 200 {
                    assert!(
                        v["error"].as_str().is_some(),
                        "{context}: error response without an \"error\" key: {text}"
                    );
                }
                statuses.push(resp.status);
                if !resp.keep_alive {
                    break;
                }
            }
            Err(_) => break, // ran off the end of the capture
        }
    }
    statuses
}

/// The server is still fully serviceable: a fresh connection gets a good
/// answer.
fn assert_alive(server: &HttpServer, context: &str) {
    let mut client = HttpClient::new(server.local_addr().to_string());
    let resp = client
        .request("GET", "/v1/healthz", None)
        .unwrap_or_else(|e| panic!("{context}: server unreachable after fuzz case: {e}"));
    assert_eq!(resp.status, 200, "{context}");
    assert_eq!(resp.body, b"{\"ok\":true,\"generation\":0}", "{context}");
}

proptest! {
    /// Completely random bytes: never a panic, never a non-contract status,
    /// server alive afterwards.
    #[test]
    fn random_bytes_never_wedge_the_server(
        bytes in collection::vec((0u32..256).prop_map(|b| b as u8), 0..300),
    ) {
        static SERVER: OnceLock<HttpServer> = OnceLock::new();
        let server = SERVER.get_or_init(spawn_server);
        let wire = exchange(server, &bytes);
        check_responses(&wire, "random bytes");
        assert_alive(server, "random bytes");
    }

    /// Structured junk: a method-shaped token, a path, torn or valid
    /// headers, and a body that is JSON-shaped garbage. Same contract.
    #[test]
    fn structured_junk_answers_the_contract(
        verb in (0usize..6),
        path_pick in (0usize..6),
        body_pick in (0usize..6),
        torn in (0u32..2).prop_map(|t| t == 1),
    ) {
        static SERVER: OnceLock<HttpServer> = OnceLock::new();
        let server = SERVER.get_or_init(spawn_server);
        let verb = ["GET", "POST", "PUT", "DELETE", "G@T", ""][verb];
        let path = [
            "/v1/recommend/0",
            "/v1/recommend/notanumber",
            "/v1/recommend/0?n=abc",
            "/v1/ingest",
            "/nope",
            "v1/healthz", // not absolute
        ][path_pick];
        let body = [
            "",
            "{",
            "{\"users\":}",
            "{\"users\":[1,2,",
            "{\"user\":true}",
            "[\"not\",\"an\",\"object\"]",
        ][body_pick];
        let mut request = format!("{verb} {path} HTTP/1.1\r\n");
        if !body.is_empty() {
            request.push_str(&format!("Content-Length: {}\r\n", body.len()));
        }
        if torn {
            // Cut the head mid-header: the server must treat it as fatal.
            request.push_str("X-Torn: yes");
        } else {
            request.push_str("\r\n");
            request.push_str(body);
        }
        let wire = exchange(server, request.as_bytes());
        check_responses(&wire, "structured junk");
        assert_alive(server, "structured junk");
    }
}

/// Torn head: bytes stop mid-request-line. Fatal 400, then close.
#[test]
fn torn_head_gets_400_and_close() {
    let server = spawn_server();
    let wire = exchange(&server, b"GET /v1/reco");
    let statuses = check_responses(&wire, "torn head");
    assert_eq!(statuses, vec![400]);
}

/// Declared body larger than the limit: 413 with a JSON error, then close
/// (the unread body makes the stream unrecoverable).
#[test]
fn oversized_body_gets_413_and_close() {
    let server = spawn_server();
    let wire = exchange(
        &server,
        b"POST /v1/ingest HTTP/1.1\r\nContent-Length: 999999\r\n\r\n",
    );
    let statuses = check_responses(&wire, "oversized body");
    assert_eq!(statuses, vec![413]);
    assert_alive(&server, "oversized body");
}

/// Well-framed but semantically bad requests keep the connection: bad
/// JSON answers 400, an unknown route answers 404, and the *same*
/// connection then serves a good request — the recoverable half of the
/// state machine.
#[test]
fn bad_json_and_unknown_routes_keep_the_connection() {
    let server = spawn_server();
    let mut client = HttpClient::new(server.local_addr().to_string());

    let resp = client
        .request("POST", "/v1/recommend:batch", Some("{\"users\":[oops"))
        .unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.keep_alive, "bad JSON must not cost the connection");

    let resp = client.request("GET", "/v1/unknown", None).unwrap();
    assert_eq!(resp.status, 404);
    assert!(resp.keep_alive);

    let resp = client.request("GET", "/v1/recommend/0", None).unwrap();
    assert_eq!(
        resp.status, 200,
        "connection must still serve good requests"
    );

    // Unknown ids: 404 with the machine-readable field, connection kept.
    let resp = client.request("GET", "/v1/recommend/999999", None).unwrap();
    assert_eq!(resp.status, 404);
    let v = tinyjson::from_str(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    assert_eq!(v["unknown_user"].as_u64(), Some(999_999));
    let resp = client.request("GET", "/v1/recommend/0", None).unwrap();
    assert_eq!(resp.status, 200);
}

/// Malformed per-request override parameters — `theta` out of range or
/// non-numeric, `exclude` with junk entries, `rerank` naming an unknown
/// mode — answer 400 with a JSON error body and keep the connection, the
/// same recoverable contract as any other semantically bad request. The
/// pre-existing unknown-parameter 400 survives the new parameters.
#[test]
fn malformed_override_params_get_400_and_keep_the_connection() {
    let server = spawn_server();
    let mut client = HttpClient::new(server.local_addr().to_string());

    for (path, why) in [
        ("/v1/recommend/0?theta=abc", "non-numeric theta"),
        ("/v1/recommend/0?theta=1.5", "theta above 1"),
        ("/v1/recommend/0?theta=-0.1", "theta below 0"),
        ("/v1/recommend/0?theta=NaN", "non-finite theta"),
        ("/v1/recommend/0?exclude=1,x,3", "junk exclude entry"),
        ("/v1/recommend/0?exclude=-1", "negative exclude id"),
        ("/v1/recommend/0?rerank=bogus", "unknown rerank mode"),
        ("/v1/recommend/0?rerank=", "empty rerank mode"),
        ("/v1/recommend/0?boost=2", "unknown parameter"),
    ] {
        let resp = client.request("GET", path, None).unwrap();
        assert_eq!(resp.status, 400, "{why}: {path}");
        let v = tinyjson::from_str(std::str::from_utf8(&resp.body).unwrap())
            .unwrap_or_else(|e| panic!("{why}: body is not JSON ({e})"));
        assert!(
            v["error"].as_str().is_some(),
            "{why}: 400 without an \"error\" key"
        );
        assert!(resp.keep_alive, "{why} must not cost the connection");
    }

    // Same contract for the batch body fields.
    for (body, why) in [
        (
            "{\"users\":[0],\"theta\":\"abc\"}",
            "non-numeric batch theta",
        ),
        ("{\"users\":[0],\"theta\":2.0}", "out-of-range batch theta"),
        (
            "{\"users\":[0],\"exclude\":[1,\"x\"]}",
            "junk batch exclude",
        ),
        ("{\"users\":[0],\"exclude\":7}", "non-array batch exclude"),
        (
            "{\"users\":[0],\"rerank\":\"bogus\"}",
            "unknown batch rerank",
        ),
    ] {
        let resp = client
            .request("POST", "/v1/recommend:batch", Some(body))
            .unwrap();
        assert_eq!(resp.status, 400, "{why}: {body}");
        let v = tinyjson::from_str(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert!(v["error"].as_str().is_some(), "{why}");
        assert!(resp.keep_alive, "{why} must not cost the connection");
    }

    // The same connection still serves a good overridden request.
    let resp = client
        .request(
            "GET",
            "/v1/recommend/0?theta=0.5&exclude=1,2&rerank=pra",
            None,
        )
        .unwrap();
    assert_eq!(resp.status, 200, "valid overrides after the refusals");
    assert_alive(&server, "malformed overrides");
}

/// `n=0` is a valid request for an empty list: 200 with `"items":[]`,
/// not an error — pinned so truncation never turns into a refusal.
#[test]
fn n_zero_answers_an_empty_list_200() {
    let server = spawn_server();
    let mut client = HttpClient::new(server.local_addr().to_string());
    let resp = client.request("GET", "/v1/recommend/0?n=0", None).unwrap();
    assert_eq!(resp.status, 200);
    let v = tinyjson::from_str(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    assert_eq!(v["items"].as_array().map(Vec::len), Some(0));
    assert_eq!(v["user"].as_u64(), Some(0));
    // The empty list is a truncation, not a failure: the same connection
    // immediately serves the full list.
    let resp = client.request("GET", "/v1/recommend/0", None).unwrap();
    assert_eq!(resp.status, 200);
    let v = tinyjson::from_str(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    assert!(v["items"].as_array().map(Vec::len).unwrap_or(0) > 0);
}

/// Idempotency keys that could smuggle headers (CR/LF via the JSON body
/// `"key"` field — a real header can't carry them) or that the WAL replay
/// decoder would refuse (oversized) must be 400'd at ingress, never
/// acknowledged, and must not cost the connection.
#[test]
fn malformed_idempotency_keys_get_400_at_ingress() {
    let server = spawn_server();
    let mut client = HttpClient::new(server.local_addr().to_string());

    let smuggle = "{\"user\":0,\"item\":0,\"rating\":4.0,\
                   \"key\":\"evil\\r\\nX-Smuggled: 1\"}";
    let long = format!(
        "{{\"user\":0,\"item\":0,\"rating\":4.0,\"key\":\"{}\"}}",
        "x".repeat(200)
    );
    let spaced = "{\"user\":0,\"item\":0,\"rating\":4.0,\"key\":\"has space\"}";
    for body in [smuggle, &long, spaced] {
        let resp = client.request("POST", "/v1/ingest", Some(body)).unwrap();
        assert_eq!(resp.status, 400, "{body}");
        let v = tinyjson::from_str(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert!(v["error"].as_str().is_some());
        assert!(
            resp.keep_alive,
            "a refused key must not cost the connection"
        );
    }

    // Same contract on the batch endpoint: one bad entry fails the parse.
    let batch = format!(
        "{{\"entries\":[{{\"user\":0,\"item\":0,\"rating\":4.0,\"key\":\"ok-1\"}},{smuggle}]}}"
    );
    let resp = client
        .request("POST", "/v1/ingest:batch", Some(&batch))
        .unwrap();
    assert_eq!(resp.status, 400, "batch with an injection key");

    // A well-formed key on the same connection still works.
    let resp = client
        .request(
            "POST",
            "/v1/ingest",
            Some("{\"user\":0,\"item\":0,\"rating\":4.0,\"key\":\"good-key-1\"}"),
        )
        .unwrap();
    assert_eq!(resp.status, 200);
    assert_alive(&server, "malformed keys");
}

/// Pipelined requests: a valid request followed by garbage. The valid one
/// is answered 200, the garbage gets its fatal 400, then the connection
/// closes — responses in order, no interleaving.
#[test]
fn pipelined_junk_answers_in_order_then_closes() {
    let server = spawn_server();
    let wire = exchange(
        &server,
        b"GET /v1/healthz HTTP/1.1\r\n\r\nNONSENSE BYTES HERE\r\n\r\n",
    );
    let statuses = check_responses(&wire, "pipelined junk");
    assert_eq!(statuses, vec![200, 400]);
}

/// Pipelined *valid* requests all answer in order on one connection.
#[test]
fn pipelined_valid_requests_all_answer() {
    let server = spawn_server();
    let wire = exchange(
        &server,
        b"GET /v1/healthz HTTP/1.1\r\n\r\nGET /v1/recommend/0 HTTP/1.1\r\n\r\nGET /v1/stats HTTP/1.1\r\n\r\n",
    );
    let statuses = check_responses(&wire, "pipelined valid");
    assert_eq!(statuses, vec![200, 200, 200]);
}

/// One `write` of 50 000 pipelined recommends, every one of them cached and
/// so answerable on the event-loop thread: all are answered, in order, from
/// a loop that frames them iteratively (a `respond → advance` recursion
/// this deep overflows its stack) — and in bounded bursts, so a request on
/// a second connection gets its turn long before the pipeline is through.
#[test]
fn pipelined_cached_burst_answers_in_order_and_yields_to_other_connections() {
    use ganc::obs::ObsHub;
    use std::sync::atomic::{AtomicUsize, Ordering};

    const BURST: usize = 50_000;
    let engine = Arc::new(ServingEngine::new(bundle(), EngineConfig::default()));
    let n_users = engine.n_users() as usize;
    let hub = ObsHub::new();
    let cfg = ServerConfig {
        obs: Some(Arc::clone(&hub)),
        ..ServerConfig::default()
    };
    let server = HttpServer::bind(Frontend::Single(engine), None, cfg, "127.0.0.1:0").unwrap();
    let mut other = HttpClient::new(server.local_addr().to_string());
    for u in 0..n_users {
        let resp = other
            .request("GET", &format!("/v1/recommend/{u}"), None)
            .unwrap();
        assert_eq!(resp.status, 200, "priming user {u}");
    }

    let wire: Vec<u8> = (0..BURST)
        .flat_map(|i| format!("GET /v1/recommend/{} HTTP/1.1\r\n\r\n", i % n_users).into_bytes())
        .collect();
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let answered = AtomicUsize::new(0);
    let answered_when_other_was_served = std::thread::scope(|scope| {
        scope.spawn(|| (&stream).write_all(&wire).unwrap());
        scope.spawn(|| {
            let mut reader = BufReader::new(&stream);
            for i in 0..BURST {
                let resp = http1::read_response(&mut reader)
                    .unwrap_or_else(|e| panic!("response {i} of {BURST}: {e}"));
                assert_eq!(resp.status, 200, "response {i}");
                let v = tinyjson::from_str(std::str::from_utf8(&resp.body).unwrap()).unwrap();
                assert_eq!(
                    v["user"].as_u64(),
                    Some((i % n_users) as u64),
                    "response {i} out of order"
                );
                answered.fetch_add(1, Ordering::SeqCst);
            }
        });
        // Mid-pipeline (the first answers are in): the second connection's
        // request must not wait for the other 50 000.
        while answered.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        let resp = other.request("GET", "/v1/healthz", None).unwrap();
        assert_eq!(resp.status, 200);
        answered.load(Ordering::SeqCst)
    });
    assert_eq!(answered.load(Ordering::SeqCst), BURST);
    assert!(
        answered_when_other_was_served < BURST,
        "the second connection waited out the whole pipeline"
    );
    // Nearly all of it was answered inline — and not all of it: after a
    // bounded burst the next request is a worker's, which is how the loop
    // got back to its poller.
    let inline = hub
        .metrics
        .render()
        .lines()
        .find_map(|l| {
            l.strip_prefix("ganc_http_inline_total ")?
                .parse::<usize>()
                .ok()
        })
        .expect("inline counter rendered");
    assert!(
        (BURST * 9 / 10..BURST).contains(&inline),
        "{inline} of {BURST} answered inline"
    );
}

/// The router batch error contract: a failed θ-band answers 502 with a
/// JSON body whose `band` field names the failed band — not a bare
/// positional error — while per-user rejections stay in-slot 200s.
#[test]
fn failed_band_carries_its_index_in_the_error_body() {
    use doubles::FlakyPeer;
    use ganc::core::query::cut_theta_bands;
    use ganc::http::{PeerTransport, RouterNode, ShardRoute};

    let b = bundle();
    let cuts = cut_theta_bands(&b.theta, 2);
    let slice0 = b.slice_theta_band(f64::NEG_INFINITY, cuts[0]);
    let slice1 = b.slice_theta_band(cuts[0], f64::INFINITY);
    let local = Arc::new(ServingEngine::new(slice0, EngineConfig::default()));
    let remote_engine = Arc::new(ServingEngine::new(slice1, EngineConfig::default()));
    let flaky = FlakyPeer::new(remote_engine as Arc<dyn PeerTransport>);
    let router = RouterNode::new(
        Arc::clone(&b.theta),
        cuts,
        vec![
            ShardRoute::Local(local),
            ShardRoute::Remote(Arc::clone(&flaky) as Arc<dyn PeerTransport>),
        ],
    );
    let server = HttpServer::bind(
        Frontend::Router(Arc::new(router)),
        None,
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .unwrap();
    let mut client = HttpClient::new(server.local_addr().to_string());
    let ids: Vec<String> = (0..b.n_users()).map(|u| u.to_string()).collect();
    let body = format!("{{\"users\":[{}]}}", ids.join(","));

    // Healthy: a straddling batch answers 200 (unknown users would still
    // be in-slot, not whole-batch).
    let resp = client
        .request_idempotent("POST", "/v1/recommend:batch", Some(&body))
        .unwrap();
    assert_eq!(resp.status, 200);

    // Band 1 down: whole-batch 502 whose body is machine-attributable.
    flaky.fail_next(1);
    let resp = client
        .request_idempotent("POST", "/v1/recommend:batch", Some(&body))
        .unwrap();
    assert_eq!(resp.status, 502);
    let v = tinyjson::from_str(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    assert_eq!(
        v["band"].as_u64(),
        Some(1),
        "error body must name the failed band: {v:?}"
    );
    let msg = v["error"].as_str().unwrap();
    assert!(
        msg.starts_with("band 1:") && msg.contains("injected failure"),
        "error prose names band and cause: {msg}"
    );

    // Healed: the same connection serves the batch again.
    let resp = client
        .request_idempotent("POST", "/v1/recommend:batch", Some(&body))
        .unwrap();
    assert_eq!(resp.status, 200);
}

/// `/v1/healthz` degrades honestly: after the breaker ejects a replica the
/// body flips to `degraded: true` with the band index listed (while `ok`
/// stays true — the band still answers via failover), `/v1/stats` shows
/// the reduced replica count, and a probe pass restores both the replica
/// and the healthy healthz body.
#[test]
fn healthz_reports_degraded_bands_until_a_probe_restores() {
    use doubles::FlakyPeer;
    use ganc::core::query::cut_theta_bands;
    use ganc::http::{PeerTransport, ReplicaConfig, ReplicaSet, RouterNode, ShardRoute};
    use ganc::obs::{Clock, ManualClock};

    let b = bundle();
    let cuts = cut_theta_bands(&b.theta, 2);
    let slice0 = b.slice_theta_band(f64::NEG_INFINITY, cuts[0]);
    let slice1 = b.slice_theta_band(cuts[0], f64::INFINITY);
    let local = Arc::new(ServingEngine::new(slice0, EngineConfig::default()));
    // Band 1: two replicas behind a threshold-1 breaker on a frozen clock,
    // so the server-spawned probe loop stays idle and the test drives
    // recovery by hand through its own handle to the set.
    let mut peers: Vec<Arc<dyn PeerTransport>> = Vec::new();
    let mut flaky = Vec::new();
    for _ in 0..2 {
        let engine = Arc::new(ServingEngine::new(slice1.clone(), EngineConfig::default()));
        let f = FlakyPeer::new(engine as Arc<dyn PeerTransport>);
        peers.push(Arc::clone(&f) as Arc<dyn PeerTransport>);
        flaky.push(f);
    }
    let set = ReplicaSet::with_clock(
        peers,
        ReplicaConfig {
            failure_threshold: 1,
            ..ReplicaConfig::default()
        },
        Arc::new(ManualClock::new()) as Arc<dyn Clock>,
    );
    let router = RouterNode::new(
        Arc::clone(&b.theta),
        cuts,
        vec![
            ShardRoute::Local(local),
            ShardRoute::Replicas(Arc::clone(&set)),
        ],
    );
    let server = HttpServer::bind(
        Frontend::Router(Arc::new(router)),
        None,
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .unwrap();
    let mut client = HttpClient::new(server.local_addr().to_string());
    let get = |client: &mut HttpClient, path: &str| {
        let resp = client.request("GET", path, None).unwrap();
        assert_eq!(resp.status, 200, "{path}");
        tinyjson::from_str(std::str::from_utf8(&resp.body).unwrap()).unwrap()
    };

    // Fully replicated: healthy healthz, no degraded bands.
    let health: tinyjson::Value = get(&mut client, "/v1/healthz");
    assert_eq!(health["ok"].as_bool(), Some(true));
    assert_eq!(health["degraded"].as_bool(), Some(false));
    assert_eq!(health["degraded_bands"].as_array().map(Vec::len), Some(0));

    // One injected failure ejects band 1's primary (threshold 1); the
    // request itself still answers 200 through failover.
    flaky[0].fail_next(1);
    let ids: Vec<String> = (0..b.n_users()).map(|u| u.to_string()).collect();
    let body = format!("{{\"users\":[{}]}}", ids.join(","));
    let resp = client
        .request_idempotent("POST", "/v1/recommend:batch", Some(&body))
        .unwrap();
    assert_eq!(resp.status, 200, "failover hides the ejection from callers");

    let health: tinyjson::Value = get(&mut client, "/v1/healthz");
    assert_eq!(health["ok"].as_bool(), Some(true), "still serving");
    assert_eq!(health["degraded"].as_bool(), Some(true));
    let bands = health["degraded_bands"].as_array().unwrap();
    assert_eq!(
        bands.iter().filter_map(|v| v.as_u64()).collect::<Vec<_>>(),
        vec![1]
    );

    let stats: tinyjson::Value = get(&mut client, "/v1/stats");
    let shard1 = &stats["shards"].as_array().unwrap()[1];
    assert_eq!(shard1["replicas"]["count"].as_u64(), Some(2));
    assert_eq!(shard1["replicas"]["healthy"].as_u64(), Some(1));
    assert_eq!(shard1["replicas"]["primary"].as_u64(), Some(1));
    assert_eq!(shard1["replicas"]["ejections"].as_u64(), Some(1));

    // A probe pass restores the replica and rotates the primary back.
    assert_eq!(set.probe_once(), 1);
    let health: tinyjson::Value = get(&mut client, "/v1/healthz");
    assert_eq!(health["degraded"].as_bool(), Some(false));
    assert_eq!(health["degraded_bands"].as_array().map(Vec::len), Some(0));
    let stats: tinyjson::Value = get(&mut client, "/v1/stats");
    let shard1 = &stats["shards"].as_array().unwrap()[1];
    assert_eq!(shard1["replicas"]["healthy"].as_u64(), Some(2));
    assert_eq!(shard1["replicas"]["primary"].as_u64(), Some(0));
    assert_eq!(shard1["replicas"]["restores"].as_u64(), Some(1));
}
