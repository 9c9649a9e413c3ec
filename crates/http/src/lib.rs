//! # ganc-http
//!
//! A dependency-free HTTP/1.1 front-end for the `ganc-serve` engines,
//! built on `std::net` alone (the build environment has no crates.io
//! registry; JSON comes from the vendored `tinyjson` stand-in and socket
//! readiness from the vendored `polling` stand-in, each swappable for the
//! real crate later).
//!
//! Six layers:
//!
//! 1. **Framing** ([`http1`]) — request/response framing with hard limits
//!    and a deterministic response header set (no `Date`), so identical
//!    state produces byte-identical responses.
//! 2. **Protocol** ([`wire`]) — every `/v1` body, query string and error
//!    body that is both written and read in this crate, encoder beside
//!    decoder; its module doc is the protocol reference. The server's
//!    handlers and [`RemoteShard`]'s methods name no field of their own.
//! 3. **Server** ([`server`], [`app`]) — [`HttpServer`]: an event-driven
//!    front-end (one readiness-polling event loop owning every connection,
//!    a small compute-only worker pool for handler dispatch), with
//!    keep-alive, content-length framing, clock-driven idle/slow-loris
//!    eviction, and graceful drain — connection concurrency is bounded by
//!    file descriptors, not workers. [`server`] is that machinery; [`app`]
//!    is what it answers with: the route table and handlers over a mounted
//!    [`Frontend`] (single engine, in-process sharded engine, or router),
//!    with `POST /admin/refit` wired to the background-refit machinery.
//! 4. **Client** ([`client`], [`router`]) — [`HttpClient`] /
//!    [`RemoteShard`] / [`RouterNode`]: a router node loads θ + cuts,
//!    serves some bands from local bundle slices, and dispatches the rest
//!    to peer nodes serving `bundle.shardK.ganc` artifacts over the same
//!    protocol — PR 3's per-node slices become a working multi-node
//!    deployment. Placement, the batch split and the cross-band fold are
//!    `ganc_serve::band`'s, the same an in-process `ShardedEngine` runs;
//!    sub-batches go out in parallel only when a touched band is not
//!    local (byte-identical to the sequential reference), and band windows
//!    meet in the one `ganc_obs::WindowWire::union` `/v1/stats` renders.
//! 5. **Serving seam** ([`transport`], [`testing`]) — the [`PeerTransport`]
//!    trait is the one serving surface, and every backend type implements
//!    it itself, once: `ganc_serve::ServingEngine` and
//!    `ganc_serve::ShardedEngine` (in-process), [`RemoteShard`] (over
//!    HTTP), [`CoalescedShard`] (micro-batching concurrent singles into one
//!    wire call), [`RouterNode`], `Arc<`[`ReplicaSet`]`>`, and the
//!    deterministic fault/latency-injection doubles for the test suites
//!    (one wrapper, [`testing::Injected`], with before/after hooks). The
//!    server's handlers and the router's band dispatch both call a
//!    `&dyn PeerTransport` and never ask which kind is behind it, so any
//!    node mounts anywhere: an engine as a `Remote` band, a router under a
//!    router. [`Frontend`] and [`ShardRoute`] name the mounts; their
//!    variants are matched only for what one kind alone has.
//! 6. **Availability** ([`replica`]) — [`ReplicaSet`]: per-band replica
//!    groups with hedged dispatch under a clock-driven latency budget,
//!    automatic failover behind a consecutive-failure breaker, and a
//!    background health probe that restores ejected replicas and rotates
//!    primaries — responses stay byte-identical to a single-backend
//!    route.
//!
//! One request shape runs through all of them:
//! `recommend_with_traced(user, &RequestOptions)` and
//! `recommend_batch_with_traced(users, &RequestOptions)` are what a
//! [`PeerTransport`] implementor writes, each forwarding the options
//! untouched (the engines' impls delegate to their inherent methods of the
//! same names); `recommend_traced` / `recommend_batch_traced` / `ingest`
//! are the trait's provided one-line sugar passing default options or no
//! key. Only two places read the options to choose behaviour:
//! `ServingEngine` (default → user-keyed LRU, override → fresh compute
//! that never touches the cache) and [`CoalescedShard`] (default singles
//! coalesce, override singles bypass).
//!
//! ## Quickstart
//!
//! ```
//! use ganc_http::{Frontend, HttpClient, HttpServer, ServerConfig};
//! use ganc_serve::{EngineConfig, FitConfig, FittedModel, ModelBundle, ServingEngine};
//! use ganc_dataset::synth::DatasetProfile;
//! use ganc_preference::GeneralizedConfig;
//! use ganc_recommender::pop::MostPopular;
//! use ganc_recommender::Recommender;
//! use std::sync::Arc;
//!
//! let data = DatasetProfile::tiny().generate(42);
//! let split = data.split_per_user(0.5, 7).unwrap();
//! let theta = GeneralizedConfig::default().estimate(&split.train);
//! let pop = MostPopular::fit(&split.train);
//! let cfg = FitConfig { sample_size: 20, ..FitConfig::new(10) };
//! let bundle = ModelBundle::fit(FittedModel::Pop(pop), theta, split.train, &cfg);
//! let engine = Arc::new(ServingEngine::new(bundle, EngineConfig::default()));
//!
//! let server = HttpServer::bind(
//!     Frontend::Single(engine),
//!     None,
//!     ServerConfig::default(),
//!     "127.0.0.1:0",
//! )
//! .unwrap();
//! let mut client = HttpClient::new(server.local_addr().to_string());
//! let resp = client.request("GET", "/v1/recommend/3?n=5", None).unwrap();
//! assert_eq!(resp.status, 200);
//! ```

pub mod app;
pub mod client;
pub mod http1;
pub mod replica;
pub mod router;
pub mod server;
pub mod testing;
pub mod transport;
pub mod wire;

pub use app::{Frontend, RefitHook};
pub use client::{HttpClient, RemoteShard};
pub use http1::{Limits, Request, Response, StatusCode};
pub use replica::{ReplicaConfig, ReplicaSet, ReplicaStats};
pub use router::{RouterNode, ShardRoute};
pub use server::{HttpServer, ServerConfig};
pub use transport::{
    BatchAnswer, CoalescedShard, IngestBatchAnswer, IngestEntry, PeerTransport, SingleAnswer,
};

use ganc_serve::ServeError;

/// Why a backend could not answer: a typed serving rejection, a transport
/// failure, or one θ-band of a router dispatch failing.
///
/// `Clone` because a coalesced remote batch answers many callers with the
/// same failure.
#[derive(Debug, Clone, PartialEq)]
pub enum BackendError {
    /// The engine rejected the request (unknown user/item).
    Serve(ServeError),
    /// A peer node was unreachable, answered garbage, or the deployment's
    /// generations were skewed mid-batch.
    Transport(String),
    /// One θ-band of a router batch dispatch failed. Carries the band
    /// index so a caller (and the JSON error body) can tell *which* shard
    /// of the deployment is unhealthy instead of guessing positionally.
    Band {
        /// The failed band's index in the router's shard layout.
        band: usize,
        /// The underlying failure, rendered.
        message: String,
    },
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::Serve(e) => write!(f, "{e}"),
            BackendError::Transport(msg) => write!(f, "transport: {msg}"),
            BackendError::Band { band, message } => write!(f, "band {band}: {message}"),
        }
    }
}

impl std::error::Error for BackendError {}
