//! The systems under test: one [`Stack`] per workload, plus the unsharded
//! in-process reference every served list is compared with. A stack is
//! built fresh every round from the artifact bytes and dropped at its end.

use crate::gen::Rating;
use crate::workload::{fit_cfg, refitter, ModelKind, Workload, BANDS, THREADS};
use ganc_core::query::band_bounds;
use ganc_dataset::{Interactions, ItemId, UserId};
use ganc_http::{
    Frontend, HttpClient, HttpServer, PeerTransport, RefitHook, RemoteShard, ReplicaConfig,
    RouterNode, ServerConfig, ShardRoute,
};
use ganc_obs::ObsHub;
use ganc_serve::{
    merge_interactions, EngineConfig, EngineStats, ModelBundle, RefitOutcome, Refitter,
    ServingEngine, ShardConfig, ShardPlan, ShardedEngine,
};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;
use tinyjson::Value;

/// Rolling-window width engines are attached with, as `HttpServer::bind`
/// attaches them.
const STATS_WINDOW: Duration = Duration::from_secs(300);

/// One served list: shared with the engine's cache when served in-process,
/// decoded from the JSON body when served over HTTP.
pub enum Served {
    Local(Arc<Vec<ItemId>>),
    Wire(Vec<u32>),
}

impl Served {
    pub fn ids(&self) -> Vec<u32> {
        match self {
            Served::Local(list) => list.iter().map(|i| i.0).collect(),
            Served::Wire(list) => list.clone(),
        }
    }

    pub fn matches(&self, want: &[u32]) -> bool {
        match self {
            Served::Local(list) => list.iter().map(|i| i.0).eq(want.iter().copied()),
            Served::Wire(list) => list == want,
        }
    }
}

/// One answer: the list and the generation it was served from.
pub type Answer = (Served, u64);

/// What a round asks of a system under test. Every call is one operation a
/// caller of the real system would make; an `Err` is a failed operation.
pub trait Stack {
    /// One user's list and the generation it was served from.
    fn recommend(&mut self, user: u32) -> Result<Answer, String>;
    /// One batch: a list per user, one generation for all of them.
    fn recommend_batch(&mut self, users: &[u32]) -> Result<(Vec<Served>, u64), String>;
    /// One rating through the workload's front, keyed when `key` is set.
    fn ingest(&mut self, rating: &Rating, key: Option<&str>) -> Result<(), String>;
    /// Drop every cached list (through an in-process handle: no deployed
    /// front exposes a flush, and it is never timed).
    fn flush(&mut self);
    /// Merge what was ingested, refit model + bundle, hot-swap.
    fn refit(&mut self) -> Result<(), String>;
    /// Cache and ingest counters summed over the stack's engines.
    fn stats(&self) -> EngineStats;
}

pub fn engine_cfg() -> EngineConfig {
    EngineConfig {
        threads: THREADS,
        ..EngineConfig::default()
    }
}

pub fn server_cfg() -> ServerConfig {
    ServerConfig {
        workers: THREADS,
        // One keep-alive connection for the whole round: never let the
        // server's per-connection request cap force a reconnect mid-phase.
        keep_alive_requests: u32::MAX,
        ..ServerConfig::default()
    }
}

fn users_of(users: &[u32]) -> Vec<UserId> {
    users.iter().map(|&u| UserId(u)).collect()
}

type Listed = Result<Arc<Vec<ItemId>>, ganc_serve::ServeError>;

fn local_one(
    answer: Result<(Arc<Vec<ItemId>>, u64), ganc_serve::ServeError>,
) -> Result<Answer, String> {
    answer
        .map(|(list, generation)| (Served::Local(list), generation))
        .map_err(|e| e.to_string())
}

fn local_batch((answers, generation): (Vec<Listed>, u64)) -> Result<(Vec<Served>, u64), String> {
    let lists = answers
        .into_iter()
        .map(|a| a.map(Served::Local).map_err(|e| e.to_string()))
        .collect::<Result<Vec<Served>, String>>()?;
    Ok((lists, generation))
}

/// Build the stack of `workload` over `bundle`. `scratch` is a directory
/// of this round's own for files the stack opens (the router's key WAL).
pub fn build(
    workload: Workload,
    bundle: ModelBundle,
    scratch: &Path,
) -> Result<Box<dyn Stack>, String> {
    Ok(match workload {
        Workload::EmbedMiss => {
            Box::new(Single::new(bundle, refitter(workload.model(), None), true))
        }
        Workload::OfflinePsvd => Box::new(Sharded::new(bundle, workload.model())),
        Workload::HttpHot => Box::new(Http::over_sharded(bundle, workload.model())?),
        Workload::RouterMixed => Box::new(Http::over_router(bundle, workload.model(), scratch)?),
    })
}

/// The ingest log and model side a stack without `refit_once` refits with.
struct ManualRefit {
    train: Arc<Interactions>,
    log: Vec<(UserId, ItemId, f32)>,
    fitter: Arc<Refitter>,
}

impl ManualRefit {
    fn fit(&mut self) -> ModelBundle {
        let merged = merge_interactions(&self.train, &self.log);
        let (model, theta) = (self.fitter)(&merged);
        let bundle = ModelBundle::fit(model, theta, merged, &fit_cfg());
        self.train = Arc::clone(&bundle.train);
        self.log.clear();
        bundle
    }
}

/// One in-process `ServingEngine`: `embed_miss` with an `ObsHub` attached
/// exactly as `HttpServer::bind` attaches one, the reference without.
pub struct Single {
    engine: ServingEngine,
    refit: ManualRefit,
}

impl Single {
    pub fn new(bundle: ModelBundle, fitter: Arc<Refitter>, obs: bool) -> Single {
        let refit = ManualRefit {
            train: Arc::clone(&bundle.train),
            log: Vec::new(),
            fitter,
        };
        let engine = ServingEngine::new(bundle, engine_cfg());
        if obs {
            engine.attach_obs(ObsHub::new(), None, STATS_WINDOW);
        }
        Single { engine, refit }
    }
}

impl Stack for Single {
    fn recommend(&mut self, user: u32) -> Result<Answer, String> {
        local_one(self.engine.recommend_traced(UserId(user)))
    }

    fn recommend_batch(&mut self, users: &[u32]) -> Result<(Vec<Served>, u64), String> {
        local_batch(self.engine.recommend_batch_traced(&users_of(users)))
    }

    fn ingest(&mut self, r: &Rating, _key: Option<&str>) -> Result<(), String> {
        self.engine
            .ingest(UserId(r.user), ItemId(r.item), r.value)
            .map_err(|e| e.to_string())?;
        self.refit
            .log
            .push((UserId(r.user), ItemId(r.item), r.value));
        Ok(())
    }

    fn flush(&mut self) {
        self.engine.flush_cache();
    }

    fn refit(&mut self) -> Result<(), String> {
        let bundle = self.refit.fit();
        self.engine.swap_bundle(bundle);
        Ok(())
    }

    fn stats(&self) -> EngineStats {
        self.engine.stats()
    }
}

pub fn shard_cfg() -> ShardConfig {
    ShardConfig {
        plan: ShardPlan::Quantile(BANDS),
        engine: engine_cfg(),
    }
}

/// `offline_psvd`: an in-process `ShardedEngine`, refitted by `refit_once`.
pub struct Sharded {
    engine: ShardedEngine,
    fitter: Arc<Refitter>,
}

impl Sharded {
    pub fn new(bundle: ModelBundle, kind: ModelKind) -> Sharded {
        Sharded {
            engine: ShardedEngine::new(bundle, shard_cfg()),
            fitter: refitter(kind, None),
        }
    }
}

impl Stack for Sharded {
    fn recommend(&mut self, user: u32) -> Result<Answer, String> {
        local_one(self.engine.recommend_traced(UserId(user)))
    }

    fn recommend_batch(&mut self, users: &[u32]) -> Result<(Vec<Served>, u64), String> {
        local_batch(self.engine.recommend_batch_traced(&users_of(users)))
    }

    fn ingest(&mut self, r: &Rating, _key: Option<&str>) -> Result<(), String> {
        self.engine
            .ingest(UserId(r.user), ItemId(r.item), r.value)
            .map_err(|e| e.to_string())
    }

    fn flush(&mut self) {
        self.engine.flush_cache();
    }

    fn refit(&mut self) -> Result<(), String> {
        match self.engine.refit_once(self.fitter.as_ref(), &fit_cfg()) {
            RefitOutcome::Swapped { .. } => Ok(()),
            RefitOutcome::Raced => Err("refit raced with no competing swap".to_string()),
        }
    }

    fn stats(&self) -> EngineStats {
        self.engine.stats()
    }
}

/// The routed deployment of `router_mixed`: bands 0–1 on local engines,
/// band 2 on a remote peer, band 3 replicated over two peers (no hedge
/// budget), the router's dedup keys persisted to a WAL.
pub struct RouterTopology {
    pub router: Arc<RouterNode>,
    /// Every band engine with its band index: two local, one remote peer,
    /// two replica peers of the last band.
    pub engines: Vec<(usize, Arc<ServingEngine>)>,
    pub cuts: Vec<f64>,
    /// Addresses of the peer servers, in `engines[2..]` order.
    pub peer_addrs: Vec<String>,
    // Dropped last: the router above dials them.
    _peers: Vec<HttpServer>,
}

/// Share of users at or below each band cut. Uneven on purpose: 60 % of
/// users land on the local bands, so the median request is a local one.
/// With equal bands half the users would be a network hop away, and the
/// p50 would sit on the boundary between the two latency modes and flip
/// from one to the other with the seed.
const ROUTER_CUT_QUANTILES: [f64; BANDS - 1] = [0.3, 0.6, 0.8];

pub fn router_cuts(theta: &[f64]) -> Vec<f64> {
    let mut sorted = theta.to_vec();
    sorted.sort_by(f64::total_cmp);
    ROUTER_CUT_QUANTILES
        .iter()
        .map(|q| sorted[(q * sorted.len() as f64) as usize])
        .collect()
}

impl RouterTopology {
    /// Stand the deployment up over `bundle`; the key WAL goes under
    /// `scratch`.
    pub fn build(bundle: &ModelBundle, scratch: &Path) -> Result<RouterTopology, String> {
        let cuts = router_cuts(&bundle.theta);
        let mut engines = Vec::new();
        let mut peers = Vec::new();
        let mut peer_addrs = Vec::new();
        let mut band_engine = |band: usize| {
            let (lo, hi) = band_bounds(&cuts, band);
            let engine = Arc::new(ServingEngine::new(
                bundle.slice_theta_band(lo, hi),
                engine_cfg(),
            ));
            engines.push((band, Arc::clone(&engine)));
            engine
        };
        let mut peer = |engine: Arc<ServingEngine>| -> Result<Arc<dyn PeerTransport>, String> {
            let server =
                HttpServer::bind(Frontend::Single(engine), None, server_cfg(), "127.0.0.1:0")
                    .map_err(|e| format!("bind peer: {e}"))?;
            let addr = server.local_addr().to_string();
            let remote =
                RemoteShard::connect(addr.clone()).map_err(|e| format!("dial peer: {e}"))?;
            peers.push(server);
            peer_addrs.push(addr);
            Ok(Arc::new(remote))
        };
        let routes = vec![
            ShardRoute::Local(band_engine(0)),
            ShardRoute::Local(band_engine(1)),
            ShardRoute::Remote(peer(band_engine(2))?),
            ShardRoute::replicated(
                vec![peer(band_engine(3))?, peer(band_engine(3))?],
                ReplicaConfig {
                    hedge_budget: None,
                    ..ReplicaConfig::default()
                },
            ),
        ];
        let router = RouterNode::with_wal(
            Arc::clone(&bundle.theta),
            cuts.clone(),
            routes,
            scratch.join("router-keys.wal"),
        )
        .map_err(|e| format!("open router WAL: {e}"))?;
        Ok(RouterTopology {
            router: Arc::new(router),
            engines,
            cuts,
            peer_addrs,
            _peers: peers,
        })
    }

    pub fn flush(&self) {
        self.engines.iter().for_each(|(_, e)| e.flush_cache());
    }
}

/// What stands behind the HTTP front, held for the calls no wire endpoint
/// offers (flush, counters, and the router's refit).
enum Behind {
    Sharded(Arc<ShardedEngine>),
    Router {
        topology: RouterTopology,
        refit: ManualRefit,
    },
}

/// `http_hot` and `router_mixed`: one keep-alive `HttpClient` against an
/// `HttpServer`. Fields drop in order: the client, the front server, then
/// what stands behind it.
pub struct Http {
    client: HttpClient,
    _server: HttpServer,
    behind: Behind,
}

impl Http {
    /// `http_hot`: `Frontend::Sharded`, refit through `POST /admin/refit`.
    fn over_sharded(bundle: ModelBundle, kind: ModelKind) -> Result<Http, String> {
        let engine = Arc::new(ShardedEngine::new(bundle, shard_cfg()));
        let hook = RefitHook {
            fitter: refitter(kind, None),
            cfg: fit_cfg(),
            cadence: None,
        };
        let server = HttpServer::bind(
            Frontend::Sharded(Arc::clone(&engine)),
            Some(hook),
            server_cfg(),
            "127.0.0.1:0",
        )
        .map_err(|e| format!("bind front: {e}"))?;
        Ok(Http {
            client: HttpClient::new(server.local_addr().to_string()),
            _server: server,
            behind: Behind::Sharded(engine),
        })
    }

    /// `router_mixed`: `Frontend::Router` over a [`RouterTopology`].
    fn over_router(bundle: ModelBundle, kind: ModelKind, scratch: &Path) -> Result<Http, String> {
        let topology = RouterTopology::build(&bundle, scratch)?;
        let server = HttpServer::bind(
            Frontend::Router(Arc::clone(&topology.router)),
            None,
            server_cfg(),
            "127.0.0.1:0",
        )
        .map_err(|e| format!("bind front: {e}"))?;
        Ok(Http {
            client: HttpClient::new(server.local_addr().to_string()),
            _server: server,
            behind: Behind::Router {
                topology,
                refit: ManualRefit {
                    train: Arc::clone(&bundle.train),
                    log: Vec::new(),
                    // The router's θ table and cuts are fixed at
                    // construction, so a live refit keeps the first θ.
                    fitter: refitter(kind, Some(Arc::clone(&bundle.theta))),
                },
            },
        })
    }

    /// Send one request and decode a 200 JSON body.
    fn call(&mut self, method: &str, path: &str, body: Option<&str>) -> Result<Value, String> {
        let resp = match body {
            // The batch recommend is a read: let a reaped connection retry.
            Some(_) if path == "/v1/recommend:batch" => {
                self.client.request_idempotent(method, path, body)
            }
            _ => self.client.request(method, path, body),
        };
        decode(resp.map_err(|e| format!("{method} {path}: {e}"))?, path)
    }
}

fn decode(resp: ganc_http::Response, path: &str) -> Result<Value, String> {
    let text = std::str::from_utf8(&resp.body).map_err(|e| format!("{path}: {e}"))?;
    if resp.status != 200 {
        return Err(format!("{path}: status {} {text}", resp.status));
    }
    tinyjson::from_str(text).map_err(|e| format!("{path}: {e}"))
}

fn wire_items(v: &Value) -> Result<Served, String> {
    v.as_array()
        .ok_or("answer without an items array")?
        .iter()
        .map(|i| {
            i.as_u64()
                .map(|i| i as u32)
                .ok_or_else(|| "non-integer item id".to_string())
        })
        .collect::<Result<Vec<u32>, String>>()
        .map(Served::Wire)
}

fn wire_generation(v: &Value) -> Result<u64, String> {
    v["generation"]
        .as_u64()
        .ok_or_else(|| "answer without a generation".to_string())
}

impl Stack for Http {
    fn recommend(&mut self, user: u32) -> Result<Answer, String> {
        let v = self.call("GET", &format!("/v1/recommend/{user}"), None)?;
        Ok((wire_items(&v["items"])?, wire_generation(&v)?))
    }

    fn recommend_batch(&mut self, users: &[u32]) -> Result<(Vec<Served>, u64), String> {
        let ids: Vec<String> = users.iter().map(u32::to_string).collect();
        let body = format!("{{\"users\":[{}]}}", ids.join(","));
        let v = self.call("POST", "/v1/recommend:batch", Some(&body))?;
        let results = v["results"]
            .as_array()
            .ok_or("batch answer without results")?;
        if results.len() != users.len() {
            return Err(format!("{} slots for {} users", results.len(), users.len()));
        }
        let lists = results
            .iter()
            .map(|slot| wire_items(&slot["items"]))
            .collect::<Result<Vec<Served>, String>>()?;
        Ok((lists, wire_generation(&v)?))
    }

    fn ingest(&mut self, r: &Rating, key: Option<&str>) -> Result<(), String> {
        let body = format!(
            "{{\"user\":{},\"item\":{},\"rating\":{}}}",
            r.user, r.item, r.value
        );
        let v = match key {
            None => self.call("POST", "/v1/ingest", Some(&body))?,
            Some(key) => decode(
                self.client
                    .request_keyed("POST", "/v1/ingest", Some(&body), key)
                    .map_err(|e| format!("keyed ingest: {e}"))?,
                "/v1/ingest",
            )?,
        };
        if v["ok"].as_bool() != Some(true) || v["deduplicated"].as_bool() == Some(true) {
            return Err(format!("ingest not applied: {}", tinyjson::to_string(&v)));
        }
        if let Behind::Router { refit, .. } = &mut self.behind {
            refit.log.push((UserId(r.user), ItemId(r.item), r.value));
        }
        Ok(())
    }

    fn flush(&mut self) {
        match &self.behind {
            Behind::Sharded(engine) => engine.flush_cache(),
            Behind::Router { topology, .. } => topology.flush(),
        }
    }

    fn refit(&mut self) -> Result<(), String> {
        match &mut self.behind {
            Behind::Sharded(_) => self.call("POST", "/admin/refit", None).map(|_| ()),
            // No wire endpoint refits a router deployment: one fit, one
            // slice per band, one swap per band engine (replicas included).
            Behind::Router { topology, refit } => {
                let bundle = refit.fit();
                for (band, engine) in &topology.engines {
                    let (lo, hi) = band_bounds(&topology.cuts, *band);
                    engine.swap_bundle(bundle.slice_theta_band(lo, hi));
                }
                Ok(())
            }
        }
    }

    fn stats(&self) -> EngineStats {
        match &self.behind {
            Behind::Sharded(engine) => engine.stats(),
            Behind::Router { topology, .. } => {
                let zero = EngineStats {
                    cache_hits: 0,
                    cache_misses: 0,
                    ingested: 0,
                    invalidated: 0,
                    cached: 0,
                };
                topology.engines.iter().fold(zero, |total, (_, engine)| {
                    let s = engine.stats();
                    EngineStats {
                        cache_hits: total.cache_hits + s.cache_hits,
                        cache_misses: total.cache_misses + s.cache_misses,
                        ingested: total.ingested + s.ingested,
                        invalidated: total.invalidated + s.invalidated,
                        cached: total.cached + s.cached,
                    }
                })
            }
        }
    }
}
