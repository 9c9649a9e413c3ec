//! Replica sets per θ-band: hedged dispatch, automatic failover, and
//! health-driven primary rotation.
//!
//! PR 3 pinned each θ-band of the trade-off curve to exactly one backend,
//! so one slow or dead peer stalled or failed every batch touching its
//! band. A [`ReplicaSet`] widens a band to a small group of
//! [`PeerTransport`] replicas serving the *same* slice — and is one itself
//! (`impl PeerTransport for Arc<ReplicaSet>`, at the end of this module,
//! holds its read and ingest entry points), so the router dispatches to a
//! group exactly as it does to a single peer:
//!
//! 1. **Hedged dispatch** — the primary gets the sub-request first; when
//!    it has not answered within [`ReplicaConfig::hedge_budget`] the
//!    request is re-issued to the next replica in rotation and the first
//!    answer wins. The budget is read through the injected
//!    [`Clock`] seam, so tests drive hedges with a [`ManualClock`]
//!    (or a zero budget) instead of wall sleeps. A whole sub-batch is
//!    always one replica's answer, so a hedge can never mix bundle
//!    generations inside one batch — the router's cross-band skew check
//!    then covers the rest.
//! 2. **Automatic failover** — an error from the primary retries the next
//!    healthy replica before surfacing. A per-replica breaker counts
//!    *consecutive* failures; at [`ReplicaConfig::failure_threshold`] the
//!    replica is ejected from rotation and the primary rotates to the
//!    next healthy index.
//! 3. **Health-driven restore** — [`ReplicaSet::probe_once`] asks each
//!    ejected replica for its generation (the same call
//!    `RemoteShard::connect` verifies peers with, i.e. `/v1/healthz` over
//!    HTTP) and restores responders; the primary then rotates back to the
//!    lowest healthy index so a recovered original primary takes over
//!    again. [`ReplicaSet::spawn_probe`] runs that on a clock-driven
//!    background loop.
//!
//! Writes go to every replica through the fan-out a router uses too
//! ([`crate::transport`]), with [`ReplicaConfig::ingest_retries`] tries
//! each. The retries are exactly-once against memory-only replicas as
//! well as durable ones: a `ServingEngine` remembers the keys it applied.
//!
//! Replica answers are byte-identical to a single-backend route by the
//! same argument the router makes for slices: every replica serves the
//! same deterministic slice, so *which* replica answers is invisible —
//! `tests/router_replicas.rs` proves it under injected slow/dead/flaky
//! primaries, mid-hedge hot-swaps, and all-replicas-down.
//!
//! [`ManualClock`]: ganc_obs::ManualClock

use crate::transport::{fan_out_ingest, BatchAnswer, PeerTransport, SingleAnswer};
use crate::BackendError;
use ganc_dataset::{ItemId, UserId};
use ganc_obs::{Background, Clock, ObsHub, SystemClock, TraceData};
use ganc_serve::{IngestAck, RequestOptions};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::time::Duration;

/// Tuning for one band's replica group.
#[derive(Clone, Copy, Debug)]
pub struct ReplicaConfig {
    /// Re-issue a dispatch to the next replica after this long without an
    /// answer from the primary. `None` disables hedging (failover and the
    /// breaker still apply); `Some(Duration::ZERO)` hedges immediately,
    /// which is how tests get deterministic hedges without a clock thread.
    pub hedge_budget: Option<Duration>,
    /// Consecutive failures that eject a replica from rotation (min 1).
    pub failure_threshold: u32,
    /// How often the background probe re-checks ejected replicas.
    pub probe_interval: Duration,
    /// Attempts per replica for the keyed ingest fan-out (min 1). Retries
    /// are safe precisely because every fan-out entry carries an
    /// idempotency key: a replica that applied the ingest but lost the
    /// acknowledgement dedups the retry in its engine's own window — a
    /// `ServingEngine`'s or a `ShardedEngine`'s, with or without a WAL.
    pub ingest_retries: u32,
}

impl Default for ReplicaConfig {
    fn default() -> ReplicaConfig {
        ReplicaConfig {
            hedge_budget: None,
            failure_threshold: 3,
            probe_interval: Duration::from_secs(1),
            ingest_retries: 2,
        }
    }
}

/// Point-in-time view of one band's replica group, for `/v1/stats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplicaStats {
    /// Replicas configured.
    pub replicas: usize,
    /// Replicas currently in rotation.
    pub healthy: usize,
    /// Index dispatch tries first.
    pub primary: usize,
    /// Hedges fired so far.
    pub hedges: u64,
    /// Failed dispatches retried on another replica.
    pub failovers: u64,
    /// Replicas ejected by the breaker.
    pub ejections: u64,
    /// Ejected replicas restored by a probe.
    pub restores: u64,
}

/// One replica's breaker state.
struct Replica {
    peer: Arc<dyn PeerTransport>,
    healthy: AtomicBool,
    consecutive_failures: AtomicU32,
}

/// The trace sink and the band it records for, attached once by the
/// router. The availability counts are this set's own ([`ReplicaStats`]),
/// which the router's series read.
struct ReplicaObs {
    hub: Arc<ObsHub>,
    band: u32,
}

/// A band's replica group. Construct with [`ReplicaSet::new`] (production
/// clock) or [`ReplicaSet::with_clock`] (tests), then mount it on the
/// router via `ShardRoute::Replicas`; the `Arc` it comes in is its
/// [`PeerTransport`].
pub struct ReplicaSet {
    replicas: Vec<Replica>,
    cfg: ReplicaConfig,
    clock: Arc<dyn Clock>,
    primary: AtomicUsize,
    hedges: AtomicU64,
    failovers: AtomicU64,
    ejections: AtomicU64,
    restores: AtomicU64,
    obs: OnceLock<ReplicaObs>,
}

/// The dispatch closure a hedged/failover attempt replays verbatim on
/// whichever replica it lands on.
type Call<T> = Arc<dyn Fn(&dyn PeerTransport) -> Result<T, BackendError> + Send + Sync>;

/// Where a hedged attempt's dispatch threads send `(replica, result)`.
type Answers<T> = mpsc::Sender<(usize, Result<T, BackendError>)>;

impl ReplicaSet {
    /// A replica group on the production [`SystemClock`].
    pub fn new(peers: Vec<Arc<dyn PeerTransport>>, cfg: ReplicaConfig) -> Arc<ReplicaSet> {
        ReplicaSet::with_clock(peers, cfg, Arc::new(SystemClock::new()))
    }

    /// A replica group reading its hedge budget and probe cadence through
    /// an injected clock.
    pub fn with_clock(
        peers: Vec<Arc<dyn PeerTransport>>,
        cfg: ReplicaConfig,
        clock: Arc<dyn Clock>,
    ) -> Arc<ReplicaSet> {
        assert!(!peers.is_empty(), "a replica set needs at least one peer");
        let replicas = peers
            .into_iter()
            .map(|peer| Replica {
                peer,
                healthy: AtomicBool::new(true),
                consecutive_failures: AtomicU32::new(0),
            })
            .collect();
        Arc::new(ReplicaSet {
            replicas,
            cfg: ReplicaConfig {
                failure_threshold: cfg.failure_threshold.max(1),
                ingest_retries: cfg.ingest_retries.max(1),
                ..cfg
            },
            clock,
            primary: AtomicUsize::new(0),
            hedges: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            ejections: AtomicU64::new(0),
            restores: AtomicU64::new(0),
            obs: OnceLock::new(),
        })
    }

    /// Replicas configured.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Never empty (asserted at construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Replicas currently in rotation.
    pub fn healthy_len(&self) -> usize {
        self.replicas
            .iter()
            .filter(|r| r.healthy.load(Ordering::SeqCst))
            .count()
    }

    /// Point-in-time stats snapshot.
    pub fn stats(&self) -> ReplicaStats {
        ReplicaStats {
            replicas: self.replicas.len(),
            healthy: self.healthy_len(),
            primary: self.primary.load(Ordering::SeqCst),
            hedges: self.hedges.load(Ordering::SeqCst),
            failovers: self.failovers.load(Ordering::SeqCst),
            ejections: self.ejections.load(Ordering::SeqCst),
            restores: self.restores.load(Ordering::SeqCst),
        }
    }

    /// Attach the trace sink, recording as `band`. One-shot; later calls
    /// are ignored.
    pub(crate) fn attach_obs(&self, hub: Arc<ObsHub>, band: u32) {
        let _ = self.obs.set(ReplicaObs { hub, band });
    }

    /// Dispatch order: the rotation ring starting at the primary,
    /// unhealthy replicas skipped. When *every* replica is ejected the
    /// full ring is returned — a last-ditch attempt beats refusing
    /// outright, and when it fails the caller still gets the band error
    /// contract.
    fn rotation(&self) -> Vec<usize> {
        let n = self.replicas.len();
        let start = self.primary.load(Ordering::SeqCst).min(n - 1);
        let ring = (0..n).map(|k| (start + k) % n);
        let healthy: Vec<usize> = ring
            .clone()
            .filter(|&i| self.replicas[i].healthy.load(Ordering::SeqCst))
            .collect();
        if healthy.is_empty() {
            ring.collect()
        } else {
            healthy
        }
    }

    /// First healthy index after `idx` in ring order, if any.
    fn next_healthy_after(&self, idx: usize) -> Option<usize> {
        let n = self.replicas.len();
        (1..n)
            .map(|k| (idx + k) % n)
            .find(|&i| self.replicas[i].healthy.load(Ordering::SeqCst))
    }

    fn record_success(&self, idx: usize) {
        let r = &self.replicas[idx];
        r.consecutive_failures.store(0, Ordering::SeqCst);
        // A last-ditch call through an ejected replica that answers is a
        // restore, same as a probe finding it alive.
        if !r.healthy.swap(true, Ordering::SeqCst) {
            self.note_restore(idx);
        }
    }

    fn record_failure(&self, idx: usize) {
        let r = &self.replicas[idx];
        let failures = r.consecutive_failures.fetch_add(1, Ordering::SeqCst) + 1;
        if failures >= self.cfg.failure_threshold && r.healthy.swap(false, Ordering::SeqCst) {
            let replica = idx as u32;
            let ejected = |band| TraceData::ReplicaEjected {
                band,
                replica,
                failures,
            };
            self.note(&self.ejections, ejected);
            // Rotate the primary off the ejected replica so the next
            // dispatch starts healthy.
            if self.primary.load(Ordering::SeqCst) == idx {
                if let Some(next) = self.next_healthy_after(idx) {
                    self.primary.store(next, Ordering::SeqCst);
                }
            }
        }
    }

    /// Count one availability event on `count` and trace it for the band.
    fn note(&self, count: &AtomicU64, event: impl FnOnce(u32) -> TraceData) {
        count.fetch_add(1, Ordering::SeqCst);
        if let Some(obs) = self.obs.get() {
            obs.hub.trace.record(obs.hub.now_us(), event(obs.band));
        }
    }

    fn note_restore(&self, idx: usize) {
        let replica = idx as u32;
        self.note(&self.restores, |band| TraceData::ReplicaRestored {
            band,
            replica,
        });
    }

    fn note_failover(&self, from: usize, to: usize) {
        let (from, to) = (from as u32, to as u32);
        self.note(&self.failovers, |band| TraceData::BandFailover {
            band,
            from,
            to,
        });
    }

    fn note_hedge(&self, primary: usize, hedge: usize) {
        let (primary, hedge) = (primary as u32, hedge as u32);
        let hedged = |band| TraceData::BandHedge {
            band,
            primary,
            hedge,
        };
        self.note(&self.hedges, hedged);
    }

    /// One synchronous attempt on `idx`, breaker-accounted.
    fn attempt<T>(&self, idx: usize, call: &Call<T>) -> Result<T, BackendError> {
        let out = call(self.replicas[idx].peer.as_ref());
        match &out {
            Ok(_) => self.record_success(idx),
            Err(_) => self.record_failure(idx),
        }
        out
    }

    /// Fire `call` against `idx` on a detached thread that sends
    /// `(idx, result)` into `tx`. Detached on purpose: the straggler must
    /// not block the winner's return; it self-accounts into the breaker
    /// when it eventually finishes.
    fn launch<T: Send + 'static>(self: &Arc<Self>, idx: usize, call: &Call<T>, tx: &Answers<T>) {
        let set = Arc::clone(self);
        let call = Arc::clone(call);
        let tx = tx.clone();
        std::thread::spawn(move || {
            let _ = tx.send((idx, set.attempt(idx, &call)));
        });
    }

    /// One hedged attempt: primary first; when the budget elapses without
    /// an answer the call is re-issued to `hedge` and the first `Ok`
    /// wins. Both attempts are accounted, so a hedged pass consumes two
    /// rotation slots. Both attempts answer on one channel; the budget
    /// wait blocks for [`Clock::wall_until`] the deadline, re-reading the
    /// injected clock.
    fn hedged_attempt<T: Send + 'static>(
        self: &Arc<Self>,
        primary: usize,
        hedge: usize,
        call: &Call<T>,
    ) -> Result<T, BackendError> {
        let budget = self
            .cfg
            .hedge_budget
            .expect("hedged_attempt requires a budget");
        let (tx, rx) = mpsc::channel();
        // Deadline first, launch second: once the primary's thread is
        // observable (e.g. parked at a test gate) the budget must already
        // be armed, or an injected clock advanced "after dispatch" could
        // land before the deadline was computed and push it out of reach.
        let deadline = self.clock.now() + budget;
        self.launch(primary, call, &tx);
        loop {
            match rx.recv_timeout(self.clock.wall_until(deadline)) {
                Ok((_, Ok(v))) => return Ok(v),
                Ok((_, Err(_))) => {
                    // The primary failed *within* its budget: that is
                    // plain failover, no hedge — retry inline.
                    self.note_failover(primary, hedge);
                    return self.attempt(hedge, call);
                }
                Err(_) if self.clock.now() >= deadline => break,
                Err(_) => {}
            }
        }
        // Budget blown: re-issue to the next replica; first answer wins.
        // An error waits for the other attempt (the channel closes once
        // both have sent); both failing surfaces the primary's error so the
        // outcome is deterministic.
        self.note_hedge(primary, hedge);
        self.launch(hedge, call, &tx);
        drop(tx);
        let mut primary_err = None;
        for (idx, out) in rx {
            match out {
                Ok(v) => return Ok(v),
                Err(e) if idx == primary => primary_err = Some(e),
                Err(_) => {}
            }
        }
        Err(primary_err.expect("both hedged attempts answered"))
    }

    /// The shared dispatch ladder: hedged first attempt (when configured
    /// and more than one replica is in rotation), then failover down the
    /// rotation until an answer or the ring is exhausted. The *primary's*
    /// error is the one surfaced — deterministic regardless of how many
    /// retries ran.
    fn dispatch<T: Send + 'static>(self: &Arc<Self>, call: Call<T>) -> Result<T, BackendError> {
        let order = self.rotation();
        let hedging = self.cfg.hedge_budget.is_some() && order.len() > 1;
        let mut first_err: Option<BackendError> = None;
        let mut i = 0;
        while i < order.len() {
            let attempt = if hedging && i == 0 {
                // Consumes order[0] and order[1]: both were tried no
                // matter how the hedge resolved.
                let out = self.hedged_attempt(order[0], order[1], &call);
                i += 2;
                out
            } else {
                let out = self.attempt(order[i], &call);
                i += 1;
                out
            };
            match attempt {
                Ok(v) => return Ok(v),
                Err(e) => {
                    if i < order.len() {
                        self.note_failover(order[i - 1], order[i]);
                    }
                    first_err.get_or_insert(e);
                }
            }
        }
        Err(first_err.expect("rotation is never empty"))
    }

    /// One probe pass: ask every *ejected* replica for its generation
    /// (`/v1/healthz` over HTTP) and restore responders, then rotate the
    /// primary to the lowest healthy index — so a recovered original
    /// primary deterministically takes back over. Returns how many
    /// replicas were restored. Tests call this directly; production runs
    /// it on the [`ReplicaSet::spawn_probe`] loop.
    pub fn probe_once(&self) -> usize {
        let mut restored = 0;
        for (idx, r) in self.replicas.iter().enumerate() {
            if !r.healthy.load(Ordering::SeqCst) && r.peer.generation().is_ok() {
                r.consecutive_failures.store(0, Ordering::SeqCst);
                if !r.healthy.swap(true, Ordering::SeqCst) {
                    restored += 1;
                    self.note_restore(idx);
                }
            }
        }
        if let Some(first) =
            (0..self.replicas.len()).find(|&i| self.replicas[i].healthy.load(Ordering::SeqCst))
        {
            self.primary.store(first, Ordering::SeqCst);
        }
        restored
    }

    /// Run [`ReplicaSet::probe_once`] every
    /// [`ReplicaConfig::probe_interval`] of the injected clock as a
    /// [`Background`] job, so a frozen [`ganc_obs::ManualClock`] keeps it
    /// provably idle in tests. The handle stops and joins it on drop.
    pub fn spawn_probe(self: &Arc<Self>) -> Background {
        let set = Arc::clone(self);
        let interval = self.cfg.probe_interval;
        let first = self.clock.now() + interval;
        Background::spawn(Arc::clone(&self.clock), first, move |_| {
            set.probe_once();
            // The pause between passes, counted from the end of this one.
            set.clock.now() + interval
        })
    }
}

/// A replica group is itself a peer, answering what any one of its members
/// would. The receivers are `&Arc<ReplicaSet>` because a hedged attempt's
/// detached thread must own a handle on the set. The option-less
/// `recommend_traced` / `recommend_batch_traced` and the key-less `ingest`
/// are the trait's provided methods.
impl PeerTransport for Arc<ReplicaSet> {
    /// Stats label: the member peers' labels, primary first marker aside.
    fn label(&self) -> String {
        let members: Vec<String> = self.replicas.iter().map(|r| r.peer.label()).collect();
        format!("replicas[{}]", members.join(", "))
    }

    fn kind(&self) -> &'static str {
        "replicas"
    }

    /// Answer one request from whichever replica wins. The options ride
    /// inside the dispatch closure, so a hedge or failover replays the
    /// *same* θ/exclusions/re-ranker on the next replica — an override can
    /// degrade to an error, never to another request's defaults.
    fn recommend_with_traced(&self, user: UserId, opts: &RequestOptions) -> SingleAnswer {
        let opts = opts.clone();
        self.dispatch(Arc::new(move |peer: &dyn PeerTransport| {
            peer.recommend_with_traced(user, &opts)
        }))
    }

    /// Answer one band sub-batch from whichever replica wins. The whole
    /// sub-batch is one replica's answer, so it carries exactly one
    /// generation — a hedge cannot mix generations into a batch.
    fn recommend_batch_with_traced(&self, users: &[UserId], opts: &RequestOptions) -> BatchAnswer {
        let users: Arc<Vec<UserId>> = Arc::new(users.to_vec());
        let opts = opts.clone();
        self.dispatch(Arc::new(move |peer: &dyn PeerTransport| {
            peer.recommend_batch_with_traced(&users, &opts)
        }))
    }

    /// Keyed exactly-once fan-out to **every** replica (healthy or not —
    /// an ejected replica that misses ingests would serve stale popularity
    /// after restore) through `transport::fan_out_ingest`, each replica
    /// getting [`ReplicaConfig::ingest_retries`] attempts. The idempotency
    /// key makes each retry (and any caller-level resend after an `Err`) a
    /// no-op on replicas that already applied it — without a key a retry of
    /// an applied-but-unacked ingest can double-apply, which is why the
    /// router generates keys for its fan-out. No breaker accounting: ingest
    /// delivery is a write-side obligation, not a dispatch health signal.
    fn ingest_keyed(
        &self,
        key: Option<&str>,
        user: UserId,
        item: ItemId,
        rating: f32,
    ) -> Result<IngestAck, BackendError> {
        let members = self.replicas.iter().map(|r| &*r.peer);
        fan_out_ingest(members, self.cfg.ingest_retries, key, user, item, rating)
    }

    /// The group's generation: first replica in rotation order that
    /// answers. No breaker accounting — this is a read-side health view,
    /// not a dispatch.
    fn generation(&self) -> Result<u64, BackendError> {
        let mut last = None;
        for i in self.rotation() {
            match self.replicas[i].peer.generation() {
                Ok(g) => return Ok(g),
                Err(e) => last = Some(e),
            }
        }
        Err(last.expect("rotation is never empty"))
    }
}
