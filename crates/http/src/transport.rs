//! The one serving surface — [`PeerTransport`] — its impls for the two
//! in-process engines, the one keyed-ingest fan-out a router and a replica
//! group both deliver through, and the micro-batching wrapper that
//! coalesces concurrent singles to one peer into one wire call.
//!
//! Every backend type implements the trait itself: the engines here,
//! [`crate::RemoteShard`] (real HTTP) in [`crate::client`],
//! [`crate::RouterNode`] and `Arc<`[`crate::ReplicaSet`]`>` beside their
//! types. The server's handlers and the router's band dispatch call it and
//! nothing else, so a θ-band answers the same list wherever it is mounted
//! — `tests/deployment_oracle.rs` replays one schedule against every mount
//! as one trait call per shape. It is also the seam that makes the router's
//! concurrency testable: the deterministic fault/latency doubles in
//! `tests/doubles` implement the same trait to inject slow, flaky, or
//! reordered peers without real sockets or sleeps — `tests/router_fanout.rs`
//! and `tests/remote_coalescing.rs` prove the parallel fan-out equal to an
//! in-process sharded engine and the coalescer equal to uncoalesced calls
//! under that adversarial timing.

use crate::BackendError;
use ganc_dataset::{ItemId, UserId};
use ganc_obs::WindowWire;
use ganc_serve::{
    BatchConfig, BatchSource, Coalescer, EngineBatch, IngestAck, RequestOptions, ServeError,
    ServingEngine, ShardedEngine, SlotAnswer,
};
use std::sync::Arc;

/// One ingest in a coalesced fan-out batch: the interaction plus the
/// idempotency key that makes retrying it safe.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestEntry {
    /// Idempotency key, when the originating request carried (or the
    /// router generated) one.
    pub key: Option<String>,
    /// User the rating came from.
    pub user: UserId,
    /// Item rated.
    pub item: ItemId,
    /// Rating value.
    pub rating: f32,
}

/// One request's answer from a peer: the list and the generation it was
/// served from, or the reason the peer (or the hop to it) failed.
pub type SingleAnswer = Result<(Arc<Vec<ItemId>>, u64), BackendError>;

/// A batch's answer from a peer: per-user results in-slot and the one
/// generation the whole batch shares, or a whole-batch failure.
pub type BatchAnswer = Result<EngineBatch, BackendError>;

/// An ingest batch's answer: per-entry acks in-slot, or a whole-batch
/// failure.
pub type IngestBatchAnswer = Result<Vec<Result<IngestAck, ServeError>>, BackendError>;

/// A backend that answers recommends and takes ingests, reachable by
/// whatever transport: real HTTP ([`crate::RemoteShard`]), an in-process
/// engine, a router or replica group over more of the same, or an injection
/// double wrapping any of them.
///
/// Every read carries its [`RequestOptions`]: an implementor writes
/// [`PeerTransport::recommend_with_traced`] and
/// [`PeerTransport::recommend_batch_with_traced`] and forwards the options
/// untouched — what they mean is decided by the [`ganc_serve::ServingEngine`]
/// at the end of the chain. The option-less and key-less names are sugar
/// over those and are not meant to be overridden.
pub trait PeerTransport: Send + Sync {
    /// Where this peer lives, for stats and error labels (an address for
    /// real peers, a description for doubles).
    fn label(&self) -> String;

    /// Answer one user's request under `opts` with the peer's generation.
    fn recommend_with_traced(&self, user: UserId, opts: &RequestOptions) -> SingleAnswer;

    /// Answer a batch in-slot; one options set applies to every user and
    /// the whole batch shares one generation.
    fn recommend_batch_with_traced(&self, users: &[UserId], opts: &RequestOptions) -> BatchAnswer;

    /// Non-blocking probe for `user`'s default-options answer, for a caller
    /// that must not wait (the server's event-loop thread): `Some` only
    /// when the answer is already in this process's response cache and can
    /// be had without waiting on a lock. `None` means "ask
    /// [`PeerTransport::recommend_with_traced`]" — never "unknown user" —
    /// and is the right answer for anything that would cross a wire.
    fn recommend_cached(&self, _user: UserId) -> Option<(Arc<Vec<ItemId>>, u64)> {
        None
    }

    /// [`PeerTransport::recommend_with_traced`] at default options.
    fn recommend_traced(&self, user: UserId) -> SingleAnswer {
        self.recommend_with_traced(user, &RequestOptions::default())
    }

    /// [`PeerTransport::recommend_batch_with_traced`] at default options.
    fn recommend_batch_traced(&self, users: &[UserId]) -> BatchAnswer {
        self.recommend_batch_with_traced(users, &RequestOptions::default())
    }

    /// Apply one observed interaction on the peer, with an optional
    /// idempotency key the peer's dedup window honors on a resend.
    fn ingest_keyed(
        &self,
        key: Option<&str>,
        user: UserId,
        item: ItemId,
        rating: f32,
    ) -> Result<IngestAck, BackendError>;

    /// [`PeerTransport::ingest_keyed`] with no key.
    fn ingest(&self, user: UserId, item: ItemId, rating: f32) -> Result<(), BackendError> {
        self.ingest_keyed(None, user, item, rating).map(|_| ())
    }

    /// Apply a batch of keyed interactions in one call, answering
    /// per-slot: one rejected entry (unknown id) must not fail its
    /// coalesced companions. The default loops [`PeerTransport::ingest_keyed`];
    /// wire transports override with one `POST /v1/ingest:batch` round-trip.
    fn ingest_batch(&self, entries: &[IngestEntry]) -> IngestBatchAnswer {
        let mut out = Vec::with_capacity(entries.len());
        for e in entries {
            match self.ingest_keyed(e.key.as_deref(), e.user, e.item, e.rating) {
                Ok(ack) => out.push(Ok(ack)),
                Err(BackendError::Serve(se)) => out.push(Err(se)),
                // A transport failure poisons the whole batch — nothing
                // after it is known to have reached the peer.
                Err(e) => return Err(e),
            }
        }
        Ok(out)
    }

    /// The peer's current bundle generation.
    fn generation(&self) -> Result<u64, BackendError>;

    /// Short kind label for stats (`"remote"` unless a wrapper overrides).
    fn kind(&self) -> &'static str {
        "remote"
    }

    /// Queue depth for coalescing wrappers; `None` when the transport
    /// holds no queue.
    fn pending_depth(&self) -> Option<usize> {
        None
    }

    /// The peer's rolling beyond-accuracy window as a transportable
    /// summary, so a router can fold remote bands into its aggregate
    /// `/v1/stats` view. `Ok(None)` means the peer exposes no window
    /// (the default for transports without one); wire transports
    /// ([`crate::RemoteShard`]) fetch it over `GET /v1/window`, and
    /// wrappers forward to their inner peer.
    fn window_wire(&self) -> Result<Option<WindowWire>, BackendError> {
        Ok(None)
    }
}

/// Deliver one keyed interaction to every member of a fan-out — a
/// router's routes in band order, a replica group's replicas — under the
/// same key: each member gets up to `attempts` tries (at least one), an
/// unknown id is never retried (it cannot change), and one member's
/// failure never stops delivery to the rest. The error is the first
/// failing member's, in member order, and means "resend with the same
/// key": members that already applied it answer `Deduplicated`. `Ok` is
/// [`IngestAck::Deduplicated`] only when every member answered it.
pub(crate) fn fan_out_ingest<'a, P: PeerTransport + ?Sized + 'a>(
    members: impl IntoIterator<Item = &'a P>,
    attempts: u32,
    key: Option<&str>,
    user: UserId,
    item: ItemId,
    rating: f32,
) -> Result<IngestAck, BackendError> {
    let mut first_err = None;
    let mut ack = IngestAck::Deduplicated;
    for peer in members {
        let mut outcome = peer.ingest_keyed(key, user, item, rating);
        for _ in 1..attempts {
            match outcome {
                // A failed WAL append is a node fault like any transport
                // error, and is retried.
                Err(BackendError::Serve(
                    ServeError::UnknownUser(_) | ServeError::UnknownItem(_),
                ))
                | Ok(_) => break,
                Err(_) => outcome = peer.ingest_keyed(key, user, item, rating),
            }
        }
        match outcome {
            Ok(IngestAck::Applied) => ack = IngestAck::Applied,
            Ok(IngestAck::Deduplicated) => {}
            Err(e) => {
                first_err.get_or_insert(e);
            }
        }
    }
    first_err.map_or(Ok(ack), Err)
}

/// A [`ServingEngine`] is its own in-process peer: each method is the
/// inherent one with [`ServeError`] widened to [`BackendError::Serve`], so
/// an engine mounts wherever a peer does — behind a server, as a router
/// band, under the injection doubles in `tests/doubles` — and fan-out
/// and coalescing are provable without sockets. A keyed ingest dedups in
/// the engine's own memory window, as a [`ShardedEngine`]'s does in its
/// own, with or without a WAL.
impl PeerTransport for ServingEngine {
    fn label(&self) -> String {
        "in-process:single".to_string()
    }

    fn recommend_with_traced(&self, user: UserId, opts: &RequestOptions) -> SingleAnswer {
        ServingEngine::recommend_with_traced(self, user, opts).map_err(BackendError::Serve)
    }

    fn recommend_batch_with_traced(&self, users: &[UserId], opts: &RequestOptions) -> BatchAnswer {
        Ok(ServingEngine::recommend_batch_with_traced(
            self, users, opts,
        ))
    }

    fn recommend_cached(&self, user: UserId) -> Option<(Arc<Vec<ItemId>>, u64)> {
        ServingEngine::recommend_cached(self, user)
    }

    /// The engine remembers the key itself, in memory: a resend within
    /// its window answers `Deduplicated` wherever the engine is mounted.
    fn ingest_keyed(
        &self,
        key: Option<&str>,
        user: UserId,
        item: ItemId,
        rating: f32,
    ) -> Result<IngestAck, BackendError> {
        ServingEngine::ingest_keyed(self, key, user, item, rating).map_err(BackendError::Serve)
    }

    fn generation(&self) -> Result<u64, BackendError> {
        Ok(ServingEngine::generation(self))
    }

    /// The engine's own window, when observability is attached.
    fn window_wire(&self) -> Result<Option<WindowWire>, BackendError> {
        Ok(ServingEngine::window_wire(self))
    }
}

/// A [`ShardedEngine`] as an in-process peer, like [`ServingEngine`]'s
/// impl; a keyed ingest dedups in the engine's one window, which survives
/// refit swaps and, when a durable log is attached, restarts too (the WAL
/// replays its keys).
impl PeerTransport for ShardedEngine {
    fn label(&self) -> String {
        "in-process:sharded".to_string()
    }

    fn recommend_with_traced(&self, user: UserId, opts: &RequestOptions) -> SingleAnswer {
        ShardedEngine::recommend_with_traced(self, user, opts).map_err(BackendError::Serve)
    }

    fn recommend_batch_with_traced(&self, users: &[UserId], opts: &RequestOptions) -> BatchAnswer {
        Ok(ShardedEngine::recommend_batch_with_traced(
            self, users, opts,
        ))
    }

    fn recommend_cached(&self, user: UserId) -> Option<(Arc<Vec<ItemId>>, u64)> {
        ShardedEngine::recommend_cached(self, user)
    }

    fn ingest_keyed(
        &self,
        key: Option<&str>,
        user: UserId,
        item: ItemId,
        rating: f32,
    ) -> Result<IngestAck, BackendError> {
        ShardedEngine::ingest_keyed(self, key, user, item, rating).map_err(BackendError::Serve)
    }

    fn generation(&self) -> Result<u64, BackendError> {
        Ok(ShardedEngine::generation(self))
    }

    /// The exact cross-band fold of the band windows.
    fn window_wire(&self) -> Result<Option<WindowWire>, BackendError> {
        Ok(ShardedEngine::window_wire(self))
    }
}

/// Adapter: a shared peer's default-options recommends are a
/// [`BatchSource`], so the generic serve-side [`Coalescer`] can drive them.
/// Every slot carries the one generation its wire batch was served from.
struct PeerReads(Arc<dyn PeerTransport>);

impl BatchSource for PeerReads {
    type Request = UserId;
    type Reply = (SlotAnswer, u64);
    type Error = BackendError;

    fn batch(&self, users: &[UserId]) -> Result<Vec<(SlotAnswer, u64)>, BackendError> {
        let (slots, generation) = self.0.recommend_batch_traced(users)?;
        Ok(slots.into_iter().map(|slot| (slot, generation)).collect())
    }
}

/// Adapter for the ingest direction: concurrent single ingests to one peer
/// merge into one [`PeerTransport::ingest_batch`] wire call.
///
/// Same worker as the reads, but for writes the safety argument is
/// different: batching writes is only sound because every entry carries
/// (or can carry) an idempotency key — a caller that retries after a
/// whole-batch transport failure re-sends entries that may already have
/// landed, and the peer's dedup window is what makes that a no-op.
struct PeerIngests(Arc<dyn PeerTransport>);

impl BatchSource for PeerIngests {
    type Request = IngestEntry;
    type Reply = Result<IngestAck, ServeError>;
    type Error = BackendError;

    fn batch(&self, entries: &[IngestEntry]) -> IngestBatchAnswer {
        self.0.ingest_batch(entries)
    }
}

/// Submit to `queue`. A closed queue (racing [`CoalescedShard::shutdown`],
/// or a dead worker) fails this one request as if the peer went away —
/// never the serving thread — and a keyed ingest refused this way is safe
/// to retry (that is the idempotency contract).
fn coalesced<S: BatchSource<Error = BackendError>>(
    queue: &Coalescer<S>,
    request: S::Request,
) -> Result<S::Reply, BackendError> {
    queue
        .request_traced(request)
        .unwrap_or_else(|| Err(BackendError::Transport("coalescer shut down".to_string())))
}

/// A coalescing wrapper around a peer: concurrent *single* requests merge
/// into one `POST /v1/recommend:batch` wire call, and concurrent single
/// ingests merge into one `POST /v1/ingest:batch` (both bounded by the
/// linger window and batch cap in [`BatchConfig`]), so a router under
/// concurrent load pays one round-trip per batch instead of one per
/// request in either direction.
///
/// Single-generation guarantee: every caller coalesced into one batch is
/// answered from that batch's one generation — the peer's batch endpoint
/// serves a whole batch from exactly one bundle generation, and the
/// coalescer never splits one logical flush across wire calls. Recommend
/// batches pass straight through to the inner peer (already batched).
/// Coalescing ingests is safe precisely because of the idempotency-key
/// contract: a batch that fails in transit can be retried entry-by-entry
/// and the peer's dedup window absorbs any entry that already landed.
pub struct CoalescedShard {
    inner: Arc<dyn PeerTransport>,
    reads: Coalescer<PeerReads>,
    ingests: Coalescer<PeerIngests>,
}

impl CoalescedShard {
    /// Wrap `inner`, coalescing its single-request and single-ingest
    /// traffic under `cfg`.
    pub fn new(inner: Arc<dyn PeerTransport>, cfg: BatchConfig) -> CoalescedShard {
        CoalescedShard {
            reads: Coalescer::spawn(PeerReads(Arc::clone(&inner)), cfg),
            ingests: Coalescer::spawn(PeerIngests(Arc::clone(&inner)), cfg),
            inner,
        }
    }

    /// Requests and ingests accepted by the coalescers but not yet
    /// answered.
    pub fn pending(&self) -> usize {
        self.reads.pending() + self.ingests.pending()
    }

    /// Close both queues, flush accepted work, and join the workers (see
    /// [`Coalescer::shutdown`]). Also runs on drop.
    pub fn shutdown(&self) {
        self.reads.shutdown();
        self.ingests.shutdown();
    }
}

impl PeerTransport for CoalescedShard {
    fn label(&self) -> String {
        self.inner.label()
    }

    /// Default singles coalesce; override singles bypass the coalescer
    /// straight to the inner peer: the coalescer merges callers into one
    /// default-options batch, and a request carrying its own
    /// θ/exclusions/re-ranker folded into that batch would be answered
    /// with someone else's list.
    fn recommend_with_traced(&self, user: UserId, opts: &RequestOptions) -> SingleAnswer {
        if !opts.is_default() {
            return self.inner.recommend_with_traced(user, opts);
        }
        let (slot, generation) = coalesced(&self.reads, user)?;
        Ok((slot.map_err(BackendError::Serve)?, generation))
    }

    fn recommend_batch_with_traced(&self, users: &[UserId], opts: &RequestOptions) -> BatchAnswer {
        // Already a batch: straight through, one wire call.
        self.inner.recommend_batch_with_traced(users, opts)
    }

    fn ingest_keyed(
        &self,
        key: Option<&str>,
        user: UserId,
        item: ItemId,
        rating: f32,
    ) -> Result<IngestAck, BackendError> {
        let entry = IngestEntry {
            key: key.map(str::to_string),
            user,
            item,
            rating,
        };
        coalesced(&self.ingests, entry)?.map_err(BackendError::Serve)
    }

    fn ingest_batch(&self, entries: &[IngestEntry]) -> IngestBatchAnswer {
        // Already a batch: straight through, one wire call.
        self.inner.ingest_batch(entries)
    }

    fn generation(&self) -> Result<u64, BackendError> {
        self.inner.generation()
    }

    fn kind(&self) -> &'static str {
        "coalesced"
    }

    fn pending_depth(&self) -> Option<usize> {
        Some(self.pending())
    }

    fn window_wire(&self) -> Result<Option<WindowWire>, BackendError> {
        self.inner.window_wire()
    }
}
