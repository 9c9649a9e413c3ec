//! The peer-transport abstraction a [`crate::RouterNode`] dispatches
//! remote θ-bands through, plus the micro-batching wrapper that coalesces
//! concurrent singles to one peer into one wire call.
//!
//! [`PeerTransport`] is the seam that makes the router's concurrency
//! testable: production wires [`crate::RemoteShard`] (real HTTP) into it,
//! while the deterministic fault/latency doubles in [`crate::testing`]
//! implement the same trait to inject slow, flaky, or reordered peers
//! without real sockets or sleeps — `tests/router_fanout.rs` and
//! `tests/remote_coalescing.rs` prove the parallel fan-out and the
//! coalescer byte-equivalent to their naive counterparts under that
//! adversarial timing.

use crate::BackendError;
use ganc_dataset::{ItemId, UserId};
use ganc_obs::WindowWire;
use ganc_serve::{
    BatchConfig, BatchSource, Coalescer, EngineBatch, IngestAck, RequestOptions, ServeError,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

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

/// A peer node serving one θ-band slice, reachable by whatever transport:
/// real HTTP ([`crate::RemoteShard`]), an in-process engine, or an
/// injection double wrapping either.
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

/// Adapter: a shared peer is a [`BatchSource`], so the generic serve-side
/// [`Coalescer`] can drive it.
struct PeerSource(Arc<dyn PeerTransport>);

impl BatchSource for PeerSource {
    type Error = BackendError;

    fn batch(&self, users: &[UserId]) -> BatchAnswer {
        self.0.recommend_batch_traced(users)
    }
}

/// Micro-batching for the ingest direction: concurrent single ingests to
/// one peer merge into one [`PeerTransport::ingest_batch`] wire call.
///
/// Same worker shape, linger policy, and flush-on-shutdown contract as the
/// serve-side [`Coalescer`], but for writes the safety argument is
/// different: batching writes is only sound because every entry carries
/// (or can carry) an idempotency key — a caller that retries after a
/// whole-batch transport failure re-sends entries that may already have
/// landed, and the peer's dedup window is what makes that a no-op.
struct IngestCoalescer {
    tx: Mutex<Option<mpsc::Sender<PendingIngest>>>,
    worker: Mutex<Option<JoinHandle<()>>>,
    accepted: Arc<AtomicUsize>,
    answered: Arc<AtomicUsize>,
}

struct PendingIngest {
    entry: IngestEntry,
    reply: mpsc::Sender<Result<IngestAck, BackendError>>,
}

impl IngestCoalescer {
    fn spawn(peer: Arc<dyn PeerTransport>, cfg: BatchConfig) -> IngestCoalescer {
        let (tx, rx) = mpsc::channel::<PendingIngest>();
        let max_batch = cfg.max_batch.max(1);
        let max_wait = cfg.max_wait;
        let accepted = Arc::new(AtomicUsize::new(0));
        let answered = Arc::new(AtomicUsize::new(0));
        let worker = {
            let answered = Arc::clone(&answered);
            std::thread::spawn(move || {
                while let Ok(first) = rx.recv() {
                    let mut batch = vec![first];
                    let deadline = Instant::now() + max_wait;
                    // Backlog first (free), then linger for stragglers.
                    while batch.len() < max_batch {
                        match rx.try_recv() {
                            Ok(req) => batch.push(req),
                            Err(_) => break,
                        }
                    }
                    while batch.len() < max_batch {
                        let now = Instant::now();
                        if now >= deadline {
                            break;
                        }
                        match rx.recv_timeout(deadline - now) {
                            Ok(req) => batch.push(req),
                            Err(_) => break,
                        }
                    }
                    let entries: Vec<IngestEntry> = batch.iter().map(|r| r.entry.clone()).collect();
                    match peer.ingest_batch(&entries) {
                        Ok(slots) => {
                            assert_eq!(
                                slots.len(),
                                batch.len(),
                                "ingest_batch contract violation: {} slots for {} entries",
                                slots.len(),
                                batch.len()
                            );
                            for (req, slot) in batch.iter().zip(slots) {
                                let _ = req.reply.send(slot.map_err(BackendError::Serve));
                            }
                        }
                        Err(e) => {
                            for req in &batch {
                                let _ = req.reply.send(Err(e.clone()));
                            }
                        }
                    }
                    answered.fetch_add(batch.len(), Ordering::Release);
                }
            })
        };
        IngestCoalescer {
            tx: Mutex::new(Some(tx)),
            worker: Mutex::new(Some(worker)),
            accepted,
            answered,
        }
    }

    fn submit(&self, entry: IngestEntry) -> Result<IngestAck, BackendError> {
        // Racing shutdown or a dead worker fails this one request — never
        // the serving thread. The caller sees a transport error exactly
        // as if the peer went away, and a retry under the same key is
        // safe (that is the idempotency contract).
        let Some(tx) = self.tx.lock().unwrap().as_ref().cloned() else {
            return Err(BackendError::Transport(
                "ingest coalescer shut down".to_string(),
            ));
        };
        let (reply_tx, reply_rx) = mpsc::channel();
        if tx
            .send(PendingIngest {
                entry,
                reply: reply_tx,
            })
            .is_err()
        {
            return Err(BackendError::Transport(
                "ingest batch worker died".to_string(),
            ));
        }
        self.accepted.fetch_add(1, Ordering::Release);
        drop(tx);
        reply_rx.recv().unwrap_or_else(|_| {
            // Count the orphaned request as answered so pending() drains.
            self.answered.fetch_add(1, Ordering::Release);
            Err(BackendError::Transport(
                "ingest batch worker died before answering".to_string(),
            ))
        })
    }

    fn pending(&self) -> usize {
        let answered = self.answered.load(Ordering::Acquire);
        self.accepted
            .load(Ordering::Acquire)
            .saturating_sub(answered)
    }

    fn shutdown(&self) {
        // Drop the sender first: the worker drains the queue (flushing
        // accepted ingests) and exits; then join it.
        self.tx.lock().unwrap().take();
        if let Some(worker) = self.worker.lock().unwrap().take() {
            let _ = worker.join();
        }
    }
}

impl Drop for IngestCoalescer {
    fn drop(&mut self) {
        self.shutdown();
    }
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
    coalescer: Coalescer<PeerSource>,
    ingests: IngestCoalescer,
}

impl CoalescedShard {
    /// Wrap `inner`, coalescing its single-request and single-ingest
    /// traffic under `cfg`.
    pub fn new(inner: Arc<dyn PeerTransport>, cfg: BatchConfig) -> CoalescedShard {
        CoalescedShard {
            coalescer: Coalescer::spawn(PeerSource(Arc::clone(&inner)), cfg),
            ingests: IngestCoalescer::spawn(Arc::clone(&inner), cfg),
            inner,
        }
    }

    /// Requests and ingests accepted by the coalescers but not yet
    /// answered.
    pub fn pending(&self) -> usize {
        self.coalescer.pending() + self.ingests.pending()
    }

    /// Close both queues, flush accepted work, and join the workers (see
    /// [`Coalescer::shutdown`]). Also runs on drop.
    pub fn shutdown(&self) {
        self.coalescer.shutdown();
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
        match self.coalescer.request_traced(user)? {
            (Ok(list), generation) => Ok((list, generation)),
            (Err(e), _) => Err(BackendError::Serve(e)),
        }
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
        self.ingests.submit(IngestEntry {
            key: key.map(str::to_string),
            user,
            item,
            rating,
        })
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
