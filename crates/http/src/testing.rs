//! Deterministic fault/latency-injection doubles for [`PeerTransport`].
//!
//! Real sockets make adversarial timing flaky: a "slow peer" built from
//! `sleep` proves nothing on a loaded CI box, and a killed TCP connection
//! races the reader. These doubles inject the same adversities as pure
//! synchronization — a call is "slow" because it *provably waits for other
//! calls to complete first* (condition variables, not clocks), "flaky"
//! because a counter says the next k calls fail, "reordered" because
//! arrivals are released LIFO. No sleeps, no sockets, same
//! [`PeerTransport`] seam production uses, so `tests/router_fanout.rs` and
//! `tests/remote_coalescing.rs` can pin byte-equivalence under timings a
//! real network only produces by accident.
//!
//! Composition: every double wraps an `Arc<dyn PeerTransport>` — usually a
//! [`crate::Frontend`] loopback at the bottom, possibly other doubles in
//! between (`SlowPeer(LedgerPeer(Frontend))` is the canonical fan-out
//! harness).

use crate::transport::{BatchAnswer, IngestBatchAnswer, IngestEntry, PeerTransport, SingleAnswer};
use crate::BackendError;
use ganc_dataset::{ItemId, UserId};
use ganc_obs::WindowWire;
use ganc_serve::{IngestAck, RequestOptions};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// A shared completion counter the ordering doubles coordinate through:
/// peers [`bump`](Ledger::bump) it when they answer, a [`SlowPeer`] holds
/// its answer until the count reaches a target. "This band answered last"
/// becomes a provable happens-after instead of a sleep.
#[derive(Default)]
pub struct Ledger {
    completed: Mutex<u64>,
    cv: Condvar,
}

impl Ledger {
    /// A ledger at zero.
    pub fn new() -> Arc<Ledger> {
        Arc::new(Ledger::default())
    }

    /// Completions recorded so far.
    pub fn completed(&self) -> u64 {
        *self.completed.lock().unwrap()
    }

    /// Record one completion and wake waiters.
    pub fn bump(&self) {
        *self.completed.lock().unwrap() += 1;
        self.cv.notify_all();
    }

    /// Block until at least `target` completions were recorded.
    pub fn wait_until(&self, target: u64) {
        let mut completed = self.completed.lock().unwrap();
        while *completed < target {
            completed = self.cv.wait(completed).unwrap();
        }
    }
}

/// Bumps a [`Ledger`] after every answered read call — the "everyone else
/// finished" signal a [`SlowPeer`] waits on.
pub struct LedgerPeer {
    inner: Arc<dyn PeerTransport>,
    ledger: Arc<Ledger>,
}

impl LedgerPeer {
    /// Wrap `inner`, bumping `ledger` per answered read.
    pub fn new(inner: Arc<dyn PeerTransport>, ledger: Arc<Ledger>) -> LedgerPeer {
        LedgerPeer { inner, ledger }
    }
}

impl PeerTransport for LedgerPeer {
    fn label(&self) -> String {
        format!("ledger({})", self.inner.label())
    }

    fn recommend_with_traced(&self, user: UserId, opts: &RequestOptions) -> SingleAnswer {
        let answer = self.inner.recommend_with_traced(user, opts);
        self.ledger.bump();
        answer
    }

    fn recommend_batch_with_traced(&self, users: &[UserId], opts: &RequestOptions) -> BatchAnswer {
        let answer = self.inner.recommend_batch_with_traced(users, opts);
        self.ledger.bump();
        answer
    }

    fn ingest_keyed(
        &self,
        key: Option<&str>,
        user: UserId,
        item: ItemId,
        rating: f32,
    ) -> Result<IngestAck, BackendError> {
        self.inner.ingest_keyed(key, user, item, rating)
    }

    fn ingest_batch(&self, entries: &[IngestEntry]) -> IngestBatchAnswer {
        self.inner.ingest_batch(entries)
    }

    fn generation(&self) -> Result<u64, BackendError> {
        self.inner.generation()
    }

    fn window_wire(&self) -> Result<Option<WindowWire>, BackendError> {
        self.inner.window_wire()
    }
}

/// A peer whose reads are *provably last*: each call first waits for the
/// shared [`Ledger`] to reach a target (set per scenario with
/// [`SlowPeer::delay_until`]), i.e. for that many other peers to have
/// answered. Target 0 disarms the delay.
///
/// Deadlock discipline: only meaningful under dispatch strategies that
/// run other peers concurrently (the parallel fan-out); a sequential
/// dispatcher visiting the slow band first would wait forever, which is
/// precisely the scheduling hazard the double exists to surface — disarm
/// it when driving the sequential reference.
pub struct SlowPeer {
    inner: Arc<dyn PeerTransport>,
    ledger: Arc<Ledger>,
    wait_until: AtomicU64,
}

impl SlowPeer {
    /// Wrap `inner`; disarmed until [`SlowPeer::delay_until`].
    pub fn new(inner: Arc<dyn PeerTransport>, ledger: Arc<Ledger>) -> Arc<SlowPeer> {
        Arc::new(SlowPeer {
            inner,
            ledger,
            wait_until: AtomicU64::new(0),
        })
    }

    /// Delay every subsequent read until the ledger shows `target`
    /// completions; 0 disarms.
    pub fn delay_until(&self, target: u64) {
        self.wait_until.store(target, Ordering::SeqCst);
    }

    fn stall(&self) {
        let target = self.wait_until.load(Ordering::SeqCst);
        if target > 0 {
            self.ledger.wait_until(target);
        }
    }
}

impl PeerTransport for SlowPeer {
    fn label(&self) -> String {
        format!("slow({})", self.inner.label())
    }

    fn recommend_with_traced(&self, user: UserId, opts: &RequestOptions) -> SingleAnswer {
        self.stall();
        self.inner.recommend_with_traced(user, opts)
    }

    fn recommend_batch_with_traced(&self, users: &[UserId], opts: &RequestOptions) -> BatchAnswer {
        self.stall();
        self.inner.recommend_batch_with_traced(users, opts)
    }

    fn ingest_keyed(
        &self,
        key: Option<&str>,
        user: UserId,
        item: ItemId,
        rating: f32,
    ) -> Result<IngestAck, BackendError> {
        self.inner.ingest_keyed(key, user, item, rating)
    }

    fn ingest_batch(&self, entries: &[IngestEntry]) -> IngestBatchAnswer {
        self.inner.ingest_batch(entries)
    }

    fn generation(&self) -> Result<u64, BackendError> {
        self.inner.generation()
    }

    fn window_wire(&self) -> Result<Option<WindowWire>, BackendError> {
        self.inner.window_wire()
    }
}

/// A peer whose next `k` reads fail with an injected transport error (then
/// it heals) — the unreachable-shard scenario, minus the socket. Writes
/// have their own two knobs, covering both halves of the exactly-once
/// contract: [`FlakyPeer::fail_ingests`] drops the write *before* the
/// inner peer sees it (lost request), [`FlakyPeer::fail_ingest_acks`]
/// applies the write and *then* reports failure (lost ack — the retry that
/// would double-apply without idempotency keys).
pub struct FlakyPeer {
    inner: Arc<dyn PeerTransport>,
    fail_next: AtomicU32,
    fail_ingests: AtomicU32,
    fail_ingest_acks: AtomicU32,
}

impl FlakyPeer {
    /// Wrap `inner`; healthy until a `fail_*` knob arms.
    pub fn new(inner: Arc<dyn PeerTransport>) -> Arc<FlakyPeer> {
        Arc::new(FlakyPeer {
            inner,
            fail_next: AtomicU32::new(0),
            fail_ingests: AtomicU32::new(0),
            fail_ingest_acks: AtomicU32::new(0),
        })
    }

    /// Make the next `k` reads fail.
    pub fn fail_next(&self, k: u32) {
        self.fail_next.store(k, Ordering::SeqCst);
    }

    /// Make the next `k` ingest calls fail *before* reaching the inner
    /// peer — the interaction is lost, a retry must deliver it.
    pub fn fail_ingests(&self, k: u32) {
        self.fail_ingests.store(k, Ordering::SeqCst);
    }

    /// Make the next `k` ingest calls apply on the inner peer and *then*
    /// fail — the applied-but-unacked case a retry would double-apply
    /// without key dedup downstream.
    pub fn fail_ingest_acks(&self, k: u32) {
        self.fail_ingest_acks.store(k, Ordering::SeqCst);
    }

    fn tripped(counter: &AtomicU32) -> bool {
        counter
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
    }

    fn injected(&self) -> BackendError {
        BackendError::Transport(format!("injected failure on {}", self.inner.label()))
    }

    fn trip(&self) -> Result<(), BackendError> {
        if FlakyPeer::tripped(&self.fail_next) {
            Err(self.injected())
        } else {
            Ok(())
        }
    }
}

impl PeerTransport for FlakyPeer {
    fn label(&self) -> String {
        format!("flaky({})", self.inner.label())
    }

    fn recommend_with_traced(&self, user: UserId, opts: &RequestOptions) -> SingleAnswer {
        self.trip()?;
        self.inner.recommend_with_traced(user, opts)
    }

    fn recommend_batch_with_traced(&self, users: &[UserId], opts: &RequestOptions) -> BatchAnswer {
        self.trip()?;
        self.inner.recommend_batch_with_traced(users, opts)
    }

    fn ingest_keyed(
        &self,
        key: Option<&str>,
        user: UserId,
        item: ItemId,
        rating: f32,
    ) -> Result<IngestAck, BackendError> {
        if FlakyPeer::tripped(&self.fail_ingests) {
            return Err(self.injected());
        }
        let ack = self.inner.ingest_keyed(key, user, item, rating)?;
        if FlakyPeer::tripped(&self.fail_ingest_acks) {
            return Err(self.injected());
        }
        Ok(ack)
    }

    fn ingest_batch(&self, entries: &[IngestEntry]) -> IngestBatchAnswer {
        if FlakyPeer::tripped(&self.fail_ingests) {
            return Err(self.injected());
        }
        let acks = self.inner.ingest_batch(entries)?;
        if FlakyPeer::tripped(&self.fail_ingest_acks) {
            return Err(self.injected());
        }
        Ok(acks)
    }

    fn generation(&self) -> Result<u64, BackendError> {
        self.inner.generation()
    }

    fn window_wire(&self) -> Result<Option<WindowWire>, BackendError> {
        self.inner.window_wire()
    }
}

#[derive(Default)]
struct Reorder {
    /// Calls this round must collect before any is released; 0 = disarmed.
    armed: usize,
    arrived: usize,
    released: usize,
}

/// The shared rendezvous of a reordering round: `armed` concurrent calls
/// (possibly spread over several [`ReorderingPeer`]s, one per θ-band)
/// collect here, then run **serially in reverse arrival order** — the
/// adversarial completion schedule for anything that assumes responses
/// come back in dispatch order.
///
/// Arm with the exact number of concurrent calls the scenario will make
/// ([`ReorderGate::arm`]); fewer arrivals than armed would block forever
/// (the gate is a barrier, not a timeout).
#[derive(Default)]
pub struct ReorderGate {
    state: Mutex<Reorder>,
    cv: Condvar,
}

impl ReorderGate {
    /// A disarmed gate.
    pub fn new() -> Arc<ReorderGate> {
        Arc::new(ReorderGate::default())
    }

    /// The next `expected` concurrent reads rendezvous and release LIFO.
    pub fn arm(&self, expected: usize) {
        let mut state = self.state.lock().unwrap();
        *state = Reorder {
            armed: expected,
            arrived: 0,
            released: 0,
        };
    }

    /// Returns once it is this call's turn (or immediately when disarmed).
    fn rendezvous(&self) {
        let mut state = self.state.lock().unwrap();
        if state.armed == 0 {
            return;
        }
        let ticket = state.arrived;
        state.arrived += 1;
        self.cv.notify_all();
        // Release order is reversed: the LAST arrival (ticket armed-1)
        // goes first, so `released` counts up while tickets count down.
        while !(state.arrived == state.armed && state.released == state.armed - 1 - ticket) {
            state = self.cv.wait(state).unwrap();
        }
    }

    fn done(&self) {
        let mut state = self.state.lock().unwrap();
        if state.armed == 0 {
            return;
        }
        state.released += 1;
        if state.released == state.armed {
            state.armed = 0; // round over; disarm for whatever follows
        }
        self.cv.notify_all();
    }
}

/// A peer whose reads pass through a shared [`ReorderGate`]: wrap every
/// band's route in one of these over the same gate and an armed round
/// completes the bands in reverse dispatch-arrival order.
pub struct ReorderingPeer {
    inner: Arc<dyn PeerTransport>,
    gate: Arc<ReorderGate>,
}

impl ReorderingPeer {
    /// Wrap `inner` behind `gate`.
    pub fn new(inner: Arc<dyn PeerTransport>, gate: Arc<ReorderGate>) -> ReorderingPeer {
        ReorderingPeer { inner, gate }
    }
}

impl PeerTransport for ReorderingPeer {
    fn label(&self) -> String {
        format!("reorder({})", self.inner.label())
    }

    fn recommend_with_traced(&self, user: UserId, opts: &RequestOptions) -> SingleAnswer {
        self.gate.rendezvous();
        let answer = self.inner.recommend_with_traced(user, opts);
        self.gate.done();
        answer
    }

    fn recommend_batch_with_traced(&self, users: &[UserId], opts: &RequestOptions) -> BatchAnswer {
        self.gate.rendezvous();
        let answer = self.inner.recommend_batch_with_traced(users, opts);
        self.gate.done();
        answer
    }

    fn ingest_keyed(
        &self,
        key: Option<&str>,
        user: UserId,
        item: ItemId,
        rating: f32,
    ) -> Result<IngestAck, BackendError> {
        self.inner.ingest_keyed(key, user, item, rating)
    }

    fn ingest_batch(&self, entries: &[IngestEntry]) -> IngestBatchAnswer {
        self.inner.ingest_batch(entries)
    }

    fn generation(&self) -> Result<u64, BackendError> {
        self.inner.generation()
    }

    fn window_wire(&self) -> Result<Option<WindowWire>, BackendError> {
        self.inner.window_wire()
    }
}

/// One recorded wire-level batch call: who was asked, and the generation
/// the whole batch came back from (None on failure).
#[derive(Debug, Clone)]
pub struct RecordedBatch {
    /// The users of the coalesced/dispatched batch, in call order.
    pub users: Vec<UserId>,
    /// The single generation the batch reported, if it succeeded.
    pub generation: Option<u64>,
}

/// Records every read call — the witness that coalescing really merged
/// singles into batches, and that every merged batch reported exactly one
/// generation.
pub struct RecordingPeer {
    inner: Arc<dyn PeerTransport>,
    batches: Mutex<Vec<RecordedBatch>>,
    singles: AtomicU64,
    ingest_batches: Mutex<Vec<Vec<IngestEntry>>>,
    ingest_singles: AtomicU64,
}

impl RecordingPeer {
    /// Wrap `inner` and start recording.
    pub fn new(inner: Arc<dyn PeerTransport>) -> Arc<RecordingPeer> {
        Arc::new(RecordingPeer {
            inner,
            batches: Mutex::new(Vec::new()),
            singles: AtomicU64::new(0),
            ingest_batches: Mutex::new(Vec::new()),
            ingest_singles: AtomicU64::new(0),
        })
    }

    /// Every batch call so far, in completion order.
    pub fn batches(&self) -> Vec<RecordedBatch> {
        self.batches.lock().unwrap().clone()
    }

    /// Single (non-batch) read calls so far.
    pub fn singles(&self) -> u64 {
        self.singles.load(Ordering::SeqCst)
    }

    /// Every ingest batch call so far — the witness that ingest
    /// coalescing really merged singles into wire batches.
    pub fn ingest_batches(&self) -> Vec<Vec<IngestEntry>> {
        self.ingest_batches.lock().unwrap().clone()
    }

    /// Single (non-batch) ingest calls so far, keyed or not.
    pub fn ingest_singles(&self) -> u64 {
        self.ingest_singles.load(Ordering::SeqCst)
    }
}

impl PeerTransport for RecordingPeer {
    fn label(&self) -> String {
        format!("recording({})", self.inner.label())
    }

    fn recommend_with_traced(&self, user: UserId, opts: &RequestOptions) -> SingleAnswer {
        self.singles.fetch_add(1, Ordering::SeqCst);
        self.inner.recommend_with_traced(user, opts)
    }

    fn recommend_batch_with_traced(&self, users: &[UserId], opts: &RequestOptions) -> BatchAnswer {
        let answer = self.inner.recommend_batch_with_traced(users, opts);
        self.batches.lock().unwrap().push(RecordedBatch {
            users: users.to_vec(),
            generation: answer.as_ref().ok().map(|&(_, g)| g),
        });
        answer
    }

    fn ingest_keyed(
        &self,
        key: Option<&str>,
        user: UserId,
        item: ItemId,
        rating: f32,
    ) -> Result<IngestAck, BackendError> {
        self.ingest_singles.fetch_add(1, Ordering::SeqCst);
        self.inner.ingest_keyed(key, user, item, rating)
    }

    fn ingest_batch(&self, entries: &[IngestEntry]) -> IngestBatchAnswer {
        self.ingest_batches.lock().unwrap().push(entries.to_vec());
        self.inner.ingest_batch(entries)
    }

    fn generation(&self) -> Result<u64, BackendError> {
        self.inner.generation()
    }

    fn window_wire(&self) -> Result<Option<WindowWire>, BackendError> {
        self.inner.window_wire()
    }
}

struct Gate {
    open: bool,
    arrivals: usize,
}

/// A peer whose reads block at a gate until the test opens it — the
/// controlled-congestion double: park the wire, pile up concurrent
/// callers behind it, observe what coalesces when it lifts.
pub struct GatedPeer {
    inner: Arc<dyn PeerTransport>,
    state: Mutex<Gate>,
    cv: Condvar,
}

impl GatedPeer {
    /// Wrap `inner` with the gate **closed**.
    pub fn new(inner: Arc<dyn PeerTransport>) -> Arc<GatedPeer> {
        Arc::new(GatedPeer {
            inner,
            state: Mutex::new(Gate {
                open: false,
                arrivals: 0,
            }),
            cv: Condvar::new(),
        })
    }

    /// Let all parked and future reads through.
    pub fn open(&self) {
        self.state.lock().unwrap().open = true;
        self.cv.notify_all();
    }

    /// Close the gate again: future reads park until the next
    /// [`GatedPeer::open`]. Lets one harness replay park-then-release
    /// scenarios (e.g. a replica-set primary that stalls per dispatch).
    pub fn close(&self) {
        self.state.lock().unwrap().open = false;
    }

    /// Block until `n` reads have reached the gate (parked or passed).
    pub fn wait_arrivals(&self, n: usize) {
        let mut state = self.state.lock().unwrap();
        while state.arrivals < n {
            state = self.cv.wait(state).unwrap();
        }
    }

    fn pass(&self) {
        let mut state = self.state.lock().unwrap();
        state.arrivals += 1;
        self.cv.notify_all();
        while !state.open {
            state = self.cv.wait(state).unwrap();
        }
    }
}

impl PeerTransport for GatedPeer {
    fn label(&self) -> String {
        format!("gated({})", self.inner.label())
    }

    fn recommend_with_traced(&self, user: UserId, opts: &RequestOptions) -> SingleAnswer {
        self.pass();
        self.inner.recommend_with_traced(user, opts)
    }

    fn recommend_batch_with_traced(&self, users: &[UserId], opts: &RequestOptions) -> BatchAnswer {
        self.pass();
        self.inner.recommend_batch_with_traced(users, opts)
    }

    fn ingest_keyed(
        &self,
        key: Option<&str>,
        user: UserId,
        item: ItemId,
        rating: f32,
    ) -> Result<IngestAck, BackendError> {
        self.inner.ingest_keyed(key, user, item, rating)
    }

    fn ingest_batch(&self, entries: &[IngestEntry]) -> IngestBatchAnswer {
        self.inner.ingest_batch(entries)
    }

    fn generation(&self) -> Result<u64, BackendError> {
        self.inner.generation()
    }

    fn window_wire(&self) -> Result<Option<WindowWire>, BackendError> {
        self.inner.window_wire()
    }
}
