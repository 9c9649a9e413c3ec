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
//! real network only produces by accident (timing-free equivalence across
//! every deployment shape is `tests/deployment_oracle.rs`'s).
//!
//! One wrapper, [`Injected`], holds the only [`PeerTransport`] impl: it
//! forwards every call to an inner `Arc<dyn PeerTransport>` — usually an
//! in-process `Arc<ServingEngine>` at the bottom, possibly other doubles in
//! between (`SlowPeer(LedgerPeer(engine))` is the canonical fan-out
//! harness) — and runs its [`Hooks`] before and after each read and each
//! ingest. A double is a `Hooks` impl over its state, plus a constructor
//! and its control methods on the wrapper; a suite that needs a fault none
//! of them injects writes its own hooks and [`Injected::wrap`]s them.

use crate::transport::{BatchAnswer, IngestBatchAnswer, IngestEntry, PeerTransport, SingleAnswer};
use crate::BackendError;
use ganc_dataset::{ItemId, UserId};
use ganc_obs::WindowWire;
use ganc_serve::{IngestAck, RequestOptions};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// What a double does around its inner peer's calls. Every hook defaults
/// to nothing; `batch` is `None` for a single call and the batch's users
/// or entries otherwise.
pub trait Hooks: Send + Sync {
    /// Label prefix: the double reports as `NAME(inner label)`.
    const NAME: &'static str;

    /// Before a read reaches the inner peer; an `Err` answers it instead.
    fn before_read(&self, _batch: Option<&[UserId]>) -> Result<(), BackendError> {
        Ok(())
    }

    /// After the inner peer answered a read (`generation`: the one it
    /// reported, `None` when it failed).
    fn after_read(&self, _batch: Option<&[UserId]>, _generation: Option<u64>) {}

    /// Before an ingest reaches the inner peer; an `Err` loses the write.
    fn before_ingest(&self, _batch: Option<&[IngestEntry]>) -> Result<(), BackendError> {
        Ok(())
    }

    /// After the inner peer applied an ingest; an `Err` loses the ack.
    fn after_ingest(&self) -> Result<(), BackendError> {
        Ok(())
    }
}

/// An inner peer with `H`'s hooks around its reads and ingests; everything
/// else (`generation`, `window_wire`) passes straight through.
pub struct Injected<H> {
    inner: Arc<dyn PeerTransport>,
    hooks: H,
}

impl<H: Hooks> Injected<H> {
    /// Wrap `inner` in `hooks`.
    pub fn wrap(inner: Arc<dyn PeerTransport>, hooks: H) -> Injected<H> {
        Injected { inner, hooks }
    }
}

impl<H: Hooks> PeerTransport for Injected<H> {
    fn label(&self) -> String {
        format!("{}({})", H::NAME, self.inner.label())
    }

    fn recommend_with_traced(&self, user: UserId, opts: &RequestOptions) -> SingleAnswer {
        self.hooks.before_read(None)?;
        let answer = self.inner.recommend_with_traced(user, opts);
        self.hooks
            .after_read(None, answer.as_ref().ok().map(|a| a.1));
        answer
    }

    fn recommend_batch_with_traced(&self, users: &[UserId], opts: &RequestOptions) -> BatchAnswer {
        self.hooks.before_read(Some(users))?;
        let answer = self.inner.recommend_batch_with_traced(users, opts);
        let generation = answer.as_ref().ok().map(|a| a.1);
        self.hooks.after_read(Some(users), generation);
        answer
    }

    fn ingest_keyed(
        &self,
        key: Option<&str>,
        user: UserId,
        item: ItemId,
        rating: f32,
    ) -> Result<IngestAck, BackendError> {
        self.hooks.before_ingest(None)?;
        let ack = self.inner.ingest_keyed(key, user, item, rating)?;
        self.hooks.after_ingest()?;
        Ok(ack)
    }

    fn ingest_batch(&self, entries: &[IngestEntry]) -> IngestBatchAnswer {
        self.hooks.before_ingest(Some(entries))?;
        let acks = self.inner.ingest_batch(entries)?;
        self.hooks.after_ingest()?;
        Ok(acks)
    }

    fn generation(&self) -> Result<u64, BackendError> {
        self.inner.generation()
    }

    fn window_wire(&self) -> Result<Option<WindowWire>, BackendError> {
        self.inner.window_wire()
    }
}

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
pub type LedgerPeer = Injected<Arc<Ledger>>;

impl LedgerPeer {
    /// Wrap `inner`, bumping `ledger` per answered read.
    pub fn new(inner: Arc<dyn PeerTransport>, ledger: Arc<Ledger>) -> LedgerPeer {
        Injected::wrap(inner, ledger)
    }
}

impl Hooks for Arc<Ledger> {
    const NAME: &'static str = "ledger";

    fn after_read(&self, _batch: Option<&[UserId]>, _generation: Option<u64>) {
        self.bump();
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
pub type SlowPeer = Injected<Slow>;

/// [`SlowPeer`]'s hooks and state.
pub struct Slow {
    ledger: Arc<Ledger>,
    wait_until: AtomicU64,
}

impl SlowPeer {
    /// Wrap `inner`; disarmed until [`SlowPeer::delay_until`].
    pub fn new(inner: Arc<dyn PeerTransport>, ledger: Arc<Ledger>) -> Arc<SlowPeer> {
        let wait_until = AtomicU64::new(0);
        Arc::new(Injected::wrap(inner, Slow { ledger, wait_until }))
    }

    /// Delay every subsequent read until the ledger shows `target`
    /// completions; 0 disarms.
    pub fn delay_until(&self, target: u64) {
        self.hooks.wait_until.store(target, Ordering::SeqCst);
    }
}

impl Hooks for Slow {
    const NAME: &'static str = "slow";

    fn before_read(&self, _batch: Option<&[UserId]>) -> Result<(), BackendError> {
        // Target 0 is already reached: a disarmed peer never waits.
        self.ledger
            .wait_until(self.wait_until.load(Ordering::SeqCst));
        Ok(())
    }
}

/// A peer whose next `k` reads fail with an injected transport error (then
/// it heals) — the unreachable-shard scenario, minus the socket. Writes
/// have their own two knobs, covering both halves of the exactly-once
/// contract: [`FlakyPeer::fail_ingests`] drops the write *before* the
/// inner peer sees it (lost request), [`FlakyPeer::fail_ingest_acks`]
/// applies the write and *then* reports failure (lost ack — the retry that
/// would double-apply without idempotency keys).
pub type FlakyPeer = Injected<Flaky>;

/// [`FlakyPeer`]'s hooks and state.
#[derive(Default)]
pub struct Flaky {
    fail_next: AtomicU32,
    fail_ingests: AtomicU32,
    fail_ingest_acks: AtomicU32,
}

impl FlakyPeer {
    /// Wrap `inner`; healthy until a `fail_*` knob arms.
    pub fn new(inner: Arc<dyn PeerTransport>) -> Arc<FlakyPeer> {
        Arc::new(Injected::wrap(inner, Flaky::default()))
    }

    /// Make the next `k` reads fail.
    pub fn fail_next(&self, k: u32) {
        self.hooks.fail_next.store(k, Ordering::SeqCst);
    }

    /// Make the next `k` ingest calls fail *before* reaching the inner
    /// peer — the interaction is lost, a retry must deliver it.
    pub fn fail_ingests(&self, k: u32) {
        self.hooks.fail_ingests.store(k, Ordering::SeqCst);
    }

    /// Make the next `k` ingest calls apply on the inner peer and *then*
    /// fail — the applied-but-unacked case a retry would double-apply
    /// without key dedup downstream.
    pub fn fail_ingest_acks(&self, k: u32) {
        self.hooks.fail_ingest_acks.store(k, Ordering::SeqCst);
    }
}

/// Spend one armed failure of `counter`, if any is left.
fn trip(counter: &AtomicU32) -> Result<(), BackendError> {
    match counter.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1)) {
        Ok(_) => Err(BackendError::Transport("injected failure".to_string())),
        Err(_) => Ok(()),
    }
}

impl Hooks for Flaky {
    const NAME: &'static str = "flaky";

    fn before_read(&self, _batch: Option<&[UserId]>) -> Result<(), BackendError> {
        trip(&self.fail_next)
    }

    fn before_ingest(&self, _batch: Option<&[IngestEntry]>) -> Result<(), BackendError> {
        trip(&self.fail_ingests)
    }

    fn after_ingest(&self) -> Result<(), BackendError> {
        trip(&self.fail_ingest_acks)
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
pub type ReorderingPeer = Injected<Arc<ReorderGate>>;

impl ReorderingPeer {
    /// Wrap `inner` behind `gate`.
    pub fn new(inner: Arc<dyn PeerTransport>, gate: Arc<ReorderGate>) -> ReorderingPeer {
        Injected::wrap(inner, gate)
    }
}

impl Hooks for Arc<ReorderGate> {
    const NAME: &'static str = "reorder";

    fn before_read(&self, _batch: Option<&[UserId]>) -> Result<(), BackendError> {
        self.rendezvous();
        Ok(())
    }

    fn after_read(&self, _batch: Option<&[UserId]>, _generation: Option<u64>) {
        self.done();
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

/// Records every read and ingest call — the witness that coalescing really
/// merged singles into batches, and that every merged batch reported
/// exactly one generation.
pub type RecordingPeer = Injected<Recording>;

/// [`RecordingPeer`]'s hooks and state.
#[derive(Default)]
pub struct Recording {
    batches: Mutex<Vec<RecordedBatch>>,
    singles: AtomicU64,
    ingest_batches: Mutex<Vec<Vec<IngestEntry>>>,
    ingest_singles: AtomicU64,
}

impl RecordingPeer {
    /// Wrap `inner` and start recording.
    pub fn new(inner: Arc<dyn PeerTransport>) -> Arc<RecordingPeer> {
        Arc::new(Injected::wrap(inner, Recording::default()))
    }

    /// Every batch call so far, in completion order.
    pub fn batches(&self) -> Vec<RecordedBatch> {
        self.hooks.batches.lock().unwrap().clone()
    }

    /// Single (non-batch) read calls so far.
    pub fn singles(&self) -> u64 {
        self.hooks.singles.load(Ordering::SeqCst)
    }

    /// Every ingest batch call so far — the witness that ingest
    /// coalescing really merged singles into wire batches.
    pub fn ingest_batches(&self) -> Vec<Vec<IngestEntry>> {
        self.hooks.ingest_batches.lock().unwrap().clone()
    }

    /// Single (non-batch) ingest calls so far, keyed or not.
    pub fn ingest_singles(&self) -> u64 {
        self.hooks.ingest_singles.load(Ordering::SeqCst)
    }
}

impl Hooks for Recording {
    const NAME: &'static str = "recording";

    fn after_read(&self, batch: Option<&[UserId]>, generation: Option<u64>) {
        let Some(users) = batch else {
            self.singles.fetch_add(1, Ordering::SeqCst);
            return;
        };
        let users = users.to_vec();
        let mut batches = self.batches.lock().unwrap();
        batches.push(RecordedBatch { users, generation });
    }

    fn before_ingest(&self, batch: Option<&[IngestEntry]>) -> Result<(), BackendError> {
        if let Some(entries) = batch {
            self.ingest_batches.lock().unwrap().push(entries.to_vec());
        } else {
            self.ingest_singles.fetch_add(1, Ordering::SeqCst);
        }
        Ok(())
    }
}

/// A peer whose reads block at a gate until the test opens it — the
/// controlled-congestion double: park the wire, pile up concurrent
/// callers behind it, observe what coalesces when it lifts.
pub type GatedPeer = Injected<Gated>;

#[derive(Default)]
struct Gate {
    open: bool,
    arrivals: usize,
}

/// [`GatedPeer`]'s hooks and state.
#[derive(Default)]
pub struct Gated {
    state: Mutex<Gate>,
    cv: Condvar,
}

impl GatedPeer {
    /// Wrap `inner` with the gate **closed**.
    pub fn new(inner: Arc<dyn PeerTransport>) -> Arc<GatedPeer> {
        Arc::new(Injected::wrap(inner, Gated::default()))
    }

    /// Let all parked and future reads through.
    pub fn open(&self) {
        self.hooks.state.lock().unwrap().open = true;
        self.hooks.cv.notify_all();
    }

    /// Close the gate again: future reads park until the next
    /// [`GatedPeer::open`]. Lets one harness replay park-then-release
    /// scenarios (e.g. a replica-set primary that stalls per dispatch).
    pub fn close(&self) {
        self.hooks.state.lock().unwrap().open = false;
    }

    /// Block until `n` reads have reached the gate (parked or passed).
    pub fn wait_arrivals(&self, n: usize) {
        let mut state = self.hooks.state.lock().unwrap();
        while state.arrivals < n {
            state = self.hooks.cv.wait(state).unwrap();
        }
    }
}

impl Hooks for Gated {
    const NAME: &'static str = "gated";

    fn before_read(&self, _batch: Option<&[UserId]>) -> Result<(), BackendError> {
        let mut state = self.state.lock().unwrap();
        state.arrivals += 1;
        self.cv.notify_all();
        while !state.open {
            state = self.cv.wait(state).unwrap();
        }
        Ok(())
    }
}
