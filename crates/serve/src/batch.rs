//! Micro-batching front door: coalesce concurrent single requests into
//! one batch call against a [`BatchSource`] — single-user recommends here
//! and in the `ganc-http` router, and that router's single ingests.
//!
//! Callers block on [`Coalescer::request_traced`]; a background worker
//! drains the queue, waits up to `max_wait` (the *linger*) for up to
//! `max_batch` requests to accumulate, and answers them with one
//! [`BatchSource::batch`] call. Two things get amortized:
//!
//! * against a local [`ServingEngine`] source, each serving worker's
//!   scorer/buffer setup is paid once per batch instead of per request;
//! * against a remote peer (the `ganc-http` router's `RemoteShard` hop),
//!   one HTTP round-trip replaces one-per-request — the wire win the
//!   coalescing layer exists for.
//!
//! Generation contract: every request coalesced into one batch is answered
//! from that batch's single generation (a recommend source stamps the one
//! its batch call reported on every reply), so coalescing can never hand two callers of the
//! same batch different model versions — the staleness invariant
//! `tests/remote_coalescing.rs` locks down under refit churn.
//!
//! Shutdown contract: [`Coalescer::shutdown`] (and `Drop`) closes the
//! queue and *flushes* — every request already accepted is answered before
//! the worker exits, and a pending linger is cut short the moment the
//! queue closes, so shutdown latency is one in-flight batch, not
//! `max_wait`.

use crate::engine::{ServeError, ServingEngine, SlotAnswer};
use ganc_dataset::{ItemId, UserId};
use std::convert::Infallible;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Batching knobs.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Largest batch handed to the source at once.
    pub max_batch: usize,
    /// Longest a request waits for companions before the batch flushes
    /// (the linger bound). Queue shutdown cuts a pending linger short.
    pub max_wait: Duration,
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig {
            max_batch: 64,
            max_wait: Duration::from_micros(200),
        }
    }
}

/// Something that can answer a whole batch of requests in one call, one
/// reply per request.
///
/// `Error` is a whole-batch failure (e.g. the transport to a remote peer
/// died); it is cloned to every caller the batch coalesced.
pub trait BatchSource: Send + Sync + 'static {
    /// One caller's request.
    type Request: Send + 'static;
    /// One caller's in-slot answer.
    type Reply: Send + 'static;
    /// Whole-batch failure type. [`Infallible`] for in-process sources.
    type Error: Clone + Send + 'static;

    /// Answer `requests` in one call. A successful answer MUST contain
    /// exactly `requests.len()` replies, in order — the coalescer
    /// distributes them positionally, and a short answer would strand
    /// callers, so the contract is enforced (a violating implementation
    /// panics the batch worker). Transports that cannot trust their peer
    /// must validate before returning `Ok` (as the HTTP `RemoteShard`
    /// client does) and report a whole-batch `Err` instead.
    fn batch(&self, requests: &[Self::Request]) -> Result<Vec<Self::Reply>, Self::Error>;
}

/// A local serving engine never fails as a whole batch; every slot carries
/// the one generation its batch was served from.
impl BatchSource for Arc<ServingEngine> {
    type Request = UserId;
    type Reply = (SlotAnswer, u64);
    type Error = Infallible;

    fn batch(&self, users: &[UserId]) -> Result<Vec<(SlotAnswer, u64)>, Infallible> {
        let (slots, generation) = self.recommend_batch_traced(users);
        Ok(slots.into_iter().map(|slot| (slot, generation)).collect())
    }
}

/// One caller's answer: its reply, or the whole batch's failure.
pub type CoalescedAnswer<S> = Result<<S as BatchSource>::Reply, <S as BatchSource>::Error>;

struct Pending<S: BatchSource> {
    request: S::Request,
    reply: mpsc::Sender<CoalescedAnswer<S>>,
}

/// A handle submitting single requests into the batching queue of some
/// [`BatchSource`]. [`MicroBatcher`] is the engine-backed special case.
pub struct Coalescer<S: BatchSource> {
    tx: Mutex<Option<mpsc::Sender<Pending<S>>>>,
    worker: Mutex<Option<JoinHandle<()>>>,
    /// Requests enqueued so far (bumped strictly *after* the send lands),
    /// monotonic. Paired with `answered` so `pending()` never over-counts
    /// a request that is still mid-submit — the injection tests wait on
    /// exact queue depths without sleeps.
    accepted: AtomicUsize,
    /// Requests answered (or failed) by the worker, monotonic.
    answered: Arc<AtomicUsize>,
}

impl<S: BatchSource> Coalescer<S> {
    /// Start a batching worker over `source`.
    pub fn spawn(source: S, cfg: BatchConfig) -> Coalescer<S> {
        let (tx, rx) = mpsc::channel::<Pending<S>>();
        let max_batch = cfg.max_batch.max(1);
        let max_wait = cfg.max_wait;
        let answered = Arc::new(AtomicUsize::new(0));
        let worker = {
            let answered = Arc::clone(&answered);
            std::thread::spawn(move || {
                // Block for the first request of each batch; then collect
                // companions until the window closes, the batch fills, or
                // the queue shuts down (which flushes immediately).
                while let Ok(first) = rx.recv() {
                    let mut requests = vec![first.request];
                    let mut replies = vec![first.reply];
                    let deadline = Instant::now() + max_wait;
                    while requests.len() < max_batch {
                        // Whatever already queued (e.g. while the previous
                        // batch was in flight) is taken at once, even past
                        // the deadline; the wait is only for stragglers. A
                        // timeout ends the linger; a disconnect means
                        // shutdown started — flush what we have now.
                        let linger = deadline.saturating_duration_since(Instant::now());
                        let Ok(req) = rx.recv_timeout(linger) else {
                            break;
                        };
                        requests.push(req.request);
                        replies.push(req.reply);
                    }
                    match source.batch(&requests) {
                        Ok(answers) => {
                            // Release-mode check: a short answer would
                            // silently strand the unmatched callers on a
                            // dead reply channel; fail loudly at the
                            // source of the contract violation instead.
                            assert_eq!(
                                answers.len(),
                                replies.len(),
                                "BatchSource contract violation: {} replies for {} requests",
                                answers.len(),
                                replies.len()
                            );
                            for (reply, answer) in replies.iter().zip(answers) {
                                // A receiver that gave up is not an error
                                // for the rest of the batch.
                                let _ = reply.send(Ok(answer));
                            }
                        }
                        Err(e) => {
                            for reply in &replies {
                                let _ = reply.send(Err(e.clone()));
                            }
                        }
                    }
                    answered.fetch_add(replies.len(), Ordering::Release);
                }
            })
        };
        Coalescer {
            tx: Mutex::new(Some(tx)),
            worker: Mutex::new(Some(worker)),
            accepted: AtomicUsize::new(0),
            answered,
        }
    }

    /// Submit one request and block until its batch is answered.
    ///
    /// `None` when the queue is closed: racing [`Coalescer::shutdown`] or a
    /// dead worker refuses this one request — never panics the calling
    /// thread.
    pub fn request_traced(&self, request: S::Request) -> Option<CoalescedAnswer<S>> {
        let tx = self.tx.lock().unwrap().as_ref().cloned()?;
        let (reply, answer) = mpsc::channel();
        tx.send(Pending { request, reply }).ok()?;
        // Count strictly after the send: `pending() == n` must certify n
        // requests are really in the queue (or in the in-flight batch) —
        // never a caller still mid-submit.
        self.accepted.fetch_add(1, Ordering::Release);
        // The send is in: even if shutdown races us from here on, the
        // worker drains the queue before exiting, so this recv gets an
        // answer (the flush-on-shutdown contract) unless the worker died.
        drop(tx);
        let answer = answer.recv().ok();
        if answer.is_none() {
            // Count the orphaned request as answered so pending() drains.
            self.answered.fetch_add(1, Ordering::Release);
        }
        answer
    }

    /// Requests enqueued but not yet answered. Transiently *under*-counts
    /// (a request being answered right as its caller finishes the submit
    /// accounting) but never over-counts, so waiting for `pending() == n`
    /// guarantees n requests are queued or in flight.
    pub fn pending(&self) -> usize {
        // `answered` first: reading it stale can only shrink the result.
        let answered = self.answered.load(Ordering::Acquire);
        self.accepted
            .load(Ordering::Acquire)
            .saturating_sub(answered)
    }

    /// Close the queue and flush: requests already accepted are answered,
    /// a pending linger ends immediately, then the worker is joined. New
    /// [`Coalescer::request_traced`] calls answer `None` after this.
    pub fn shutdown(&self) {
        drop(self.tx.lock().unwrap().take());
        if let Some(worker) = self.worker.lock().unwrap().take() {
            let _ = worker.join();
        }
    }
}

impl<S: BatchSource> Drop for Coalescer<S> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The engine-backed micro-batcher: coalesces concurrent callers into
/// [`ServingEngine::recommend_batch`] calls.
///
/// Dropping the batcher closes the queue, flushes accepted requests, and
/// joins the worker.
pub struct MicroBatcher {
    inner: Coalescer<Arc<ServingEngine>>,
}

impl MicroBatcher {
    /// Start a batching worker over `engine`.
    pub fn spawn(engine: Arc<ServingEngine>, cfg: BatchConfig) -> MicroBatcher {
        MicroBatcher {
            inner: Coalescer::spawn(engine, cfg),
        }
    }

    /// Submit one request and block for its answer.
    pub fn request(&self, user: UserId) -> Result<Arc<Vec<ItemId>>, ServeError> {
        self.request_traced(user).map(|(list, _)| list)
    }

    /// Like [`MicroBatcher::request`], also reporting the generation of
    /// the engine batch this request was coalesced into.
    pub fn request_traced(&self, user: UserId) -> Result<(Arc<Vec<ItemId>>, u64), ServeError> {
        // The queue closes only in `Drop`, and an engine answers every
        // slot, so the worker outlives every caller.
        match self.inner.request_traced(user).expect("batch worker alive") {
            Ok((slot, generation)) => slot.map(|list| (list, generation)),
            Err(infallible) => match infallible {},
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::{FittedModel, ModelBundle};
    use crate::engine::EngineConfig;
    use ganc_core::FitConfig;
    use ganc_dataset::synth::DatasetProfile;
    use ganc_preference::GeneralizedConfig;
    use ganc_recommender::pop::MostPopular;

    fn engine() -> Arc<ServingEngine> {
        let data = DatasetProfile::tiny().generate(7);
        let split = data.split_per_user(0.5, 2).unwrap();
        let theta = GeneralizedConfig::default().estimate(&split.train);
        let pop = MostPopular::fit(&split.train);
        let cfg = FitConfig {
            sample_size: 10,
            ..FitConfig::new(5)
        };
        let bundle = ModelBundle::fit(FittedModel::Pop(pop), theta, split.train, &cfg);
        Arc::new(ServingEngine::new(bundle, EngineConfig::default()))
    }

    #[test]
    fn batched_answers_match_direct_requests() {
        let e = engine();
        let batcher = MicroBatcher::spawn(Arc::clone(&e), BatchConfig::default());
        let n_users = e.n_users();
        std::thread::scope(|scope| {
            for t in 0..8u32 {
                let batcher = &batcher;
                let e = Arc::clone(&e);
                scope.spawn(move || {
                    for k in 0..50u32 {
                        let u = UserId((t * 13 + k) % n_users);
                        let batched = batcher.request(u).unwrap();
                        let direct = e.recommend(u).unwrap();
                        assert_eq!(batched, direct, "user {u:?}");
                    }
                });
            }
        });
    }

    #[test]
    fn unknown_user_error_propagates_through_batch() {
        let e = engine();
        let batcher = MicroBatcher::spawn(Arc::clone(&e), BatchConfig::default());
        let bad = UserId(e.n_users() + 5);
        assert_eq!(batcher.request(bad), Err(ServeError::UnknownUser(bad)));
    }

    #[test]
    fn traced_requests_report_the_engine_generation() {
        let e = engine();
        let batcher = MicroBatcher::spawn(Arc::clone(&e), BatchConfig::default());
        let (list, generation) = batcher.request_traced(UserId(0)).unwrap();
        assert_eq!(generation, 0);
        assert_eq!(list, e.recommend(UserId(0)).unwrap());
    }

    #[test]
    fn drop_joins_worker_cleanly() {
        let e = engine();
        let batcher = MicroBatcher::spawn(e, BatchConfig::default());
        batcher.request(UserId(0)).unwrap();
        drop(batcher); // must not hang or panic
    }
}
