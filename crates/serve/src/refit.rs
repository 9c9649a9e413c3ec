//! Background refit with atomic bundle hot-swap.
//!
//! A frozen bundle goes stale under ingestion: popularity drifts, candidate
//! pools shrink, and — the failure mode rank-aggregation work warns about —
//! a stale coverage model quietly re-concentrates recommendations on head
//! items. The incremental refreshes in [`crate::engine`] keep Pop/Stat
//! state exact between fits, but the `Dyn` frequency snapshots and any
//! factorized base model only move when the optimizer reruns. Fit is
//! cheap (single-digit milliseconds on the bench profiles), so the fix is
//! to rerun it continuously:
//!
//! 1. **Snapshot** — clone the baseline train set and the ingest log
//!    prefix under the serving lock (cheap; serving continues).
//! 2. **Fit** — merge the log into the train set
//!    ([`merge_interactions`]), re-estimate θ, refit the base model, and
//!    re-run [`ModelBundle::fit`] — all on the background thread.
//! 3. **Swap** — re-cut θ bands against the refitted θ (rebalance), build
//!    the new shard topology, and install it atomically: in-flight
//!    requests finish on the old generation, the generation counter bumps,
//!    and ingests that raced the fit are replayed onto the new shards
//!    before they go live, so nothing is lost.
//!
//! The swap result is *exactly* the bundle a from-scratch
//! [`ModelBundle::fit`] on the accumulated interactions produces — the
//! equivalence `tests/refit_hotswap.rs` pins down, concurrently.
//!
//! The pass itself, [`ShardedEngine::refit_once`] with its durable
//! persist-then-compact step, lives in [`crate::shard`] beside the refit
//! log it drains; this module holds the merge, the adaptive cadence and
//! the background [`RefitController`].

use crate::bundle::{FittedModel, ModelBundle};
use crate::shard::ShardedEngine;
use ganc_core::FitConfig;
use ganc_dataset::dataset::Rating;
use ganc_dataset::{Interactions, ItemId, UserId};
use ganc_obs::clock::{Background, Clock};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Refits the model-side state from an accumulated train set: returns the
/// fitted base model and the per-user θ estimates the next generation
/// serves. Deterministic refitters make post-swap state reproducible.
pub type Refitter = dyn Fn(&Interactions) -> (FittedModel, Vec<f64>) + Send + Sync;

/// The train set plus everything ingested since it was frozen, as one
/// deduplicated interaction matrix: a re-rated `(user, item)` pair keeps
/// the rating that arrived last. This is the "accumulated interactions" a
/// refit (and the from-scratch fit the tests compare against) runs on.
///
/// Costs O(nnz + L log L) for a log of L ingests, with no per-rating hash:
/// the log is stably sorted by `(user, item)`, so the last element of a
/// run of one pair is its latest rating, and each user's run is merged
/// into that user's train row (already sorted by item) in one pass.
///
/// Panics if an ingest names a user or an item outside `base`'s catalogue.
pub fn merge_interactions(base: &Interactions, ingested: &[(UserId, ItemId, f32)]) -> Interactions {
    let (n_users, n_items) = (base.n_users(), base.n_items());
    let mut log = ingested.to_vec();
    log.sort_by_key(|&(user, item, _)| (user, item));
    let mut ratings = Vec::with_capacity(base.nnz() + log.len());
    let mut runs = log.chunk_by(|a, b| a.0 == b.0).peekable();
    for user in (0..n_users).map(UserId) {
        let (items, values) = base.user_row(user);
        let rating = |(&item, &value)| Rating {
            user,
            item: ItemId(item),
            value,
        };
        let mut row = items.iter().zip(values).map(rating).peekable();
        if let Some(run) = runs.next_if(|run| run[0].0 == user) {
            for pair in run.chunk_by(|a, b| a.1 == b.1) {
                let &(_, item, value) = pair.last().expect("a run is never empty");
                assert!(
                    item.0 < n_items,
                    "ingested {item:?} outside {n_items} items"
                );
                while let Some(kept) = row.next_if(|r| r.item < item) {
                    ratings.push(kept);
                }
                row.next_if(|r| r.item == item);
                ratings.push(Rating { user, item, value });
            }
        }
        ratings.extend(row);
    }
    if let Some(run) = runs.next() {
        panic!("ingested {:?} outside {n_users} users", run[0].0);
    }
    Interactions::from_ratings(n_users, n_items, &ratings)
}

/// What one refit pass ([`ShardedEngine::refit_once`]) did.
#[derive(Debug, Clone)]
pub enum RefitOutcome {
    /// A new generation is live; the refitted (unsliced) bundle is returned
    /// so callers can verify or persist it.
    Swapped {
        /// The shard set's new generation.
        generation: u64,
        /// The refitted baseline bundle the new shards were sliced from —
        /// the same allocation the engine now serves, not a copy.
        bundle: Arc<ModelBundle>,
    },
    /// A competing swap changed the generation while this fit ran; the
    /// result was discarded without touching the engine.
    Raced,
}

/// Adaptive refit cadence: refit when enough has been ingested (volume
/// trigger) or when anything at all has waited too long (staleness
/// ceiling), but never more often than a floor interval (storm guard).
///
/// The trade-off this encodes is the one the serving layer must not get
/// wrong silently: every refit moves all users onto a new generation of
/// the accuracy/novelty/coverage curve, so refitting *too eagerly* churns
/// the curve under users (and burns fit cycles during ingest floods),
/// while refitting *too lazily* serves a coverage model that has drifted
/// from live popularity. A fixed timer picks one point; this policy adapts
/// between the bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CadenceConfig {
    /// Pending ingests that make the bundle stale enough to refit now
    /// (subject to `min_interval`). Clamped to ≥ 1.
    pub volume_threshold: usize,
    /// Floor between consecutive refits: an ingest flood can never cause a
    /// refit storm tighter than this.
    pub min_interval: Duration,
    /// Staleness ceiling: once *any* ingest is pending, a refit happens at
    /// most this long after the previous one even below the volume
    /// threshold. A quiescent engine (nothing pending) never refits.
    pub max_interval: Duration,
}

impl Default for CadenceConfig {
    fn default() -> CadenceConfig {
        CadenceConfig {
            volume_threshold: 1_024,
            min_interval: Duration::from_secs(1),
            max_interval: Duration::from_secs(60),
        }
    }
}

/// The decision state of one adaptive cadence: pure bookkeeping over an
/// injected "now", so every branch is unit-testable without threads.
#[derive(Debug, Clone)]
pub struct AdaptiveCadence {
    cfg: CadenceConfig,
    last_refit: Duration,
}

impl AdaptiveCadence {
    /// A cadence whose floor interval starts counting at `now` (the spawn
    /// instant counts as the zeroth "refit" so a freshly started engine
    /// doesn't immediately refit on leftover volume).
    pub fn new(cfg: CadenceConfig, now: Duration) -> AdaptiveCadence {
        assert!(
            cfg.min_interval <= cfg.max_interval,
            "cadence floor must not exceed the staleness ceiling"
        );
        AdaptiveCadence {
            cfg,
            last_refit: now,
        }
    }

    /// Should a refit pass run at `now` given `pending` un-refitted
    /// ingests?
    pub fn should_refit(&self, now: Duration, pending: usize) -> bool {
        if pending == 0 {
            // Quiescent: a refit would reproduce the served bundle.
            return false;
        }
        let since = now.saturating_sub(self.last_refit);
        if since < self.cfg.min_interval {
            return false;
        }
        pending >= self.cfg.volume_threshold.max(1) || since >= self.cfg.max_interval
    }

    /// Record that a refit pass completed at `now`.
    pub fn note_refit(&mut self, now: Duration) {
        self.last_refit = now;
    }

    /// The clock time to ask [`AdaptiveCadence::should_refit`] again, seen
    /// from `now`: the end of the floor while it gates; past it only ingest
    /// volume can fire early, and volume is not a clock event, so it is
    /// polled — in clock time, at a quarter of the floor within
    /// [100 µs, 20 ms] (also what reaches the ceiling).
    pub fn next_check(&self, now: Duration) -> Duration {
        let poll = (self.cfg.min_interval / 4)
            .clamp(Duration::from_micros(100), Duration::from_millis(20));
        (self.last_refit + self.cfg.min_interval).max(now + poll)
    }
}

/// A [`Background`] job that refits a [`ShardedEngine`] and hot-swaps the
/// result when an [`AdaptiveCadence`] says so. Dropping the controller
/// stops and joins it.
pub struct RefitController {
    refits: Arc<AtomicU64>,
    worker: Background,
}

impl RefitController {
    /// Start an adaptive controller: refit when `cadence_cfg` says so,
    /// judged against `clock` and the engine's pending-ingest count. Every
    /// decision and every wait reads only the injected clock, so a
    /// [`ManualClock`] makes the firing pattern deterministic.
    pub fn spawn_adaptive(
        engine: Arc<ShardedEngine>,
        fitter: Arc<Refitter>,
        cfg: FitConfig,
        cadence_cfg: CadenceConfig,
        clock: Arc<dyn Clock>,
    ) -> RefitController {
        // Validate on the caller's thread: a bad config must panic here,
        // not inside the worker (where it would only read as `!alive()`).
        let start = clock.now();
        let mut cadence = AdaptiveCadence::new(cadence_cfg, start);
        let first = cadence.next_check(start);
        let refits = Arc::new(AtomicU64::new(0));
        let done = Arc::clone(&refits);
        let step_clock = Arc::clone(&clock);
        let worker = Background::spawn(clock, first, move |mut now| {
            if cadence.should_refit(now, engine.pending_ingests()) {
                engine.refit_once(fitter.as_ref(), &cfg);
                // The floor counts from the end of the pass, not its start.
                now = step_clock.now();
                cadence.note_refit(now);
                done.fetch_add(1, Ordering::Relaxed);
            }
            cadence.next_check(now)
        });
        RefitController { refits, worker }
    }

    /// Completed refit passes so far.
    pub fn refits(&self) -> u64 {
        self.refits.load(Ordering::Relaxed)
    }

    /// Is the background worker still running? `false` after
    /// [`RefitController::shutdown`] or if the worker died (e.g. a fit
    /// panic) — surfaced by `/v1/healthz` so a silently dead controller
    /// is visible to operators.
    pub fn alive(&self) -> bool {
        self.worker.alive()
    }

    /// Signal the worker to stop and wait for it to finish.
    pub fn shutdown(&mut self) {
        self.worker.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, ServingEngine};
    use crate::saveload::SaveLoad;
    use crate::shard::ShardConfig;
    use crate::wal::DurableConfig;
    use ganc_core::coverage::CoverageKind;
    use ganc_dataset::synth::DatasetProfile;
    use ganc_obs::clock::{ManualClock, SystemClock};
    use ganc_preference::GeneralizedConfig;
    use ganc_recommender::pop::MostPopular;
    use proptest::prelude::*;

    fn fixture() -> (Interactions, FitConfig) {
        let data = DatasetProfile::tiny().generate(5);
        let split = data.split_per_user(0.5, 2).unwrap();
        let cfg = FitConfig {
            coverage: CoverageKind::Dynamic,
            sample_size: 12,
            ..FitConfig::new(5)
        };
        (split.train, cfg)
    }

    fn pop_fitter() -> Arc<Refitter> {
        Arc::new(|train: &Interactions| {
            (
                FittedModel::Pop(MostPopular::fit(train)),
                GeneralizedConfig::default().estimate(train),
            )
        })
    }

    /// A from-scratch fit of `train`: the bundle a refit must equal.
    fn fit(train: Interactions, cfg: &FitConfig) -> ModelBundle {
        let (model, theta) = pop_fitter()(&train);
        ModelBundle::fit(model, theta, train, cfg)
    }

    #[test]
    fn merge_keeps_latest_rating_and_appends_new_pairs() {
        let (train, _) = fixture();
        let (u, i, _) = train.iter().next().unwrap();
        let fresh = (0..train.n_items())
            .map(ItemId)
            .find(|&it| !train.contains(u, it))
            .unwrap();
        let merged = merge_interactions(&train, &[(u, i, 1.5), (u, fresh, 2.5), (u, i, 3.5)]);
        assert_eq!(merged.n_users(), train.n_users());
        assert_eq!(merged.nnz(), train.nnz() + 1);
        assert_eq!(merged.get(u, i), Some(3.5), "last rating wins");
        assert_eq!(merged.get(u, fresh), Some(2.5));
        // No ingests: merge is the identity.
        assert_eq!(merge_interactions(&train, &[]), train);
    }

    /// The hashed merge `merge_interactions` had before its sorted runs:
    /// the oracle it must equal.
    fn hashed_merge(base: &Interactions, ingested: &[(UserId, ItemId, f32)]) -> Interactions {
        let mut ratings: Vec<Rating> = base
            .iter()
            .map(|(user, item, value)| Rating { user, item, value })
            .collect();
        let mut at: std::collections::HashMap<(u32, u32), usize> = ratings
            .iter()
            .enumerate()
            .map(|(k, r)| ((r.user.0, r.item.0), k))
            .collect();
        for &(user, item, value) in ingested {
            match at.entry((user.0, item.0)) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    ratings[*e.get()].value = value;
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(ratings.len());
                    ratings.push(Rating { user, item, value });
                }
            }
        }
        Interactions::from_ratings(base.n_users(), base.n_items(), &ratings)
    }

    proptest! {
        /// Generated base matrices (`empty` blanks a user's row; `last`
        /// gives the last user one) and logs (`edits`: a pair already in
        /// train or a fresh one, rated 1–4 times, the log shuffled by
        /// `order`, empty in one case in 24) merge to the oracle's
        /// matrix, and an empty log to the base itself.
        #[test]
        fn sorted_merge_equals_the_hashed_merge(
            shape in (1u32..7, 1u32..10, 0u32..64, 0u32..2),
            cells in collection::vec((0u32..64, 0u32..64, 1u32..6), 0..30),
            edits in collection::vec((0u32..2, 0u32..64, (0u32..64, 1u32..5), 0u32..1000), 0..24),
            order in collection::vec(0u32..1000, 96..97),
        ) {
            let (n_users, n_items, empty, last) = shape;
            let mut pairs = std::collections::BTreeMap::new();
            for (u, i, v) in cells {
                let u = u % n_users;
                if empty >> u & 1 == 0 {
                    pairs.entry((u, i % n_items)).or_insert(v as f32);
                }
            }
            if last == 1 {
                pairs.entry((n_users - 1, 0)).or_insert(3.0);
            }
            let ratings: Vec<Rating> = pairs
                .iter()
                .map(|(&(u, i), &value)| Rating { user: UserId(u), item: ItemId(i), value })
                .collect();
            let base = Interactions::from_ratings(n_users, n_items, &ratings);
            let mut log = Vec::new();
            for (kind, a, (b, times), seed) in edits {
                let (u, i) = match (kind, ratings.len()) {
                    (0, n) if n > 0 => {
                        let r = ratings[a as usize % n];
                        (r.user.0, r.item.0)
                    }
                    _ => (a % n_users, b % n_items),
                };
                for t in 0..times {
                    let value = ((seed + t) % 9) as f32 * 0.5 + 1.0;
                    log.push((UserId(u), ItemId(i), value));
                }
            }
            let mut keyed: Vec<_> = log.into_iter().enumerate().collect();
            keyed.sort_by_key(|&(k, _)| order[k]);
            let log: Vec<_> = keyed.into_iter().map(|(_, entry)| entry).collect();
            prop_assert_eq!(merge_interactions(&base, &log), hashed_merge(&base, &log));
            prop_assert_eq!(merge_interactions(&base, &[]), base);
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn merging_a_user_outside_the_catalogue_panics() {
        let (train, _) = fixture();
        merge_interactions(&train, &[(UserId(train.n_users()), ItemId(0), 4.0)]);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn merging_an_item_outside_the_catalogue_panics() {
        let (train, _) = fixture();
        merge_interactions(&train, &[(UserId(0), ItemId(train.n_items()), 4.0)]);
    }

    #[test]
    fn refit_once_swaps_to_the_from_scratch_fit() {
        let (train, cfg) = fixture();
        let fitter = pop_fitter();
        let engine = ShardedEngine::new(fit(train.clone(), &cfg), ShardConfig::quantile(3));

        // Ingest a few interactions, then refit.
        let ingested: Vec<_> = (0..3)
            .map(|u| (UserId(u), engine.recommend(UserId(u)).unwrap()[0], 5.0))
            .collect();
        for &(u, i, r) in &ingested {
            engine.ingest(u, i, r).unwrap();
        }
        assert_eq!(engine.pending_ingests(), 3);

        let outcome = engine.refit_once(fitter.as_ref(), &cfg);
        let RefitOutcome::Swapped { generation, bundle } = outcome else {
            panic!("uncontended refit must swap");
        };
        assert_eq!(generation, 1);
        assert_eq!(engine.generation(), 1);
        assert_eq!(engine.pending_ingests(), 0, "log consumed by the refit");

        // The installed bundle equals a from-scratch fit on accumulated
        // interactions, and the engine serves exactly that fit.
        let expected = fit(merge_interactions(&train, &ingested), &cfg);
        assert_eq!(*bundle, expected);
        let reference = ServingEngine::new(expected, EngineConfig::default());
        for u in 0..engine.n_users() {
            assert_eq!(
                engine.recommend(UserId(u)).unwrap(),
                reference.recommend(UserId(u)).unwrap(),
                "user {u} diverges from the from-scratch fit"
            );
        }
    }

    #[test]
    fn refit_replays_ingests_that_raced_the_fit() {
        // Simulate the race by snapshotting, then ingesting, then
        // installing a fit of the snapshot: the installed generation must
        // still reflect the late ingest, and the log must keep it for the
        // next refit.
        let (train, cfg) = fixture();
        let engine = ShardedEngine::new(fit(train, &cfg), ShardConfig::quantile(2));

        let (generation, baseline, log) = engine.refit_snapshot();
        assert!(log.is_empty());
        let consumed = log.len();
        // Late ingest lands while the "fit" runs.
        let u = UserId(1);
        let late = engine.recommend(u).unwrap()[0];
        engine.ingest(u, late, 4.0).unwrap();

        let refit = Arc::new(fit(merge_interactions(&baseline.train, &log), &cfg));
        assert!(engine.install_refit(generation, refit, consumed).is_some());

        assert_eq!(engine.pending_ingests(), 1, "late ingest survives the swap");
        let after = engine.recommend(u).unwrap();
        assert!(
            !after.contains(&late),
            "replayed ingest must keep {late:?} excluded after the swap"
        );
    }

    #[test]
    fn stale_refit_is_discarded() {
        let (train, cfg) = fixture();
        let fitter = pop_fitter();
        let engine = ShardedEngine::new(fit(train, &cfg), ShardConfig::quantile(2));
        let (generation, baseline, _) = engine.refit_snapshot();
        // A competing refit wins first.
        assert!(matches!(
            engine.refit_once(fitter.as_ref(), &cfg),
            RefitOutcome::Swapped { generation: 1, .. }
        ));
        // Installing against the stale generation must be refused.
        assert!(engine.install_refit(generation, baseline, 0).is_none());
        assert_eq!(engine.generation(), 1);
    }

    #[test]
    fn an_overtaken_pass_neither_persists_nor_compacts() {
        // Pass A installs, pass B runs whole, then A's persist step runs:
        // A's older artifact must not land over B's, nor may A cut the WAL
        // to B's log, or a crash would lose what only B's bundle holds.
        let (train, cfg) = fixture();
        let dir = std::env::temp_dir().join(format!("ganc_overtaken_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let artifact = dir.join("bundle.ganc");
        let durable = DurableConfig {
            artifact_path: Some(artifact.clone()),
            ..DurableConfig::new(dir.join("ingest.wal"))
        };
        let engine = ShardedEngine::new(fit(train.clone(), &cfg), ShardConfig::quantile(2));
        engine.attach_durable(durable.clone()).unwrap();
        let sent: Vec<_> = (0..4).map(|k| (UserId(k), ItemId(k + 1), 4.0)).collect();
        engine.ingest(sent[0].0, sent[0].1, sent[0].2).unwrap();
        let (generation, baseline, log) = engine.refit_snapshot();
        let a = Arc::new(fit(merge_interactions(&baseline.train, &log), &cfg));
        let installed = engine.install_refit(generation, Arc::clone(&a), log.len());
        assert_eq!(installed, Some(1));
        for &(u, i, r) in &sent[1..] {
            engine.ingest(u, i, r).unwrap();
        }
        let b = engine.refit_once(pop_fitter().as_ref(), &cfg);
        assert!(matches!(b, RefitOutcome::Swapped { generation: 2, .. }));
        engine.persist_refit(1, &a);
        drop(engine);

        let persisted = ModelBundle::load(&artifact).unwrap();
        let revived = ShardedEngine::new(persisted, ShardConfig::quantile(2));
        revived.attach_durable(durable).unwrap();
        let oracle = fit(merge_interactions(&train, &sent), &cfg);
        let oracle = ServingEngine::new(oracle, EngineConfig::default());
        for u in 0..revived.n_users() {
            let got = revived.recommend(UserId(u)).unwrap();
            assert_eq!(got, oracle.recommend(UserId(u)).unwrap(), "user {u}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn controller_refits_in_background_and_stops_on_drop() {
        let (train, cfg) = fixture();
        let fitter = pop_fitter();
        let engine = Arc::new(ShardedEngine::new(
            fit(train, &cfg),
            ShardConfig::quantile(2),
        ));
        // Every pending ingest is due after 1 ms: the tightest cadence.
        let every_ms = CadenceConfig {
            volume_threshold: 1,
            min_interval: Duration::from_millis(1),
            max_interval: Duration::from_millis(1),
        };
        let controller = RefitController::spawn_adaptive(
            Arc::clone(&engine),
            Arc::clone(&fitter),
            cfg,
            every_ms,
            Arc::new(SystemClock::new()),
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let mut item = 0;
        while controller.refits() < 2 && std::time::Instant::now() < deadline {
            if engine.pending_ingests() == 0 {
                engine.ingest(UserId(0), ItemId(item), 5.0).unwrap();
                item += 1;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(controller.refits() >= 2, "controller never refitted");
        drop(controller); // must stop and join without hanging
        assert!(engine.generation() >= 2);
    }

    // ---- adaptive cadence (deterministic: injected clock, no threads) ----

    fn secs(s: u64) -> Duration {
        Duration::from_secs(s)
    }

    fn cadence_cfg() -> CadenceConfig {
        CadenceConfig {
            volume_threshold: 10,
            min_interval: secs(5),
            max_interval: secs(60),
        }
    }

    #[test]
    fn cadence_fires_on_volume_threshold_after_the_floor() {
        let c = AdaptiveCadence::new(cadence_cfg(), secs(0));
        // Threshold met, but the floor interval hasn't passed yet.
        assert!(!c.should_refit(secs(4), 10), "min_interval must gate");
        // Floor passed, threshold met: fire.
        assert!(c.should_refit(secs(5), 10));
        assert!(c.should_refit(secs(5), 10_000));
        // Floor passed, below threshold, below ceiling: hold.
        assert!(!c.should_refit(secs(5), 9));
    }

    #[test]
    fn cadence_staleness_ceiling_fires_below_the_volume_threshold() {
        let mut c = AdaptiveCadence::new(cadence_cfg(), secs(0));
        // One lonely pending ingest: held until the ceiling...
        assert!(!c.should_refit(secs(59), 1));
        // ...then forced, so no interaction waits unbounded.
        assert!(c.should_refit(secs(60), 1));
        assert!(c.should_refit(secs(1_000_000), 1));
        // The ceiling is measured from the last refit, not from spawn.
        c.note_refit(secs(60));
        assert!(!c.should_refit(secs(119), 1));
        assert!(c.should_refit(secs(120), 1));
    }

    #[test]
    fn cadence_quiescent_engine_never_refits() {
        let c = AdaptiveCadence::new(cadence_cfg(), secs(0));
        for t in [0, 5, 60, 3_600, 1_000_000] {
            assert!(
                !c.should_refit(secs(t), 0),
                "nothing pending at t={t}s: a refit would reproduce the served bundle"
            );
        }
    }

    #[test]
    fn cadence_ingest_flood_cannot_cause_a_refit_storm() {
        // Simulate a controller loop under a sustained flood (pending
        // always huge) with a fine-grained poll: the floor interval caps
        // the firing rate no matter how fast ingestion runs.
        let cfg = cadence_cfg();
        let mut c = AdaptiveCadence::new(cfg, secs(0));
        let mut refits = 0u32;
        let mut t = Duration::ZERO;
        let poll = Duration::from_millis(100);
        let horizon = secs(300);
        while t < horizon {
            if c.should_refit(t, usize::MAX) {
                c.note_refit(t);
                refits += 1;
            }
            t += poll;
        }
        let cap = (horizon.as_secs() / cfg.min_interval.as_secs()) as u32;
        assert!(
            refits <= cap,
            "{refits} refits in {horizon:?} breaks the {:?} floor",
            cfg.min_interval
        );
        assert!(refits >= cap - 1, "flood should keep the cadence saturated");
    }

    #[test]
    fn cadence_floor_must_not_exceed_ceiling() {
        let bad = CadenceConfig {
            volume_threshold: 1,
            min_interval: secs(10),
            max_interval: secs(5),
        };
        assert!(std::panic::catch_unwind(|| AdaptiveCadence::new(bad, secs(0))).is_err());
    }

    #[test]
    fn adaptive_controller_follows_the_injected_clock() {
        let (train, cfg) = fixture();
        let fitter = pop_fitter();
        let engine = Arc::new(ShardedEngine::new(
            fit(train, &cfg),
            ShardConfig::quantile(2),
        ));
        let clock = Arc::new(ManualClock::new());
        let cadence = CadenceConfig {
            volume_threshold: 2,
            min_interval: secs(10),
            max_interval: secs(100),
        };
        let controller = RefitController::spawn_adaptive(
            Arc::clone(&engine),
            Arc::clone(&fitter),
            cfg,
            cadence,
            clock.clone(),
        );
        let wait_for = |target: u64| {
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while controller.refits() < target && std::time::Instant::now() < deadline {
                std::thread::yield_now();
            }
            controller.refits()
        };
        let settle = || {
            // Give the worker a real-time window to (wrongly) fire; the
            // manual clock pins its decisions, so the count must hold.
            let until = std::time::Instant::now() + Duration::from_millis(30);
            while std::time::Instant::now() < until {
                std::thread::yield_now();
            }
        };

        // Volume reached but the floor hasn't: no refit even in real time.
        let list = engine.recommend(UserId(0)).unwrap();
        engine.ingest(UserId(0), list[0], 5.0).unwrap();
        engine.ingest(UserId(0), list[1], 5.0).unwrap();
        settle();
        assert_eq!(controller.refits(), 0, "floor interval must gate");

        // Floor passes on the injected clock: exactly one refit fires and
        // consumes the log.
        clock.advance(secs(10));
        assert_eq!(wait_for(1), 1, "volume trigger never fired");
        settle();
        assert_eq!(controller.refits(), 1, "consumed log must quiesce");
        assert_eq!(engine.pending_ingests(), 0);

        // A single below-threshold ingest holds below the staleness
        // ceiling (the floor has passed, the ceiling has not)...
        let list = engine.recommend(UserId(1)).unwrap();
        engine.ingest(UserId(1), list[0], 4.0).unwrap();
        clock.advance(secs(50));
        settle();
        assert_eq!(controller.refits(), 1, "below threshold, below ceiling");
        // ...and fires once the ceiling since the last refit passes.
        clock.advance(secs(50));
        assert_eq!(wait_for(2), 2, "staleness ceiling never fired");
        settle();
        assert_eq!(engine.pending_ingests(), 0);

        // Quiescent far past the ceiling: still nothing to refit.
        clock.advance(secs(1_000));
        settle();
        assert_eq!(controller.refits(), 2, "quiescent engine must not refit");

        drop(controller); // must stop and join without hanging
        assert_eq!(engine.generation(), 2);
    }
}
