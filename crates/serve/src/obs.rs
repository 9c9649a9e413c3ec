//! Engine-side observability: per-band metric handles, trace events, and
//! the rolling beyond-accuracy windows, attached to a [`ServingEngine`]
//! after construction.
//!
//! Attachment is optional and one-shot (`OnceLock`): an un-attached
//! engine pays one atomic load per request and nothing else. When
//! attached, the hot path adds two clock reads, a histogram observation,
//! a counter bump, and one short mutex hold to feed the rolling window —
//! the cost `ci/stack_guard.py` bounds at ≤ 1.15× the un-instrumented
//! cold path (`obs.miss_overhead_us` over `serve.engine.miss_us`).
//!
//! That mutex hold copies the served list's ids straight from the
//! engine's shared list into the window's flat id queue: a hit (recorded
//! on the event-loop thread) allocates nothing, a batch stages nothing,
//! and a hot-swap builds its fresh window before taking the lock and frees
//! the old one after releasing it, so no hit waits behind a free.
//!
//! Lock discipline: every `EngineObs` lock is a leaf — taken after the
//! engine's state/cache locks, never before, and never while calling back
//! into the engine.

use crate::bundle::ModelBundle;
use crate::engine::SlotAnswer;
use ganc_dataset::stats::LongTail;
use ganc_dataset::ItemId;
use ganc_obs::{
    CatalogProfile, Counter, Gauge, Histogram, ObsHub, RollingWindow, TraceData, WindowStats,
    WindowWire,
};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Tail mass for the long-tail split: the classic Pareto cut (tail = items
/// outside the most-popular set holding 80% of interaction mass), matching
/// `ganc_dataset::stats::LongTail::pareto`.
const TAIL_MASS: f64 = 0.2;

/// Build the frozen per-item catalog facts (novelty micro-bits, long-tail
/// membership) for one bundle generation. Reads the already-loaded train
/// popularity; holds **no** reference into the bundle afterwards.
pub(crate) fn catalog_profile(bundle: &ModelBundle) -> CatalogProfile {
    let tail = LongTail::from_train(&bundle.train, TAIL_MASS);
    CatalogProfile::from_popularity(
        &bundle.train.item_popularity(),
        bundle.train.n_users(),
        tail.mask().to_vec(),
    )
}

/// The rolling window plus the catalog profile it scores against. The
/// profile is frozen per bundle generation (rebuilt on hot-swap, *not* on
/// every ingest — novelty attribution stays stable between fits, exactly
/// like the fitted Pop scores the paper's metrics are defined over).
struct WindowState {
    window: RollingWindow,
    catalog: Arc<CatalogProfile>,
}

impl WindowState {
    /// An empty window of `span` over `bundle`'s catalog.
    fn new(span: Duration, bundle: &ModelBundle) -> WindowState {
        let catalog = Arc::new(catalog_profile(bundle));
        WindowState {
            window: RollingWindow::new(span, catalog.n_items()),
            catalog,
        }
    }
}

/// Per-engine observability handles. Cheap to use, built once per attach.
pub(crate) struct EngineObs {
    hub: Arc<ObsHub>,
    band: Option<u32>,
    hit_us: Arc<Histogram>,
    miss_us: Arc<Histogram>,
    batch_us: Arc<Histogram>,
    hit_total: Arc<Counter>,
    miss_total: Arc<Counter>,
    error_total: Arc<Counter>,
    batch_users_total: Arc<Counter>,
    ingest_total: Arc<Counter>,
    swap_total: Arc<Counter>,
    generation_gauge: Arc<Gauge>,
    coverage_gauge: Arc<Gauge>,
    novelty_gauge: Arc<Gauge>,
    tail_gauge: Arc<Gauge>,
    lists_gauge: Arc<Gauge>,
    /// The rolling window's span, kept outside the lock so a hot-swap can
    /// build the replacement window before taking it.
    span: Duration,
    window: Mutex<WindowState>,
}

impl EngineObs {
    /// Register this engine's metric series (idempotent: re-attaching the
    /// same band after a refit returns the same underlying atomics, so
    /// counters survive hot-swaps) and seed the rolling window from the
    /// served bundle.
    pub(crate) fn new(
        hub: Arc<ObsHub>,
        band: Option<u32>,
        span: Duration,
        bundle: &ModelBundle,
        generation: u64,
    ) -> EngineObs {
        let band_label = match band {
            Some(j) => j.to_string(),
            None => "all".to_string(),
        };
        fn with_band<'a>(band: &'a str, extra: &[(&'a str, &'a str)]) -> Vec<(&'a str, &'a str)> {
            let mut l = vec![("band", band)];
            l.extend_from_slice(extra);
            l
        }
        let m = &hub.metrics;
        let hit_us = m.histogram(
            "ganc_engine_request_us",
            "Engine request latency by cache outcome (microseconds)",
            &with_band(&band_label, &[("result", "hit")]),
        );
        let miss_us = m.histogram(
            "ganc_engine_request_us",
            "Engine request latency by cache outcome (microseconds)",
            &with_band(&band_label, &[("result", "miss")]),
        );
        let batch_us = m.histogram(
            "ganc_engine_batch_us",
            "Engine batch latency (microseconds)",
            &with_band(&band_label, &[]),
        );
        let hit_total = m.counter(
            "ganc_engine_requests_total",
            "Engine requests by cache outcome",
            &with_band(&band_label, &[("result", "hit")]),
        );
        let miss_total = m.counter(
            "ganc_engine_requests_total",
            "Engine requests by cache outcome",
            &with_band(&band_label, &[("result", "miss")]),
        );
        let error_total = m.counter(
            "ganc_engine_errors_total",
            "Requests rejected by the engine (unknown user/item)",
            &with_band(&band_label, &[]),
        );
        let batch_users_total = m.counter(
            "ganc_engine_batch_users_total",
            "Users served through the batch path",
            &with_band(&band_label, &[]),
        );
        let ingest_total = m.counter(
            "ganc_engine_ingest_total",
            "Interactions ingested",
            &with_band(&band_label, &[]),
        );
        let swap_total = m.counter(
            "ganc_engine_swap_total",
            "Bundle hot-swaps completed",
            &with_band(&band_label, &[]),
        );
        let generation_gauge = m.gauge(
            "ganc_engine_generation",
            "Bundle generation currently served",
            &with_band(&band_label, &[]),
        );
        generation_gauge.set(generation as f64);
        let coverage_gauge = m.gauge(
            "ganc_window_coverage",
            "Rolling catalog coverage@N over served lists",
            &with_band(&band_label, &[]),
        );
        let novelty_gauge = m.gauge(
            "ganc_window_novelty_bits",
            "Rolling mean novelty of served items (-log2 popularity, bits)",
            &with_band(&band_label, &[]),
        );
        let tail_gauge = m.gauge(
            "ganc_window_long_tail_share",
            "Rolling share of served items from the long tail",
            &with_band(&band_label, &[]),
        );
        let lists_gauge = m.gauge(
            "ganc_window_lists",
            "Served lists currently inside the rolling window",
            &with_band(&band_label, &[]),
        );
        let window = Mutex::new(WindowState::new(span, bundle));
        EngineObs {
            hub,
            band,
            hit_us,
            miss_us,
            batch_us,
            hit_total,
            miss_total,
            error_total,
            batch_users_total,
            ingest_total,
            swap_total,
            generation_gauge,
            coverage_gauge,
            novelty_gauge,
            tail_gauge,
            lists_gauge,
            span,
            window,
        }
    }

    /// Clock read for stage timing.
    pub(crate) fn now_us(&self) -> u64 {
        self.hub.now_us()
    }

    fn observe_list(&self, at_us: u64, list: &[ItemId]) {
        let mut state = self.window.lock().unwrap();
        let WindowState { window, catalog } = &mut *state;
        window.observe(at_us, list.iter().map(|i| i.0), catalog);
    }

    /// One single-user request served (hit or computed).
    pub(crate) fn record_request(
        &self,
        t0_us: u64,
        user: u32,
        generation: u64,
        cache_hit: bool,
        list: &[ItemId],
    ) {
        let now = self.hub.now_us();
        let elapsed = now.saturating_sub(t0_us);
        if cache_hit {
            self.hit_us.observe_us(elapsed);
            self.hit_total.inc();
        } else {
            self.miss_us.observe_us(elapsed);
            self.miss_total.inc();
        }
        self.observe_list(now, list);
        self.hub.trace.record(
            now,
            TraceData::Request {
                request_id: 0,
                user,
                generation,
                band: self.band,
                cache_hit,
                elapsed_us: elapsed,
            },
        );
    }

    /// One rejected request (unknown user/item).
    pub(crate) fn record_error(&self) {
        self.error_total.inc();
    }

    /// One batch served: per-list window observations, batch latency, and
    /// per-result error attribution.
    pub(crate) fn record_batch(&self, t0_us: u64, generation: u64, results: &[Option<SlotAnswer>]) {
        let now = self.hub.now_us();
        let elapsed = now.saturating_sub(t0_us);
        self.batch_us.observe_us(elapsed);
        self.batch_users_total.add(results.len() as u64);
        let mut errors = 0u64;
        {
            let mut state = self.window.lock().unwrap();
            let WindowState { window, catalog } = &mut *state;
            for result in results {
                match result {
                    Some(Ok(list)) => window.observe(now, list.iter().map(|i| i.0), catalog),
                    Some(Err(_)) => errors += 1,
                    None => {}
                }
            }
        }
        self.error_total.add(errors);
        self.hub.trace.record(
            now,
            TraceData::Batch {
                users: results.len() as u32,
                generation,
                band: self.band,
                elapsed_us: elapsed,
            },
        );
    }

    /// One accepted ingest.
    pub(crate) fn record_ingest(&self, user: u32, item: u32) {
        self.ingest_total.inc();
        self.hub.trace.record(
            self.hub.now_us(),
            TraceData::Ingest {
                user,
                item,
                band: self.band,
            },
        );
    }

    /// A bundle hot-swap completed: bump the generation gauge, refreeze
    /// the catalog profile against the new bundle, and reset the window —
    /// the new generation serves a new point on the trade-off curve, and
    /// mixing pre-swap lists into its coverage/novelty attribution would
    /// blur exactly the signal the window exists to isolate. The fresh
    /// window is built before the lock and the old one freed after it.
    pub(crate) fn record_swap(&self, generation: u64, bundle: &ModelBundle) {
        self.swap_total.inc();
        self.generation_gauge.set(generation as f64);
        let fresh = WindowState::new(self.span, bundle);
        let old = std::mem::replace(&mut *self.window.lock().unwrap(), fresh);
        drop(old);
        self.hub.trace.record(
            self.hub.now_us(),
            TraceData::BundleSwap {
                band: self.band,
                generation,
            },
        );
    }

    /// Current rolling-window metrics; also publishes them as gauges so
    /// `/v1/metrics` and `/v1/stats` agree.
    pub(crate) fn window_stats(&self) -> WindowStats {
        let now = self.hub.now_us();
        let stats = self.window.lock().unwrap().window.stats(now);
        self.publish(stats);
        stats
    }

    /// Expire + export this engine's window as a transportable summary
    /// (what `GET /v1/window` answers and every cross-band union folds),
    /// publishing the gauges alongside.
    pub(crate) fn window_wire(&self) -> WindowWire {
        let now = self.hub.now_us();
        let wire = self.window.lock().unwrap().window.wire(now);
        self.publish(wire.stats());
        wire
    }

    fn publish(&self, stats: WindowStats) {
        self.coverage_gauge.set(stats.coverage);
        self.novelty_gauge.set(stats.mean_novelty_bits);
        self.tail_gauge.set(stats.long_tail_share);
        self.lists_gauge.set(stats.lists as f64);
    }
}
