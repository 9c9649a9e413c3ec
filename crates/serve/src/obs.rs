//! Engine-side observability: per-band metric handles, trace events, and
//! the rolling beyond-accuracy windows, attached to a [`ServingEngine`]
//! after construction.
//!
//! Attachment is optional and one-shot (`OnceLock`): an un-attached
//! engine pays one atomic load per request and nothing else. When
//! attached, a cache hit adds one coarse clock read (the kernel-tick stamp
//! of its window entry, [`ObsHub::coarse_us`]) and one short mutex hold to
//! feed the rolling window; the hit itself is counted once, by the
//! engine's own counts, which `/v1/metrics` reads. One request in
//! [`HIT_SAMPLE`] on the cacheable path is also timed — a precise clock
//! read before the cache probe and one after — and, if it hits, lands in
//! the hit latency histogram and the trace; a miss is always timed and
//! traced. The miss's cost is what `ci/stack_guard.py` bounds at ≤ 1.15×
//! the un-instrumented cold path (`obs.miss_overhead_us` over
//! `serve.engine.miss_us`), the hit's at ≤ 3× the bare hit.
//!
//! That mutex hold copies the served list's ids straight from the
//! engine's shared list into the window's flat id queue: a hit (recorded
//! on the event-loop thread) allocates nothing, a batch stages nothing,
//! and a hot-swap builds its fresh window before taking the lock and frees
//! the old one after releasing it, so no hit waits behind a free.
//!
//! What the engine already counts or holds is not copied here: the
//! request and ingest counters, the served generation and the window
//! gauges are series read from the engine's counts and this attachment
//! when `/v1/metrics` renders ([`EngineObs::register_reads`]). The
//! counters here count only what the engine does not: errors, batch slots
//! and swaps. Both live as long as the engine, across every install
//! ([`ServingEngine::swap_bundle`], or a sharded refit swapping a band's
//! slice into the band's engine).
//!
//! Lock discipline: every `EngineObs` lock is a leaf — taken after the
//! engine's state/cache locks, never before, and never while calling back
//! into the engine.

use crate::engine::{Counts, SlotAnswer};
use ganc_dataset::stats::LongTail;
use ganc_dataset::ItemId;
use ganc_obs::{
    CatalogProfile, Counter, Histogram, ObsHub, RollingWindow, TraceData, WindowStats, WindowWire,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// One request in this many on the cacheable path is timed, and a timed
/// hit is the only hit that reaches the latency histogram and the trace.
/// A hit costs ≈ 50 ns, inside the histogram's first bucket, so timing
/// every one would record almost nothing at twice the clock reads.
pub(crate) const HIT_SAMPLE: u64 = 64;

/// HELP text of `ganc_engine_request_us`: both outcomes share one series
/// name, so one text.
const REQUEST_US_HELP: &str = "Engine request latency by cache outcome (microseconds); \
    hits are timed 1 in 64, so a hit series' _count is a sample count";

/// Build the frozen per-item catalog facts (novelty micro-bits, long-tail
/// membership at the paper's Pareto cut) for one bundle generation from its
/// train set's `popularity` (counted once by the caller, who also hands it
/// to the engine state) and `n_users`. It reads only the train set, which
/// every θ band of a generation shares, so a sharded engine builds one per
/// generation and hands it to every band.
pub(crate) fn catalog_profile(popularity: &[u32], n_users: u32) -> Arc<CatalogProfile> {
    let tail = LongTail::from_popularity(popularity, LongTail::PARETO);
    Arc::new(CatalogProfile::from_popularity(
        popularity,
        n_users,
        tail.mask().to_vec(),
    ))
}

/// The rolling window, the catalog profile it scores against, and the
/// bundle generation whose lists it holds. The profile is frozen per
/// bundle generation (rebuilt on hot-swap, *not* on every ingest — novelty
/// attribution stays stable between fits, exactly like the fitted Pop
/// scores the paper's metrics are defined over).
struct WindowState {
    window: RollingWindow,
    catalog: Arc<CatalogProfile>,
    generation: u64,
}

impl WindowState {
    /// An empty window of `span` over `catalog`.
    fn new(span: Duration, catalog: Arc<CatalogProfile>, generation: u64) -> WindowState {
        WindowState {
            window: RollingWindow::new(span, catalog.n_items()),
            catalog,
            generation,
        }
    }

    /// Record one served list, streaming its ids into the window.
    fn observe(&mut self, at_us: u64, list: &[ItemId]) {
        let ids = list.iter().map(|i| i.0);
        self.window.observe(at_us, ids, &self.catalog);
    }
}

/// HELP texts of the engine's series that share one name across labels,
/// or whose text outgrows a line.
const REQUESTS_HELP: &str = "Engine requests by cache outcome (a batch counts each slot)";
const BATCH_US_HELP: &str = "Engine batch latency (microseconds)";
const ERRORS_HELP: &str = "Requests rejected by the engine (unknown user/item)";
const BATCH_USERS_HELP: &str = "Users served through the batch path";

/// A gauge's name, HELP text and read.
type ReadGauge = (&'static str, &'static str, fn(&EngineObs) -> f64);

/// The gauges read from an attached engine's [`EngineObs`] at render:
/// the served generation and the rolling window.
const READ_GAUGES: [ReadGauge; 5] = [
    (
        "ganc_engine_generation",
        "Bundle generation currently served",
        |o| o.generation() as f64,
    ),
    (
        "ganc_window_coverage",
        "Rolling catalog coverage@N over served lists",
        |o| o.window_stats().coverage,
    ),
    (
        "ganc_window_novelty_bits",
        "Rolling mean novelty of served items (-log2 popularity, bits)",
        |o| o.window_stats().mean_novelty_bits,
    ),
    (
        "ganc_window_long_tail_share",
        "Rolling share of served items from the long tail",
        |o| o.window_stats().long_tail_share,
    ),
    (
        "ganc_window_lists",
        "Served lists currently inside the rolling window",
        |o| o.window_stats().lists as f64,
    ),
];

/// The `band` label value: the band's index, or `all` for an unbanded
/// engine.
fn band_label(band: Option<u32>) -> String {
    band.map_or_else(|| "all".to_string(), |j| j.to_string())
}

/// `band` first, then `extra`.
fn with_band<'a>(band: &'a str, extra: &[(&'a str, &'a str)]) -> Vec<(&'a str, &'a str)> {
    let mut l = vec![("band", band)];
    l.extend_from_slice(extra);
    l
}

/// Per-engine observability handles. Cheap to use, built once per attach.
pub(crate) struct EngineObs {
    hub: Arc<ObsHub>,
    band: Option<u32>,
    hit_us: Arc<Histogram>,
    miss_us: Arc<Histogram>,
    batch_us: Arc<Histogram>,
    error_total: Arc<Counter>,
    batch_users_total: Arc<Counter>,
    swap_total: Arc<Counter>,
    /// Cacheable requests seen, for picking one in [`HIT_SAMPLE`].
    cacheable: AtomicU64,
    /// The rolling window's span, kept outside the lock so a hot-swap can
    /// build the replacement window before taking it.
    span: Duration,
    window: Mutex<WindowState>,
}

impl EngineObs {
    /// Register this engine's stored metric series and start the rolling
    /// window over the served generation's `catalog`. The series read from
    /// the engine's tally are [`EngineObs::register_reads`]'s.
    pub(crate) fn new(
        hub: Arc<ObsHub>,
        band: Option<u32>,
        span: Duration,
        catalog: Arc<CatalogProfile>,
        generation: u64,
    ) -> EngineObs {
        let band_label = band_label(band);
        let labels = with_band(&band_label, &[]);
        let m = &hub.metrics;
        let request_us = |result| {
            let labels = with_band(&band_label, &[("result", result)]);
            m.histogram("ganc_engine_request_us", REQUEST_US_HELP, &labels)
        };
        let counter = |name, help| m.counter(name, help, &labels);
        EngineObs {
            hit_us: request_us("hit"),
            miss_us: request_us("miss"),
            batch_us: m.histogram("ganc_engine_batch_us", BATCH_US_HELP, &labels),
            error_total: counter("ganc_engine_errors_total", ERRORS_HELP),
            batch_users_total: counter("ganc_engine_batch_users_total", BATCH_USERS_HELP),
            swap_total: counter("ganc_engine_swap_total", "Bundle hot-swaps completed"),
            cacheable: AtomicU64::new(0),
            span,
            window: Mutex::new(WindowState::new(span, catalog, generation)),
            band,
            hub,
        }
    }

    /// Precise clock read: the start of a timed stage.
    pub(crate) fn now_us(&self) -> u64 {
        self.hub.now_us()
    }

    /// Count one request on the cacheable path, before its cache probe:
    /// the first and every [`HIT_SAMPLE`]th after it is timed, and gets
    /// its start time here; the rest get `None`.
    pub(crate) fn sample(&self) -> Option<u64> {
        let k = self.cacheable.fetch_add(1, Ordering::Relaxed);
        k.is_multiple_of(HIT_SAMPLE).then(|| self.hub.now_us())
    }

    fn observe_list(&self, at_us: u64, list: &[ItemId]) {
        self.window.lock().unwrap().observe(at_us, list);
    }

    fn trace_request(&self, at_us: u64, user: u32, generation: u64, hit: bool, elapsed_us: u64) {
        self.hub.trace.record(
            at_us,
            TraceData::Request {
                request_id: 0,
                user,
                generation,
                band: self.band,
                cache_hit: hit,
                elapsed_us,
            },
        );
    }

    /// One single-user request computed (a miss), timed from `t0_us`.
    pub(crate) fn record_request(&self, t0_us: u64, user: u32, generation: u64, list: &[ItemId]) {
        let elapsed = self.hub.now_us().saturating_sub(t0_us);
        self.miss_us.observe_us(elapsed);
        let at = self.hub.coarse_us();
        self.observe_list(at, list);
        self.trace_request(at, user, generation, false, elapsed);
    }

    /// One single-user request answered from the cache (the tally counted
    /// it). Windowed always; timed and traced only when
    /// [`EngineObs::sample`] picked it (`t0_us` is its start).
    pub(crate) fn record_hit(
        &self,
        t0_us: Option<u64>,
        user: u32,
        generation: u64,
        list: &[ItemId],
    ) {
        let at = self.hub.coarse_us();
        self.observe_list(at, list);
        if let Some(t0) = t0_us {
            let elapsed = self.hub.now_us().saturating_sub(t0);
            self.hit_us.observe_us(elapsed);
            self.trace_request(at, user, generation, true, elapsed);
        }
    }

    /// One rejected request (unknown user/item).
    pub(crate) fn record_error(&self) {
        self.error_total.inc();
    }

    /// One batch served: per-list window observations, batch latency, and
    /// per-result error attribution.
    pub(crate) fn record_batch(&self, t0_us: u64, generation: u64, results: &[Option<SlotAnswer>]) {
        let elapsed = self.hub.now_us().saturating_sub(t0_us);
        let now = self.hub.coarse_us();
        self.batch_us.observe_us(elapsed);
        self.batch_users_total.add(results.len() as u64);
        let mut errors = 0u64;
        {
            let mut state = self.window.lock().unwrap();
            for result in results {
                match result {
                    Some(Ok(list)) => state.observe(now, list),
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

    /// One accepted ingest (the tally counted it).
    pub(crate) fn record_ingest(&self, user: u32, item: u32) {
        self.hub.trace.record(
            self.hub.coarse_us(),
            TraceData::Ingest {
                user,
                item,
                band: self.band,
            },
        );
    }

    /// A bundle hot-swap to `generation` completed: score against the new
    /// bundle's frozen `catalog` and reset the window — the new generation
    /// serves a new point on the trade-off curve, and mixing pre-swap lists
    /// into its coverage/novelty attribution would blur exactly the signal
    /// the window exists to isolate. The fresh window is built before the
    /// lock and the old one freed after it.
    pub(crate) fn record_swap(&self, generation: u64, catalog: Arc<CatalogProfile>) {
        self.swap_total.inc();
        let fresh = WindowState::new(self.span, catalog, generation);
        let old = std::mem::replace(&mut *self.window.lock().unwrap(), fresh);
        drop(old);
        self.hub.trace.record(
            self.hub.coarse_us(),
            TraceData::BundleSwap {
                band: self.band,
                generation,
            },
        );
    }

    /// The generation whose lists the window holds: the one served.
    fn generation(&self) -> u64 {
        self.window.lock().unwrap().generation
    }

    /// Current rolling-window metrics.
    pub(crate) fn window_stats(&self) -> WindowStats {
        let now = self.hub.coarse_us();
        self.window.lock().unwrap().window.stats(now)
    }

    /// Expire + export this engine's window as a transportable summary
    /// (what `GET /v1/window` answers and every cross-band union folds).
    pub(crate) fn window_wire(&self) -> WindowWire {
        let now = self.hub.coarse_us();
        self.window.lock().unwrap().window.wire(now)
    }

    /// Register the series `/v1/metrics` reads from an engine's `counts`
    /// and `slot` when it renders: the request and ingest counts (held like
    /// a registry counter, so they outlive the engine), the served
    /// generation and the rolling window (held weakly: this obs holds the
    /// hub). Called once, by the attach that set `slot`.
    pub(crate) fn register_reads(counts: &Arc<Counts>, slot: &Arc<OnceLock<EngineObs>>) {
        let obs = slot.get().expect("registered by the attach that set it");
        let band = band_label(obs.band);
        let m = &obs.hub.metrics;
        let count = |c: fn(&Counts) -> &AtomicU64| {
            let counts = Arc::clone(counts);
            move || c(&counts).load(Ordering::Relaxed)
        };
        for (result, c) in [("hit", count(|c| &c.hits)), ("miss", count(|c| &c.misses))] {
            let labels = with_band(&band, &[("result", result)]);
            m.read_counter("ganc_engine_requests_total", REQUESTS_HELP, &labels, c);
        }
        let labels = with_band(&band, &[]);
        let ingested = count(|c| &c.ingested);
        m.read_counter(
            "ganc_engine_ingest_total",
            "Interactions ingested",
            &labels,
            ingested,
        );
        for (name, help, read) in READ_GAUGES {
            let obs = Arc::downgrade(slot);
            let read = move || obs.upgrade().and_then(|o| o.get().map(read)).unwrap_or(0.0);
            m.read_gauge(name, help, &labels, read);
        }
    }
}

#[cfg(test)]
impl EngineObs {
    /// The catalog profile the window scores against.
    pub(crate) fn catalog(&self) -> Arc<CatalogProfile> {
        Arc::clone(&self.window.lock().unwrap().catalog)
    }
}
