//! # ganc-obs — zero-dependency observability for the GANC serving stack
//!
//! Three pillars, all reading time through one injectable [`Clock`] seam
//! so every signal is deterministic under [`ManualClock`]:
//!
//! 1. **Metrics** ([`metrics`]): lock-free atomic counters, gauges, and
//!    log₂-spaced-µs latency histograms in a [`MetricsRegistry`] that
//!    renders Prometheus text exposition format for `GET /v1/metrics`.
//! 2. **Tracing** ([`trace`]): a bounded drop-oldest ring of structured
//!    [`TraceData`] events — request outcomes, cache hits, ingest,
//!    refit/hot-swap lifecycle — drained by `GET /v1/trace`.
//! 3. **Rolling beyond-accuracy windows** ([`window`]): sliding-window
//!    catalog coverage@N, mean novelty (−log₂ popularity), and long-tail
//!    share over served top-N lists, O(1)-amortized per served item,
//!    surfaced through `/v1/stats`.
//!
//! [`ObsHub`] bundles the three with a shared clock and a request-id
//! source; serving components hold cheap `Arc` handles into it.

pub mod clock;
pub mod metrics;
pub mod trace;
pub mod window;

pub use clock::{Background, Clock, ManualClock, SystemClock};
pub use metrics::{
    bucket_bounds_us, Counter, Gauge, Histogram, MetricsRegistry, HISTOGRAM_BUCKETS,
};
pub use trace::{TraceData, TraceEvent, TraceRing, DEFAULT_TRACE_CAPACITY};
pub use window::{CatalogProfile, RollingWindow, WindowStats, WindowWire};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One process-wide observability hub: metric registry + trace ring +
/// the clock they stamp time with, plus a request-id source.
pub struct ObsHub {
    /// The metric store rendered at `/v1/metrics`.
    pub metrics: MetricsRegistry,
    /// The event ring drained at `/v1/trace`.
    pub trace: TraceRing,
    clock: Arc<dyn Clock>,
    request_ids: AtomicU64,
}

impl ObsHub {
    /// A hub on the production [`SystemClock`].
    pub fn new() -> Arc<ObsHub> {
        ObsHub::with_clock(Arc::new(SystemClock::new()))
    }

    /// A hub on an injected clock (tests pass a [`ManualClock`]).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Arc<ObsHub> {
        Arc::new(ObsHub {
            metrics: MetricsRegistry::new(),
            trace: TraceRing::new(),
            clock,
            request_ids: AtomicU64::new(0),
        })
    }

    /// The shared clock seam.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Current time in microseconds since the clock origin.
    pub fn now_us(&self) -> u64 {
        self.clock.now().as_micros() as u64
    }

    /// Next unique request id (1-based).
    pub fn next_request_id(&self) -> u64 {
        self.request_ids.fetch_add(1, Ordering::Relaxed) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn hub_stamps_time_from_the_injected_clock() {
        let clock = Arc::new(ManualClock::new());
        let hub = ObsHub::with_clock(Arc::clone(&clock) as Arc<dyn Clock>);
        assert_eq!(hub.now_us(), 0);
        clock.advance(Duration::from_millis(2));
        assert_eq!(hub.now_us(), 2000);
        hub.trace
            .record(hub.now_us(), TraceData::RefitSwapped { generation: 1 });
        assert_eq!(hub.trace.snapshot()[0].at_us, 2000);
    }

    #[test]
    fn request_ids_are_unique_and_one_based() {
        let hub = ObsHub::new();
        assert_eq!(hub.next_request_id(), 1);
        assert_eq!(hub.next_request_id(), 2);
    }
}
