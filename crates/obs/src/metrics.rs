//! Lock-free metric primitives and a registry that renders them in
//! Prometheus text exposition format (version 0.0.4).
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`s of plain
//! atomics: the hot path touches one or two `Relaxed` atomic ops and no
//! locks. The registry's `RwLock` is only taken when a handle is first
//! created or when `/v1/metrics` renders — never per-request once the
//! handles are cached by the instrumented component.
//!
//! A count or a state a component already keeps is not copied into a
//! handle: [`MetricsRegistry::read_counter`] / [`MetricsRegistry::read_gauge`]
//! register a series whose value is read from its owner when the registry
//! renders, so the exposition and the owner's own view are one number.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Last-write-wins floating-point value (stored as f64 bits).
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Overwrite the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Number of finite histogram buckets (upper bounds `1, 2, 4, …, 2^24` µs).
pub const HISTOGRAM_BUCKETS: usize = 25;

/// The finite bucket upper bounds in microseconds: powers of two from
/// 1 µs to 2^24 µs (≈ 16.8 s). Anything slower lands in `+Inf`.
pub fn bucket_bounds_us() -> [u64; HISTOGRAM_BUCKETS] {
    let mut bounds = [0u64; HISTOGRAM_BUCKETS];
    for (i, b) in bounds.iter_mut().enumerate() {
        *b = 1u64 << i;
    }
    bounds
}

/// Fixed-bucket log₂-spaced latency histogram over microseconds.
///
/// An observation costs two `Relaxed` `fetch_add`s (bucket + sum); the
/// bucket index is a leading-zeros computation, no search.
#[derive(Debug)]
pub struct Histogram {
    /// `counts[i]` for i < `HISTOGRAM_BUCKETS` is the count of
    /// observations with `prev_bound < v <= 2^i` µs; the last slot is
    /// the `+Inf` overflow bucket.
    counts: [AtomicU64; HISTOGRAM_BUCKETS + 1],
    sum_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_us: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one latency observation, in microseconds.
    pub fn observe_us(&self, us: u64) {
        let idx = if us <= 1 {
            0
        } else {
            // ceil(log2(us)): the smallest i with 2^i >= us.
            let ceil_log2 = (64 - (us - 1).leading_zeros()) as usize;
            ceil_log2.min(HISTOGRAM_BUCKETS)
        };
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Record a [`std::time::Duration`].
    pub fn observe(&self, d: std::time::Duration) {
        self.observe_us(d.as_micros() as u64);
    }

    /// Per-bucket (non-cumulative) counts; the final entry is `+Inf`.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observed values, in microseconds.
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

impl MetricKind {
    fn prom(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// A series value read from its owner at render.
type Read = Arc<dyn Fn() -> f64 + Send + Sync>;

#[derive(Clone)]
enum Series {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
    /// One reader per registration of the key; renders their sum.
    Read(Vec<Read>),
}

#[derive(Clone)]
struct Family {
    help: &'static str,
    kind: MetricKind,
    /// Keyed by the rendered (sorted) label set, e.g. `{band="0"}`; the
    /// BTreeMap makes exposition order deterministic.
    series: BTreeMap<String, Series>,
}

/// Central metric store: names + label sets → shared atomic handles.
#[derive(Default)]
pub struct MetricsRegistry {
    families: RwLock<BTreeMap<String, Family>>,
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .enumerate()
            .all(|(i, b)| b == b'_' || b.is_ascii_alphabetic() || (i > 0 && b.is_ascii_digit()))
}

/// Escape a label value per the exposition format.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Render a label set as `{a="x",b="y"}` with keys sorted; empty set
/// renders as the empty string.
fn label_key(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut sorted: Vec<(&str, &str)> = labels.to_vec();
    sorted.sort_unstable();
    let mut out = String::from("{");
    for (i, (k, v)) in sorted.iter().enumerate() {
        assert!(valid_name(k), "invalid label name {k:?}");
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&escape_label(v));
        out.push('"');
    }
    out.push('}');
    out
}

/// Merge an extra label (`le` for histogram buckets) into a rendered
/// label set.
fn with_extra_label(rendered: &str, key: &str, value: &str) -> String {
    if rendered.is_empty() {
        format!("{{{key}=\"{value}\"}}")
    } else {
        let body = &rendered[1..rendered.len() - 1];
        format!("{{{body},{key}=\"{value}\"}}")
    }
}

fn format_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Run `at` on the series `name{labels}`, creating it (and its family)
    /// with `make` when absent. Panics if `name` is registered as another
    /// kind.
    fn with_series<R>(
        &self,
        name: &str,
        help: &'static str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Series,
        at: impl FnOnce(&mut Series) -> Option<R>,
    ) -> R {
        assert!(valid_name(name), "invalid metric name {name:?}");
        let key = label_key(labels);
        let mut families = self.families.write().unwrap();
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help,
            kind,
            series: BTreeMap::new(),
        });
        assert_eq!(
            family.kind, kind,
            "metric {name} already registered with kind {:?}",
            family.kind
        );
        let series = family.series.entry(key).or_insert_with(make);
        at(series).unwrap_or_else(|| panic!("{name} is registered both stored and read"))
    }

    /// Register `name{labels}` as `read`, called at every render after the
    /// registry's lock is released. A key registered more than once
    /// renders the sum of its reads, as get-or-create handles share one
    /// atomic.
    fn read_series(
        &self,
        name: &str,
        help: &'static str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        read: Read,
    ) {
        let add = |s: &mut Series| match s {
            Series::Read(readers) => {
                readers.push(read);
                Some(())
            }
            _ => None,
        };
        self.with_series(name, help, kind, labels, || Series::Read(Vec::new()), add);
    }

    /// Register the counter `name{labels}` as `read`: the count its owner
    /// keeps for its own view, rendered without a copy. The registry keeps
    /// `read` as long as it lives, so `read` may hold a count cell
    /// strongly — the count then outlives its component, as a
    /// get-or-create [`Counter`] does — but must hold weakly anything that
    /// holds this registry, or neither is ever freed.
    pub fn read_counter(
        &self,
        name: &str,
        help: &'static str,
        labels: &[(&str, &str)],
        read: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        let read = Arc::new(move || read() as f64);
        self.read_series(name, help, MetricKind::Counter, labels, read);
    }

    /// Register the gauge `name{labels}` as `read`: its owner's current
    /// state, read at each render instead of pushed. The same ownership
    /// rule as [`MetricsRegistry::read_counter`]; a state owner held
    /// weakly reads 0 once it is gone.
    pub fn read_gauge(
        &self,
        name: &str,
        help: &'static str,
        labels: &[(&str, &str)],
        read: impl Fn() -> f64 + Send + Sync + 'static,
    ) {
        self.read_series(name, help, MetricKind::Gauge, labels, Arc::new(read));
    }

    /// Get or create the counter `name` with `labels`.
    pub fn counter(&self, name: &str, help: &'static str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.with_series(
            name,
            help,
            MetricKind::Counter,
            labels,
            || Series::Counter(Arc::new(Counter::default())),
            |s| match s {
                Series::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
        )
    }

    /// Get or create the gauge `name` with `labels`.
    pub fn gauge(&self, name: &str, help: &'static str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.with_series(
            name,
            help,
            MetricKind::Gauge,
            labels,
            || Series::Gauge(Arc::new(Gauge::default())),
            |s| match s {
                Series::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
        )
    }

    /// Get or create the histogram `name` with `labels`.
    pub fn histogram(
        &self,
        name: &str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        self.with_series(
            name,
            help,
            MetricKind::Histogram,
            labels,
            || Series::Histogram(Arc::new(Histogram::default())),
            |s| match s {
                Series::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
        )
    }

    /// Render every registered metric in Prometheus text exposition
    /// format. Family and series order is deterministic (sorted). The
    /// series are collected under the registry's lock and read after it is
    /// released: a read series may take its owner's locks, and an owner may
    /// be registering a series while it holds them.
    pub fn render(&self) -> String {
        let bounds = bucket_bounds_us();
        let families = self.families.read().unwrap().clone();
        let mut out = String::new();
        for (name, family) in families.iter() {
            out.push_str(&format!("# HELP {name} {}\n", family.help));
            out.push_str(&format!("# TYPE {name} {}\n", family.kind.prom()));
            for (labels, series) in family.series.iter() {
                match series {
                    Series::Counter(c) => {
                        out.push_str(&format!("{name}{labels} {}\n", c.get()));
                    }
                    Series::Gauge(g) => {
                        out.push_str(&format!("{name}{labels} {}\n", format_value(g.get())));
                    }
                    Series::Read(readers) => {
                        let v: f64 = readers.iter().map(|read| read()).sum();
                        out.push_str(&format!("{name}{labels} {}\n", format_value(v)));
                    }
                    Series::Histogram(h) => {
                        let counts = h.bucket_counts();
                        let mut cumulative = 0u64;
                        for (i, n) in counts.iter().enumerate() {
                            cumulative += n;
                            let le = if i < HISTOGRAM_BUCKETS {
                                bounds[i].to_string()
                            } else {
                                "+Inf".to_string()
                            };
                            let lbl = with_extra_label(labels, "le", &le);
                            out.push_str(&format!("{name}_bucket{lbl} {cumulative}\n"));
                        }
                        out.push_str(&format!("{name}_sum{labels} {}\n", h.sum_us()));
                        out.push_str(&format!("{name}_count{labels} {cumulative}\n"));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_round_trip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("ganc_test_total", "help", &[("band", "0")]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name+labels returns the same underlying atomic.
        let c2 = reg.counter("ganc_test_total", "help", &[("band", "0")]);
        c2.inc();
        assert_eq!(c.get(), 6);
        let g = reg.gauge("ganc_test_gauge", "help", &[]);
        g.set(0.25);
        assert_eq!(g.get(), 0.25);
    }

    #[test]
    fn histogram_buckets_are_ceil_log2() {
        let h = Histogram::default();
        // 1 µs -> bucket 0 (le=1); 2 -> 1 (le=2); 3 -> 2 (le=4); 16 -> 4.
        for us in [0, 1, 2, 3, 16, 17] {
            h.observe_us(us);
        }
        let counts = h.bucket_counts();
        assert_eq!(counts[0], 2); // 0 and 1
        assert_eq!(counts[1], 1); // 2
        assert_eq!(counts[2], 1); // 3
        assert_eq!(counts[4], 1); // 16
        assert_eq!(counts[5], 1); // 17
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum_us(), 39);
        // Far beyond the last finite bound lands in +Inf.
        h.observe_us(u64::MAX / 2);
        assert_eq!(h.bucket_counts()[HISTOGRAM_BUCKETS], 1);
    }

    #[test]
    fn render_is_sorted_and_cumulative() {
        let reg = MetricsRegistry::new();
        reg.counter("ganc_b_total", "second", &[("x", "1")]).inc();
        reg.counter("ganc_a_total", "first", &[]).add(2);
        let h = reg.histogram("ganc_lat_us", "latency", &[("band", "0")]);
        h.observe_us(3);
        h.observe_us(100);
        let text = reg.render();
        let a = text.find("ganc_a_total").unwrap();
        let b = text.find("ganc_b_total").unwrap();
        assert!(a < b, "families must render sorted");
        assert!(text.contains("# TYPE ganc_lat_us histogram"));
        assert!(text.contains("ganc_lat_us_bucket{band=\"0\",le=\"4\"} 1"));
        assert!(text.contains("ganc_lat_us_bucket{band=\"0\",le=\"128\"} 2"));
        assert!(text.contains("ganc_lat_us_bucket{band=\"0\",le=\"+Inf\"} 2"));
        assert!(text.contains("ganc_lat_us_sum{band=\"0\"} 103"));
        assert!(text.contains("ganc_lat_us_count{band=\"0\"} 2"));
    }

    #[test]
    fn label_values_are_escaped() {
        let reg = MetricsRegistry::new();
        reg.counter("ganc_esc_total", "h", &[("p", "a\"b\\c\nd")])
            .inc();
        let text = reg.render();
        assert!(text.contains("p=\"a\\\"b\\\\c\\nd\""));
    }

    #[test]
    fn read_series_render_their_owners_now_summed_per_key() {
        let reg = MetricsRegistry::new();
        let a = Arc::new(AtomicU64::new(3));
        let b = Arc::new(AtomicU64::new(4));
        for owner in [&a, &b] {
            let owner = Arc::clone(owner);
            let read = move || owner.load(Ordering::Relaxed);
            reg.read_counter("ganc_r_total", "h", &[("band", "0")], read);
        }
        let state = Arc::new(AtomicU64::new(5));
        let weak = Arc::downgrade(&state);
        let read = move || {
            weak.upgrade()
                .map_or(0.0, |s| s.load(Ordering::Relaxed) as f64 / 2.0)
        };
        reg.read_gauge("ganc_r_gauge", "h", &[], read);
        a.store(5, Ordering::Relaxed);
        let text = reg.render();
        assert!(text.contains("# TYPE ganc_r_total counter"));
        assert!(text.contains("ganc_r_total{band=\"0\"} 9"), "{text}");
        assert!(text.contains("ganc_r_gauge 2.5"), "{text}");
        // A count held strongly outlives its owner's handle; a state held
        // weakly reads 0 once it is gone.
        drop((a, state));
        let text = reg.render();
        assert!(text.contains("ganc_r_total{band=\"0\"} 9"), "{text}");
        assert!(text.contains("ganc_r_gauge 0"), "{text}");
    }

    #[test]
    fn a_read_series_may_use_the_registry_while_it_renders() {
        let reg = Arc::new(MetricsRegistry::new());
        let weak = Arc::downgrade(&reg);
        reg.read_counter("ganc_reentrant_total", "h", &[], move || {
            let reg = weak.upgrade().unwrap();
            reg.counter("ganc_inner_total", "h", &[]).inc();
            1
        });
        assert!(reg.render().contains("ganc_reentrant_total 1"));
        assert!(reg.render().contains("ganc_inner_total 1"));
    }

    #[test]
    #[should_panic(expected = "registered both stored and read")]
    fn a_key_is_either_stored_or_read() {
        let reg = MetricsRegistry::new();
        reg.read_counter("ganc_both_total", "h", &[], || 0);
        reg.counter("ganc_both_total", "h", &[]);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("ganc_dup", "h", &[]);
        reg.gauge("ganc_dup", "h", &[]);
    }
}
