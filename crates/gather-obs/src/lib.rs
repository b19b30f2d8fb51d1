//! # gather-obs
//!
//! The workspace's observability layer: a process-wide **metrics
//! registry** (atomic counters, gauges and log-linear histograms), a
//! per-thread **structured trace** ring ([`trace`]), and a plain-TCP
//! **telemetry endpoint** ([`endpoint`]) serving hand-rolled Prometheus
//! text exposition.
//!
//! The crate is std-only by design — the offline workspace vendors its
//! few external dependencies, and an observability layer that pulled in a
//! metrics framework would defeat the point. Everything here is built
//! from `std::sync::atomic` plus one registration mutex.
//!
//! ## Design rules
//!
//! * **Hot paths touch atomics only.** Registration (name lookup, `Arc`
//!   allocation) happens once, typically in a `OnceLock` at a call site;
//!   after that [`Counter::inc`], [`Gauge::add`] and
//!   [`Histogram::record`] are single relaxed atomic RMW operations.
//!   The engine's allocation-free steady-state tests run with metrics
//!   enabled and stay allocation-free.
//! * **Names are the schema.** Metrics are registered by name; a name
//!   may carry a Prometheus-style label suffix
//!   (`coord_rows_total{daemon="127.0.0.1:7177"}`) which the
//!   exposition renderer passes through verbatim.
//! * **Snapshots are plain data.** [`MetricsSnapshot`] is a flat,
//!   JSON-roundtrippable value so it can ride the sweep-service wire
//!   protocol (`Request::Metrics` / `Response::Metrics`) unchanged.
//!
//! See `docs/OBSERVABILITY.md` for the metric name inventory and the
//! trace schema.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod endpoint;
pub mod trace;

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// A monotonically increasing counter. All operations are relaxed
/// atomics — safe from any thread, allocation-free, and cheap enough for
/// per-cell and per-round hot paths.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (queue depth, cells in flight,
/// connection count). Same cost model as [`Counter`].
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (negative to decrease).
    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Decrements by one.
    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of buckets in every [`Histogram`].
///
/// The layout is log-linear: values `0..8` get one exact bucket each,
/// then every power-of-two range `[2^e, 2^(e+1))` for `e in 3..=63` is
/// split into 4 linear sub-buckets — `8 + 61*4 = 252` buckets, covering
/// the whole `u64` range with a worst-case relative error of 25%.
pub const HISTOGRAM_BUCKETS: usize = 252;

/// Maps a recorded value to its bucket. Monotone in `v`.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < 8 {
        return v as usize;
    }
    let exp = 63 - u64::from(v.leading_zeros()); // 3..=63
    let idx = (exp - 3) * 4 + ((v >> (exp - 2)) & 3) + 8;
    (idx as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i` (the value reported for
/// quantiles that land in it, and the `le` edge in exposition output).
fn bucket_bound(i: usize) -> u64 {
    if i < 8 {
        return i as u64;
    }
    let j = (i - 8) as u64;
    let exp = j / 4 + 3;
    let frac = j % 4;
    let lo = 1u128 << exp;
    let width = 1u128 << (exp - 2);
    let hi = lo + (u128::from(frac) + 1) * width - 1;
    hi.min(u128::from(u64::MAX)) as u64
}

/// A fixed-size log-linear histogram: 252 atomic buckets, a count and a
/// sum. Recording is three relaxed atomic adds — no locks, no
/// allocation. Quantiles are answered from the bucket cumulative walk
/// and report the bucket's upper bound (≤ 25% relative error).
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Records a duration in microseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0.0..=1.0`) as the upper bound of the bucket
    /// holding the rank-`ceil(q*count)` observation; `0` when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_bound(i);
            }
        }
        bucket_bound(HISTOGRAM_BUCKETS - 1)
    }

    /// `(bucket upper bound, count)` for every non-empty bucket, in
    /// ascending order.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((bucket_bound(i), n))
            })
            .collect()
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A named collection of metrics.
///
/// Registration (`counter`/`gauge`/`histogram`) takes a mutex and is
/// idempotent — asking for an existing name returns the same handle, so
/// call sites cache the `Arc` in a `OnceLock` and pay the lock once per
/// process. Reads ([`snapshot`](Registry::snapshot) /
/// [`render_prometheus`](Registry::render_prometheus)) take the same
/// mutex briefly to walk the list; the handles themselves are read with
/// relaxed loads.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<Vec<(String, Metric)>>,
}

impl Registry {
    /// An empty registry (for tests or scoped subsystems).
    pub fn new() -> Self {
        Registry::default()
    }

    /// The process-wide registry every tier of the stack records into.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    fn register<T>(
        &self,
        name: &str,
        wrap: impl FnOnce(&Metric) -> Option<Arc<T>>,
        make: impl FnOnce() -> (Metric, Arc<T>),
    ) -> Arc<T> {
        let mut metrics = self.metrics.lock().expect("metrics registry poisoned");
        if let Some((_, m)) = metrics.iter().find(|(n, _)| n == name) {
            return wrap(m).unwrap_or_else(|| {
                panic!("metric `{name}` already registered with a different type")
            });
        }
        let (metric, handle) = make();
        metrics.push((name.to_string(), metric));
        handle
    }

    /// The counter registered under `name`, creating it on first use.
    ///
    /// Panics if `name` is already registered as a different metric type
    /// (a programming error: names are the schema).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.register(
            name,
            |m| match m {
                Metric::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
            || {
                let c = Arc::new(Counter::default());
                (Metric::Counter(Arc::clone(&c)), c)
            },
        )
    }

    /// The gauge registered under `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.register(
            name,
            |m| match m {
                Metric::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
            || {
                let g = Arc::new(Gauge::default());
                (Metric::Gauge(Arc::clone(&g)), g)
            },
        )
    }

    /// The histogram registered under `name`, creating it on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.register(
            name,
            |m| match m {
                Metric::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
            || {
                let h = Arc::new(Histogram::default());
                (Metric::Histogram(Arc::clone(&h)), h)
            },
        )
    }

    /// A point-in-time copy of every registered metric, in registration
    /// order. Plain serializable data — this is what rides the wire as
    /// `Response::Metrics`.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let metrics = self.metrics.lock().expect("metrics registry poisoned");
        let samples = metrics
            .iter()
            .map(|(name, m)| {
                let mut s = MetricSample {
                    name: name.clone(),
                    kind: m.kind().to_string(),
                    value: 0,
                    count: 0,
                    sum: 0,
                    p50: 0,
                    p90: 0,
                    p99: 0,
                };
                match m {
                    Metric::Counter(c) => s.value = c.get().min(i64::MAX as u64) as i64,
                    Metric::Gauge(g) => s.value = g.get(),
                    Metric::Histogram(h) => {
                        s.count = h.count();
                        s.sum = h.sum();
                        s.p50 = h.quantile(0.50);
                        s.p90 = h.quantile(0.90);
                        s.p99 = h.quantile(0.99);
                    }
                }
                s
            })
            .collect();
        MetricsSnapshot { samples }
    }

    /// Renders the registry in Prometheus text exposition format
    /// (version 0.0.4). Hand-rolled: `# TYPE` line per metric family,
    /// then one sample line per series. Histograms emit cumulative
    /// `_bucket{le="..."}` lines for their non-empty buckets plus
    /// `+Inf`, `_sum` and `_count`.
    pub fn render_prometheus(&self) -> String {
        let metrics = self.metrics.lock().expect("metrics registry poisoned");
        let mut out = String::new();
        let mut last_family = String::new();
        for (name, m) in metrics.iter() {
            // A label suffix (`{daemon="..."}`) is part of the series
            // name but not of the family the TYPE line declares.
            let family = name.split('{').next().unwrap_or(name);
            if family != last_family {
                let _ = writeln!(out, "# TYPE {family} {}", m.kind());
                last_family = family.to_string();
            }
            match m {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "{name} {}", c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "{name} {}", g.get());
                }
                Metric::Histogram(h) => {
                    let mut cumulative = 0u64;
                    for (bound, n) in h.nonzero_buckets() {
                        cumulative += n;
                        let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
                    }
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
                    let _ = writeln!(out, "{name}_sum {}", h.sum());
                    let _ = writeln!(out, "{name}_count {}", h.count());
                }
            }
        }
        out
    }
}

/// One metric in a [`MetricsSnapshot`]. Histogram-only fields are zero
/// for counters and gauges, and `value` is zero for histograms — a flat
/// layout keeps the wire frame a simple derived struct.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricSample {
    /// Registered name, including any label suffix.
    pub name: String,
    /// `"counter"`, `"gauge"` or `"histogram"`.
    pub kind: String,
    /// Counter or gauge value (counters saturate at `i64::MAX`).
    pub value: i64,
    /// Histogram observation count.
    pub count: u64,
    /// Histogram sum of observed values.
    pub sum: u64,
    /// Histogram 50th percentile (bucket upper bound).
    pub p50: u64,
    /// Histogram 90th percentile.
    pub p90: u64,
    /// Histogram 99th percentile.
    pub p99: u64,
}

/// A point-in-time copy of a registry, as plain serializable data. This
/// is the payload of the sweep service's in-band `Response::Metrics`
/// frame and of `gather-submit --metrics`.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Every registered metric, in registration order.
    pub samples: Vec<MetricSample>,
}

impl MetricsSnapshot {
    /// The sample registered under `name`, if present.
    pub fn get(&self, name: &str) -> Option<&MetricSample> {
        self.samples.iter().find(|s| s.name == name)
    }

    /// The counter/gauge value under `name`, if present.
    pub fn value(&self, name: &str) -> Option<i64> {
        self.get(name).map(|s| s.value)
    }
}

static DETAIL: AtomicBool = AtomicBool::new(false);

fn env_detail() -> bool {
    static FROM_ENV: OnceLock<bool> = OnceLock::new();
    *FROM_ENV
        .get_or_init(|| std::env::var("GATHER_OBS_DETAIL").is_ok_and(|v| !v.is_empty() && v != "0"))
}

/// Opts in to detailed (per-phase) instrumentation process-wide: the
/// engine records per-round phase timing histograms only while this is
/// set. Off by default so the default hot path pays nothing beyond
/// end-of-run counter adds.
pub fn set_detail(enabled: bool) {
    DETAIL.store(enabled, Ordering::Relaxed);
}

/// Whether detailed instrumentation is on — via [`set_detail`] or the
/// `GATHER_OBS_DETAIL` environment variable (any non-empty value other
/// than `0`).
#[inline]
pub fn detail_enabled() -> bool {
    DETAIL.load(Ordering::Relaxed) || env_detail()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_count() {
        let r = Registry::new();
        let c = r.counter("c");
        let g = r.gauge("g");
        c.inc();
        c.add(41);
        g.set(7);
        g.add(-3);
        g.dec();
        assert_eq!(c.get(), 42);
        assert_eq!(g.get(), 3);
        // Re-registration returns the same handle.
        r.counter("c").inc();
        assert_eq!(c.get(), 43);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("x");
        let _ = r.gauge("x");
    }

    #[test]
    fn bucket_index_is_monotone_and_bounds_are_consistent() {
        let mut last = 0usize;
        for v in 0..100_000u64 {
            let i = bucket_index(v);
            assert!(i >= last, "index not monotone at {v}");
            last = i;
            assert!(bucket_bound(i) >= v, "bound below value at {v}");
            if i > 0 {
                assert!(bucket_bound(i - 1) < v, "previous bound not below {v}");
            }
        }
        // Spot-check the extremes.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_bound(HISTOGRAM_BUCKETS - 1), u64::MAX);
        for i in 1..HISTOGRAM_BUCKETS {
            assert!(bucket_bound(i) > bucket_bound(i - 1));
        }
    }

    #[test]
    fn histogram_quantiles_walk_buckets() {
        let h = Histogram::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        // Small exact buckets answer exactly; larger ones to bucket
        // resolution (≤ 25% relative error).
        assert_eq!(h.quantile(0.01), 1);
        let p50 = h.quantile(0.50);
        assert!((50..=63).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile(0.99);
        assert!((99..=127).contains(&p99), "p99 = {p99}");
        assert!(h.quantile(1.0) >= 100);
        assert_eq!(Histogram::default().quantile(0.5), 0);
    }

    #[test]
    fn concurrent_hammer_totals_are_exact() {
        let r = Registry::new();
        let c = r.counter("hammer_total");
        let g = r.gauge("hammer_depth");
        let h = r.histogram("hammer_hist");
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let (c, g, h) = (Arc::clone(&c), Arc::clone(&g), Arc::clone(&h));
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        c.inc();
                        g.inc();
                        g.dec();
                        h.record(i);
                    }
                });
            }
        });
        assert_eq!(c.get(), THREADS as u64 * PER_THREAD);
        assert_eq!(g.get(), 0);
        assert_eq!(h.count(), THREADS as u64 * PER_THREAD);
        // Sum of 0..PER_THREAD per thread.
        assert_eq!(
            h.sum(),
            THREADS as u64 * (PER_THREAD * (PER_THREAD - 1) / 2)
        );
        let snap = r.snapshot();
        assert_eq!(
            snap.value("hammer_total"),
            Some((THREADS as u64 * PER_THREAD) as i64)
        );
        assert_eq!(snap.value("hammer_depth"), Some(0));
        assert_eq!(
            snap.get("hammer_hist").unwrap().count,
            THREADS as u64 * PER_THREAD
        );
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let r = Registry::new();
        r.counter("a").add(5);
        r.gauge("b").set(-2);
        r.histogram("c").record(1000);
        let snap = r.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.value("a"), Some(5));
        assert_eq!(back.value("b"), Some(-2));
        assert_eq!(back.get("c").unwrap().count, 1);
    }

    #[test]
    fn prometheus_rendering_has_types_series_and_cumulative_buckets() {
        let r = Registry::new();
        r.counter("req_total").add(3);
        r.gauge("depth").set(2);
        let h = r.histogram("lat_micros");
        h.record(1);
        h.record(1);
        h.record(5);
        r.counter("rows_total{daemon=\"a:1\"}").add(7);
        r.counter("rows_total{daemon=\"b:2\"}").add(9);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE req_total counter"));
        assert!(text.contains("req_total 3"));
        assert!(text.contains("# TYPE depth gauge"));
        assert!(text.contains("depth 2"));
        assert!(text.contains("# TYPE lat_micros histogram"));
        assert!(text.contains("lat_micros_bucket{le=\"1\"} 2"));
        assert!(text.contains("lat_micros_bucket{le=\"5\"} 3"));
        assert!(text.contains("lat_micros_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("lat_micros_sum 7"));
        assert!(text.contains("lat_micros_count 3"));
        // Labeled series share one TYPE line for the family.
        assert_eq!(text.matches("# TYPE rows_total counter").count(), 1);
        assert!(text.contains("rows_total{daemon=\"a:1\"} 7"));
        assert!(text.contains("rows_total{daemon=\"b:2\"} 9"));
    }

    #[test]
    fn detail_flag_toggles() {
        assert!(!detail_enabled());
        set_detail(true);
        assert!(detail_enabled());
        set_detail(false);
        assert!(!detail_enabled());
    }
}
