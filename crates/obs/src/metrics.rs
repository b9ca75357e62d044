//! Named counters, gauges, and fixed-bucket histograms.
//!
//! Handles are `Arc`-backed and cheap to clone; hot-path updates are a
//! single atomic op (counters) or a CAS loop (float gauges/sums), so the
//! registry can sit on scoring and serve hot paths without a lock.
//!
//! Metric names follow the Prometheus idiom: `snake_case` families with an
//! optional `{label="value"}` suffix encoded directly in the name string
//! (e.g. `harl_serve_requests_total{verb="submit"}`). [`MetricsRegistry::render`]
//! groups series by the family prefix so each family gets one `# TYPE` line.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing `u64` counter.
#[derive(Debug, Clone)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    fn new() -> Self {
        Counter {
            value: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A settable `f64` gauge (stored as bit pattern in an `AtomicU64`).
#[derive(Debug, Clone)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    fn new() -> Self {
        Gauge {
            bits: Arc::new(AtomicU64::new(0f64.to_bits())),
        }
    }

    /// Sets the gauge to `v`.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` (CAS loop; lock-free).
    pub fn add(&self, delta: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self
                .bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramInner {
    /// Upper bounds of each bucket, strictly increasing. An implicit
    /// `+Inf` bucket catches everything above the last bound.
    bounds: Vec<f64>,
    /// One slot per bound plus the `+Inf` overflow slot.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of observed values, stored as f64 bits (CAS-updated).
    sum_bits: AtomicU64,
}

/// A fixed-bucket histogram of `f64` observations.
///
/// Buckets are cumulative on render (Prometheus `le` semantics) but stored
/// per-interval internally so an observation touches exactly one bucket.
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            inner: Arc::new(HistogramInner {
                bounds: bounds.to_vec(),
                buckets,
                count: AtomicU64::new(0),
                sum_bits: AtomicU64::new(0f64.to_bits()),
            }),
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let idx = self
            .inner
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.inner.bounds.len());
        self.inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.inner.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.inner.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.inner.sum_bits.load(Ordering::Relaxed))
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) from the bucket counts by
    /// linear interpolation inside the containing bucket — the usual
    /// Prometheus `histogram_quantile` scheme. Observations above the last
    /// bound clamp to that bound (there is no upper edge to interpolate
    /// toward), and an empty histogram reports 0.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * total as f64).max(1.0);
        let mut acc = 0u64;
        let mut lower = 0.0f64;
        for (i, &bound) in self.inner.bounds.iter().enumerate() {
            let in_bucket = self.inner.buckets[i].load(Ordering::Relaxed);
            if (acc + in_bucket) as f64 >= rank {
                if in_bucket == 0 {
                    return bound;
                }
                let frac = (rank - acc as f64) / in_bucket as f64;
                return lower + (bound - lower) * frac;
            }
            acc += in_bucket;
            lower = bound;
        }
        lower
    }

    /// Cumulative counts per bound (`le` semantics), excluding `+Inf`.
    pub fn cumulative(&self) -> Vec<(f64, u64)> {
        let mut acc = 0u64;
        self.inner
            .bounds
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                acc += self.inner.buckets[i].load(Ordering::Relaxed);
                (b, acc)
            })
            .collect()
    }
}

/// Default histogram bounds for operation latencies, in seconds.
///
/// Spans five orders of magnitude: sub-millisecond scoring batches up to
/// multi-second tuning rounds.
pub const SECONDS_BOUNDS: &[f64] = &[
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
    5.0, 10.0,
];

/// Finer histogram bounds for wire-level latencies, in seconds.
///
/// Loopback request/response round trips and event-loop dispatch sit in
/// the tens-of-microseconds to low-milliseconds range, below the useful
/// resolution of [`SECONDS_BOUNDS`]; these bounds keep p50/p99 quantile
/// estimates meaningful there (used by `harl_serve::net` and `bench-load`).
pub const FINE_SECONDS_BOUNDS: &[f64] = &[
    0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5,
];

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A registry of named metrics.
///
/// Cloning the registry clones the `Arc`; all clones see the same series.
/// Registration is idempotent: asking for an existing name returns a
/// handle to the same underlying value (panics if the kind differs — that
/// is a naming bug, not a runtime condition).
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    series: Arc<Mutex<BTreeMap<String, Metric>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Returns the counter named `name`, creating it if absent.
    pub fn counter(&self, name: &str) -> Counter {
        let mut series = self.series.lock().expect("metrics registry poisoned");
        match series
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::new()))
        {
            Metric::Counter(c) => c.clone(),
            other => panic!("metric {name:?} already registered as {}", kind_name(other)),
        }
    }

    /// Returns the gauge named `name`, creating it if absent.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut series = self.series.lock().expect("metrics registry poisoned");
        match series
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::new()))
        {
            Metric::Gauge(g) => g.clone(),
            other => panic!("metric {name:?} already registered as {}", kind_name(other)),
        }
    }

    /// Returns the histogram named `name`, creating it with `bounds` if
    /// absent. Bounds are fixed at first registration; later callers get
    /// the existing buckets regardless of the bounds they pass.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        let mut series = self.series.lock().expect("metrics registry poisoned");
        match series
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::new(bounds)))
        {
            Metric::Histogram(h) => h.clone(),
            other => panic!("metric {name:?} already registered as {}", kind_name(other)),
        }
    }

    /// Renders every series as Prometheus text exposition format.
    ///
    /// Series sharing a family (name up to the first `{`) are grouped
    /// under one `# TYPE` header; BTreeMap ordering makes the output
    /// deterministic.
    pub fn render(&self) -> String {
        let series = self.series.lock().expect("metrics registry poisoned");
        let mut out = String::new();
        let mut last_family = String::new();
        for (name, metric) in series.iter() {
            let family = name.split('{').next().unwrap_or(name);
            if family != last_family {
                let kind = match metric {
                    Metric::Counter(_) => "counter",
                    Metric::Gauge(_) => "gauge",
                    Metric::Histogram(_) => "histogram",
                };
                out.push_str(&format!("# TYPE {family} {kind}\n"));
                last_family = family.to_string();
            }
            match metric {
                Metric::Counter(c) => {
                    out.push_str(&format!("{name} {}\n", c.get()));
                }
                Metric::Gauge(g) => {
                    out.push_str(&format!("{name} {}\n", fmt_f64(g.get())));
                }
                Metric::Histogram(h) => {
                    let (base, labels) = split_labels(name);
                    let mut acc = 0u64;
                    for (i, &b) in h.inner.bounds.iter().enumerate() {
                        acc += h.inner.buckets[i].load(Ordering::Relaxed);
                        out.push_str(&format!(
                            "{base}_bucket{} {acc}\n",
                            merge_labels(labels, &format!("le=\"{}\"", fmt_f64(b)))
                        ));
                    }
                    out.push_str(&format!(
                        "{base}_bucket{} {}\n",
                        merge_labels(labels, "le=\"+Inf\""),
                        h.count()
                    ));
                    out.push_str(&format!(
                        "{base}_sum{} {}\n",
                        labels.map(|l| format!("{{{l}}}")).unwrap_or_default(),
                        fmt_f64(h.sum())
                    ));
                    out.push_str(&format!(
                        "{base}_count{} {}\n",
                        labels.map(|l| format!("{{{l}}}")).unwrap_or_default(),
                        h.count()
                    ));
                }
            }
        }
        out
    }
}

fn kind_name(m: &Metric) -> &'static str {
    match m {
        Metric::Counter(_) => "counter",
        Metric::Gauge(_) => "gauge",
        Metric::Histogram(_) => "histogram",
    }
}

/// Splits `family{labels}` into `(family, Some(labels))`.
fn split_labels(name: &str) -> (&str, Option<&str>) {
    match name.split_once('{') {
        Some((base, rest)) => (base, Some(rest.trim_end_matches('}'))),
        None => (name, None),
    }
}

/// Combines existing labels with an extra label into one `{...}` block.
fn merge_labels(existing: Option<&str>, extra: &str) -> String {
    match existing {
        Some(l) if !l.is_empty() => format!("{{{l},{extra}}}"),
        _ => format!("{{{extra}}}"),
    }
}

/// Formats a float the way Prometheus expects: integral values without a
/// trailing `.0`, everything else via shortest-repr `{}`.
fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// The process-global registry used by components that cannot thread a
/// registry handle through their constructors (store I/O, GBT retrains
/// and scored candidates, serve dispatch). `harl-cli metrics` and the serve `metrics` verb render
/// this registry.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_adds_and_shares_across_clones() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("hits_total");
        let b = reg.counter("hits_total");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
        assert_eq!(reg.counter("hits_total").get(), 5);
    }

    #[test]
    fn gauge_set_and_add() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("depth");
        g.set(3.0);
        g.add(-1.5);
        assert!((g.get() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_values_at_boundaries() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat", &[1.0, 2.0, 5.0]);
        // exactly on a bound counts into that bound (le semantics)
        h.observe(1.0);
        h.observe(1.5);
        h.observe(2.0);
        h.observe(10.0); // overflow -> +Inf only
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 14.5).abs() < 1e-12);
        assert_eq!(h.cumulative(), vec![(1.0, 1), (2.0, 3), (5.0, 3)]);
    }

    #[test]
    fn histogram_negative_and_zero_fall_in_first_bucket() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("t", &[0.5, 1.0]);
        h.observe(0.0);
        h.observe(-3.0);
        assert_eq!(h.cumulative(), vec![(0.5, 2), (1.0, 2)]);
    }

    #[test]
    fn render_groups_labeled_series_under_one_family() {
        let reg = MetricsRegistry::new();
        reg.counter("req_total{verb=\"a\"}").add(2);
        reg.counter("req_total{verb=\"b\"}").inc();
        let text = reg.render();
        assert_eq!(text.matches("# TYPE req_total counter").count(), 1);
        assert!(text.contains("req_total{verb=\"a\"} 2\n"));
        assert!(text.contains("req_total{verb=\"b\"} 1\n"));
    }

    #[test]
    fn render_histogram_is_cumulative_with_inf() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat_seconds", &[0.1, 1.0]);
        h.observe(0.05);
        h.observe(0.5);
        h.observe(2.0);
        let text = reg.render();
        assert!(text.contains("# TYPE lat_seconds histogram"));
        assert!(text.contains("lat_seconds_bucket{le=\"0.1\"} 1\n"));
        assert!(text.contains("lat_seconds_bucket{le=\"1\"} 2\n"));
        assert!(text.contains("lat_seconds_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("lat_seconds_count 3\n"));
    }

    #[test]
    fn quantile_interpolates_within_buckets() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("q", &[1.0, 2.0, 4.0]);
        // 100 observations spread evenly through (1, 2]
        for i in 0..100 {
            h.observe(1.0 + (i as f64 + 0.5) / 100.0);
        }
        let p50 = h.quantile(0.5);
        assert!(
            (1.4..=1.6).contains(&p50),
            "p50 of a uniform (1,2] sample ~ 1.5, got {p50}"
        );
        let p99 = h.quantile(0.99);
        assert!((1.9..=2.0).contains(&p99), "p99 near 2.0, got {p99}");
    }

    #[test]
    fn quantile_handles_empty_and_overflow() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("q2", &[1.0, 2.0]);
        assert_eq!(h.quantile(0.5), 0.0, "empty histogram reports 0");
        h.observe(50.0); // lands in +Inf
        assert_eq!(
            h.quantile(0.99),
            2.0,
            "overflow observations clamp to the last bound"
        );
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x");
        reg.gauge("x");
    }
}
