//! The metrics registry: atomic counters and gauges plus log-linear
//! latency histograms with percentile extraction, snapshotted into a
//! [`MetricsReport`] with JSON and Prometheus-text exporters.
//!
//! # Hot-path cost model
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`s around plain
//! atomics: recording is a handful of relaxed atomic operations and **never
//! allocates**, so instrumented hot loops stay allocation-free (the root
//! `alloc_regression` suite pins this). The registry itself is only locked
//! on registration (get-or-create by name) and on snapshot — both cold
//! paths.
//!
//! # Histogram layout
//!
//! [`Histogram`] buckets values (by convention: latencies in nanoseconds)
//! log-linearly, HDR-style: values below 16 get exact unit buckets; above,
//! each power-of-two octave is split into 8 equal sub-buckets, so any
//! recorded value lands in a bucket whose width is at most 1/8 of its lower
//! bound (≤ 12.5 % relative quantile error, exact below 16). 496 buckets
//! cover the full `u64` range. Quantiles report the bucket's upper bound
//! clamped to the exact recorded maximum — they never under-report.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Values below this get exact unit-width buckets.
const LINEAR_MAX: u64 = 16;
/// Sub-buckets per power-of-two octave above [`LINEAR_MAX`].
const SUB_BUCKETS: usize = 8;
/// 16 exact buckets + 60 octaves × 8 sub-buckets cover all of `u64`.
const NUM_BUCKETS: usize = 496;

/// The bucket a value lands in.
fn bucket_index(value: u64) -> usize {
    if value < LINEAR_MAX {
        value as usize
    } else {
        let msb = 63 - value.leading_zeros() as usize; // ≥ 4
        let shift = msb - 3;
        shift * SUB_BUCKETS + (value >> shift) as usize // (v >> shift) ∈ [8, 16)
    }
}

/// Inclusive lower bound of a bucket.
fn bucket_lower(index: usize) -> u64 {
    if index < LINEAR_MAX as usize {
        index as u64
    } else {
        let shift = index / SUB_BUCKETS - 1;
        let sub = (index - shift * SUB_BUCKETS) as u64; // ∈ [8, 16)
        sub << shift
    }
}

/// Width of a bucket (its value count).
fn bucket_width(index: usize) -> u64 {
    if index < LINEAR_MAX as usize {
        1
    } else {
        1u64 << (index / SUB_BUCKETS - 1)
    }
}

/// A monotonically increasing `u64` counter. Cloning shares the underlying
/// atomic — hold the clone in your hot structure and `inc` it lock-free.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable signed gauge (queue depths, live counts).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Adds a (possibly negative) delta.
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

struct HistogramInner {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// A log-linear latency histogram (see the [module docs](self) for the
/// bucket layout). Recording is a few relaxed atomic adds; quantile
/// extraction walks the 496 buckets and is meant for snapshots, not hot
/// paths.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Default for Histogram {
    fn default() -> Self {
        let buckets: Vec<AtomicU64> = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Self {
            inner: Arc::new(HistogramInner {
                buckets: buckets.into_boxed_slice(),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                max: AtomicU64::new(0),
            }),
        }
    }
}

impl Histogram {
    /// Records one value (by convention, nanoseconds). Lock- and
    /// allocation-free.
    pub fn record(&self, value: u64) {
        self.inner.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(value, Ordering::Relaxed);
        self.inner.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records `count` occurrences of the same value in one shot — four
    /// relaxed atomic operations total instead of four per occurrence.
    /// This is the flush half of a local-tally pattern: a hot loop that
    /// would otherwise record millions of identical samples (wait-free
    /// schedule readers tallying staleness per read) counts locally and
    /// flushes here at its own cadence. No-op when `count` is 0.
    pub fn record_many(&self, value: u64, count: u64) {
        if count == 0 {
            return;
        }
        self.inner.buckets[bucket_index(value)].fetch_add(count, Ordering::Relaxed);
        self.inner.count.fetch_add(count, Ordering::Relaxed);
        self.inner
            .sum
            .fetch_add(value.saturating_mul(count), Ordering::Relaxed);
        self.inner.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a duration as nanoseconds (saturating).
    pub fn record_duration(&self, duration: Duration) {
        self.record(duration.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// Exact maximum recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.inner.max.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0 < q ≤ 1`) of the recorded values: the upper
    /// bound of the bucket holding the rank-`⌈q·count⌉` value, clamped to
    /// the exact maximum — exact for values below 16, within 12.5 % above.
    /// Returns 0 when the histogram is empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cumulative = 0u64;
        for (i, bucket) in self.inner.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            if cumulative >= rank {
                let upper = bucket_lower(i) + (bucket_width(i) - 1);
                return upper.min(self.max());
            }
        }
        // Snapshot raced with a concurrent record: fall back to the max.
        self.max()
    }

    /// A consistent-enough point-in-time summary (concurrent records may
    /// land between the atomic reads; totals are exact once writers pause).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.snapshot().fmt(f)
    }
}

/// Point-in-time summary of one [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Exact maximum recorded value.
    pub max: u64,
    /// Median (bucket-resolution; see [`Histogram::quantile`]).
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: Mutex<BTreeMap<&'static str, Counter>>,
    gauges: Mutex<BTreeMap<&'static str, Gauge>>,
    histograms: Mutex<BTreeMap<&'static str, Histogram>>,
}

/// A cloneable handle to one shared metrics namespace. Registration
/// (get-or-create by static name) takes a short mutex; the returned
/// handles are lock-free. [`ObsRegistry::snapshot`] freezes everything
/// into a [`MetricsReport`].
#[derive(Clone, Default)]
pub struct ObsRegistry {
    inner: Arc<RegistryInner>,
}

impl ObsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter registered under `name`, created on first use.
    pub fn counter(&self, name: &'static str) -> Counter {
        self.inner
            .counters
            .lock()
            .expect("obs counter lock poisoned")
            .entry(name)
            .or_default()
            .clone()
    }

    /// The gauge registered under `name`, created on first use.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        self.inner
            .gauges
            .lock()
            .expect("obs gauge lock poisoned")
            .entry(name)
            .or_default()
            .clone()
    }

    /// The histogram registered under `name`, created on first use.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        self.inner
            .histograms
            .lock()
            .expect("obs histogram lock poisoned")
            .entry(name)
            .or_default()
            .clone()
    }

    /// Snapshots every registered metric into a [`MetricsReport`]
    /// (name-sorted; histogram quantiles computed now).
    pub fn snapshot(&self) -> MetricsReport {
        let counters = self
            .inner
            .counters
            .lock()
            .expect("obs counter lock poisoned")
            .iter()
            .map(|(&name, c)| (name.to_string(), c.get()))
            .collect();
        let gauges = self
            .inner
            .gauges
            .lock()
            .expect("obs gauge lock poisoned")
            .iter()
            .map(|(&name, g)| (name.to_string(), g.get()))
            .collect();
        let histograms = self
            .inner
            .histograms
            .lock()
            .expect("obs histogram lock poisoned")
            .iter()
            .map(|(&name, h)| (name.to_string(), h.snapshot()))
            .collect();
        MetricsReport {
            counters,
            gauges,
            histograms,
        }
    }
}

impl std::fmt::Debug for ObsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.snapshot().fmt(f)
    }
}

/// A frozen snapshot of one [`ObsRegistry`]: every counter, gauge and
/// histogram summary, name-sorted, with JSON and Prometheus exporters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsReport {
    /// Counters by name.
    pub counters: Vec<(String, u64)>,
    /// Gauges by name.
    pub gauges: Vec<(String, i64)>,
    /// Histogram summaries by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// Minimal JSON string escape (metric names are plain identifiers, but the
/// exporter must never emit malformed JSON).
fn escape_json(name: &str, out: &mut String) {
    for c in name.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Rewrites a metric name into the Prometheus exposition charset
/// (`[a-zA-Z0-9_]`, with a `netsched_` prefix).
fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 9);
    out.push_str("netsched_");
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
    out
}

impl MetricsReport {
    /// The counter recorded under `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The gauge recorded under `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The histogram summary recorded under `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Renders the report as one JSON document:
    /// `{"counters":{...},"gauges":{...},"histograms":{name:{count,sum,max,p50,p95,p99}}}`.
    /// All values are integers (histograms are in nanoseconds), so the
    /// document round-trips through any JSON parser without float drift.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_json(name, &mut out);
            out.push_str(&format!("\":{value}"));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_json(name, &mut out);
            out.push_str(&format!("\":{value}"));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_json(name, &mut out);
            out.push_str(&format!(
                "\":{{\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                h.count, h.sum, h.max, h.p50, h.p95, h.p99
            ));
        }
        out.push_str("}}");
        out
    }

    /// Renders the report in the Prometheus text exposition format:
    /// counters and gauges as their native types, histograms as summaries
    /// with `quantile` labels plus `_sum`/`_count`/`_max` series. Names
    /// are prefixed `netsched_` and sanitized to the exposition charset;
    /// histogram values are nanoseconds.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(256);
        for (name, value) in &self.counters {
            let name = prometheus_name(name);
            out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
        }
        for (name, value) in &self.gauges {
            let name = prometheus_name(name);
            out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
        }
        for (name, h) in &self.histograms {
            let name = prometheus_name(name);
            out.push_str(&format!(
                "# TYPE {name} summary\n\
                 {name}{{quantile=\"0.5\"}} {}\n\
                 {name}{{quantile=\"0.95\"}} {}\n\
                 {name}{{quantile=\"0.99\"}} {}\n\
                 {name}_sum {}\n\
                 {name}_count {}\n\
                 {name}_max {}\n",
                h.p50, h.p95, h.p99, h.sum, h.count, h.max
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_below_16_and_nest_above() {
        // The linear range: one bucket per value.
        for v in 0..LINEAR_MAX {
            let i = bucket_index(v);
            assert_eq!(i, v as usize);
            assert_eq!(bucket_lower(i), v);
            assert_eq!(bucket_width(i), 1);
        }
        // Every bucket's range contains exactly the values that index into
        // it, and consecutive buckets tile the number line.
        for i in 0..NUM_BUCKETS {
            let lower = bucket_lower(i);
            assert_eq!(bucket_index(lower), i, "lower bound of bucket {i}");
            let upper = lower + (bucket_width(i) - 1);
            assert_eq!(bucket_index(upper), i, "upper bound of bucket {i}");
            if i + 1 < NUM_BUCKETS {
                assert_eq!(bucket_lower(i + 1), upper + 1, "tiling at bucket {i}");
            } else {
                assert_eq!(upper, u64::MAX);
            }
        }
        // Octave boundaries land on fresh buckets.
        for shift in 4..64 {
            let v = 1u64 << shift;
            assert_eq!(bucket_lower(bucket_index(v)), v);
            assert_eq!(bucket_index(v), bucket_index(v - 1) + 1);
        }
        // Relative bucket error is bounded by 1/8 everywhere.
        for i in LINEAR_MAX as usize..NUM_BUCKETS {
            assert!(bucket_width(i) * 8 <= bucket_lower(i));
        }
    }

    #[test]
    fn percentiles_are_exact_in_the_linear_range() {
        let h = Histogram::default();
        // 1..=15, ten of each: ranks are exact because buckets are exact.
        for v in 1..=15u64 {
            for _ in 0..10 {
                h.record(v);
            }
        }
        assert_eq!(h.count(), 150);
        assert_eq!(h.sum(), 10 * (1..=15u64).sum::<u64>());
        assert_eq!(h.max(), 15);
        assert_eq!(h.quantile(0.5), 8); // rank 75 → the 8th decile block
        assert_eq!(h.quantile(1.0 / 150.0), 1);
        assert_eq!(h.quantile(1.0), 15);
        let snap = h.snapshot();
        assert_eq!(snap.p50, 8);
        assert_eq!(snap.p95, 15); // rank ⌈142.5⌉ = 143 → value 15
        assert_eq!(snap.p99, 15);
        assert!((snap.mean() - h.sum() as f64 / 150.0).abs() < 1e-12);
    }

    #[test]
    fn percentiles_above_the_linear_range_stay_within_bucket_error() {
        let h = Histogram::default();
        for v in [100u64, 1_000, 10_000, 100_000, 1_000_000] {
            h.record(v);
        }
        for q in [0.5, 0.95, 0.99] {
            let got = h.quantile(q);
            assert!(got <= h.max());
            assert!(got > 0);
        }
        // p99 of 5 values is the max bucket, clamped to the exact max.
        assert_eq!(h.quantile(0.99), 1_000_000);
        // The median (rank 3) is 10_000's bucket: within 12.5 % above it.
        let p50 = h.quantile(0.5);
        assert!((10_000..=11_250).contains(&p50), "p50 = {p50}");
    }

    #[test]
    fn record_many_is_equivalent_to_repeated_records() {
        let a = Histogram::default();
        let b = Histogram::default();
        for _ in 0..37 {
            a.record(1_000);
        }
        a.record(5);
        b.record_many(1_000, 37);
        b.record_many(5, 1);
        b.record_many(9_999, 0); // no-op
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(b.count(), 38);
        assert_eq!(b.sum(), 37 * 1_000 + 5);
    }

    #[test]
    fn empty_histograms_report_zeroes() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
    }

    #[test]
    fn registry_handles_share_state_by_name() {
        let reg = ObsRegistry::new();
        let a = reg.counter("epochs");
        let b = reg.counter("epochs");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("epochs").get(), 3);
        reg.gauge("depth").set(-4);
        assert_eq!(reg.gauge("depth").get(), -4);
        reg.histogram("lat").record(7);
        assert_eq!(reg.histogram("lat").count(), 1);
        let report = reg.snapshot();
        assert_eq!(report.counter("epochs"), Some(3));
        assert_eq!(report.gauge("depth"), Some(-4));
        assert_eq!(report.histogram("lat").unwrap().max, 7);
        assert_eq!(report.counter("missing"), None);
    }

    #[test]
    fn concurrent_recording_keeps_totals_exact() {
        let reg = ObsRegistry::new();
        const THREADS: u64 = 8;
        const OPS: u64 = 10_000;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let counter = reg.counter("ops");
                let gauge = reg.gauge("last");
                let hist = reg.histogram("values");
                scope.spawn(move || {
                    for i in 0..OPS {
                        counter.inc();
                        gauge.set(i as i64);
                        hist.record(t * OPS + i);
                    }
                });
            }
        });
        let report = reg.snapshot();
        assert_eq!(report.counter("ops"), Some(THREADS * OPS));
        let h = report.histogram("values").unwrap();
        assert_eq!(h.count, THREADS * OPS);
        // Σ (t·OPS + i) over all threads and iterations, exactly.
        let expected: u64 = (0..THREADS)
            .map(|t| (0..OPS).map(|i| t * OPS + i).sum::<u64>())
            .sum();
        assert_eq!(h.sum, expected);
        assert_eq!(h.max, THREADS * OPS - 1);
    }

    #[test]
    fn exporters_render_every_metric() {
        let reg = ObsRegistry::new();
        reg.counter("wal.append_retries").add(2);
        reg.gauge("service.queue_depth").set(5);
        reg.histogram("epoch.step_ns").record(12);
        let report = reg.snapshot();

        let json = report.to_json();
        assert!(json.contains("\"wal.append_retries\":2"), "{json}");
        assert!(json.contains("\"service.queue_depth\":5"), "{json}");
        assert!(json.contains("\"epoch.step_ns\":{"), "{json}");
        assert!(json.contains("\"p99\":12"), "{json}");

        let prom = report.to_prometheus();
        assert!(
            prom.contains("# TYPE netsched_wal_append_retries counter"),
            "{prom}"
        );
        assert!(prom.contains("netsched_service_queue_depth 5"), "{prom}");
        assert!(
            prom.contains("netsched_epoch_step_ns{quantile=\"0.99\"} 12"),
            "{prom}"
        );
        assert!(prom.contains("netsched_epoch_step_ns_count 1"), "{prom}");
    }
}
