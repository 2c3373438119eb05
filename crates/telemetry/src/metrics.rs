//! Named counters, gauges, and log-scale histograms.
//!
//! The hot path is lock-free: a [`Counter`] is one relaxed atomic add, a
//! [`Histogram`] record is three.  The registry mutex is touched only when
//! looking up or registering instruments by name and when snapshotting —
//! layers cache their handles once and never hit it again.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing event count.  Clones share the same cell;
/// use [`Counter::detached_copy`] for value-copy semantics (e.g. when a
/// simulated disk is checkpoint-cloned).
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn new() -> Counter {
        Counter::default()
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }

    /// A brand-new counter holding the current value — subsequent updates
    /// to either copy are independent.
    pub fn detached_copy(&self) -> Counter {
        Counter(Arc::new(AtomicU64::new(self.get())))
    }
}

/// A point-in-time signed value (sizes, epochs, configuration knobs).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    pub fn new() -> Gauge {
        Gauge::default()
    }

    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

const BUCKETS: usize = 64;

#[derive(Debug)]
struct HistInner {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistInner {
    fn default() -> HistInner {
        HistInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// A log₂-bucketed histogram of `u64` samples (latencies in ns, group
/// sizes in tracks, …).  Bucket 0 holds the value 0; bucket *i* ≥ 1 covers
/// `[2^(i-1), 2^i)`.  Clones share the same cells.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Arc<HistInner>);

#[inline]
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).min(BUCKETS - 1)
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    #[inline]
    pub fn record(&self, v: u64) {
        let h = &*self.0;
        h.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        h.count.fetch_add(1, Ordering::Relaxed);
        h.sum.fetch_add(v, Ordering::Relaxed);
        h.min.fetch_min(v, Ordering::Relaxed);
        h.max.fetch_max(v, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        let h = &*self.0;
        let count = h.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: h.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { h.min.load(Ordering::Relaxed) },
            max: h.max.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| h.buckets[i].load(Ordering::Relaxed)),
        }
    }

    pub fn reset(&self) {
        let h = &*self.0;
        for b in &h.buckets {
            b.store(0, Ordering::Relaxed);
        }
        h.count.store(0, Ordering::Relaxed);
        h.sum.store(0, Ordering::Relaxed);
        h.min.store(u64::MAX, Ordering::Relaxed);
        h.max.store(0, Ordering::Relaxed);
    }

    /// Merge a frozen snapshot into this histogram — journal replay uses
    /// this to reload a recorded baseline.  No-op for empty snapshots so
    /// the min sentinel stays untouched.
    pub fn load(&self, s: &HistogramSnapshot) {
        if s.count == 0 {
            return;
        }
        let h = &*self.0;
        for (i, &n) in s.buckets.iter().enumerate() {
            if n > 0 {
                h.buckets[i].fetch_add(n, Ordering::Relaxed);
            }
        }
        h.count.fetch_add(s.count, Ordering::Relaxed);
        h.sum.fetch_add(s.sum, Ordering::Relaxed);
        h.min.fetch_min(s.min, Ordering::Relaxed);
        h.max.fetch_max(s.max, Ordering::Relaxed);
    }

    /// A brand-new histogram holding a copy of the current contents.
    pub fn detached_copy(&self) -> Histogram {
        let src = &*self.0;
        let dst = HistInner {
            buckets: std::array::from_fn(|i| {
                AtomicU64::new(src.buckets[i].load(Ordering::Relaxed))
            }),
            count: AtomicU64::new(src.count.load(Ordering::Relaxed)),
            sum: AtomicU64::new(src.sum.load(Ordering::Relaxed)),
            min: AtomicU64::new(src.min.load(Ordering::Relaxed)),
            max: AtomicU64::new(src.max.load(Ordering::Relaxed)),
        };
        Histogram(Arc::new(dst))
    }
}

/// Frozen histogram contents.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    /// Smallest recorded sample (0 when empty); carried as-is through
    /// [`HistogramSnapshot::diff`].
    pub min: u64,
    /// Largest recorded sample; carried as-is through `diff`.
    pub max: u64,
    pub buckets: [u64; BUCKETS],
}

impl HistogramSnapshot {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `p`-quantile (p in 0..=1).
    pub fn quantile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (p.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return if i == 0 { 0 } else { 1u64.checked_shl(i as u32).unwrap_or(u64::MAX) };
            }
        }
        self.max
    }

    /// Samples recorded since `earlier` (count/sum/buckets subtract;
    /// min/max keep this snapshot's values).
    pub fn diff(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            min: self.min,
            max: self.max,
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_sub(earlier.buckets[i])),
        }
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// The process-wide instrument namespace.  Handles returned by the
/// `counter`/`gauge`/`histogram` lookups are shared: updating a handle
/// updates what `snapshot` reports.  Layers that already own their
/// instruments bind them with the `register_*` methods instead.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<RegistryInner>>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock().unwrap();
        inner.counters.entry(name.to_string()).or_default().clone()
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.lock().unwrap();
        inner.gauges.entry(name.to_string()).or_default().clone()
    }

    /// Get or create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut inner = self.inner.lock().unwrap();
        inner.histograms.entry(name.to_string()).or_default().clone()
    }

    /// Bind an existing counter under `name` (replacing any previous
    /// binding) so the owner's handle and the registry share one cell.
    pub fn register_counter(&self, name: &str, c: &Counter) {
        let mut inner = self.inner.lock().unwrap();
        inner.counters.insert(name.to_string(), c.clone());
    }

    /// Bind an existing gauge under `name`.
    pub fn register_gauge(&self, name: &str, g: &Gauge) {
        let mut inner = self.inner.lock().unwrap();
        inner.gauges.insert(name.to_string(), g.clone());
    }

    /// Bind an existing histogram under `name`.
    pub fn register_histogram(&self, name: &str, h: &Histogram) {
        let mut inner = self.inner.lock().unwrap();
        inner.histograms.insert(name.to_string(), h.clone());
    }

    /// Apply every binding in `batch` under one lock acquisition: a
    /// concurrent [`MetricsRegistry::snapshot`] observes either none of the
    /// batch or all of it, never a half-bound layer. Use this instead of a
    /// run of `register_*` calls when wiring a subsystem's instruments.
    pub fn register_batch(&self, batch: MetricsBatch) {
        let mut inner = self.inner.lock().unwrap();
        for (name, c) in batch.counters {
            inner.counters.insert(name, c);
        }
        for (name, g) in batch.gauges {
            inner.gauges.insert(name, g);
        }
        for (name, h) in batch.histograms {
            inner.histograms.insert(name, h);
        }
    }

    /// Freeze every instrument into a diffable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().unwrap();
        MetricsSnapshot {
            counters: inner.counters.iter().map(|(k, c)| (k.clone(), c.get())).collect(),
            gauges: inner.gauges.iter().map(|(k, g)| (k.clone(), g.get())).collect(),
            histograms: inner.histograms.iter().map(|(k, h)| (k.clone(), h.snapshot())).collect(),
        }
    }
}

/// A set of instrument bindings staged off-lock and applied atomically by
/// [`MetricsRegistry::register_batch`].
#[derive(Default)]
pub struct MetricsBatch {
    counters: Vec<(String, Counter)>,
    gauges: Vec<(String, Gauge)>,
    histograms: Vec<(String, Histogram)>,
}

impl MetricsBatch {
    pub fn new() -> MetricsBatch {
        MetricsBatch::default()
    }

    /// Stage a counter binding (the owner's cell and the registry will
    /// share it).
    pub fn counter(mut self, name: &str, c: &Counter) -> MetricsBatch {
        self.counters.push((name.to_string(), c.clone()));
        self
    }

    /// Stage a gauge binding.
    pub fn gauge(mut self, name: &str, g: &Gauge) -> MetricsBatch {
        self.gauges.push((name.to_string(), g.clone()));
        self
    }

    /// Stage a histogram binding.
    pub fn histogram(mut self, name: &str, h: &Histogram) -> MetricsBatch {
        self.histograms.push((name.to_string(), h.clone()));
        self
    }
}

/// A frozen view of every registered instrument.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Activity since `earlier`: counters and histograms subtract, gauges
    /// keep their current values.
    pub fn diff(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, &v)| {
                    (k.clone(), v.saturating_sub(earlier.counters.get(k).copied().unwrap_or(0)))
                })
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| match earlier.histograms.get(k) {
                    Some(e) => (k.clone(), h.diff(e)),
                    None => (k.clone(), h.clone()),
                })
                .collect(),
        }
    }

    /// Counter value by name, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value by name, 0 when absent.
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Histogram snapshot by name, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Human-readable aligned table of every instrument.
    pub fn render_table(&self) -> String {
        let width = self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .chain(self.histograms.keys())
            .map(|k| k.len())
            .max()
            .unwrap_or(0);
        let mut out = String::new();
        for (k, v) in &self.counters {
            let _ = writeln!(out, "{k:<width$}  {v}");
        }
        for (k, v) in &self.gauges {
            let _ = writeln!(out, "{k:<width$}  {v}");
        }
        for (k, h) in &self.histograms {
            let _ = writeln!(
                out,
                "{k:<width$}  count={} sum={} min={} max={} mean={:.1} p50<={} p95<={} p99<={}",
                h.count,
                h.sum,
                h.min,
                h.max,
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.95),
                h.quantile(0.99),
            );
        }
        out
    }

    /// One JSON object per line per instrument (no external deps; metric
    /// names are plain ASCII so escaping is restricted to `"` and `\`).
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            let _ = writeln!(
                out,
                "{{\"metric\":\"{}\",\"type\":\"counter\",\"value\":{v}}}",
                json_escape(k)
            );
        }
        for (k, v) in &self.gauges {
            let _ = writeln!(
                out,
                "{{\"metric\":\"{}\",\"type\":\"gauge\",\"value\":{v}}}",
                json_escape(k)
            );
        }
        for (k, h) in &self.histograms {
            let _ = writeln!(
                out,
                "{{\"metric\":\"{}\",\"type\":\"histogram\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                json_escape(k),
                h.count,
                h.sum,
                h.min,
                h.max,
                h.quantile(0.5),
                h.quantile(0.95),
                h.quantile(0.99),
            );
        }
        out
    }
}

/// Escape `s` for use inside a JSON string literal: quotes, backslashes
/// and every control character.  The one escaper the registry dump, the
/// journal and the doctor's bundle share.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_and_detach() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.add(3);
        b.inc();
        assert_eq!(reg.snapshot().counter("x"), 4);
        let d = a.detached_copy();
        d.add(10);
        assert_eq!(a.get(), 4, "detached copy is independent");
        assert_eq!(d.get(), 14);
    }

    #[test]
    fn register_binds_existing_handle() {
        let reg = MetricsRegistry::new();
        let owned = Counter::new();
        owned.add(7);
        reg.register_counter("layer.events", &owned);
        owned.inc();
        assert_eq!(reg.snapshot().counter("layer.events"), 8);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new();
        for v in [0u64, 1, 1, 3, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1105);
        assert_eq!((s.min, s.max), (0, 1000));
        assert_eq!(s.buckets[0], 1, "zero bucket");
        assert_eq!(s.buckets[1], 2, "[1,2)");
        assert_eq!(s.buckets[2], 1, "[2,4)");
        assert_eq!(s.buckets[7], 1, "[64,128)");
        assert_eq!(s.buckets[10], 1, "[512,1024)");
        assert!(s.quantile(0.5) <= 4);
        assert!(s.quantile(1.0) >= 1000 || s.quantile(1.0) == 1024);
    }

    #[test]
    fn snapshot_diff_subtracts() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("n");
        let h = reg.histogram("lat");
        c.add(5);
        h.record(10);
        let s0 = reg.snapshot();
        c.add(2);
        h.record(20);
        h.record(30);
        let d = reg.snapshot().diff(&s0);
        assert_eq!(d.counter("n"), 2);
        assert_eq!(d.histogram("lat").unwrap().count, 2);
        assert_eq!(d.histogram("lat").unwrap().sum, 50);
    }

    #[test]
    fn exporters_mention_every_metric() {
        let reg = MetricsRegistry::new();
        reg.counter("a.b").inc();
        reg.gauge("g").set(-3);
        reg.histogram("h").record(9);
        let snap = reg.snapshot();
        let table = snap.render_table();
        assert!(table.contains("a.b") && table.contains("g") && table.contains("h"));
        let json = snap.to_json_lines();
        assert!(json.lines().count() == 3);
        assert!(json.contains("\"metric\":\"a.b\"") && json.contains("\"type\":\"histogram\""));
        assert!(json.contains("\"p95\":") && table.contains("p95<="), "quantiles rendered");
    }

    #[test]
    fn batch_registration_binds_shared_cells() {
        let reg = MetricsRegistry::new();
        let c = Counter::new();
        let g = Gauge::new();
        let h = Histogram::new();
        reg.register_batch(
            MetricsBatch::new()
                .counter("layer.c", &c)
                .gauge("layer.g", &g)
                .histogram("layer.h", &h),
        );
        c.inc();
        g.set(7);
        h.record(5);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("layer.c"), 1);
        assert_eq!(snap.gauge("layer.g"), 7);
        assert_eq!(snap.histogram("layer.h").unwrap().count, 1);
    }

    #[test]
    fn batch_registration_is_atomic_under_concurrent_snapshots() {
        // A snapshot taken while a layer registers must see either none of
        // the layer's names or all of them — never a half-bound registry.
        use std::sync::atomic::{AtomicBool, Ordering};
        let reg = MetricsRegistry::new();
        let names: Vec<String> = (0..24).map(|i| format!("layer.m{i}")).collect();
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let reader_reg = reg.clone();
            let reader_names = names.clone();
            let done_ref = &done;
            s.spawn(move || {
                while !done_ref.load(Ordering::Relaxed) {
                    let snap = reader_reg.snapshot();
                    let bound =
                        reader_names.iter().filter(|n| snap.counters.contains_key(*n)).count();
                    assert!(
                        bound == 0 || bound == reader_names.len(),
                        "snapshot saw a half-bound layer: {bound}/{}",
                        reader_names.len()
                    );
                }
            });
            let cells: Vec<Counter> = names.iter().map(|_| Counter::new()).collect();
            let mut batch = MetricsBatch::new();
            for (n, c) in names.iter().zip(&cells) {
                batch = batch.counter(n, c);
            }
            reg.register_batch(batch);
            done.store(true, Ordering::Relaxed);
        });
        let snap = reg.snapshot();
        assert!(names.iter().all(|n| snap.counters.contains_key(n)));
    }
}
