//! The live time-series observatory: a bounded in-memory ring of
//! periodic [`MetricsSnapshot`] samples with windowed rate queries and
//! threshold anomaly detectors.
//!
//! The observatory is **pull-based**: a driver (the database's
//! `observatory_tick`, a test loop) calls [`Observatory::tick`], which
//! samples the registry if the configured interval has elapsed and
//! appends to the ring.
//! There are no hooks on any hot path — counters are read, never
//! written, so the engine pays structurally zero overhead whether the
//! ring is on or off.  Disabled (the default), a tick is one relaxed
//! atomic load.
//!
//! Rate queries diff the newest sample against the oldest sample inside
//! a window and normalise by the samples' own timestamps, so rates stay
//! honest even when ticks arrive unevenly.  The anomaly detectors
//! (abort storm, fsync stall, cache thrash) are edge-triggered: a
//! condition fires once when it becomes true and re-arms when it clears,
//! so a driver can capture one diagnostic bundle per episode rather
//! than one per tick.

use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Sizing and cadence for the observatory ring.
#[derive(Clone, Debug)]
pub struct ObservatoryConfig {
    /// Keep at most this many samples; the oldest are dropped.
    pub capacity: usize,
    /// Minimum microseconds between samples; ticks inside the interval
    /// are no-ops, so drivers may call [`Observatory::tick`] as often as
    /// they like.
    pub interval_us: u64,
    /// Thresholds for the anomaly detectors.
    pub thresholds: AnomalyThresholds,
}

impl Default for ObservatoryConfig {
    fn default() -> ObservatoryConfig {
        ObservatoryConfig {
            capacity: 128,
            interval_us: 1_000_000,
            thresholds: AnomalyThresholds::default(),
        }
    }
}

/// When the detectors cry foul.  A detector only fires once its
/// denominator passes the matching `min_*` floor, so a quiet window
/// (two aborts out of two commits) never reads as a storm.
#[derive(Clone, Debug)]
pub struct AnomalyThresholds {
    /// Abort storm: conflict aborts exceed this share of commit attempts.
    pub abort_pct: f64,
    /// …with at least this many aborts in the window.
    pub min_aborts: u64,
    /// Fsync stall: the windowed fsync p99 exceeds this many µs.
    pub fsync_stall_us: u64,
    /// …with at least this many barriers in the window.
    pub min_fsyncs: u64,
    /// Cache thrash: the windowed hit rate drops below this percentage.
    pub cache_hit_pct: f64,
    /// …with at least this many cache accesses in the window.
    pub min_cache_accesses: u64,
    /// Plan drift: at least this many `PlanDrift` episodes in the window
    /// (sustained estimate misses, not a single cold-stats outlier).
    pub min_plan_drifts: u64,
}

impl Default for AnomalyThresholds {
    fn default() -> AnomalyThresholds {
        AnomalyThresholds {
            abort_pct: 50.0,
            min_aborts: 8,
            fsync_stall_us: 100_000,
            min_fsyncs: 8,
            cache_hit_pct: 50.0,
            min_cache_accesses: 64,
            min_plan_drifts: 2,
        }
    }
}

/// One ring entry: the full registry state at one instant.
#[derive(Clone, Debug)]
pub struct ObservatorySample {
    /// Telemetry-clock timestamp in microseconds.
    pub at_us: u64,
    pub snap: MetricsSnapshot,
}

/// Headline rates over one window of the ring, derived purely from the
/// oldest and newest samples inside it.
#[derive(Clone, Debug, Default)]
pub struct WindowStats {
    /// Microseconds between the two samples the stats were derived from.
    pub span_us: u64,
    /// Samples inside the window (0 or 1 means no rates available).
    pub samples: usize,
    pub commits: u64,
    pub aborts: u64,
    pub conflicts: u64,
    pub commits_per_s: f64,
    pub aborts_per_s: f64,
    /// Conflict aborts as a share of commit attempts (commits + aborts).
    pub abort_pct: f64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_hit_pct: f64,
    pub fsyncs: u64,
    pub fsync_p50_us: u64,
    pub fsync_p99_us: u64,
    pub statements_per_s: f64,
    /// `PlanDrift` episodes journaled inside the window.
    pub plan_drifts: u64,
    /// Planning decisions taken inside the window.
    pub plan_choices: u64,
}

impl WindowStats {
    fn from_window(
        oldest: &ObservatorySample,
        newest: &ObservatorySample,
        n: usize,
    ) -> WindowStats {
        let d = newest.snap.diff(&oldest.snap);
        let span_us = newest.at_us.saturating_sub(oldest.at_us);
        let secs = span_us as f64 / 1e6;
        let per_s = |v: u64| if span_us == 0 { 0.0 } else { v as f64 / secs };
        let commits = d.counter("txn.commits");
        let aborts = d.counter("txn.aborts");
        let conflicts = d.counter("txn.conflicts");
        let attempts = commits + aborts;
        let cache_hits = d.counter("storage.cache.hits");
        let cache_misses = d.counter("storage.cache.misses");
        let accesses = cache_hits + cache_misses;
        let fsync = d.histogram("storage.disk.fsync_us");
        WindowStats {
            span_us,
            samples: n,
            commits,
            aborts,
            conflicts,
            commits_per_s: per_s(commits),
            aborts_per_s: per_s(aborts),
            abort_pct: if attempts == 0 { 0.0 } else { aborts as f64 * 100.0 / attempts as f64 },
            cache_hits,
            cache_misses,
            cache_hit_pct: if accesses == 0 {
                100.0
            } else {
                cache_hits as f64 * 100.0 / accesses as f64
            },
            fsyncs: fsync.map(|h| h.count).unwrap_or(0),
            fsync_p50_us: fsync.map(|h| h.quantile(0.50)).unwrap_or(0),
            fsync_p99_us: fsync.map(|h| h.quantile(0.99)).unwrap_or(0),
            statements_per_s: per_s(d.counter("session.statements")),
            plan_drifts: d.counter("calculus.plan.drift"),
            plan_choices: d.counter("calculus.plan.choices"),
        }
    }
}

/// One detector firing: carried to the driver so it can name the
/// diagnostic bundle it captures.
#[derive(Clone, Debug, PartialEq)]
pub enum Anomaly {
    /// Conflict aborts dominate commit attempts.
    AbortStorm { abort_pct: f64, aborts: u64 },
    /// Durability barriers are slow.
    FsyncStall { p99_us: u64, fsyncs: u64 },
    /// The track cache stopped absorbing reads.
    CacheThrash { hit_pct: f64, accesses: u64 },
    /// The planner's cardinality estimates keep missing: sustained
    /// `PlanDrift` episodes inside one window.
    PlanDrift { drifts: u64, choices: u64 },
}

impl Anomaly {
    /// Stable slug for bundle names and logs.
    pub fn slug(&self) -> &'static str {
        match self {
            Anomaly::AbortStorm { .. } => "abort-storm",
            Anomaly::FsyncStall { .. } => "fsync-stall",
            Anomaly::CacheThrash { .. } => "cache-thrash",
            Anomaly::PlanDrift { .. } => "plan-drift",
        }
    }

    /// Human line for logs and status displays.
    pub fn describe(&self) -> String {
        match self {
            Anomaly::AbortStorm { abort_pct, aborts } => {
                format!("abort storm: {abort_pct:.0}% of commit attempts aborted ({aborts} aborts)")
            }
            Anomaly::FsyncStall { p99_us, fsyncs } => {
                format!("fsync stall: p99 {p99_us}µs over {fsyncs} barriers")
            }
            Anomaly::CacheThrash { hit_pct, accesses } => {
                format!("cache thrash: {hit_pct:.0}% hit rate over {accesses} accesses")
            }
            Anomaly::PlanDrift { drifts, choices } => {
                format!("plan drift: {drifts} drift episodes over {choices} plan choices")
            }
        }
    }

    fn bit(&self) -> u64 {
        match self {
            Anomaly::AbortStorm { .. } => 1,
            Anomaly::FsyncStall { .. } => 2,
            Anomaly::CacheThrash { .. } => 4,
            Anomaly::PlanDrift { .. } => 8,
        }
    }
}

struct ObservatoryShared {
    enabled: AtomicBool,
    interval_us: AtomicU64,
    last_sample_us: AtomicU64,
    /// Bitmask of currently-active anomaly kinds (edge-trigger state).
    active_anomalies: AtomicU64,
    inner: Mutex<RingInner>,
}

struct RingInner {
    capacity: usize,
    thresholds: AnomalyThresholds,
    ring: VecDeque<ObservatorySample>,
}

/// A handle on the observatory; clones share one ring.
#[derive(Clone)]
pub struct Observatory(Arc<ObservatoryShared>);

impl std::fmt::Debug for Observatory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Observatory")
            .field("enabled", &self.enabled())
            .field("samples", &self.len())
            .finish()
    }
}

impl Default for Observatory {
    fn default() -> Observatory {
        Observatory::disabled()
    }
}

impl Observatory {
    /// An observatory that is off until [`Observatory::enable`] is called.
    pub fn disabled() -> Observatory {
        Observatory(Arc::new(ObservatoryShared {
            enabled: AtomicBool::new(false),
            interval_us: AtomicU64::new(1_000_000),
            last_sample_us: AtomicU64::new(0),
            active_anomalies: AtomicU64::new(0),
            inner: Mutex::new(RingInner {
                capacity: 128,
                thresholds: AnomalyThresholds::default(),
                ring: VecDeque::new(),
            }),
        }))
    }

    /// Start sampling with `cfg`; clears any previous ring contents.
    pub fn enable(&self, cfg: ObservatoryConfig) {
        let mut inner = self.0.inner.lock().unwrap();
        inner.capacity = cfg.capacity.max(2);
        inner.thresholds = cfg.thresholds;
        inner.ring.clear();
        self.0.interval_us.store(cfg.interval_us, Ordering::Relaxed);
        self.0.last_sample_us.store(0, Ordering::Relaxed);
        self.0.active_anomalies.store(0, Ordering::Relaxed);
        self.0.enabled.store(true, Ordering::Relaxed);
    }

    /// Stop sampling and drop the ring contents.
    pub fn disable(&self) {
        self.0.enabled.store(false, Ordering::Relaxed);
        self.0.inner.lock().unwrap().ring.clear();
        self.0.active_anomalies.store(0, Ordering::Relaxed);
    }

    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.enabled.load(Ordering::Relaxed)
    }

    /// Samples currently held.
    pub fn len(&self) -> usize {
        self.0.inner.lock().unwrap().ring.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sample `registry` at time `now_us` if enabled and the interval
    /// has elapsed; returns anomalies that **newly became true** on this
    /// sample (edge-triggered — a persisting condition does not refire
    /// until it has cleared for a full sample first).
    pub fn tick(&self, registry: &MetricsRegistry, now_us: u64) -> Vec<Anomaly> {
        if !self.enabled() {
            return Vec::new();
        }
        let last = self.0.last_sample_us.load(Ordering::Relaxed);
        let interval = self.0.interval_us.load(Ordering::Relaxed);
        if last != 0 && now_us.saturating_sub(last) < interval {
            return Vec::new();
        }
        // One sampler wins the slot; concurrent ticks bail out.
        if self
            .0
            .last_sample_us
            .compare_exchange(last, now_us.max(last + 1), Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return Vec::new();
        }
        let snap = registry.snapshot();
        let mut inner = self.0.inner.lock().unwrap();
        inner.ring.push_back(ObservatorySample { at_us: now_us, snap });
        while inner.ring.len() > inner.capacity {
            inner.ring.pop_front();
        }
        // Detect over the freshest short window: the last two samples.
        let stats = match window_stats(&inner.ring, 2) {
            Some(s) => s,
            None => return Vec::new(),
        };
        let found = detect(&stats, &inner.thresholds);
        drop(inner);
        let mask: u64 = found.iter().map(Anomaly::bit).sum();
        let prev = self.0.active_anomalies.swap(mask, Ordering::Relaxed);
        found.into_iter().filter(|a| prev & a.bit() == 0).collect()
    }

    /// The newest sample, if any.
    pub fn latest(&self) -> Option<ObservatorySample> {
        self.0.inner.lock().unwrap().ring.back().cloned()
    }

    /// Clone out the whole ring, oldest first.
    pub fn samples(&self) -> Vec<ObservatorySample> {
        self.0.inner.lock().unwrap().ring.iter().cloned().collect()
    }

    /// Rates over the newest `window` samples (capped at the ring size).
    /// `None` until two samples exist.
    pub fn window(&self, window: usize) -> Option<WindowStats> {
        window_stats(&self.0.inner.lock().unwrap().ring, window)
    }

    /// Rates over the whole ring.
    pub fn overall(&self) -> Option<WindowStats> {
        self.window(usize::MAX)
    }

    /// Anomaly kinds active as of the last tick (for status rows).
    pub fn active_anomalies(&self) -> Vec<&'static str> {
        let mask = self.0.active_anomalies.load(Ordering::Relaxed);
        let mut out = Vec::new();
        if mask & 1 != 0 {
            out.push("abort-storm");
        }
        if mask & 2 != 0 {
            out.push("fsync-stall");
        }
        if mask & 4 != 0 {
            out.push("cache-thrash");
        }
        if mask & 8 != 0 {
            out.push("plan-drift");
        }
        out
    }
}

fn window_stats(ring: &VecDeque<ObservatorySample>, window: usize) -> Option<WindowStats> {
    if ring.len() < 2 {
        return None;
    }
    let n = window.clamp(2, ring.len());
    let oldest = &ring[ring.len() - n];
    let newest = ring.back().unwrap();
    Some(WindowStats::from_window(oldest, newest, n))
}

/// Apply the threshold detectors to one window.
pub fn detect(stats: &WindowStats, t: &AnomalyThresholds) -> Vec<Anomaly> {
    let mut out = Vec::new();
    if stats.aborts >= t.min_aborts && stats.abort_pct >= t.abort_pct {
        out.push(Anomaly::AbortStorm { abort_pct: stats.abort_pct, aborts: stats.aborts });
    }
    if stats.fsyncs >= t.min_fsyncs && stats.fsync_p99_us >= t.fsync_stall_us {
        out.push(Anomaly::FsyncStall { p99_us: stats.fsync_p99_us, fsyncs: stats.fsyncs });
    }
    if stats.cache_hits + stats.cache_misses >= t.min_cache_accesses
        && stats.cache_hit_pct < t.cache_hit_pct
    {
        out.push(Anomaly::CacheThrash {
            hit_pct: stats.cache_hit_pct,
            accesses: stats.cache_hits + stats.cache_misses,
        });
    }
    if stats.plan_drifts >= t.min_plan_drifts {
        out.push(Anomaly::PlanDrift { drifts: stats.plan_drifts, choices: stats.plan_choices });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(interval_us: u64) -> ObservatoryConfig {
        ObservatoryConfig { capacity: 4, interval_us, thresholds: AnomalyThresholds::default() }
    }

    #[test]
    fn disabled_observatory_samples_nothing() {
        let o = Observatory::disabled();
        let r = MetricsRegistry::new();
        assert!(o.tick(&r, 1_000_000).is_empty());
        assert!(o.is_empty());
        assert!(o.latest().is_none());
        assert!(o.window(2).is_none());
    }

    #[test]
    fn interval_gates_sampling_and_capacity_bounds_ring() {
        let o = Observatory::disabled();
        let r = MetricsRegistry::new();
        o.enable(cfg(1_000_000));
        for i in 0..10u64 {
            o.tick(&r, i * 250_000 + 1); // 4 ticks per interval
        }
        assert!(o.len() <= 4, "quarter-interval ticks are mostly no-ops: {}", o.len());
        o.enable(cfg(1));
        for i in 0..10u64 {
            o.tick(&r, (i + 1) * 1_000_000);
        }
        assert_eq!(o.len(), 4, "capacity bounds the ring");
    }

    #[test]
    fn window_rates_are_normalised_by_sample_timestamps() {
        let o = Observatory::disabled();
        let r = MetricsRegistry::new();
        o.enable(cfg(1));
        o.tick(&r, 1_000_000);
        r.counter("txn.commits").add(50);
        r.counter("txn.aborts").add(50);
        r.counter("storage.cache.hits").add(10);
        r.counter("storage.cache.misses").add(30);
        o.tick(&r, 3_000_000); // 2 s later
        let w = o.window(2).expect("two samples");
        assert_eq!(w.commits, 50);
        assert_eq!(w.aborts, 50);
        assert!((w.commits_per_s - 25.0).abs() < 1e-9, "{}", w.commits_per_s);
        assert!((w.abort_pct - 50.0).abs() < 1e-9);
        assert!((w.cache_hit_pct - 25.0).abs() < 1e-9);
    }

    #[test]
    fn anomalies_are_edge_triggered() {
        let o = Observatory::disabled();
        let r = MetricsRegistry::new();
        o.enable(cfg(1));
        o.tick(&r, 1_000_000);
        r.counter("txn.commits").add(2);
        r.counter("txn.aborts").add(20);
        let fired = o.tick(&r, 2_000_000);
        assert_eq!(fired.len(), 1, "{fired:?}");
        assert_eq!(fired[0].slug(), "abort-storm");
        assert_eq!(o.active_anomalies(), vec!["abort-storm"]);

        // Still storming: no refire.
        r.counter("txn.aborts").add(20);
        assert!(o.tick(&r, 3_000_000).is_empty(), "persisting condition does not refire");

        // A calm window clears it...
        r.counter("txn.commits").add(100);
        assert!(o.tick(&r, 4_000_000).is_empty());
        assert!(o.active_anomalies().is_empty());

        // ...and the next storm fires again.
        r.counter("txn.aborts").add(20);
        let fired = o.tick(&r, 5_000_000);
        assert_eq!(fired.len(), 1, "re-armed after clearing");
    }

    #[test]
    fn fsync_stall_and_cache_thrash_detect() {
        let t = AnomalyThresholds::default();
        let mut s = WindowStats {
            fsyncs: 10,
            fsync_p99_us: 200_000,
            cache_hits: 10,
            cache_misses: 90,
            cache_hit_pct: 10.0,
            ..WindowStats::default()
        };
        let found = detect(&s, &t);
        assert_eq!(found.len(), 2, "{found:?}");
        assert_eq!(found[0].slug(), "fsync-stall");
        assert_eq!(found[1].slug(), "cache-thrash");
        assert!(found[0].describe().contains("p99 200000µs"), "{}", found[0].describe());
        s.fsyncs = 2;
        s.cache_hits = 1;
        s.cache_misses = 2;
        assert!(detect(&s, &t).is_empty(), "denominator floors suppress quiet windows");
    }

    #[test]
    fn plan_drift_detects_and_edge_triggers() {
        let t = AnomalyThresholds::default();
        let s = WindowStats { plan_drifts: 3, plan_choices: 12, ..WindowStats::default() };
        let found = detect(&s, &t);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].slug(), "plan-drift");
        assert!(found[0].describe().contains("3 drift episodes"), "{}", found[0].describe());
        let calm = WindowStats { plan_drifts: 1, plan_choices: 50, ..WindowStats::default() };
        assert!(detect(&calm, &t).is_empty(), "a single cold-stats miss is not sustained drift");

        // Through the observatory: sustained drift fires once, then re-arms.
        let o = Observatory::disabled();
        let r = MetricsRegistry::new();
        o.enable(cfg(1));
        o.tick(&r, 1_000_000);
        r.counter("calculus.plan.drift").add(3);
        r.counter("calculus.plan.choices").add(10);
        let fired = o.tick(&r, 2_000_000);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].slug(), "plan-drift");
        assert_eq!(o.active_anomalies(), vec!["plan-drift"]);
        assert!(o.tick(&r, 3_000_000).is_empty(), "calm window clears it");
        assert!(o.active_anomalies().is_empty());
    }
}
