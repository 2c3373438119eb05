//! Unified telemetry for the GemStone reproduction.
//!
//! One instrument for every layer: a [`MetricsRegistry`] of named
//! counters, gauges, and log-scale histograms (lock-free on the hot
//! path), a hierarchical span [`Tracer`] (session → transaction →
//! statement → plan-operator / track-I/O) over a bounded ring buffer,
//! and a strictly monotonic injectable [`TelemetryClock`] so tests stay
//! deterministic.  Layers own their instrument handles and the registry
//! binds the same atomics by name, which is how the pre-existing stats
//! accessors (`DiskStats`, `CacheStats`, plan statistics, …) become thin
//! views over the registry rather than parallel bookkeeping.
//!
//! ```
//! use gemstone_telemetry::Telemetry;
//!
//! let t = Telemetry::new();
//! let reads = t.registry.counter("storage.disk.reads");
//! let before = t.registry.snapshot();
//! reads.add(3);
//! assert_eq!(t.registry.snapshot().diff(&before).counter("storage.disk.reads"), 3);
//! ```

mod bundle;
mod clock;
mod journal;
mod metrics;
mod trace;

pub use bundle::{
    CacheSweepPoint, ConflictProfile, DiagnosticBundle, DriftEpisode, EffectProfile,
    PlannerProfile, RecoverySummary, SlowEntry, TrackHeat,
};
pub use clock::{ManualTime, TelemetryClock};
pub use journal::{
    effect_class_counter, replay, Journal, JournalConfig, JournalEvent, JournalReadout,
    JOURNAL_SCHEMA,
};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsBatch, MetricsRegistry, MetricsSnapshot,
};
pub use trace::{OpenSpan, SpanEvent, SpanKind, Tracer};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The full telemetry bundle one database shares across its sessions.
/// Clones share all state.
#[derive(Clone)]
pub struct Telemetry {
    pub registry: MetricsRegistry,
    pub tracer: Tracer,
    /// The persistent flight recorder (disabled until started).
    pub journal: Journal,
    clock: TelemetryClock,
    next_session: Arc<AtomicU64>,
}

impl Telemetry {
    /// Wall-clock telemetry (tracing starts disabled).
    pub fn new() -> Telemetry {
        Telemetry::with_clock(TelemetryClock::wall())
    }

    /// Telemetry over an explicit clock.
    pub fn with_clock(clock: TelemetryClock) -> Telemetry {
        let registry = MetricsRegistry::new();
        let tracer = Tracer::new(clock.clone());
        registry.register_counter("telemetry.spans.recorded", &tracer.recorded_counter());
        registry.register_counter("telemetry.spans.dropped", &tracer.dropped_counter());
        Telemetry {
            registry,
            tracer,
            journal: Journal::disabled(),
            clock,
            next_session: Arc::new(AtomicU64::new(1)),
        }
    }

    /// Deterministic telemetry for tests: a hand-cranked clock plus its
    /// crank.
    pub fn manual() -> (Telemetry, ManualTime) {
        let src = ManualTime::new();
        (Telemetry::with_clock(TelemetryClock::manual(src.clone())), src)
    }

    pub fn clock(&self) -> &TelemetryClock {
        &self.clock
    }

    /// A fresh nonzero session id for span attribution.
    pub fn new_session_id(&self) -> u64 {
        self.next_session.fetch_add(1, Ordering::Relaxed)
    }
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::new()
    }
}
