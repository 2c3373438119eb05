//! Hierarchical span tracing with a bounded ring-buffer event log.
//!
//! Spans form a tree per session: session → transaction → statement →
//! plan-operator / track-I/O.  Completed spans are pushed into a ring
//! buffer (oldest dropped first); statement spans can be sampled 1-in-*n*,
//! and child spans of an unsampled statement are suppressed by the
//! parent-id-0 rule, so sampling a statement samples its whole subtree.

use crate::clock::TelemetryClock;
use crate::metrics::Counter;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// What level of the stack a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    Session,
    Transaction,
    Statement,
    PlanOperator,
    TrackIo,
}

impl SpanKind {
    pub fn name(&self) -> &'static str {
        match self {
            SpanKind::Session => "session",
            SpanKind::Transaction => "transaction",
            SpanKind::Statement => "statement",
            SpanKind::PlanOperator => "plan-operator",
            SpanKind::TrackIo => "track-io",
        }
    }
}

/// A completed span as stored in the ring buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    pub id: u64,
    /// Parent span id; 0 for roots.
    pub parent: u64,
    /// Owning session id (0 when unattributed).
    pub session: u64,
    pub kind: SpanKind,
    pub label: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanEvent {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-flight span handle.  `id == 0` means the span is disabled
/// (tracing off or unsampled) and `end` is a no-op; callers pass the id on
/// to children unconditionally, which is how suppression propagates.
#[derive(Debug)]
pub struct OpenSpan {
    id: u64,
    parent: u64,
    session: u64,
    kind: SpanKind,
    label: String,
    start_ns: u64,
}

impl OpenSpan {
    /// This span's id, for use as a child's parent (0 when disabled).
    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn start_ns(&self) -> u64 {
        self.start_ns
    }

    fn disabled() -> OpenSpan {
        OpenSpan {
            id: 0,
            parent: 0,
            session: 0,
            kind: SpanKind::Statement,
            label: String::new(),
            start_ns: 0,
        }
    }
}

/// Completed spans the ring holds; older ones are dropped first.
const DEFAULT_CAPACITY: usize = 4096;

#[derive(Debug)]
struct TracerShared {
    enabled: AtomicBool,
    /// Record 1 in n statement spans (n = 1: all).
    sample_every: AtomicU64,
    statement_seq: AtomicU64,
    next_id: AtomicU64,
    recorded: Counter,
    dropped: Counter,
    clock: TelemetryClock,
    ring: Mutex<VecDeque<SpanEvent>>,
}

/// The span recorder; clones share one ring buffer.  Disabled (the
/// default) it costs one relaxed atomic load per `begin`.
#[derive(Clone, Debug)]
pub struct Tracer(Arc<TracerShared>);

impl Tracer {
    pub fn new(clock: TelemetryClock) -> Tracer {
        Tracer(Arc::new(TracerShared {
            enabled: AtomicBool::new(false),
            sample_every: AtomicU64::new(1),
            statement_seq: AtomicU64::new(0),
            next_id: AtomicU64::new(1),
            recorded: Counter::new(),
            dropped: Counter::new(),
            clock,
            ring: Mutex::new(VecDeque::new()),
        }))
    }

    pub fn enabled(&self) -> bool {
        self.0.enabled.load(Ordering::Relaxed)
    }

    pub fn set_enabled(&self, on: bool) {
        self.0.enabled.store(on, Ordering::Relaxed);
    }

    /// Record 1 in `n` statement spans; `n` is clamped to ≥ 1.
    pub fn set_sampling(&self, n: u64) {
        self.0.sample_every.store(n.max(1), Ordering::Relaxed);
    }

    /// Open a span.  Returns a disabled handle when tracing is off, when a
    /// statement span loses the sampling draw, or when a child kind
    /// (plan-operator / track-I/O / transaction under a sampled-out
    /// statement) is begun with `parent == 0`.
    pub fn begin(&self, kind: SpanKind, session: u64, parent: u64, label: &str) -> OpenSpan {
        if !self.enabled() {
            return OpenSpan::disabled();
        }
        match kind {
            SpanKind::Statement => {
                let seq = self.0.statement_seq.fetch_add(1, Ordering::Relaxed);
                let every = self.0.sample_every.load(Ordering::Relaxed);
                if !seq.is_multiple_of(every) {
                    return OpenSpan::disabled();
                }
            }
            SpanKind::PlanOperator | SpanKind::TrackIo => {
                if parent == 0 {
                    return OpenSpan::disabled();
                }
            }
            SpanKind::Session | SpanKind::Transaction => {}
        }
        OpenSpan {
            id: self.0.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            session,
            kind,
            label: label.to_string(),
            start_ns: self.0.clock.now_ns(),
        }
    }

    /// Close a span and push it into the ring (no-op for disabled spans).
    /// Returns the span id.
    pub fn end(&self, span: OpenSpan) -> u64 {
        if span.id == 0 {
            return 0;
        }
        let end_ns = self.0.clock.now_ns();
        self.push(SpanEvent {
            id: span.id,
            parent: span.parent,
            session: span.session,
            kind: span.kind,
            label: span.label,
            start_ns: span.start_ns,
            end_ns,
        });
        span.id
    }

    /// Record an already-measured span (used for plan-operator spans
    /// reconstructed from a per-operator profile, and for instantaneous
    /// marker events).  Returns the new span id, 0 when tracing is off.
    pub fn record(
        &self,
        kind: SpanKind,
        session: u64,
        parent: u64,
        label: &str,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        if !self.enabled() {
            return 0;
        }
        let id = self.0.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(SpanEvent {
            id,
            parent,
            session,
            kind,
            label: label.to_string(),
            start_ns,
            end_ns,
        });
        id
    }

    fn push(&self, ev: SpanEvent) {
        let mut ring = self.0.ring.lock().unwrap();
        if ring.len() >= DEFAULT_CAPACITY {
            ring.pop_front();
            self.0.dropped.inc();
        }
        ring.push_back(ev);
        self.0.recorded.inc();
    }

    /// All buffered events, oldest first, optionally restricted to one
    /// session.
    pub fn events(&self, session: Option<u64>) -> Vec<SpanEvent> {
        let ring = self.0.ring.lock().unwrap();
        ring.iter().filter(|e| session.map(|s| e.session == s).unwrap_or(true)).cloned().collect()
    }

    pub fn clear(&self) {
        self.0.ring.lock().unwrap().clear();
    }

    /// Total spans ever recorded (survives ring eviction and `clear`) —
    /// this is what the counter-based overhead gate asserts against.
    pub fn events_recorded(&self) -> u64 {
        self.0.recorded.get()
    }

    /// Spans evicted from the ring before being read.
    pub fn events_dropped(&self) -> u64 {
        self.0.dropped.get()
    }

    /// Shared handles for registry binding.
    pub fn recorded_counter(&self) -> Counter {
        self.0.recorded.clone()
    }

    pub fn dropped_counter(&self) -> Counter {
        self.0.dropped.clone()
    }

    pub fn clock(&self) -> &TelemetryClock {
        &self.0.clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualTime;

    fn manual_tracer() -> (Tracer, ManualTime) {
        let src = ManualTime::new();
        let t = Tracer::new(TelemetryClock::manual(src.clone()));
        (t, src)
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let (t, _) = manual_tracer();
        let s = t.begin(SpanKind::Statement, 1, 0, "x");
        assert_eq!(s.id(), 0);
        t.end(s);
        assert_eq!(t.events_recorded(), 0);
        assert!(t.events(None).is_empty());
    }

    #[test]
    fn spans_nest_and_have_nonzero_duration() {
        let (t, _) = manual_tracer();
        t.set_enabled(true);
        let txn = t.begin(SpanKind::Transaction, 7, 0, "txn");
        let stmt = t.begin(SpanKind::Statement, 7, txn.id(), "stmt");
        let op = t.begin(SpanKind::PlanOperator, 7, stmt.id(), "scan");
        let op_parent = stmt.id();
        t.end(op);
        t.end(stmt);
        t.end(txn);
        let evs = t.events(Some(7));
        assert_eq!(evs.len(), 3);
        let scan = evs.iter().find(|e| e.label == "scan").unwrap();
        assert_eq!(scan.parent, op_parent);
        assert!(evs.iter().all(|e| e.duration_ns() > 0), "strict clock → nonzero spans");
    }

    #[test]
    fn statement_sampling_suppresses_subtree() {
        let (t, _) = manual_tracer();
        t.set_enabled(true);
        t.set_sampling(2);
        let mut recorded = 0;
        for _ in 0..4 {
            let stmt = t.begin(SpanKind::Statement, 1, 0, "s");
            let op = t.begin(SpanKind::PlanOperator, 1, stmt.id(), "op");
            t.end(op);
            if t.end(stmt) != 0 {
                recorded += 1;
            }
        }
        assert_eq!(recorded, 2, "1-in-2 sampling");
        // Each sampled statement carries its operator child; unsampled
        // statements suppress theirs via the parent-0 rule.
        assert_eq!(t.events(None).len(), 4);
    }

    #[test]
    fn ring_drops_oldest() {
        let (t, _) = manual_tracer();
        t.set_enabled(true);
        for i in 0..=DEFAULT_CAPACITY {
            let s = t.begin(SpanKind::Statement, 1, 0, &format!("s{i}"));
            t.end(s);
        }
        let evs = t.events(None);
        assert_eq!(evs.len(), DEFAULT_CAPACITY);
        assert_eq!(evs[0].label, "s1");
        assert_eq!(t.events_recorded(), DEFAULT_CAPACITY as u64 + 1);
        assert_eq!(t.events_dropped(), 1);
    }

    #[test]
    fn session_filter_is_strict() {
        let (t, _) = manual_tracer();
        t.set_enabled(true);
        for sid in [1u64, 2] {
            let s = t.begin(SpanKind::Statement, sid, 0, "s");
            t.end(s);
        }
        assert_eq!(t.events(Some(1)).len(), 1);
        assert_eq!(t.events(Some(2)).len(), 1);
        assert_eq!(t.events(None).len(), 2);
    }
}
