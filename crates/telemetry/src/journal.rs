//! The persistent flight recorder: a bounded, schema-versioned,
//! append-only event journal.
//!
//! Events are one JSON object per line (JSONL) across numbered segment
//! files `journal-NNNNNNNN.jsonl`; segments rotate at a byte budget and
//! the oldest are deleted past a segment budget, so the journal is
//! bounded on disk.  Every segment opens with a `{"e":"header","v":N}`
//! line and readers reject unknown schema versions.
//!
//! The journal is the durable twin of the metrics registry: every event
//! corresponds to exactly the counter/histogram moves the live layer
//! made, and [`JournalEvent::apply_to`] is the single replay rule-set.
//! Replaying a journal recorded from birth (or from a
//! [`Journal::emit_baseline`] point) through a fresh registry reproduces
//! the live [`MetricsSnapshot`] byte-for-byte — the determinism contract
//! that keeps the recorder honest.
//!
//! Disabled (the default), the journal costs one relaxed atomic load at
//! each emission site and adds zero interpreter dispatches.

use crate::metrics::{json_escape, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Journal schema version written by this build — and the only one its
/// reader accepts: a segment whose header names any other is rejected.
/// Bump it whenever an event's wire form changes.
pub const JOURNAL_SCHEMA: u64 = 5;

const BUCKETS: usize = 64;

/// Sizing for the on-disk journal.
#[derive(Clone, Debug)]
pub struct JournalConfig {
    /// Directory holding the segment files (created if absent).
    pub dir: PathBuf,
    /// Rotate to a new segment once the current one reaches this size.
    pub max_segment_bytes: u64,
    /// Keep at most this many segments; the oldest are deleted.
    pub max_segments: usize,
}

impl JournalConfig {
    /// Default sizing (1 MiB segments, 8 segments) in `dir`.
    pub fn at(dir: impl Into<PathBuf>) -> JournalConfig {
        JournalConfig { dir: dir.into(), max_segment_bytes: 1 << 20, max_segments: 8 }
    }
}

/// Declares the journal's event set once.  Each entry gives the variant,
/// its wire name (the `"e"` field) and its fields in wire order; from
/// this one table the macro generates the [`JournalEvent`] enum, its
/// `to_line` writer and its `parse` reader, so the two directions of the
/// wire form cannot disagree.  A field's type picks its encoding (see
/// [`Field`]); every field travels under its own name as key.
macro_rules! journal_events {
    ($(
        $(#[$doc:meta])*
        $variant:ident = $wire:literal $({
            $($(#[$fdoc:meta])* $field:ident: $ty:ty),* $(,)?
        })?;
    )*) => {
        /// One recorded event.  Each variant mirrors exactly one set of
        /// counter or histogram moves in the live system; `apply_to`
        /// replays them.
        #[derive(Clone, Debug, PartialEq)]
        pub enum JournalEvent {
            $($(#[$doc])* $variant $({ $($(#[$fdoc])* $field: $ty),* })?,)*
        }

        impl JournalEvent {
            /// Serialize as one JSON line (no trailing newline).
            pub fn to_line(&self) -> String {
                let mut out = String::from("{\"e\":\"");
                match self {
                    $(JournalEvent::$variant $({ $($field),* })? => {
                        out.push_str($wire);
                        out.push('"');
                        $($(Field::put($field, stringify!($field), &mut out);)*)?
                    })*
                }
                out.push('}');
                out
            }

            /// Parse one JSON line back into an event.  Unknown event names
            /// are an error: within one schema version the event set is
            /// closed.
            pub fn parse(line: &str) -> Result<JournalEvent, String> {
                let obj = parse_flat(line)?;
                match String::take(&obj, "e")?.as_str() {
                    $($wire => Ok(JournalEvent::$variant $({
                        $($field: Field::take(&obj, stringify!($field))?),*
                    })?),)*
                    other => Err(format!("unknown journal event {other:?}")),
                }
            }
        }
    };
}

journal_events! {
    /// Registry state at recording start: one event per counter.
    BaselineCounter = "base_counter" { name: String, value: u64 };
    /// Registry state at recording start: one event per gauge.
    BaselineGauge = "base_gauge" { name: String, value: i64 };
    /// Registry state at recording start: one event per histogram.
    /// Boxed: the bucket array dwarfs every other variant.  The snapshot
    /// travels flat (`count`, `sum`, `min`, `max`, `buckets`).
    BaselineHistogram = "base_hist" { name: String, snap: Box<HistogramSnapshot> };
    /// Informational: the live track-cache capacity (drives the doctor's
    /// sweep validation; no counter effect).
    CacheConfigured = "cache_configured" { tracks: u64 };
    /// One executed statement (`session.statements` / `session.statement_ns`).
    Statement = "statement" { session: u64, wall_ns: u64, label: String };
    /// One interpreter stats flush (`opal.interp.dispatches` / `.sends`).
    Interp = "interp" { dispatches: u64, sends: u64 };
    /// One query-plan execution (the `calculus.*` counters).
    Plan = "plan" {
        rows_scanned: u64,
        index_rows: u64,
        index_hits: u64,
        index_fallbacks: u64,
        select_in: u64,
        select_out: u64,
        nest_loops: u64,
        hash_builds: u64,
        hash_probes: u64,
        hash_matches: u64,
        rows_out: u64,
    };
    TxnBegin = "txn_begin";
    TxnCommit = "txn_commit";
    TxnAbort = "txn_abort" { conflict: bool };
    /// Forensic record of one validation conflict (v3). Emitted beside
    /// the [`JournalEvent::TxnAbort`] that moves the counters, under the
    /// same lock, so `txn.conflicts == count(txn_conflict)` always holds.
    /// Purely informational for replay (the paired abort event moves the
    /// counters); the doctor distills it into conflict-heat tables.
    TxnConflict = "txn_conflict" {
        /// `"overlap"` or `"watermark"` (the txn layer's `ConflictKind`
        /// rendered as a string — telemetry stays dependency-free).
        kind: String,
        /// Telemetry session id of the aborted transaction (0 when the
        /// transaction was begun outside a session).
        session: u64,
        /// Transaction time at which the aborted transaction began.
        start: u64,
        /// Commit time of the culprit transaction (for `watermark`: the
        /// prune watermark that made validation impossible).
        culprit_time: u64,
        /// Telemetry session id of the culprit (0 for `watermark`).
        culprit_session: u64,
        /// Overlapping object identities (capped; oldest conflict first).
        goops: Vec<u64>,
        /// Home tracks of the overlapping objects, where resolvable.
        tracks: Vec<u64>,
    };
    /// Per-commit phase breakdown (v3): how one writing commit spent its
    /// time, recorded into the `commit.phase.*_us` histograms.
    CommitTimeline = "commit_timeline" {
        session: u64,
        /// Age of the transaction's snapshot when the commit began.
        snapshot_age_us: u64,
        /// Validation, including the wait for the commit critical section.
        validation_us: u64,
        /// The safe-write group: track writes on both replicas.
        safe_write_us: u64,
        /// Durability barriers inside the group (subset of safe-write).
        fsync_us: u64,
        /// View publication after finalize.
        publish_us: u64,
    };
    /// One durability barrier's duration (v3): `storage.disk.fsync_us`.
    /// The matching [`JournalEvent::DiskSync`] moves the fsync counter;
    /// this event carries its latency.
    FsyncLatency = "fsync_latency" { us: u64, backend: String };
    /// One committed safe-write group (`storage.store.commits`,
    /// `.objects_written`, `storage.commit.group_tracks`). `fsyncs` is how
    /// many sync barriers the group issued (informational — the matching
    /// [`JournalEvent::DiskSync`] events move the counter); `backend`
    /// identifies the disk that took the group (`sim` / `file`).
    SafeWriteGroup = "safe_write_group" { tracks: u64, objects: u64, fsyncs: u64, backend: String };
    TrackRead = "track_read" { track: u64, ok: bool, backend: String };
    TrackWrite = "track_write" { track: u64, ok: bool, bytes: u64, backend: String };
    /// One durability barrier (`fsync`/`fdatasync` on the file backend, a
    /// counted no-op on the simulated disk): `storage.disk.fsyncs`.
    DiskSync = "disk_sync" { ok: bool, backend: String };
    CacheAccess = "cache_access" {
        track: u64,
        /// Which cache shard served the access (`storage.cache.shard<i>.*`).
        shard: u64,
        hit: bool,
    };
    /// One transaction validation: how long the committer waited to enter
    /// the validation critical section (`txn.validation_wait_us`).
    ValidationWait = "validation_wait" { us: u64 };
    CacheFill = "cache_fill" { track: u64, commit: bool };
    CacheEvict = "cache_evict" { track: u64 };
    ObjectFault = "object_fault" { goop: u64 };
    VerifyCheck = "verify" { rejected: bool };
    /// One freshly computed method effect summary (`opal.effects.computed`
    /// plus the per-effect-class counter). `reads`/`writes` are the sizes
    /// of the summary's global read/write sets (informational).
    EffectSummary = "effect_summary" { selector: String, effect: String, reads: u64, writes: u64 };
    /// One statement classified before execution
    /// (`opal.effects.stmts_classified` / `.stmts_static_ro`).
    EffectClassify = "effect_classify" { static_ro: bool };
    /// One commit taken on the statically-proven read-only fast path
    /// (`opal.effects.static_ro_commits`).
    EffectCommit = "effect_commit";
    /// One wholesale effect-cache invalidation at a method install
    /// (`opal.effects.invalidations`).
    EffectInvalidate = "effect_invalidate";
    /// One refreshed statistics sketch (v4): a per-directory
    /// key-distribution histogram rebuilt at commit time
    /// (`calculus.stats.updates`). `points` is the sketch's exact wire
    /// encoding (bit-exact f64 keys), so a replayed journal carries the
    /// same statistics the planner saw.
    StatsUpdate = "stats_update" {
        /// Object identity of the statistics' collection.
        set: u64,
        /// Canonical indexed-path key (`stats::path_key`), or `""` for a
        /// cardinality-only refresh of an unindexed set.
        path: String,
        /// Set cardinality at refresh time.
        cardinality: u64,
        /// Keys summarized by the sketch.
        total: u64,
        /// Distinct-key estimate.
        distinct: u64,
        /// Documented rank-error bound of the sketch.
        fuzz: u64,
        /// `KeySketch::encode_points` wire form (exact round-trip).
        points: String,
    };
    /// One planning decision (v4): the canonical plan string the
    /// translator chose and what it weighed (`calculus.plan.choices`,
    /// `.cost_based`, `.replans`).
    PlanChoice = "plan_choice" {
        session: u64,
        /// Statement label (as in [`JournalEvent::Statement`]).
        label: String,
        /// Canonical string of the chosen plan.
        chosen: String,
        /// Estimated cost of the chosen plan, in milli-row-visits.
        cost_milli: u64,
        /// How many distinct alternatives the cost model compared.
        alternatives: u64,
        /// False when statistics were absent and the historical fixed
        /// plan shape was kept.
        cost_based: bool,
        /// True when this choice re-planned a statement after drift.
        replan: bool,
    };
    /// One estimate-vs-actual miss past the drift threshold (v4):
    /// the worst analyzed operator of a statement strayed from its
    /// cardinality estimate (`calculus.plan.drift`). The next execution
    /// of the statement re-plans with fresh statistics.
    PlanDrift = "plan_drift" {
        session: u64,
        label: String,
        /// Canonical string of the drifted plan.
        plan: String,
        /// Pre-order index of the worst operator.
        op: u64,
        /// Planner's cardinality estimate for that operator.
        est: u64,
        /// Observed rows-out.
        actual: u64,
        /// Signed error percentage (`est_err_pct`).
        err_pct: i64,
    };
    /// One recovery pass (the `storage.recovery.*` gauges).
    Recovery = "recovery" {
        roots_considered: u64,
        roots_valid: u64,
        roots_torn: u64,
        epoch: u64,
        tracks_salvaged: u64,
        tracks_discarded: u64,
        log_records: u64,
        reopen_reads: u64,
    };
}

impl JournalEvent {
    /// Replay this event's counter/gauge/histogram moves into `r`.  This
    /// is the single rule-set that makes a journal equivalent to the
    /// live metric stream.
    pub fn apply_to(&self, r: &MetricsRegistry) {
        use JournalEvent::*;
        match self {
            BaselineCounter { name, value } => r.counter(name).add(*value),
            BaselineGauge { name, value } => r.gauge(name).set(*value),
            BaselineHistogram { name, snap } => r.histogram(name).load(snap),
            CacheConfigured { .. } => {}
            Statement { wall_ns, .. } => {
                r.counter("session.statements").inc();
                r.histogram("session.statement_ns").record(*wall_ns);
            }
            Interp { dispatches, sends } => {
                r.counter("opal.interp.dispatches").add(*dispatches);
                r.counter("opal.interp.sends").add(*sends);
            }
            Plan {
                rows_scanned,
                index_rows,
                index_hits,
                index_fallbacks,
                select_in,
                select_out,
                nest_loops,
                hash_builds,
                hash_probes,
                hash_matches,
                rows_out,
            } => {
                r.counter("calculus.rows_scanned").add(*rows_scanned);
                r.counter("calculus.index_rows").add(*index_rows);
                r.counter("calculus.index_hits").add(*index_hits);
                r.counter("calculus.index_fallbacks").add(*index_fallbacks);
                r.counter("calculus.select_in").add(*select_in);
                r.counter("calculus.select_out").add(*select_out);
                r.counter("calculus.nest_loops").add(*nest_loops);
                r.counter("calculus.hash_builds").add(*hash_builds);
                r.counter("calculus.hash_probes").add(*hash_probes);
                r.counter("calculus.hash_matches").add(*hash_matches);
                r.counter("calculus.rows_out").add(*rows_out);
            }
            TxnBegin => r.counter("txn.begins").inc(),
            TxnCommit => r.counter("txn.commits").inc(),
            TxnAbort { conflict } => {
                r.counter("txn.aborts").inc();
                if *conflict {
                    r.counter("txn.conflicts").inc();
                }
            }
            // Forensic only: the paired TxnAbort moved the counters, so
            // this event must move nothing or replay would double-count.
            TxnConflict { .. } => {}
            CommitTimeline {
                snapshot_age_us,
                validation_us,
                safe_write_us,
                fsync_us,
                publish_us,
                ..
            } => {
                r.histogram("commit.phase.snapshot_age_us").record(*snapshot_age_us);
                r.histogram("commit.phase.validation_us").record(*validation_us);
                r.histogram("commit.phase.safe_write_us").record(*safe_write_us);
                r.histogram("commit.phase.fsync_us").record(*fsync_us);
                r.histogram("commit.phase.publish_us").record(*publish_us);
            }
            FsyncLatency { us, .. } => r.histogram("storage.disk.fsync_us").record(*us),
            SafeWriteGroup { tracks, objects, .. } => {
                r.counter("storage.store.commits").inc();
                r.counter("storage.store.objects_written").add(*objects);
                r.histogram("storage.commit.group_tracks").record(*tracks);
            }
            DiskSync { ok, .. } => {
                // Only successful barriers move the live counter; a failed
                // sync (dead disk) moves nothing, so replay stays exact.
                if *ok {
                    r.counter("storage.disk.fsyncs").inc();
                }
            }
            TrackRead { ok, .. } => {
                if *ok {
                    r.counter("storage.disk.reads").inc();
                } else {
                    r.counter("storage.disk.failed_reads").inc();
                }
            }
            TrackWrite { ok, bytes, .. } => {
                if *ok {
                    r.counter("storage.disk.writes").inc();
                    r.counter("storage.disk.bytes_written").add(*bytes);
                } else {
                    r.counter("storage.disk.failed_writes").inc();
                }
            }
            CacheAccess { shard, hit, .. } => {
                if *hit {
                    r.counter("storage.cache.hits").inc();
                    r.counter(&format!("storage.cache.shard{shard}.hits")).inc();
                } else {
                    r.counter("storage.cache.misses").inc();
                    r.counter(&format!("storage.cache.shard{shard}.misses")).inc();
                }
            }
            ValidationWait { us } => r.histogram("txn.validation_wait_us").record(*us),
            CacheFill { commit, .. } => {
                if *commit {
                    r.counter("storage.cache.fills_commit").inc();
                } else {
                    r.counter("storage.cache.fills_read").inc();
                }
            }
            CacheEvict { .. } => r.counter("storage.cache.evictions").inc(),
            ObjectFault { .. } => r.counter("storage.store.object_faults").inc(),
            VerifyCheck { rejected } => {
                r.counter("opal.verify.checks").inc();
                if *rejected {
                    r.counter("opal.verify.rejects").inc();
                }
            }
            EffectSummary { effect, .. } => {
                r.counter("opal.effects.computed").inc();
                r.counter(effect_class_counter(effect)).inc();
            }
            EffectClassify { static_ro } => {
                r.counter("opal.effects.stmts_classified").inc();
                if *static_ro {
                    r.counter("opal.effects.stmts_static_ro").inc();
                }
            }
            EffectCommit => r.counter("opal.effects.static_ro_commits").inc(),
            EffectInvalidate => r.counter("opal.effects.invalidations").inc(),
            StatsUpdate { .. } => r.counter("calculus.stats.updates").inc(),
            PlanChoice { cost_based, replan, .. } => {
                r.counter("calculus.plan.choices").inc();
                if *cost_based {
                    r.counter("calculus.plan.cost_based").inc();
                }
                if *replan {
                    r.counter("calculus.plan.replans").inc();
                }
            }
            PlanDrift { .. } => r.counter("calculus.plan.drift").inc(),
            Recovery {
                roots_considered,
                roots_valid,
                roots_torn,
                epoch,
                tracks_salvaged,
                tracks_discarded,
                log_records,
                reopen_reads,
            } => {
                r.gauge("storage.recovery.roots_considered").set(*roots_considered as i64);
                r.gauge("storage.recovery.roots_valid").set(*roots_valid as i64);
                r.gauge("storage.recovery.roots_torn").set(*roots_torn as i64);
                r.gauge("storage.recovery.epoch").set(*epoch as i64);
                r.gauge("storage.recovery.tracks_salvaged").set(*tracks_salvaged as i64);
                r.gauge("storage.recovery.tracks_discarded").set(*tracks_discarded as i64);
                r.gauge("storage.recovery.log_records").set(*log_records as i64);
                r.gauge("storage.recovery.reopen_reads").set(*reopen_reads as i64);
            }
        }
    }
}

/// The per-effect-class counter an effect display name maps to. Unknown
/// names (a future lattice level) conservatively count as `unknown`, so
/// replay still moves exactly one class counter per summary.
pub fn effect_class_counter(effect: &str) -> &'static str {
    match effect {
        "Pure" => "opal.effects.pure",
        "ReadOnly" => "opal.effects.read_only",
        "WritesLocal" => "opal.effects.writes_local",
        "WritesGlobal" => "opal.effects.writes_global",
        _ => "opal.effects.unknown",
    }
}

/// Replay a journal into a fresh registry.
pub fn replay(events: &[JournalEvent]) -> MetricsRegistry {
    let r = MetricsRegistry::new();
    for e in events {
        e.apply_to(&r);
    }
    r
}

/// Everything a reader learned from a journal directory.
#[derive(Debug)]
pub struct JournalReadout {
    /// Events across all surviving segments, oldest first.
    pub events: Vec<JournalEvent>,
    /// False when rotation deleted the oldest segments, so the stream no
    /// longer starts at segment 1 and replay is only partial.
    pub complete: bool,
    /// Surviving segment count.
    pub segments: usize,
}

struct JournalState {
    cfg: JournalConfig,
    seq: u64,
    seg_bytes: u64,
    writer: BufWriter<std::fs::File>,
    live_segments: Vec<u64>,
}

struct JournalShared {
    enabled: AtomicBool,
    bundle_seq: AtomicU64,
    state: Mutex<Option<JournalState>>,
}

/// A handle on the flight recorder; clones share one recorder.  Disabled
/// (the default) every emission site pays one relaxed atomic load.
#[derive(Clone)]
pub struct Journal(Arc<JournalShared>);

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal").field("enabled", &self.enabled()).finish()
    }
}

impl Default for Journal {
    fn default() -> Journal {
        Journal::disabled()
    }
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("journal-{seq:08}.jsonl"))
}

fn header_line(seq: u64) -> String {
    format!("{{\"e\":\"header\",\"v\":{JOURNAL_SCHEMA},\"seq\":{seq}}}\n")
}

impl Journal {
    /// A recorder that is off until [`Journal::start`] is called.
    pub fn disabled() -> Journal {
        Journal(Arc::new(JournalShared {
            enabled: AtomicBool::new(false),
            bundle_seq: AtomicU64::new(1),
            state: Mutex::new(None),
        }))
    }

    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.enabled.load(Ordering::Relaxed)
    }

    /// Begin recording into `cfg.dir`, replacing any previous recording
    /// there (stale `journal-*.jsonl` segments are removed so the stream
    /// restarts at segment 1).
    pub fn start(&self, cfg: JournalConfig) -> std::io::Result<()> {
        std::fs::create_dir_all(&cfg.dir)?;
        for entry in std::fs::read_dir(&cfg.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("journal-") && name.ends_with(".jsonl") {
                std::fs::remove_file(entry.path())?;
            }
        }
        let mut writer = BufWriter::new(std::fs::File::create(segment_path(&cfg.dir, 1))?);
        let header = header_line(1);
        writer.write_all(header.as_bytes())?;
        let mut state = self.0.state.lock().unwrap();
        *state = Some(JournalState {
            seg_bytes: header.len() as u64,
            cfg,
            seq: 1,
            writer,
            live_segments: vec![1],
        });
        self.0.enabled.store(true, Ordering::Relaxed);
        Ok(())
    }

    /// Stop recording and close the current segment.
    pub fn stop(&self) {
        self.0.enabled.store(false, Ordering::Relaxed);
        let mut state = self.0.state.lock().unwrap();
        if let Some(s) = state.as_mut() {
            let _ = s.writer.flush();
        }
        *state = None;
    }

    /// The directory being recorded into, while recording.
    pub fn dir(&self) -> Option<PathBuf> {
        self.0.state.lock().unwrap().as_ref().map(|s| s.cfg.dir.clone())
    }

    /// `(current segment seq, live segment count, bytes in current
    /// segment)`, while recording.
    pub fn status(&self) -> Option<(u64, usize, u64)> {
        let state = self.0.state.lock().unwrap();
        state.as_ref().map(|s| (s.seq, s.live_segments.len(), s.seg_bytes))
    }

    /// Push buffered lines to disk.
    pub fn flush(&self) {
        let mut state = self.0.state.lock().unwrap();
        if let Some(s) = state.as_mut() {
            let _ = s.writer.flush();
        }
    }

    /// A fresh sequence number for naming captured diagnostic bundles.
    pub fn next_bundle_seq(&self) -> u64 {
        self.0.bundle_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Append one event (no-op when disabled).  Write errors are
    /// swallowed: the recorder must never take the database down.
    pub fn emit(&self, ev: &JournalEvent) {
        if !self.enabled() {
            return;
        }
        let mut state = self.0.state.lock().unwrap();
        let Some(s) = state.as_mut() else { return };
        let mut line = ev.to_line();
        line.push('\n');
        let _ = s.writer.write_all(line.as_bytes());
        s.seg_bytes += line.len() as u64;
        if s.seg_bytes >= s.cfg.max_segment_bytes {
            let _ = rotate(s);
        }
    }

    /// Record the full current registry state as baseline events, so a
    /// replay from this point reconstructs absolute values rather than
    /// deltas.  Every instrument is emitted (even zero-valued) so the
    /// replayed registry's name set matches the live one exactly.
    pub fn emit_baseline(&self, snap: &MetricsSnapshot) {
        if !self.enabled() {
            return;
        }
        for (name, &value) in &snap.counters {
            self.emit(&JournalEvent::BaselineCounter { name: name.clone(), value });
        }
        for (name, &value) in &snap.gauges {
            self.emit(&JournalEvent::BaselineGauge { name: name.clone(), value });
        }
        for (name, h) in &snap.histograms {
            self.emit(&JournalEvent::BaselineHistogram {
                name: name.clone(),
                snap: Box::new(h.clone()),
            });
        }
    }

    /// Read every surviving segment in `dir`, oldest first.  Rejects
    /// unknown schema versions and malformed events; tolerates one
    /// partial trailing line in the newest segment (an in-flight write).
    pub fn read_from(dir: &Path) -> Result<JournalReadout, String> {
        let mut seqs: Vec<u64> = Vec::new();
        let entries =
            std::fs::read_dir(dir).map_err(|e| format!("journal dir {}: {e}", dir.display()))?;
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy().into_owned();
            if let Some(num) = name.strip_prefix("journal-").and_then(|n| n.strip_suffix(".jsonl"))
            {
                seqs.push(num.parse::<u64>().map_err(|_| format!("bad segment name {name:?}"))?);
            }
        }
        if seqs.is_empty() {
            return Err(format!("no journal segments in {}", dir.display()));
        }
        seqs.sort_unstable();
        let complete = seqs[0] == 1;
        let mut events = Vec::new();
        let last_seq = *seqs.last().unwrap();
        for &seq in &seqs {
            let path = segment_path(dir, seq);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("segment {}: {e}", path.display()))?;
            let ends_clean = text.ends_with('\n');
            let lines: Vec<&str> = text.lines().collect();
            for (i, line) in lines.iter().enumerate() {
                if line.is_empty() && i > 0 {
                    continue;
                }
                if i == 0 {
                    let hdr = parse_flat(line).map_err(|e| format!("segment {seq} header: {e}"))?;
                    if String::take(&hdr, "e").ok().as_deref() != Some("header") {
                        return Err(format!("segment {seq} does not start with a header"));
                    }
                    let v =
                        u64::take(&hdr, "v").map_err(|e| format!("segment {seq} header: {e}"))?;
                    if v != JOURNAL_SCHEMA {
                        return Err(format!(
                            "unsupported journal schema v{v} (this reader speaks \
                             v{JOURNAL_SCHEMA})"
                        ));
                    }
                    continue;
                }
                match JournalEvent::parse(line) {
                    Ok(ev) => events.push(ev),
                    Err(_) if seq == last_seq && i == lines.len() - 1 && !ends_clean => {
                        // In-flight partial write at the live tail.
                    }
                    Err(e) => return Err(format!("segment {seq} line {}: {e}", i + 1)),
                }
            }
        }
        Ok(JournalReadout { events, complete, segments: seqs.len() })
    }
}

fn rotate(s: &mut JournalState) -> std::io::Result<()> {
    s.writer.flush()?;
    s.seq += 1;
    let mut writer = BufWriter::new(std::fs::File::create(segment_path(&s.cfg.dir, s.seq))?);
    let header = header_line(s.seq);
    writer.write_all(header.as_bytes())?;
    s.writer = writer;
    s.seg_bytes = header.len() as u64;
    s.live_segments.push(s.seq);
    while s.live_segments.len() > s.cfg.max_segments.max(1) {
        let old = s.live_segments.remove(0);
        let _ = std::fs::remove_file(segment_path(&s.cfg.dir, old));
    }
    Ok(())
}

/// One field's wire encoding: `put` appends `,"key":value` to a line and
/// `take` reads the value back from a parsed line.
trait Field: Sized {
    fn put(&self, key: &str, out: &mut String);
    fn take(obj: &FlatObject, key: &str) -> Result<Self, String>;
}

fn wrong(key: &str, want: &str, got: Option<&JsonValue>) -> String {
    format!("field {key:?}: expected {want}, got {got:?}")
}

impl Field for u64 {
    fn put(&self, key: &str, out: &mut String) {
        let _ = write!(out, ",\"{key}\":{self}");
    }
    fn take(obj: &FlatObject, key: &str) -> Result<u64, String> {
        let got = obj.0.get(key);
        match got {
            Some(JsonValue::Num(n)) => u64::try_from(*n).ok(),
            _ => None,
        }
        .ok_or_else(|| wrong(key, "u64", got))
    }
}

impl Field for i64 {
    fn put(&self, key: &str, out: &mut String) {
        let _ = write!(out, ",\"{key}\":{self}");
    }
    fn take(obj: &FlatObject, key: &str) -> Result<i64, String> {
        let got = obj.0.get(key);
        match got {
            Some(JsonValue::Num(n)) => i64::try_from(*n).ok(),
            _ => None,
        }
        .ok_or_else(|| wrong(key, "i64", got))
    }
}

impl Field for bool {
    fn put(&self, key: &str, out: &mut String) {
        let _ = write!(out, ",\"{key}\":{self}");
    }
    fn take(obj: &FlatObject, key: &str) -> Result<bool, String> {
        match obj.0.get(key) {
            Some(JsonValue::Bool(b)) => Ok(*b),
            got => Err(wrong(key, "bool", got)),
        }
    }
}

impl Field for String {
    fn put(&self, key: &str, out: &mut String) {
        let _ = write!(out, ",\"{key}\":\"{}\"", json_escape(self));
    }
    fn take(obj: &FlatObject, key: &str) -> Result<String, String> {
        match obj.0.get(key) {
            Some(JsonValue::Str(s)) => Ok(s.clone()),
            got => Err(wrong(key, "string", got)),
        }
    }
}

/// A JSON number array (`[1,2,3]`).
impl Field for Vec<u64> {
    fn put(&self, key: &str, out: &mut String) {
        let _ = write!(out, ",\"{key}\":[");
        for (i, n) in self.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(out, "{sep}{n}");
        }
        out.push(']');
    }
    fn take(obj: &FlatObject, key: &str) -> Result<Vec<u64>, String> {
        let got = obj.0.get(key);
        match got {
            Some(JsonValue::NumArray(a)) => a.iter().map(|&n| u64::try_from(n).ok()).collect(),
            _ => None,
        }
        .ok_or_else(|| wrong(key, "u64 array", got))
    }
}

/// Histogram buckets as a string of the nonzero `index:count` pairs
/// (`"0:1,2:1,10:1"`; `""` when empty).
struct Buckets([u64; BUCKETS]);

impl Field for Buckets {
    fn put(&self, key: &str, out: &mut String) {
        let _ = write!(out, ",\"{key}\":\"");
        let mut sep = "";
        for (i, &n) in self.0.iter().enumerate().filter(|(_, &n)| n > 0) {
            let _ = write!(out, "{sep}{i}:{n}");
            sep = ",";
        }
        out.push('"');
    }
    fn take(obj: &FlatObject, key: &str) -> Result<Buckets, String> {
        let s = String::take(obj, key)?;
        let mut buckets = [0u64; BUCKETS];
        if s.is_empty() {
            return Ok(Buckets(buckets));
        }
        for pair in s.split(',') {
            let (i, n) = pair.split_once(':').ok_or_else(|| format!("bad bucket pair {pair:?}"))?;
            let i: usize = i.parse().map_err(|_| format!("bad bucket index {i:?}"))?;
            let slot =
                buckets.get_mut(i).ok_or_else(|| format!("bucket index {i} out of range"))?;
            *slot = n.parse().map_err(|_| format!("bad bucket count {n:?}"))?;
        }
        Ok(Buckets(buckets))
    }
}

/// A baseline histogram travels flat: its count, sum, min, max and
/// buckets are fields of the event line itself, under their own keys.
impl Field for Box<HistogramSnapshot> {
    fn put(&self, _key: &str, out: &mut String) {
        self.count.put("count", out);
        self.sum.put("sum", out);
        self.min.put("min", out);
        self.max.put("max", out);
        Buckets(self.buckets).put("buckets", out);
    }
    fn take(obj: &FlatObject, _key: &str) -> Result<Box<HistogramSnapshot>, String> {
        Ok(Box::new(HistogramSnapshot {
            count: u64::take(obj, "count")?,
            sum: u64::take(obj, "sum")?,
            min: u64::take(obj, "min")?,
            max: u64::take(obj, "max")?,
            buckets: Buckets::take(obj, "buckets")?.0,
        }))
    }
}

/// One value in a flat JSON object.
#[derive(Debug)]
enum JsonValue {
    Str(String),
    Num(i128),
    Bool(bool),
    /// A `[...]` of numbers (conflict goops and tracks).
    NumArray(Vec<i128>),
}

/// A parsed flat JSON object (string/number/bool/number-array values
/// only — exactly the shapes the journal emits).
struct FlatObject(BTreeMap<String, JsonValue>);

/// Parse one flat JSON object line (string / integer / bool / number
/// array values).  Hand-rolled: the toolchain has no JSON dependency.
fn parse_flat(line: &str) -> Result<FlatObject, String> {
    let mut chars = line.trim().chars().peekable();
    let mut map = BTreeMap::new();
    expect(&mut chars, '{')?;
    skip_ws(&mut chars);
    if chars.peek() == Some(&'}') {
        chars.next();
        return Ok(FlatObject(map));
    }
    loop {
        skip_ws(&mut chars);
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        expect(&mut chars, ':')?;
        skip_ws(&mut chars);
        let value = parse_value(&mut chars)?;
        map.insert(key, value);
        skip_ws(&mut chars);
        match chars.next() {
            Some(',') => continue,
            Some('}') => break,
            other => return Err(format!("expected ',' or '}}', got {other:?}")),
        }
    }
    Ok(FlatObject(map))
}

type Chars<'a> = std::iter::Peekable<std::str::Chars<'a>>;

fn skip_ws(chars: &mut Chars) {
    while matches!(chars.peek(), Some(' ' | '\t')) {
        chars.next();
    }
}

fn expect(chars: &mut Chars, want: char) -> Result<(), String> {
    match chars.next() {
        Some(c) if c == want => Ok(()),
        other => Err(format!("expected {want:?}, got {other:?}")),
    }
}

fn parse_value(chars: &mut Chars) -> Result<JsonValue, String> {
    match chars.peek() {
        Some('"') => Ok(JsonValue::Str(parse_string(chars)?)),
        Some('t') | Some('f') => parse_bool(chars).map(JsonValue::Bool),
        Some('[') => parse_num_array(chars).map(JsonValue::NumArray),
        Some(c) if c.is_ascii_digit() || *c == '-' => parse_number(chars).map(JsonValue::Num),
        other => Err(format!("unexpected value start {other:?}")),
    }
}

fn parse_bool(chars: &mut Chars) -> Result<bool, String> {
    let mut word = String::new();
    while matches!(chars.peek(), Some(c) if c.is_ascii_alphabetic()) {
        word.push(chars.next().unwrap());
    }
    match word.as_str() {
        "true" => Ok(true),
        "false" => Ok(false),
        other => Err(format!("expected bool, got {other:?}")),
    }
}

fn parse_number(chars: &mut Chars) -> Result<i128, String> {
    let mut text = String::new();
    if chars.peek() == Some(&'-') {
        text.push(chars.next().unwrap());
    }
    while matches!(chars.peek(), Some(c) if c.is_ascii_digit()) {
        text.push(chars.next().unwrap());
    }
    text.parse::<i128>().map_err(|_| format!("bad number {text:?}"))
}

fn parse_num_array(chars: &mut Chars) -> Result<Vec<i128>, String> {
    expect(chars, '[')?;
    let mut out = Vec::new();
    skip_ws(chars);
    if chars.peek() == Some(&']') {
        chars.next();
        return Ok(out);
    }
    loop {
        skip_ws(chars);
        out.push(parse_number(chars)?);
        skip_ws(chars);
        match chars.next() {
            Some(',') => continue,
            Some(']') => break,
            other => return Err(format!("expected ',' or ']', got {other:?}")),
        }
    }
    Ok(out)
}

fn parse_string(chars: &mut Chars) -> Result<String, String> {
    expect(chars, '"')?;
    let mut out = String::new();
    loop {
        match chars.next() {
            Some('"') => return Ok(out),
            Some('\\') => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some('/') => out.push('/'),
                Some('u') => {
                    let mut hex = String::new();
                    for _ in 0..4 {
                        hex.push(chars.next().ok_or("truncated \\u escape")?);
                    }
                    let code =
                        u32::from_str_radix(&hex, 16).map_err(|_| format!("bad \\u{hex}"))?;
                    out.push(char::from_u32(code).ok_or(format!("bad codepoint \\u{hex}"))?);
                }
                other => return Err(format!("bad escape {other:?}")),
            },
            Some(c) => out.push(c),
            None => return Err("unterminated string".to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gemstone-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_events() -> Vec<JournalEvent> {
        vec![
            JournalEvent::TxnBegin,
            JournalEvent::Statement { session: 1, wall_ns: 1234, label: "X := 1\n\"q\"".into() },
            JournalEvent::Interp { dispatches: 42, sends: 7 },
            JournalEvent::TrackWrite { track: 3, ok: true, bytes: 8192, backend: "sim".into() },
            JournalEvent::TrackRead { track: 3, ok: false, backend: "file".into() },
            JournalEvent::DiskSync { ok: true, backend: "file".into() },
            JournalEvent::DiskSync { ok: false, backend: "file".into() },
            JournalEvent::CacheAccess { track: 3, shard: 3, hit: true },
            JournalEvent::CacheFill { track: 9, commit: false },
            JournalEvent::CacheEvict { track: 2 },
            JournalEvent::ObjectFault { goop: 77 },
            JournalEvent::VerifyCheck { rejected: true },
            JournalEvent::EffectSummary {
                selector: "do:".into(),
                effect: "WritesLocal".into(),
                reads: 2,
                writes: 0,
            },
            JournalEvent::EffectClassify { static_ro: true },
            JournalEvent::EffectCommit,
            JournalEvent::EffectInvalidate,
            JournalEvent::SafeWriteGroup {
                tracks: 4,
                objects: 11,
                fsyncs: 2,
                backend: "file".into(),
            },
            JournalEvent::TxnAbort { conflict: true },
            JournalEvent::TxnConflict {
                kind: "overlap".into(),
                session: 2,
                start: 10,
                culprit_time: 12,
                culprit_session: 1,
                goops: vec![77, 90],
                tracks: vec![3],
            },
            JournalEvent::TxnConflict {
                kind: "watermark".into(),
                session: 0,
                start: 4,
                culprit_time: 9,
                culprit_session: 0,
                goops: vec![],
                tracks: vec![],
            },
            JournalEvent::CommitTimeline {
                session: 2,
                snapshot_age_us: 1500,
                validation_us: 40,
                safe_write_us: 900,
                fsync_us: 600,
                publish_us: 5,
            },
            JournalEvent::FsyncLatency { us: 480, backend: "file".into() },
            JournalEvent::StatsUpdate {
                set: 4096,
                path: "s3.i0".into(),
                cardinality: 100,
                total: 100,
                distinct: 10,
                fuzz: 0,
                points: "4059000000000000:5a,4024000000000000:a".into(),
            },
            JournalEvent::PlanChoice {
                session: 2,
                label: "Emp select: [:e | e dept = 7]".into(),
                chosen: "hash-join[v1=v0](scan v1, scan v0)".into(),
                cost_milli: 123_500,
                alternatives: 4,
                cost_based: true,
                replan: false,
            },
            JournalEvent::PlanChoice {
                session: 2,
                label: "no stats".into(),
                chosen: "scan v0".into(),
                cost_milli: 1000,
                alternatives: 1,
                cost_based: false,
                replan: true,
            },
            JournalEvent::PlanDrift {
                session: 2,
                label: "Emp select: [:e | e dept = 7]".into(),
                plan: "select(scan v0)".into(),
                op: 1,
                est: 3,
                actual: 90,
                err_pct: 2900,
            },
            JournalEvent::TxnCommit,
            JournalEvent::Recovery {
                roots_considered: 2,
                roots_valid: 1,
                roots_torn: 1,
                epoch: 5,
                tracks_salvaged: 9,
                tracks_discarded: 1,
                log_records: 3,
                reopen_reads: 12,
            },
            JournalEvent::CacheConfigured { tracks: 16 },
        ]
    }

    #[test]
    fn events_round_trip_through_lines() {
        for ev in sample_events() {
            let line = ev.to_line();
            let back = JournalEvent::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, ev, "round trip for {line}");
        }
    }

    /// The exact bytes the writer puts on the wire for every sample event,
    /// plus the three baseline events.  The journal's byte-exact replay
    /// contract rests on these lines never drifting within one schema.
    #[test]
    fn wire_lines_are_pinned() {
        let want = [
            r#"{"e":"txn_begin"}"#,
            r#"{"e":"statement","session":1,"wall_ns":1234,"label":"X := 1\n\"q\""}"#,
            r#"{"e":"interp","dispatches":42,"sends":7}"#,
            r#"{"e":"track_write","track":3,"ok":true,"bytes":8192,"backend":"sim"}"#,
            r#"{"e":"track_read","track":3,"ok":false,"backend":"file"}"#,
            r#"{"e":"disk_sync","ok":true,"backend":"file"}"#,
            r#"{"e":"disk_sync","ok":false,"backend":"file"}"#,
            r#"{"e":"cache_access","track":3,"shard":3,"hit":true}"#,
            r#"{"e":"cache_fill","track":9,"commit":false}"#,
            r#"{"e":"cache_evict","track":2}"#,
            r#"{"e":"object_fault","goop":77}"#,
            r#"{"e":"verify","rejected":true}"#,
            r#"{"e":"effect_summary","selector":"do:","effect":"WritesLocal","reads":2,"writes":0}"#,
            r#"{"e":"effect_classify","static_ro":true}"#,
            r#"{"e":"effect_commit"}"#,
            r#"{"e":"effect_invalidate"}"#,
            r#"{"e":"safe_write_group","tracks":4,"objects":11,"fsyncs":2,"backend":"file"}"#,
            r#"{"e":"txn_abort","conflict":true}"#,
            r#"{"e":"txn_conflict","kind":"overlap","session":2,"start":10,"culprit_time":12,"culprit_session":1,"goops":[77,90],"tracks":[3]}"#,
            r#"{"e":"txn_conflict","kind":"watermark","session":0,"start":4,"culprit_time":9,"culprit_session":0,"goops":[],"tracks":[]}"#,
            r#"{"e":"commit_timeline","session":2,"snapshot_age_us":1500,"validation_us":40,"safe_write_us":900,"fsync_us":600,"publish_us":5}"#,
            r#"{"e":"fsync_latency","us":480,"backend":"file"}"#,
            r#"{"e":"stats_update","set":4096,"path":"s3.i0","cardinality":100,"total":100,"distinct":10,"fuzz":0,"points":"4059000000000000:5a,4024000000000000:a"}"#,
            r#"{"e":"plan_choice","session":2,"label":"Emp select: [:e | e dept = 7]","chosen":"hash-join[v1=v0](scan v1, scan v0)","cost_milli":123500,"alternatives":4,"cost_based":true,"replan":false}"#,
            r#"{"e":"plan_choice","session":2,"label":"no stats","chosen":"scan v0","cost_milli":1000,"alternatives":1,"cost_based":false,"replan":true}"#,
            r#"{"e":"plan_drift","session":2,"label":"Emp select: [:e | e dept = 7]","plan":"select(scan v0)","op":1,"est":3,"actual":90,"err_pct":2900}"#,
            r#"{"e":"txn_commit"}"#,
            r#"{"e":"recovery","roots_considered":2,"roots_valid":1,"roots_torn":1,"epoch":5,"tracks_salvaged":9,"tracks_discarded":1,"log_records":3,"reopen_reads":12}"#,
            r#"{"e":"cache_configured","tracks":16}"#,
        ];
        let got: Vec<String> = sample_events().iter().map(JournalEvent::to_line).collect();
        assert_eq!(got, want);

        let mut buckets = [0u64; BUCKETS];
        buckets[0] = 1;
        buckets[2] = 1;
        buckets[10] = 1;
        let baselines = [
            JournalEvent::BaselineCounter { name: "a.b\t\u{1}".into(), value: 41 },
            JournalEvent::BaselineGauge { name: "g".into(), value: -6 },
            JournalEvent::BaselineHistogram {
                name: "lat".into(),
                snap: Box::new(HistogramSnapshot { count: 3, sum: 903, min: 0, max: 900, buckets }),
            },
            JournalEvent::BaselineHistogram {
                name: "empty".into(),
                snap: Box::new(HistogramSnapshot {
                    count: 0,
                    sum: 0,
                    min: 0,
                    max: 0,
                    buckets: [0; BUCKETS],
                }),
            },
        ];
        let got: Vec<String> = baselines.iter().map(JournalEvent::to_line).collect();
        assert_eq!(
            got,
            [
                r#"{"e":"base_counter","name":"a.b\t\u0001","value":41}"#,
                r#"{"e":"base_gauge","name":"g","value":-6}"#,
                r#"{"e":"base_hist","name":"lat","count":3,"sum":903,"min":0,"max":900,"buckets":"0:1,2:1,10:1"}"#,
                r#"{"e":"base_hist","name":"empty","count":0,"sum":0,"min":0,"max":0,"buckets":""}"#,
            ]
        );
        for ev in &baselines {
            assert_eq!(&JournalEvent::parse(&ev.to_line()).unwrap(), ev);
        }
    }

    /// A torn write leaves a line cut anywhere: the reader answers every
    /// prefix of every event line with `Ok` or `Err`, never a panic.
    #[test]
    fn every_line_prefix_parses_without_panic() {
        for ev in sample_events() {
            let line = ev.to_line();
            for (cut, _) in line.char_indices() {
                let _ = JournalEvent::parse(&line[..cut]);
            }
            assert_eq!(JournalEvent::parse(&line).as_ref(), Ok(&ev));
        }
    }

    #[test]
    fn apply_matches_live_counter_rules() {
        let r = MetricsRegistry::new();
        for ev in sample_events() {
            ev.apply_to(&r);
        }
        let s = r.snapshot();
        assert_eq!(s.counter("txn.begins"), 1);
        assert_eq!(s.counter("txn.commits"), 1);
        assert_eq!(s.counter("txn.aborts"), 1);
        assert_eq!(s.counter("txn.conflicts"), 1);
        assert_eq!(s.counter("session.statements"), 1);
        assert_eq!(s.counter("opal.interp.dispatches"), 42);
        assert_eq!(s.counter("storage.disk.writes"), 1);
        assert_eq!(s.counter("storage.disk.bytes_written"), 8192);
        assert_eq!(s.counter("storage.disk.failed_reads"), 1);
        assert_eq!(s.counter("storage.disk.fsyncs"), 1, "only the ok sync counts");
        assert_eq!(s.counter("storage.cache.hits"), 1);
        assert_eq!(s.counter("storage.cache.fills_read"), 1);
        assert_eq!(s.counter("storage.cache.evictions"), 1);
        assert_eq!(s.counter("storage.store.object_faults"), 1);
        assert_eq!(s.counter("storage.store.commits"), 1);
        assert_eq!(s.counter("storage.store.objects_written"), 11);
        assert_eq!(s.counter("opal.verify.checks"), 1);
        assert_eq!(s.counter("opal.verify.rejects"), 1);
        assert_eq!(s.counter("opal.effects.computed"), 1);
        assert_eq!(s.counter("opal.effects.writes_local"), 1);
        assert_eq!(s.counter("opal.effects.stmts_classified"), 1);
        assert_eq!(s.counter("opal.effects.stmts_static_ro"), 1);
        assert_eq!(s.counter("opal.effects.static_ro_commits"), 1);
        assert_eq!(s.counter("opal.effects.invalidations"), 1);
        assert_eq!(s.counter("calculus.stats.updates"), 1);
        assert_eq!(s.counter("calculus.plan.choices"), 2);
        assert_eq!(s.counter("calculus.plan.cost_based"), 1);
        assert_eq!(s.counter("calculus.plan.replans"), 1);
        assert_eq!(s.counter("calculus.plan.drift"), 1);
        assert_eq!(s.gauge("storage.recovery.epoch"), 5);
        assert_eq!(s.histogram("storage.commit.group_tracks").unwrap().count, 1);
        assert_eq!(s.histogram("session.statement_ns").unwrap().sum, 1234);
        assert_eq!(s.histogram("commit.phase.fsync_us").unwrap().sum, 600);
        assert_eq!(s.histogram("commit.phase.snapshot_age_us").unwrap().count, 1);
        assert_eq!(s.histogram("storage.disk.fsync_us").unwrap().sum, 480);
        assert_eq!(
            s.counter("txn.conflicts"),
            1,
            "txn_conflict events are forensic only; the paired abort moves the counter"
        );
    }

    #[test]
    fn baseline_reloads_absolute_state() {
        let live = MetricsRegistry::new();
        live.counter("a.b").add(41);
        live.gauge("g").set(-6);
        let h = live.histogram("lat");
        for v in [0u64, 3, 900] {
            h.record(v);
        }
        let snap = live.snapshot();

        let j = Journal::disabled();
        let dir = temp_dir("baseline");
        j.start(JournalConfig::at(&dir)).unwrap();
        j.emit_baseline(&snap);
        j.stop();

        let readout = Journal::read_from(&dir).unwrap();
        let replayed = replay(&readout.events).snapshot();
        assert_eq!(replayed, snap);
        assert_eq!(replayed.to_json_lines(), snap.to_json_lines());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_bounds_segments_and_marks_incomplete() {
        let j = Journal::disabled();
        let dir = temp_dir("rotate");
        j.start(JournalConfig { dir: dir.clone(), max_segment_bytes: 256, max_segments: 3 })
            .unwrap();
        for i in 0..200 {
            j.emit(&JournalEvent::TrackWrite {
                track: i,
                ok: true,
                bytes: 8192,
                backend: "sim".into(),
            });
        }
        j.flush();
        let (seq, live, _) = j.status().unwrap();
        assert!(seq > 3, "many rotations happened: seq={seq}");
        assert!(live <= 3, "segment budget enforced: {live}");
        let on_disk = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().starts_with("journal-"))
            .count();
        assert!(on_disk <= 3, "old segments deleted from disk: {on_disk}");

        let readout = Journal::read_from(&dir).unwrap();
        assert!(!readout.complete, "rotated-away head makes the journal incomplete");
        assert!(readout.events.len() < 200, "oldest events gone");
        assert!(!readout.events.is_empty());
        j.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_schema_version_is_rejected() {
        let dir = temp_dir("schema");
        std::fs::write(
            dir.join("journal-00000001.jsonl"),
            "{\"e\":\"header\",\"v\":99,\"seq\":1}\n{\"e\":\"txn_begin\"}\n",
        )
        .unwrap();
        let err = Journal::read_from(&dir).unwrap_err();
        assert!(err.contains("unsupported journal schema v99"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segment_without_header_is_rejected() {
        let dir = temp_dir("headerless");
        std::fs::write(dir.join("journal-00000001.jsonl"), "\n{\"e\":\"txn_begin\"}\n").unwrap();
        let err = Journal::read_from(&dir).unwrap_err();
        assert!(err.contains("segment 1 header"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_event_is_rejected() {
        let dir = temp_dir("unknown-event");
        std::fs::write(
            dir.join("journal-00000001.jsonl"),
            format!("{}{{\"e\":\"warp_drive\",\"x\":1}}\n", header_line(1)),
        )
        .unwrap();
        let err = Journal::read_from(&dir).unwrap_err();
        assert!(err.contains("unknown journal event"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_journal_emits_nothing() {
        let j = Journal::disabled();
        j.emit(&JournalEvent::TxnBegin);
        assert!(j.dir().is_none());
        assert!(!j.enabled());
    }

    #[test]
    fn partial_trailing_line_is_tolerated() {
        let dir = temp_dir("partial");
        std::fs::write(
            dir.join("journal-00000001.jsonl"),
            format!("{}{{\"e\":\"txn_begin\"}}\n{{\"e\":\"txn_co", header_line(1)),
        )
        .unwrap();
        let readout = Journal::read_from(&dir).unwrap();
        assert_eq!(readout.events, vec![JournalEvent::TxnBegin]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
