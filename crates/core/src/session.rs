//! Sessions: a private object space over the shared permanent database.
//!
//! §6: "Each user session in the GemStone system has its own invocation of
//! the Interpreter, and its own Object Manager with a private object space.
//! Sessions have shared access to the permanent database through
//! transactions."
//!
//! A [`Session`]:
//! * faults committed objects into its [`Workspace`] on first touch,
//!   resolving unswizzled references through the GOOP table (§6);
//! * holds an immutable `Arc<CommittedView>` snapshot refreshed at
//!   transaction begin, and reads (faults, directory lookups, query
//!   evaluation) *as of* that snapshot, lock-free against the concurrent
//!   store — committers never block readers;
//! * tracks reads and writes for optimistic validation; mutation stays in
//!   the session-local workspace until commit, which is the only point
//!   that touches shared state (under the database's commit lock);
//! * carries the [`TimeDial`] — when set, every element fetch is conducted
//!   in that past database state and writes are refused;
//! * implements [`OpalWorld`] so the OPAL interpreter runs directly against
//!   it, and [`QueryContext`] so compiled selection blocks plan against the
//!   Directory Manager.

use crate::auth::{Access, AuthTable, DBA};
use crate::db::{CommittedView, Database, Schema};
use crate::meta::MethodSource;
use gemstone_calculus::{
    est_err_pct, scrape_selectivities, AlgExpr, IndexCatalog, JoinKey, OpProfile, PlanDecision,
    PlanOptions, PlanStats, Query, QueryContext, StatsView, Term, VarId, VarStats,
};
use gemstone_object::{
    structurally_equal, value_key, BodyFormat, ClassId, ConflictKind, ElemName, GemError,
    GemResult, Goop, HeapObject, Kernel, MethodId, MethodRef, Oop, OopKind, PRef, SegmentId,
    SymbolId, Workspace,
};
use gemstone_opal::{
    compile_doit_with_lints, effects, CompiledMethod, Effect, EffectSummary, Interpreter, Lint,
    OpalWorld, QueryTemplate,
};
use gemstone_storage::{DirKey, ObjectDelta};
use gemstone_telemetry::{
    Counter, Histogram, JournalEvent, MetricsRegistry, MetricsSnapshot, OpenSpan, SpanEvent,
    SpanKind, Telemetry,
};
use gemstone_temporal::{TimeDial, TxnTime};
use gemstone_txn::{AccessSet, ConflictReport, SlotId, TxnToken};
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// High bit of a [`MethodId`] marking a session-local doIt body (lives in
/// the session's private table, never in the shared method vector).
const LOCAL_METHOD_BIT: u32 = 1 << 31;

/// A logged-in session.
pub struct Session {
    db: Arc<Database>,
    ws: Workspace,
    user: String,
    txn: Option<TxnToken>,
    /// The committed snapshot this session reads against: refreshed at
    /// transaction begin, immutable (and lock-free to read) afterwards.
    snap: Arc<CommittedView>,
    /// The committed time every clean cached copy in `ws` is current as of
    /// (or newer): what the next transaction begin refreshes forward from.
    ws_time: TxnTime,
    reads: AccessSet,
    dial: TimeDial,
    /// Globals assigned this transaction, not yet committed.
    pending_globals: HashMap<SymbolId, Oop>,
    /// True once this transaction wrote a *committed* object (directories
    /// then decline to serve queries until commit/abort).
    wrote_committed: bool,
    kernel: Kernel,
    block_class: ClassId,
    /// Session-local doIt bodies (statement code), indexed by
    /// `MethodId & !LOCAL_METHOD_BIT`. Executing statements therefore
    /// takes no shared method lock.
    local_methods: Vec<Arc<CompiledMethod>>,
    /// The plan and operator counters of the most recent query this session
    /// evaluated (select block or [`Session::query`]) — what `explain()`
    /// renders.
    last_plan: Option<(AlgExpr, PlanStats)>,
    /// Compile-time lints from the most recent [`Session::run`] (unused
    /// temporaries, shadowing, unreachable statements, impure select
    /// blocks). Advisory: a lint never blocks execution.
    last_lints: Vec<Lint>,
    /// Telemetry bundle shared with the database (clones share state).
    telemetry: Telemetry,
    /// Nonzero id attributing this session's spans in the shared tracer.
    session_id: u64,
    /// Lazily recorded session marker span (0 until tracing records one).
    session_span: u64,
    /// The open transaction span, when tracing captured the txn begin.
    txn_span: Option<OpenSpan>,
    /// Current statement span id — the parent of plan-operator and
    /// track-I/O spans (0 outside a statement or when unsampled).
    stmt_span: u64,
    /// True while [`Session::run`] is on the stack (distinguishes an
    /// unsampled statement from no statement at all).
    stmt_active: bool,
    /// Cached registry handles this session bumps (shared atomics).
    m: SessionMetrics,
    /// Profile the next query evaluation (set by `explain_analyze`).
    profile_next: bool,
    /// Per-operator profile of the most recent profiled query.
    last_profile: Option<OpProfile>,
    /// True when the current statement evaluated a select block / query.
    plan_this_stmt: bool,
    /// Statements at least this slow land in the slow log. `None` = off.
    slow_threshold_ns: Option<u64>,
    slow_log: Vec<SlowStatement>,
    /// Consecutive overlap conflicts; a storm (≥ 8) auto-captures a
    /// diagnostic bundle when the flight recorder is running. Watermark
    /// refusals (stale snapshot, not contention) neither feed nor reset it.
    consecutive_conflicts: u32,
    /// Clock stamp (ns) of the current transaction's begin — the zero
    /// point of the commit timeline's snapshot-age phase.
    txn_began_ns: u64,
    /// True while every statement of the open transaction was statically
    /// summarized `Pure`/`ReadOnly` *before* execution — the commit then
    /// skips the dirty-object walk and write-set construction entirely.
    /// Any unclassified entry point (a raw [`Session::send`], a direct
    /// OpalWorld write, a segment move) conservatively clears it.
    txn_static_ro: bool,
    /// True while the interpreter is running a statement the analysis
    /// proved read-only: a soundness tripwire — any write reaching the
    /// workspace under this flag is an analysis bug (debug-asserted).
    stmt_static_ro: bool,
    /// The effect summary of the most recent statement [`Session::run`]
    /// classified (what the REPL's `:effects` and tests inspect).
    last_effect: Option<EffectSummary>,
    /// How the planner chose the most recent query's plan (canonical plan,
    /// cost, alternatives) — `None` until a query runs.
    last_decision: Option<PlanChoiceRecord>,
    /// Label of the statement currently (or most recently) running, used
    /// to attribute `PlanChoice`/`PlanDrift` journal events.
    stmt_label: String,
}

/// The observable record of one planning decision: what `PlanChoice`
/// journals and what the plan-regression gate string-matches on.
#[derive(Debug, Clone)]
pub struct PlanChoiceRecord {
    /// Canonical chosen-plan string (`AlgExpr::describe`).
    pub canon: String,
    /// Estimated cost of the chosen plan, in row-visit units.
    pub est_cost: f64,
    /// Considered `(canonical plan, estimated cost)` pairs, chosen first.
    pub alternatives: Vec<(String, f64)>,
    /// True when statistics actually drove the choice.
    pub cost_based: bool,
    /// True when this plan followed a drift-triggered stats refresh.
    pub replan: bool,
}

/// What [`Session::resolve_stats_view`] hands the planner: per-range
/// `(var, committed-set goop)` pairs, the resolved statistics view, and
/// whether a drift-triggered refresh means this plan is a re-plan.
type ResolvedStats = (Vec<(u16, Option<u64>)>, Option<StatsView>, bool);

/// Consecutive conflicts that count as a storm (bundle auto-capture).
const CONFLICT_STORM_THRESHOLD: u32 = 8;

/// Estimate-vs-actual ratio at which an analyzed run counts as plan drift.
const DRIFT_RATIO: u64 = 4;
/// Noise floor for drift: both sides tiny means the miss is meaningless.
const DRIFT_FLOOR: u64 = 16;

/// One slow-log entry: a statement that exceeded the session's threshold.
#[derive(Clone, Debug)]
pub struct SlowStatement {
    /// The OPAL source text as submitted.
    pub source: String,
    /// The plan of the query the statement evaluated, or a placeholder
    /// when it ran no select block.
    pub plan_summary: String,
    pub wall_ns: u64,
}

/// Slow-log entries kept per session before new ones are dropped.
const SLOW_LOG_CAP: usize = 128;

/// The registry handles a session increments on its hot paths, resolved
/// once at login (get-or-create) so steady-state updates are lock-free
/// atomic adds on cells shared database-wide.
struct SessionMetrics {
    statements: Counter,
    statement_ns: Histogram,
    dispatches: Counter,
    sends: Counter,
    verify_checks: Counter,
    verify_rejects: Counter,
    rows_scanned: Counter,
    index_rows: Counter,
    index_hits: Counter,
    index_fallbacks: Counter,
    select_in: Counter,
    select_out: Counter,
    nest_loops: Counter,
    hash_builds: Counter,
    hash_probes: Counter,
    hash_matches: Counter,
    rows_out: Counter,
    effects_computed: Counter,
    effects_pure: Counter,
    effects_read_only: Counter,
    effects_writes_local: Counter,
    effects_writes_global: Counter,
    effects_unknown: Counter,
    effects_stmts_classified: Counter,
    effects_stmts_static_ro: Counter,
    effects_static_ro_commits: Counter,
    effects_invalidations: Counter,
    phase_snapshot_age: Histogram,
    phase_validation: Histogram,
    phase_safe_write: Histogram,
    phase_fsync: Histogram,
    phase_publish: Histogram,
    plan_choices: Counter,
    plan_cost_based: Counter,
    plan_replans: Counter,
    plan_drift: Counter,
}

impl SessionMetrics {
    fn bind(r: &MetricsRegistry) -> SessionMetrics {
        SessionMetrics {
            statements: r.counter("session.statements"),
            statement_ns: r.histogram("session.statement_ns"),
            dispatches: r.counter("opal.interp.dispatches"),
            sends: r.counter("opal.interp.sends"),
            verify_checks: r.counter("opal.verify.checks"),
            verify_rejects: r.counter("opal.verify.rejects"),
            rows_scanned: r.counter("calculus.rows_scanned"),
            index_rows: r.counter("calculus.index_rows"),
            index_hits: r.counter("calculus.index_hits"),
            index_fallbacks: r.counter("calculus.index_fallbacks"),
            select_in: r.counter("calculus.select_in"),
            select_out: r.counter("calculus.select_out"),
            nest_loops: r.counter("calculus.nest_loops"),
            hash_builds: r.counter("calculus.hash_builds"),
            hash_probes: r.counter("calculus.hash_probes"),
            hash_matches: r.counter("calculus.hash_matches"),
            rows_out: r.counter("calculus.rows_out"),
            effects_computed: r.counter("opal.effects.computed"),
            effects_pure: r.counter("opal.effects.pure"),
            effects_read_only: r.counter("opal.effects.read_only"),
            effects_writes_local: r.counter("opal.effects.writes_local"),
            effects_writes_global: r.counter("opal.effects.writes_global"),
            effects_unknown: r.counter("opal.effects.unknown"),
            effects_stmts_classified: r.counter("opal.effects.stmts_classified"),
            effects_stmts_static_ro: r.counter("opal.effects.stmts_static_ro"),
            effects_static_ro_commits: r.counter("opal.effects.static_ro_commits"),
            effects_invalidations: r.counter("opal.effects.invalidations"),
            phase_snapshot_age: r.histogram("commit.phase.snapshot_age_us"),
            phase_validation: r.histogram("commit.phase.validation_us"),
            phase_safe_write: r.histogram("commit.phase.safe_write_us"),
            phase_fsync: r.histogram("commit.phase.fsync_us"),
            phase_publish: r.histogram("commit.phase.publish_us"),
            plan_choices: r.counter("calculus.plan.choices"),
            plan_cost_based: r.counter("calculus.plan.cost_based"),
            plan_replans: r.counter("calculus.plan.replans"),
            plan_drift: r.counter("calculus.plan.drift"),
        }
    }

    /// The per-effect-class counter for one computed summary (the live
    /// twin of the journal's `effect_class_counter` replay rule).
    fn effect_class(&self, e: Effect) -> &Counter {
        match e {
            Effect::Pure => &self.effects_pure,
            Effect::ReadOnly => &self.effects_read_only,
            Effect::WritesLocal => &self.effects_writes_local,
            Effect::WritesGlobal => &self.effects_writes_global,
            Effect::Unknown => &self.effects_unknown,
        }
    }

    /// Fold one query's operator counters into the registry.
    fn note_plan(&self, s: &PlanStats) {
        self.rows_scanned.add(s.rows_scanned);
        self.index_rows.add(s.index_rows);
        self.index_hits.add(s.index_hits);
        self.index_fallbacks.add(s.index_fallbacks);
        self.select_in.add(s.select_in);
        self.select_out.add(s.select_out);
        self.nest_loops.add(s.nest_loops);
        self.hash_builds.add(s.hash_builds);
        self.hash_probes.add(s.hash_probes);
        self.hash_matches.add(s.hash_matches);
        self.rows_out.add(s.rows_out);
    }
}

impl Session {
    pub(crate) fn login(db: Arc<Database>, user: &str) -> Session {
        let (kernel, block_class) = {
            let schema = db.schema.read();
            (schema.kernel, schema.block_class)
        };
        let snap = db.committed_view();
        let ws_time = snap.time;
        let telemetry = db.telemetry().clone();
        let session_id = telemetry.new_session_id();
        let m = SessionMetrics::bind(&telemetry.registry);
        Session {
            db,
            ws: Workspace::new(),
            user: user.to_string(),
            txn: None,
            snap,
            ws_time,
            reads: AccessSet::new(),
            dial: TimeDial::now(),
            pending_globals: HashMap::new(),
            wrote_committed: false,
            kernel,
            block_class,
            local_methods: Vec::new(),
            last_plan: None,
            last_lints: Vec::new(),
            telemetry,
            session_id,
            session_span: 0,
            txn_span: None,
            stmt_span: 0,
            stmt_active: false,
            m,
            profile_next: false,
            last_profile: None,
            plan_this_stmt: false,
            slow_threshold_ns: None,
            slow_log: Vec::new(),
            consecutive_conflicts: 0,
            txn_began_ns: 0,
            txn_static_ro: true,
            stmt_static_ro: false,
            last_effect: None,
            last_decision: None,
            stmt_label: String::new(),
        }
    }

    pub(crate) fn internal_login(db: Arc<Database>) -> Session {
        Session::login(db, DBA)
    }

    /// The shared database.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// The session's user name.
    pub fn user(&self) -> &str {
        &self.user
    }

    // ----------------------------------------------------- transactions

    fn ensure_txn(&mut self) -> GemResult<()> {
        if self.txn.is_none() {
            // Snapshot refresh, then registration — atomically with
            // respect to log pruning. `begin_at_checked` refuses a start
            // the log has been pruned past (a concurrent commit won the
            // window between our view read and registration); the refusal
            // means a newer view is already published, so re-reading and
            // retrying always makes progress. Once registered, pruning
            // never passes our start, so a writing commit cannot be
            // conservatively aborted by the watermark.
            self.txn = Some(loop {
                self.snap = self.db.committed_view();
                if let Some(token) =
                    self.db.txns.begin_at_checked_for(self.snap.time, self.session_id)
                {
                    break token;
                }
                std::thread::yield_now();
            });
            self.txn_began_ns = self.telemetry.clock().now_ns();
            if self.telemetry.tracer.enabled() {
                let parent = self.ensure_session_span();
                self.txn_span = Some(self.telemetry.tracer.begin(
                    SpanKind::Transaction,
                    self.session_id,
                    parent,
                    "txn",
                ));
            }
            self.reads.clear();
            self.txn_static_ro = true;
            if let Err(e) = self.refresh_workspace() {
                // A cached copy could not be brought up to the snapshot:
                // the transaction must not run against it.
                self.abort();
                return Err(e);
            }
        }
        Ok(())
    }

    /// Record the session's marker span on first use while tracing is on,
    /// so transaction and statement spans have a per-session root.
    fn ensure_session_span(&mut self) -> u64 {
        if self.session_span == 0 {
            let start = self.telemetry.clock().now_ns();
            let end = self.telemetry.clock().now_ns();
            self.session_span = self.telemetry.tracer.record(
                SpanKind::Session,
                self.session_id,
                0,
                &format!("session {}", self.user),
                start,
                end,
            );
        }
        self.session_span
    }

    fn end_txn_span(&mut self) {
        if let Some(sp) = self.txn_span.take() {
            self.telemetry.tracer.end(sp);
        }
    }

    /// The innermost live span id — what store-level track-I/O spans and
    /// plan-operator spans attach to.
    fn io_parent(&self) -> u64 {
        if self.stmt_span != 0 {
            self.stmt_span
        } else {
            self.txn_span.as_ref().map(|s| s.id()).unwrap_or(self.session_span)
        }
    }

    /// The committed time this session's faults read at: the transaction
    /// snapshot while one is open, else the latest published commit.
    fn read_time(&self) -> TxnTime {
        if self.txn.is_some() {
            self.snap.time
        } else {
            self.db.committed_view().time
        }
    }

    /// Bring cached committed copies up to the transaction's snapshot, so a
    /// new transaction sees a fresh consistent state while session pointers
    /// stay stable. Only the objects the view's change feed names since
    /// `ws_time` are re-read — none when nothing was committed in between;
    /// a session idle past the feed's horizon re-reads its whole workspace.
    fn refresh_workspace(&mut self) -> GemResult<()> {
        let snap = self.snap.clone();
        let targets: Vec<(Oop, Goop)> = match snap.changed_since(self.ws_time) {
            Some(changed) => {
                let mut named: Vec<Goop> = changed.collect();
                named.sort_unstable();
                named.dedup();
                named.into_iter().filter_map(|g| Some((self.ws.lookup_goop(g)?, g))).collect()
            }
            None => self.ws.iter().filter_map(|(oop, o)| o.goop.map(|g| (oop, g))).collect(),
        };
        let session_id = self.session_id;
        let io_parent = self.io_parent();
        for (oop, goop) in targets {
            let pobj = self.db.store.get_traced(goop, session_id, io_parent)?;
            let class = pobj.class;
            let segment = pobj.segment;
            let alias_next = pobj.alias_next;
            let elems: Vec<(ElemName, PRef)> = pobj.elements_at(snap.time).collect();
            let bytes = pobj.bytes_at(snap.time).map(|b| b.to_vec());
            drop(pobj);
            let mut elements = BTreeMap::new();
            for (name, v) in elems {
                elements.insert(name, pref_to_oop(&self.ws, v));
            }
            let obj = self.ws.get_mut(oop).expect("refresh target");
            obj.class = class;
            obj.refresh_from_fault(elements, bytes, alias_next, segment);
        }
        self.ws_time = snap.time;
        Ok(())
    }

    /// Commit the current transaction: optimistic validation, then the
    /// Linker/Boxer/Commit-Manager pipeline, then directory maintenance,
    /// then snapshot publication. Writing commits serialize on the
    /// database's commit lock; read-only commits skip it entirely.
    pub fn commit(&mut self) -> GemResult<TxnTime> {
        let Some(token) = self.txn else {
            // Nothing read or written: trivially committed "at" now.
            return Ok(self.db.txns.now());
        };
        // Statically proven read-only: every statement this transaction
        // ran was summarized Pure/ReadOnly before execution, so the
        // workspace cannot hold a dirty object — skip the dirty walk, the
        // delta vector and the write-set construction entirely and commit
        // lock-free with an empty write set. (A schema flush staged by
        // concurrent DDL still takes the full path.)
        if self.txn_static_ro
            && self.pending_globals.is_empty()
            && !self.db.schema.read().schema_dirty
        {
            debug_assert!(
                self.ws.dirty_objects().is_empty(),
                "effect analysis misclassified a writing transaction as read-only"
            );
            let time = self.db.txns.commit(token, &self.reads, &AccessSet::new())?;
            self.m.effects_static_ro_commits.inc();
            if self.telemetry.journal.enabled() {
                self.telemetry.journal.emit(&JournalEvent::EffectCommit);
            }
            self.consecutive_conflicts = 0;
            self.reads.clear();
            self.txn = None;
            self.wrote_committed = false;
            self.end_txn_span();
            return Ok(time);
        }
        // 1. Assign identities to new dirty objects (the store's GOOP
        //    allocator is internally synchronized).
        let dirty = self.ws.dirty_objects();
        for &oop in &dirty {
            let obj = self.ws.get_mut(oop)?;
            if obj.goop.is_none() {
                let g = self.db.store.alloc_goop();
                obj.goop = Some(g);
                self.ws.bind_goop(oop, g);
            }
        }
        // 2. Build deltas and the write set.
        let mut writes = AccessSet::new();
        let mut deltas = Vec::with_capacity(dirty.len());
        for &oop in &dirty {
            let obj = self.ws.get(oop)?;
            let goop = obj.goop.expect("assigned above");
            let mut elem_writes = Vec::new();
            if obj.is_new() {
                writes.record(SlotId::Object(goop));
                for (name, v) in obj.raw_elements() {
                    elem_writes.push((name, self.oop_to_pref(v)?));
                }
            } else {
                for name in obj.dirty_elems() {
                    writes.record(SlotId::Elem(goop, name));
                    elem_writes.push((name, self.oop_to_pref(obj.elem(name))?));
                }
                if elem_writes.is_empty() && !obj.bytes_dirty() {
                    // Dirty with no element or byte write: a segment move.
                    // It still changes the object, so it must consume a
                    // commit time and be validated like any other write.
                    writes.record(SlotId::Object(goop));
                }
            }
            let bytes_write = if obj.is_new() || obj.bytes_dirty() {
                if obj.bytes_dirty() {
                    writes.record(SlotId::Bytes(goop));
                }
                obj.bytes().map(|b| b.to_vec())
            } else {
                None
            };
            deltas.push(ObjectDelta {
                goop,
                class: obj.class,
                segment: obj.segment,
                alias_next: obj.alias_next(),
                elem_writes,
                bytes_write,
                is_new: obj.is_new(),
            });
        }
        // Read-only fast path: nothing to persist, so validation is
        // trivial (the transaction serializes at its snapshot) and the
        // commit pipeline — and its lock — is skipped entirely.
        let schema_write = !self.pending_globals.is_empty() || self.db.schema.read().schema_dirty;
        if deltas.is_empty() && !schema_write {
            let time = self.db.txns.commit(token, &self.reads, &writes)?;
            self.consecutive_conflicts = 0;
            self.reads.clear();
            self.txn = None;
            self.wrote_committed = false;
            self.end_txn_span();
            return Ok(time);
        }
        // 3. Validate, serialized with every other writing commit so the
        //    validation order, the storage write order, and the snapshot
        //    publication order all agree. Two-phase: `prepare` validates
        //    and assigns the commit time but logs nothing — the commit is
        //    only recorded (`finalize`) after the safe-write group is on
        //    disk, so a storage failure leaves no phantom commit in the
        //    validation log or the prune watermark.
        // Commit-timeline phase 1: how stale the snapshot is by the time
        // the writing commit enters validation. Phase 2 (validation)
        // includes the wait for the commit lock — under contention that
        // wait *is* the validation story.
        let validate_from = self.telemetry.clock().now_ns();
        let snapshot_age_us = validate_from.saturating_sub(self.txn_began_ns) / 1_000;
        let db = self.db.clone();
        let _commit = db.commit_lock.lock();
        let time = match self.db.txns.prepare(&token, &self.reads, &writes) {
            Ok(t) => t,
            Err(e) => {
                // Conflict: the transaction is dead; discard its workspace.
                self.end_txn_span();
                self.discard_workspace();
                if let GemError::TransactionConflict { kind, .. } = &e {
                    match kind {
                        ConflictKind::Overlap => {
                            self.consecutive_conflicts += 1;
                            if self.consecutive_conflicts == CONFLICT_STORM_THRESHOLD {
                                self.db.capture_bundle("conflict-storm");
                            }
                        }
                        // A watermark refusal is snapshot staleness, not
                        // contention: it neither feeds nor resets the storm.
                        ConflictKind::Watermark => {}
                    }
                }
                return Err(e);
            }
        };
        self.consecutive_conflicts = 0;
        let validation_us = self.telemetry.clock().now_ns().saturating_sub(validate_from) / 1_000;
        // 4. Persist (metadata travels in the same safe-write group). A
        //    schema-only commit consumed no transaction time: it rewrites
        //    metadata at the unchanged committed time.
        let committed = self.db.committed_view();
        debug_assert!(
            deltas.is_empty() || time > committed.time,
            "a commit that changes objects must publish at a fresh time"
        );
        let store_time = if time > committed.time { time } else { committed.time };
        let pending: Vec<(SymbolId, Oop)> = self.pending_globals.drain().collect();
        let mut globals = committed.globals.clone();
        if !pending.is_empty() {
            let mut next = (*globals).clone();
            for (sym, v) in pending {
                let p = match v.kind() {
                    OopKind::Heap(_) => PRef::goop(
                        self.ws.get(v)?.goop.expect("globals commit after goop assignment"),
                    ),
                    OopKind::Ref(g) => PRef::goop(g),
                    _ => v.to_pref_immediate().expect("immediate"),
                };
                next.insert(sym, p);
            }
            globals = Arc::new(next);
        }
        let phases;
        let publish_us;
        let mut stats_updates = Vec::new();
        {
            let mut schema = self.db.schema.write();
            let rebound = !Arc::ptr_eq(&globals, &committed.globals);
            schema.flush_meta(&self.db.store, rebound.then_some(&*globals));
            phases = match self.db.store.commit_batch_traced(
                store_time,
                &deltas,
                self.session_id,
                self.io_parent(),
            ) {
                Ok(p) => p,
                Err(e) => {
                    // Storage failure: the prepared transaction dies with no
                    // trace in the commit log — nothing was published, so
                    // later snapshots validate against a consistent history.
                    drop(schema);
                    self.db.txns.abort(token);
                    self.end_txn_span();
                    self.discard_workspace();
                    return Err(e);
                }
            };
            // 5. Directory maintenance (§6: the Linker "calling for
            //    restructuring of directories as needed").
            let Schema { symbols, dirs, .. } = &mut *schema;
            if let Err(e) = dirs.on_commit(&self.db.store, symbols, &deltas, store_time) {
                drop(schema);
                self.db.txns.abort(token);
                self.end_txn_span();
                self.discard_workspace();
                return Err(e);
            }
            // Statistics maintenance rides the same choke point: refresh
            // cardinality and key sketches for the sets this batch touched.
            // Best-effort — the commit is already durable, so a refresh
            // failure degrades statistics, never the commit. Journaling
            // happens after the schema lock drops.
            if self.db.stats_maintenance_enabled() {
                let Schema { dirs, stats, stats_dirty, .. } = &mut *schema;
                stats_updates = dirs
                    .refresh_stats_for_deltas(&self.db.store, &deltas, stats, store_time.ticks())
                    .unwrap_or_default();
                if !stats_updates.is_empty() {
                    *stats_dirty = true;
                }
            }
            // The writes are durable: log the commit and publish the view.
            let publish_from = self.telemetry.clock().now_ns();
            self.db.txns.finalize(token, time, writes)?;
            let changed = deltas.iter().map(|d| d.goop);
            let view = Arc::new(committed.advanced(store_time, globals, changed));
            *self.db.committed.write() = view.clone();
            self.snap = view;
            publish_us = self.telemetry.clock().now_ns().saturating_sub(publish_from) / 1_000;
        }
        self.db.journal_stats_updates(&stats_updates);
        // Commit timeline: record the phase breakdown and journal it with
        // the *same* values, so replaying the journal rebuilds the
        // `commit.phase.*` histograms byte-exactly.
        self.m.phase_snapshot_age.record(snapshot_age_us);
        self.m.phase_validation.record(validation_us);
        self.m.phase_safe_write.record(phases.safe_write_us);
        self.m.phase_fsync.record(phases.fsync_us);
        self.m.phase_publish.record(publish_us);
        if self.telemetry.journal.enabled() {
            self.telemetry.journal.emit(&JournalEvent::CommitTimeline {
                session: self.session_id,
                snapshot_age_us,
                validation_us,
                safe_write_us: phases.safe_write_us,
                fsync_us: phases.fsync_us,
                publish_us,
            });
        }
        // 6. The workspace copies are now clean cached copies. `ws_time`
        //    stays at this transaction's start: objects it never read may
        //    have changed under foreign commits since, and the next begin
        //    must still refresh them.
        for &oop in &dirty {
            let goop = self.ws.get(oop)?.goop.expect("assigned");
            self.ws.get_mut(oop)?.mark_committed(goop);
        }
        self.reads.clear();
        self.txn = None;
        self.wrote_committed = false;
        self.end_txn_span();
        Ok(store_time)
    }

    /// Abort: discard every uncommitted change. "An entire session workspace
    /// can be discarded" (§6).
    pub fn abort(&mut self) {
        if let Some(token) = self.txn.take() {
            self.db.txns.abort(token);
        }
        self.end_txn_span();
        self.discard_workspace();
    }

    fn discard_workspace(&mut self) {
        self.ws = Workspace::new();
        // Whatever is faulted from here on is read at `snap.time` or later.
        self.ws_time = self.snap.time;
        self.pending_globals.clear();
        self.reads.clear();
        self.txn = None;
        self.wrote_committed = false;
    }

    // -------------------------------------------------------- time dial

    /// Set the time dial: subsequent reads see the database state at `t`;
    /// writes are refused until the dial returns to now.
    pub fn set_time_dial(&mut self, t: TxnTime) {
        self.dial.set(t);
    }

    /// Return the dial to the present.
    pub fn time_dial_now(&mut self) {
        self.dial.reset();
    }

    /// §5.4's SafeTime: the most recent state no running transaction can
    /// change.
    pub fn safe_time(&self) -> TxnTime {
        self.db.txns.safe_time()
    }

    /// The recovery report of the reopening that produced this session's
    /// database (all-default if the database was freshly created). Lets a
    /// session observe and assert what crash recovery saw.
    pub fn recovery_report(&self) -> gemstone_storage::RecoveryReport {
        self.db.recovery_report()
    }

    // ------------------------------------------------- faulting & refs

    /// Resolve a value to a usable session pointer, faulting committed
    /// objects on first touch (the GOOP "resolved through a global object
    /// table", §6).
    pub fn swizzle(&mut self, oop: Oop) -> GemResult<Oop> {
        match oop.as_unswizzled() {
            None => Ok(oop),
            Some(g) => {
                if let Some(local) = self.ws.lookup_goop(g) {
                    return Ok(local);
                }
                self.fault(g)
            }
        }
    }

    fn fault(&mut self, goop: Goop) -> GemResult<Oop> {
        let t = self.read_time();
        let pobj = self.db.store.get_traced(goop, self.session_id, self.io_parent())?;
        self.authorize(pobj.segment, Access::Read)?;
        let class = pobj.class;
        let segment = pobj.segment;
        let alias_next = pobj.alias_next;
        let elems: Vec<(ElemName, PRef)> = pobj.elements_at(t).collect();
        let bytes = pobj.bytes_at(t).map(|b| b.to_vec());
        drop(pobj);
        let mut elements = BTreeMap::new();
        for (name, v) in elems {
            elements.insert(name, pref_to_oop(&self.ws, v));
        }
        let obj = HeapObject::faulted(class, goop, segment, elements, bytes, alias_next);
        Ok(self.ws.alloc(obj))
    }

    /// A workspace write or allocation is happening: the transaction can
    /// no longer claim the static read-only commit path. During a
    /// statement the analysis proved read-only this must be unreachable —
    /// the debug assertion is the soundness tripwire every write-bearing
    /// test in the suite arms.
    fn note_write(&mut self) {
        debug_assert!(
            !self.stmt_static_ro,
            "write during a statement the effect analysis classified read-only"
        );
        self.txn_static_ro = false;
    }

    fn oop_to_pref(&self, oop: Oop) -> GemResult<PRef> {
        match oop.kind() {
            OopKind::Ref(g) => Ok(PRef::goop(g)),
            OopKind::Heap(_) => {
                let g =
                    self.ws.get(oop)?.goop.ok_or_else(|| {
                        GemError::Corrupt("uncommitted object escaped commit".into())
                    })?;
                Ok(PRef::goop(g))
            }
            _ => Ok(oop.to_pref_immediate().expect("immediate")),
        }
    }

    fn record_read(&mut self, slot: SlotId) {
        if !self.dial.in_past() {
            self.reads.record(slot);
        }
    }

    /// True if the session has uncommitted writes to *committed* objects
    /// (directories then decline to serve queries, because they reflect only
    /// committed state — transient scratch objects cannot be in a committed
    /// collection, so they don't count).
    pub fn has_local_writes(&self) -> bool {
        self.wrote_committed
    }

    /// Move an object to a protection segment (DBA operation; the change
    /// commits with the object).
    pub fn set_segment(&mut self, obj: Oop, segment: SegmentId) -> GemResult<()> {
        if self.user != DBA {
            return Err(GemError::AuthorizationDenied {
                segment: segment.0,
                detail: "only the DBA may move objects between segments".into(),
            });
        }
        let obj = self.swizzle(obj)?;
        self.txn_static_ro = false;
        let o = self.ws.get_mut(obj)?;
        o.segment = segment;
        o.touch_for_commit(); // the segment change must reach the disk
        Ok(())
    }

    // ------------------------------------------------------- execution

    /// Compile and execute a block of OPAL source, returning the value of
    /// its last statement (§6: "Communication with GemStone is done in
    /// blocks of OPAL source code. Compilation and execution of those blocks
    /// is done entirely in the GemStone system").
    pub fn run(&mut self, source: &str) -> GemResult<Oop> {
        let t0 = self.telemetry.clock().now_ns();
        if let Err(e) = self.ensure_txn() {
            self.capture_failure(&e);
            return Err(e);
        }
        let parent = if self.telemetry.tracer.enabled() {
            match self.txn_span.as_ref() {
                Some(s) => s.id(),
                None => self.ensure_session_span(),
            }
        } else {
            0
        };
        let label: String = source.chars().take(60).collect();
        self.stmt_label = label.clone();
        let span =
            self.telemetry.tracer.begin(SpanKind::Statement, self.session_id, parent, &label);
        self.stmt_span = span.id();
        self.stmt_active = true;
        self.plan_this_stmt = false;
        let result = self.run_compiled(source);
        self.stmt_span = 0;
        self.stmt_active = false;
        self.telemetry.tracer.end(span);
        let wall = self.telemetry.clock().now_ns().saturating_sub(t0);
        self.m.statements.inc();
        self.m.statement_ns.record(wall);
        if self.telemetry.journal.enabled() {
            self.telemetry.journal.emit(&JournalEvent::Statement {
                session: self.session_id,
                wall_ns: wall,
                label: label.clone(),
            });
        }
        if let Some(threshold) = self.slow_threshold_ns {
            if wall >= threshold && self.slow_log.len() < SLOW_LOG_CAP {
                let plan_summary = if self.plan_this_stmt {
                    self.last_plan
                        .as_ref()
                        .map(|(p, _)| p.describe())
                        .unwrap_or_else(|| "(no plan)".into())
                } else {
                    "(no select block)".into()
                };
                self.slow_log.push(SlowStatement {
                    source: source.to_string(),
                    plan_summary,
                    wall_ns: wall,
                });
            }
        }
        if let Err(e) = &result {
            self.capture_failure(e);
        }
        result
    }

    /// Structured failures auto-capture a diagnostic bundle while the
    /// flight recorder is running.
    fn capture_failure(&self, e: &GemError) {
        match e {
            GemError::DiskDead => {
                self.db.capture_bundle("disk-dead");
            }
            GemError::CorruptMethod(_) => {
                self.db.capture_bundle("corrupt-method");
            }
            _ => {}
        }
    }

    fn run_compiled(&mut self, source: &str) -> GemResult<Oop> {
        let (method, lints) = compile_doit_with_lints(self, source)?;
        self.last_lints = lints;
        // Classify before execution: a transaction whose every statement
        // proves Pure/ReadOnly commits on the static fast path.
        let summary = self.classify_statement(&method);
        let static_ro = summary.effect.is_read_only();
        self.txn_static_ro &= static_ro;
        self.last_effect = Some(summary);
        let id = self.add_doit_code(method)?;
        self.stmt_static_ro = static_ro;
        let result = Interpreter::new(self).run_doit(id);
        self.stmt_static_ro = false;
        // The statement body is dead once the interpreter returns (block
        // closures hold their own Arc to the method), so long-lived
        // sessions don't accumulate doIt bodies.
        self.local_methods.pop();
        result
    }

    /// Run the effect analysis over a compiled statement body, journaling
    /// any callee summaries computed along the way plus the statement's
    /// own classification. Lock order: the effects cache is acquired
    /// *before* any schema/methods read lock the analyzer takes.
    fn classify_statement(&mut self, m: &CompiledMethod) -> EffectSummary {
        let db = self.db.clone();
        let mut cache = db.effects.lock();
        let summary = effects::summarize_body(self, &mut cache, m);
        let fresh = cache.take_fresh();
        drop(cache);
        for (id, s) in &fresh {
            self.note_summary(*id, s);
        }
        self.m.effects_stmts_classified.inc();
        let static_ro = summary.effect.is_read_only();
        if static_ro {
            self.m.effects_stmts_static_ro.inc();
        }
        if self.telemetry.journal.enabled() {
            self.telemetry.journal.emit(&JournalEvent::EffectClassify { static_ro });
        }
        summary
    }

    /// Counter + journal moves for one freshly computed method summary.
    fn note_summary(&mut self, id: MethodId, s: &EffectSummary) {
        self.m.effects_computed.inc();
        self.m.effect_class(s.effect).inc();
        if self.telemetry.journal.enabled() {
            let selector = self.sym_name(self.method(id).selector);
            self.telemetry.journal.emit(&JournalEvent::EffectSummary {
                selector,
                effect: s.effect.as_str().to_string(),
                reads: s.globals_read.len() as u64,
                writes: s.globals_written.len() as u64,
            });
        }
    }

    /// Drop every cached effect summary (a method was installed or
    /// rebound). Called only after schema/methods write guards are
    /// released — the effects cache sits *above* them in the hierarchy.
    fn invalidate_effects(&mut self) {
        let dropped = self.db.effects.lock().invalidate();
        if dropped {
            self.m.effects_invalidations.inc();
            if self.telemetry.journal.enabled() {
                self.telemetry.journal.emit(&JournalEvent::EffectInvalidate);
            }
        }
    }

    /// The effect summary of an installed method, computed (and cached)
    /// on demand: `class_name` then instance-side `selector`, falling
    /// back to the class side.
    pub fn method_effects(&mut self, class_name: &str, selector: &str) -> GemResult<EffectSummary> {
        let (class, sel) = {
            let schema = self.db.schema.read();
            let cname = schema
                .symbols
                .lookup(class_name)
                .ok_or_else(|| GemError::RuntimeError(format!("no such class {class_name}")))?;
            let class = schema
                .classes
                .by_name(cname)
                .ok_or_else(|| GemError::RuntimeError(format!("no such class {class_name}")))?;
            let sel =
                schema.symbols.lookup(selector).ok_or_else(|| GemError::DoesNotUnderstand {
                    class: class_name.to_string(),
                    selector: selector.to_string(),
                })?;
            (class, sel)
        };
        let mref = self
            .lookup_method(class, sel)
            .or_else(|| self.lookup_class_method(class, sel))
            .ok_or_else(|| GemError::DoesNotUnderstand {
                class: class_name.to_string(),
                selector: selector.to_string(),
            })?;
        let db = self.db.clone();
        let mut cache = db.effects.lock();
        let summary = effects::summarize_ref(self, &mut cache, mref);
        let fresh = cache.take_fresh();
        drop(cache);
        for (id, s) in &fresh {
            self.note_summary(*id, s);
        }
        Ok(summary)
    }

    /// The effect summary of the most recent statement [`Session::run`]
    /// classified, if any.
    pub fn last_effect(&self) -> Option<&EffectSummary> {
        self.last_effect.as_ref()
    }

    /// Render an effect summary with symbol names resolved — what the
    /// REPL's `:effects` command prints.
    pub fn render_effect(&self, s: &EffectSummary) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(out, "effect: {}", s.effect);
        if s.effect.is_read_only() {
            out.push_str("  (eligible for the static read-only commit path)");
        }
        let names = |set: &std::collections::BTreeSet<gemstone_object::SymbolId>| {
            set.iter().map(|g| self.sym_name(*g)).collect::<Vec<_>>().join(", ")
        };
        if !s.globals_read.is_empty() {
            let _ = write!(out, "\nglobals read: {}", names(&s.globals_read));
        }
        if !s.globals_written.is_empty() {
            let _ = write!(out, "\nglobals written: {}", names(&s.globals_written));
        }
        if s.invoking_params != 0 {
            let ps: Vec<String> = (0..32u32)
                .filter(|i| s.invoking_params & (1 << i) != 0)
                .map(|i| i.to_string())
                .collect();
            let _ = write!(
                out,
                "\ninvokes block parameter(s) {} — judged at each call site",
                ps.join(", ")
            );
        }
        out
    }

    /// Compile-time lints produced by the most recent [`Session::run`].
    /// Advisory only — lints never prevent execution.
    pub fn last_lints(&self) -> &[Lint] {
        &self.last_lints
    }

    /// Evaluate a multi-range calculus [`Query`] directly (OPAL select
    /// blocks compile to single-range queries; joins across collections
    /// enter here). Plans against the Directory Manager's catalog, records
    /// the chosen plan and its counters for [`Session::explain`], and
    /// returns one tuple per result-template row.
    pub fn query(&mut self, query: &Query) -> GemResult<Vec<Vec<Oop>>> {
        self.ensure_txn()?;
        if !self.stmt_active {
            self.stmt_label = "(query)".into();
        }
        let catalog = self.db.schema.read().dirs.catalog().clone();
        self.eval_with_catalog(query, &catalog)
    }

    /// Evaluate against a catalog, honoring the profile-next flag: the
    /// single evaluation entry behind [`Session::query`] and select
    /// blocks. Folds the plan counters into the registry either way.
    ///
    /// With statistics enabled the planner gets a [`StatsView`] resolved
    /// for this query's sets (refreshing any drift-staled set first), the
    /// decision is journaled as `PlanChoice`, and analyzed runs feed
    /// observed selectivities and drift episodes back into the catalog.
    fn eval_with_catalog(
        &mut self,
        query: &Query,
        catalog: &IndexCatalog,
    ) -> GemResult<Vec<Vec<Oop>>> {
        self.plan_this_stmt = true;
        let stats_on = self.db.stats_enabled();
        let (var_sets, view, replan) =
            if stats_on { self.resolve_stats_view(query)? } else { (Vec::new(), None, false) };
        let had_stats = view.is_some();
        let options = PlanOptions { hash_joins: true, stats: view };
        if self.profile_next {
            let clock = self.telemetry.clock().clone();
            let now = move || clock.now_ns();
            let (rows, decision, stats, profile) =
                gemstone_calculus::eval_query_profiled_with(self, query, catalog, &options, &now)?;
            self.record_plan_spans(&profile);
            self.m.note_plan(&stats);
            self.journal_plan(&stats);
            if stats_on {
                self.note_plan_choice(&decision, replan);
                if had_stats {
                    self.absorb_profile(&decision, &profile, &var_sets);
                }
            }
            self.last_profile = Some(profile);
            self.note_decision(&decision, replan);
            self.last_plan = Some((decision.plan, stats));
            Ok(rows)
        } else {
            let (rows, decision, stats) =
                gemstone_calculus::eval_query_explained_with(self, query, catalog, &options)?;
            self.m.note_plan(&stats);
            self.journal_plan(&stats);
            if stats_on {
                self.note_plan_choice(&decision, replan);
            }
            self.note_decision(&decision, replan);
            self.last_plan = Some((decision.plan, stats));
            Ok(rows)
        }
    }

    /// Resolve each range variable's constant domain to its committed set
    /// and look up catalog statistics: the planner's [`StatsView`], plus
    /// the `(var, set)` map the feedback paths use. Sets a prior drift
    /// episode marked stale are refreshed from their directories first —
    /// the re-optimization protocol — and `replan = true` rides out.
    fn resolve_stats_view(&mut self, query: &Query) -> GemResult<ResolvedStats> {
        let mut var_sets: Vec<(u16, Option<u64>)> = Vec::with_capacity(query.ranges.len());
        for range in &query.ranges {
            let set = if let Term::Const(c) = &range.domain {
                let c = self.swizzle(*c)?;
                self.ws.get(c).ok().and_then(|o| o.goop).map(|g| g.0)
            } else {
                None
            };
            var_sets.push((range.var.0, set));
        }
        let stale: Vec<u64> = {
            let schema = self.db.schema.read();
            var_sets
                .iter()
                .filter_map(|(_, s)| *s)
                .filter(|g| schema.stats.get(*g).is_some_and(|s| s.stale))
                .collect()
        };
        let mut replan = false;
        if !stale.is_empty() {
            let now = self.db.txns.now().ticks();
            let mut refreshed = Vec::new();
            {
                let mut schema = self.db.schema.write();
                let Schema { dirs, stats, stats_dirty, .. } = &mut *schema;
                for g in stale {
                    let ups = dirs.refresh_stats_for_set(&self.db.store, Goop(g), stats, now)?;
                    if !ups.is_empty() {
                        *stats_dirty = true;
                        replan = true;
                    }
                    refreshed.extend(ups);
                }
            }
            self.db.journal_stats_updates(&refreshed);
        }
        let schema = self.db.schema.read();
        if schema.stats.is_empty() {
            return Ok((var_sets, None, replan));
        }
        let mut per_var: Vec<Option<VarStats>> = vec![None; query.var_count()];
        for (var, set) in &var_sets {
            if let Some(s) = set.and_then(|g| schema.stats.get(g)) {
                per_var[*var as usize] = Some(VarStats::from_set(s));
            }
        }
        Ok((var_sets, Some(StatsView { per_var }), replan))
    }

    /// Count and journal one planning decision (the counter moves and the
    /// `PlanChoice` event travel together, so replay stays byte-exact).
    fn note_plan_choice(&self, decision: &PlanDecision, replan: bool) {
        self.m.plan_choices.inc();
        if decision.cost_based {
            self.m.plan_cost_based.inc();
        }
        if replan {
            self.m.plan_replans.inc();
        }
        if self.telemetry.journal.enabled() {
            self.telemetry.journal.emit(&JournalEvent::PlanChoice {
                session: self.session_id,
                label: self.stmt_label.clone(),
                chosen: decision.canon.clone(),
                cost_milli: (decision.est_cost * 1000.0) as u64,
                alternatives: decision.alternatives.len() as u64,
                cost_based: decision.cost_based,
                replan,
            });
        }
    }

    /// Remember the decision for [`Session::last_decision`].
    fn note_decision(&mut self, decision: &PlanDecision, replan: bool) {
        self.last_decision = Some(PlanChoiceRecord {
            canon: decision.canon.clone(),
            est_cost: decision.est_cost,
            alternatives: decision.alternatives.clone(),
            cost_based: decision.cost_based,
            replan,
        });
    }

    /// After an analyzed run with statistics: scrape each residual
    /// select's observed selectivity back into the catalog, then compare
    /// the worst per-operator estimate against its actual. A miss beyond
    /// [`DRIFT_RATIO`] (above the [`DRIFT_FLOOR`] noise floor) journals a
    /// `PlanDrift` episode and marks the query's sets stale, so the next
    /// execution re-plans over fresh statistics.
    fn absorb_profile(
        &mut self,
        decision: &PlanDecision,
        profile: &OpProfile,
        var_sets: &[(u16, Option<u64>)],
    ) {
        let scraped = scrape_selectivities(&decision.plan, profile);
        if !scraped.is_empty() {
            let mut schema = self.db.schema.write();
            let mut any = false;
            for (var, key, rows_in, rows_out) in &scraped {
                let set = var_sets.iter().find(|(v, _)| v == var).and_then(|(_, s)| *s);
                if let Some(g) = set {
                    schema
                        .stats
                        .entry(g)
                        .predicates
                        .entry(key.clone())
                        .or_default()
                        .observe(*rows_in, *rows_out);
                    any = true;
                }
            }
            if any {
                schema.stats_dirty = true;
            }
        }
        if let Some((op, est, actual)) = profile.worst_estimate() {
            let hi = est.max(actual);
            let lo = est.min(actual).max(1);
            if hi >= DRIFT_FLOOR && hi / lo >= DRIFT_RATIO {
                self.m.plan_drift.inc();
                if self.telemetry.journal.enabled() {
                    self.telemetry.journal.emit(&JournalEvent::PlanDrift {
                        session: self.session_id,
                        label: self.stmt_label.clone(),
                        plan: decision.canon.clone(),
                        op: op as u64,
                        est,
                        actual,
                        err_pct: est_err_pct(est, actual),
                    });
                }
                let mut schema = self.db.schema.write();
                for (_, set) in var_sets {
                    if let Some(g) = set {
                        schema.stats.mark_stale(*g);
                    }
                }
            }
        }
    }

    /// Mirror one query's operator counters into the flight recorder (the
    /// journal twin of [`SessionMetrics::note_plan`]).
    fn journal_plan(&self, s: &PlanStats) {
        if !self.telemetry.journal.enabled() {
            return;
        }
        self.telemetry.journal.emit(&JournalEvent::Plan {
            rows_scanned: s.rows_scanned,
            index_rows: s.index_rows,
            index_hits: s.index_hits,
            index_fallbacks: s.index_fallbacks,
            select_in: s.select_in,
            select_out: s.select_out,
            nest_loops: s.nest_loops,
            hash_builds: s.hash_builds,
            hash_probes: s.hash_probes,
            hash_matches: s.hash_matches,
            rows_out: s.rows_out,
        });
    }

    /// Replay a per-operator profile into the tracer as plan-operator
    /// spans under the current statement (or session when profiling ran
    /// outside a statement). Times are reconstructed: every operator
    /// starts at the replay instant and lasts its measured inclusive wall
    /// time, so the tree nests plausibly without per-operator timestamps.
    fn record_plan_spans(&mut self, profile: &OpProfile) {
        if !self.telemetry.tracer.enabled() {
            return;
        }
        if self.stmt_active && self.stmt_span == 0 {
            return; // unsampled statement: suppress its whole subtree
        }
        let root_parent =
            if self.stmt_span != 0 { self.stmt_span } else { self.ensure_session_span() };
        let n = profile.nodes.len();
        let mut parent_of = vec![usize::MAX; n];
        for (i, node) in profile.nodes.iter().enumerate() {
            for &c in &node.children {
                parent_of[c] = i;
            }
        }
        let base = self.telemetry.clock().now_ns();
        let mut span_ids = vec![0u64; n];
        for (i, node) in profile.nodes.iter().enumerate() {
            // Pre-order guarantees the parent's span id is already known.
            let parent =
                if parent_of[i] == usize::MAX { root_parent } else { span_ids[parent_of[i]] };
            span_ids[i] = self.telemetry.tracer.record(
                SpanKind::PlanOperator,
                self.session_id,
                parent,
                &node.label,
                base,
                base + node.wall_ns.max(1),
            );
        }
    }

    /// EXPLAIN ANALYZE: run a block of OPAL source with per-operator
    /// profiling and render the algebra tree of the query it evaluated,
    /// annotated with rows-in/rows-out, hash-build sizes, and per-operator
    /// wall time, followed by the aggregate operator counters. Returns a
    /// placeholder when the statement evaluated no select block.
    pub fn explain_analyze(&mut self, source: &str) -> GemResult<String> {
        self.profile_next = true;
        self.last_profile = None;
        let result = self.run(source);
        self.profile_next = false;
        result?;
        Ok(self.render_analysis().unwrap_or_else(|| "(no select block evaluated)".into()))
    }

    /// [`Session::query`] with per-operator profiling: the profile lands
    /// in [`Session::last_profile`] / [`Session::render_analysis`].
    pub fn query_analyzed(&mut self, query: &Query) -> GemResult<Vec<Vec<Oop>>> {
        self.profile_next = true;
        self.last_profile = None;
        let result = self.query(query);
        self.profile_next = false;
        result
    }

    /// The per-operator profile of the most recent profiled query.
    pub fn last_profile(&self) -> Option<&OpProfile> {
        self.last_profile.as_ref()
    }

    /// Render the most recent profiled query (plan, per-operator
    /// annotations, aggregate counters), or `None` when nothing was
    /// profiled yet.
    pub fn render_analysis(&self) -> Option<String> {
        let profile = self.last_profile.as_ref()?;
        let (plan, stats) = self.last_plan.as_ref()?;
        Some(format!("plan: {}\n{}{}", plan.describe(), profile.render(), stats.summary()))
    }

    // ------------------------------------------------------- telemetry

    /// A diffable point-in-time copy of every database-wide metric.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.telemetry.registry.snapshot()
    }

    /// This session's buffered spans, oldest first.
    pub fn trace(&self) -> Vec<SpanEvent> {
        self.telemetry.tracer.events(Some(self.session_id))
    }

    /// Enable/disable span tracing (database-wide; affects all sessions).
    pub fn set_tracing(&self, on: bool) {
        self.telemetry.tracer.set_enabled(on);
    }

    /// Record 1 in `n` statement spans (with their subtrees).
    pub fn set_trace_sampling(&self, n: u64) {
        self.telemetry.tracer.set_sampling(n);
    }

    /// This session's span-attribution id (nonzero, unique per login).
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// The forensic report of this session's most recent validation
    /// conflict: what kind it was, which committed transaction killed it,
    /// and which objects (with their home tracks) overlapped. `None`
    /// until the session loses a validation.
    pub fn last_conflict(&self) -> Option<ConflictReport> {
        self.db.txns.last_conflict_for(self.session_id)
    }

    /// The shared telemetry bundle (registry + tracer + clock).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Statements at least this slow are recorded in the slow log
    /// (`None` disables — the default).
    pub fn set_slow_threshold(&mut self, ns: Option<u64>) {
        self.slow_threshold_ns = ns;
    }

    /// Recorded slow statements, oldest first (capped at 128).
    pub fn slow_log(&self) -> &[SlowStatement] {
        &self.slow_log
    }

    pub fn clear_slow_log(&mut self) {
        self.slow_log.clear();
    }

    /// Render the most recent query's plan and operator counters, or `None`
    /// when the session has not evaluated a query yet.
    pub fn explain(&self) -> Option<String> {
        self.last_plan
            .as_ref()
            .map(|(plan, stats)| format!("plan: {}\n{}", plan.describe(), stats.summary()))
    }

    /// The operator counters of the most recent query (for reports/tests).
    pub fn last_plan_stats(&self) -> Option<PlanStats> {
        self.last_plan.as_ref().map(|(_, s)| *s)
    }

    /// How the planner chose the most recent query's plan: canonical plan
    /// string, estimated cost, considered alternatives, whether statistics
    /// drove the choice, and whether it followed a drift-triggered refresh.
    pub fn last_decision(&self) -> Option<&PlanChoiceRecord> {
        self.last_decision.as_ref()
    }

    /// Render the planner's statistics catalog (REPL `:stats`): one block
    /// per set with cardinality, staleness, key sketches, and observed
    /// predicate selectivities.
    pub fn render_stats(&self) -> String {
        use std::fmt::Write as _;
        let stats = self.db.planner_stats();
        if stats.is_empty() {
            return "(statistics catalog empty — enable with Database::enable_stats)".into();
        }
        let mut out = String::new();
        for (goop, set) in &stats.sets {
            let _ = writeln!(
                out,
                "set {goop}: cardinality={} updated_at={}{}",
                set.cardinality,
                set.updated_at,
                if set.stale { " STALE" } else { "" },
            );
            for (path, sk) in &set.sketches {
                let _ = writeln!(
                    out,
                    "  sketch {path}: total={} distinct={} fuzz={} points={}",
                    sk.total,
                    sk.distinct,
                    sk.fuzz,
                    sk.points.len(),
                );
            }
            for (key, obs) in &set.predicates {
                let _ = writeln!(
                    out,
                    "  pred {key}: {}/{} sel={:.4}",
                    obs.rows_out,
                    obs.rows_in,
                    obs.selectivity().unwrap_or(0.0),
                );
            }
        }
        out
    }

    /// Run a block and render its result (the host-side display of §6's
    /// "returning results"). Dispatches `printString`, so user-defined
    /// printing applies.
    pub fn run_display(&mut self, source: &str) -> GemResult<String> {
        let v = self.run(source)?;
        self.display(v)
    }

    /// Send a message to an object from Rust.
    pub fn send(&mut self, recv: Oop, selector: &str, args: &[Oop]) -> GemResult<Oop> {
        self.ensure_txn()?;
        // Unclassified execution: anything could be written.
        self.txn_static_ro = false;
        let sel = self.intern(selector);
        Interpreter::new(self).send_message(recv, sel, args)
    }

    /// Render any value by dispatching `printString` (falling back to the
    /// built-in printer if the method errors).
    pub fn display(&mut self, v: Oop) -> GemResult<String> {
        match self.send(v, "printString", &[]) {
            Ok(shown) => match self.string_value(shown) {
                Some(s) => Ok(s),
                None => gemstone_opal::world::print_oop(self, v, Default::default()),
            },
            Err(_) => gemstone_opal::world::print_oop(self, v, Default::default()),
        }
    }

    pub(crate) fn recompile_method(&mut self, ms: &MethodSource) -> GemResult<()> {
        let m = gemstone_opal::compile_method(self, ms.class, &ms.source)?;
        let sel = m.selector;
        let id = self.add_method_code(m)?;
        self.install_method(ms.class, sel, MethodRef::Compiled(id), ms.class_side);
        Ok(())
    }

    // ------------------------------------------------ internal helpers

    /// Bytecode verification shared by doIt and installed-method
    /// registration (counters + journal events move here exactly once).
    fn verified(&mut self, m: CompiledMethod) -> GemResult<CompiledMethod> {
        self.m.verify_checks.inc();
        if let Err(e) = gemstone_opal::verify::check(&m) {
            self.m.verify_rejects.inc();
            if self.telemetry.journal.enabled() {
                self.telemetry.journal.emit(&JournalEvent::VerifyCheck { rejected: true });
            }
            return Err(e.into());
        }
        if self.telemetry.journal.enabled() {
            self.telemetry.journal.emit(&JournalEvent::VerifyCheck { rejected: false });
        }
        Ok(m)
    }

    /// Register a session-local doIt body: verified like any method but
    /// never installed database-wide, so executing statements takes no
    /// shared method lock.
    fn add_doit_code(&mut self, m: CompiledMethod) -> GemResult<MethodId> {
        let m = self.verified(m)?;
        self.local_methods.push(Arc::new(m));
        Ok(MethodId(LOCAL_METHOD_BIT | (self.local_methods.len() as u32 - 1)))
    }

    /// Authorize an access to an object in `segment`. The schema lock is
    /// taken only when the privilege table must actually be consulted.
    fn authorize(&self, segment: SegmentId, access: Access) -> GemResult<()> {
        if AuthTable::exempt(&self.user, segment) {
            return Ok(());
        }
        self.db.schema.read().auth.check(&self.user, segment, access)
    }

    fn elem_read(&mut self, obj: Oop, name: ElemName) -> GemResult<Oop> {
        self.ensure_txn()?;
        self.elem_read_in_txn(obj, name, self.dial.setting())
    }

    /// One element read inside the running transaction, with the dial
    /// already read into `past`: the body [`Session::elem_read`] and the
    /// calculus' column reads share.
    fn elem_read_in_txn(
        &mut self,
        obj: Oop,
        name: ElemName,
        past: Option<TxnTime>,
    ) -> GemResult<Oop> {
        let obj = self.swizzle(obj)?;
        let (goop, segment) = {
            let o = self.ws.get(obj)?;
            (o.goop, o.segment)
        };
        self.authorize(segment, Access::Read)?;
        if let (Some(t), Some(g)) = (past, goop) {
            // Past state: read through the permanent histories.
            let v = self
                .db
                .store
                .get_traced(g, self.session_id, self.io_parent())?
                .elem_at(name, t)
                .unwrap_or(PRef::NIL);
            return Ok(pref_to_oop(&self.ws, v));
        }
        if let Some(g) = goop {
            // `past` is None here, so the read is recorded.
            self.reads.record(SlotId::Elem(g, name));
        }
        let v = self.ws.get(obj)?.elem(name);
        let v2 = self.swizzle(v)?;
        if v2 != v {
            self.ws.get_mut(obj)?.swizzle_elem_in_place(name, v2);
        }
        Ok(v2)
    }

    fn elem_write(&mut self, obj: Oop, name: ElemName, v: Oop) -> GemResult<()> {
        self.ensure_txn()?;
        self.note_write();
        let obj = self.swizzle(obj)?;
        // Past states are immutable — but transient scratch objects (no
        // permanent identity yet) stay writable even while the dial is set,
        // so read-only reports can build result collections.
        if self.ws.get(obj)?.goop.is_some() {
            if self.dial.in_past() {
                return Err(GemError::WriteInPast);
            }
            self.wrote_committed = true;
        }
        self.authorize(self.ws.get(obj)?.segment, Access::Write)?;
        self.ws.get_mut(obj)?.set_elem(name, v);
        Ok(())
    }
}

/// Convert a persistent value into a session pointer: immediates directly,
/// references either to the already-faulted copy or to an unswizzled ref.
fn pref_to_oop(ws: &Workspace, v: PRef) -> Oop {
    match v.as_goop() {
        Some(g) => ws.lookup_goop(g).unwrap_or_else(|| Oop::unswizzled(g)),
        None => v.to_oop_immediate().expect("immediate"),
    }
}

// ------------------------------------------------------------- OpalWorld

impl OpalWorld for Session {
    fn intern(&mut self, name: &str) -> SymbolId {
        // Fast path: almost every intern is a lookup of an existing
        // symbol, served under the shared read lock.
        if let Some(s) = self.db.schema.read().symbols.lookup(name) {
            return s;
        }
        self.db.schema.write().symbols.intern(name)
    }

    fn sym_name(&self, id: SymbolId) -> String {
        self.db.schema.read().symbols.name(id).to_string()
    }

    fn class_named(&self, name: SymbolId) -> Option<ClassId> {
        self.db.schema.read().classes.by_name(name)
    }

    fn class_name_of(&self, class: ClassId) -> SymbolId {
        self.db.schema.read().classes.get(class).name
    }

    fn superclass_of(&self, class: ClassId) -> Option<ClassId> {
        self.db.schema.read().classes.get(class).superclass
    }

    fn define_subclass(
        &mut self,
        superclass: ClassId,
        name: SymbolId,
        instvars: Vec<SymbolId>,
    ) -> GemResult<ClassId> {
        let mut schema = self.db.schema.write();
        let id = schema.classes.subclass(name, superclass, instvars)?;
        schema.schema_dirty = true;
        Ok(id)
    }

    fn add_instvar(&mut self, class: ClassId, var: SymbolId) -> GemResult<()> {
        let mut schema = self.db.schema.write();
        schema.classes.add_instvar(class, var)?;
        schema.schema_dirty = true;
        Ok(())
    }

    fn declares_instvar(&self, class: ClassId, var: SymbolId) -> bool {
        self.db.schema.read().classes.declares_instvar(class, var)
    }

    fn lookup_method(&self, class: ClassId, selector: SymbolId) -> Option<MethodRef> {
        self.db.schema.read().classes.lookup_method(class, selector).map(|(_, m)| m)
    }

    fn lookup_class_method(&self, class: ClassId, selector: SymbolId) -> Option<MethodRef> {
        self.db.schema.read().classes.lookup_class_method(class, selector).map(|(_, m)| m)
    }

    fn install_method(
        &mut self,
        class: ClassId,
        selector: SymbolId,
        m: MethodRef,
        class_side: bool,
    ) {
        {
            let mut schema = self.db.schema.write();
            if class_side {
                schema.classes.add_class_method(class, selector, m);
            } else {
                schema.classes.add_method(class, selector, m);
            }
            schema.schema_dirty = true;
        }
        // Rebinding a selector can change any closed-world effect join;
        // invalidate only after the schema write guard is released (the
        // effects cache is above `schema` in the lock hierarchy).
        self.invalidate_effects();
    }

    fn is_kind_of(&self, a: ClassId, b: ClassId) -> bool {
        self.db.schema.read().classes.is_kind_of(a, b)
    }

    fn kernel(&self) -> Kernel {
        self.kernel
    }

    fn class_of(&self, oop: Oop) -> ClassId {
        match oop.kind() {
            OopKind::Ref(g) => self.db.store.get(g).map(|o| o.class).unwrap_or(self.kernel.object),
            _ => gemstone_object::class_of(&self.ws, &self.kernel, oop),
        }
    }

    fn class_format(&self, class: ClassId) -> BodyFormat {
        self.db.schema.read().classes.get(class).format
    }

    fn block_class(&self) -> ClassId {
        self.block_class
    }

    fn selector_defined_anywhere(&self, selector: SymbolId) -> bool {
        self.db.schema.read().classes.iter().any(|(_, def)| {
            def.methods.contains_key(&selector) || def.class_methods.contains_key(&selector)
        })
    }

    fn selector_targets(&self, selector: SymbolId) -> Vec<MethodRef> {
        let schema = self.db.schema.read();
        let mut out = Vec::new();
        for (_, def) in schema.classes.iter() {
            for m in
                [def.methods.get(&selector), def.class_methods.get(&selector)].into_iter().flatten()
            {
                if !out.contains(m) {
                    out.push(*m);
                }
            }
        }
        out
    }

    fn note_method_source(&mut self, class: ClassId, source: &str, class_side: bool) {
        let mut schema = self.db.schema.write();
        schema.method_sources.push(MethodSource { class, source: source.to_string(), class_side });
        schema.schema_dirty = true;
    }

    fn method(&self, id: MethodId) -> Arc<CompiledMethod> {
        if id.0 & LOCAL_METHOD_BIT != 0 {
            self.local_methods[(id.0 & !LOCAL_METHOD_BIT) as usize].clone()
        } else {
            self.db.methods.read()[id.0 as usize].clone()
        }
    }

    fn note_interp_stats(&mut self, dispatches: u64, sends: u64) {
        self.m.dispatches.add(dispatches);
        self.m.sends.add(sends);
        if self.telemetry.journal.enabled() {
            self.telemetry.journal.emit(&JournalEvent::Interp { dispatches, sends });
        }
    }

    fn add_method_code(&mut self, m: CompiledMethod) -> GemResult<MethodId> {
        let m = self.verified(m)?;
        let id = {
            let mut methods = self.db.methods.write();
            methods.push(Arc::new(m));
            MethodId(methods.len() as u32 - 1)
        };
        // Invalidate after the methods write guard drops: no stale
        // summary may survive a method-table append.
        self.invalidate_effects();
        Ok(id)
    }

    fn new_object(&mut self, class: ClassId) -> GemResult<Oop> {
        self.ensure_txn()?;
        // A fresh object is born dirty: allocation is a local write.
        self.note_write();
        let format = self.class_format(class);
        let obj = match format {
            BodyFormat::Elements => HeapObject::new_elements(class, SegmentId::SYSTEM),
            BodyFormat::Bytes => HeapObject::new_bytes(class, SegmentId::SYSTEM, Vec::new()),
        };
        Ok(self.ws.alloc(obj))
    }

    fn new_string(&mut self, s: &str) -> GemResult<Oop> {
        // Open the transaction first: the clear below must not be undone
        // by a later lazy transaction begin resetting the flag.
        self.ensure_txn()?;
        self.note_write();
        Ok(self.ws.alloc(HeapObject::new_bytes(
            self.kernel.string,
            SegmentId::SYSTEM,
            s.as_bytes().to_vec(),
        )))
    }

    fn string_value(&self, oop: Oop) -> Option<String> {
        match oop.kind() {
            OopKind::Sym(s) => Some(self.sym_name(s)),
            OopKind::Heap(_) => {
                self.ws.get(oop).ok().and_then(|o| o.as_str().ok()).map(String::from)
            }
            OopKind::Ref(g) => self.db.store.get(g).ok().and_then(|o| {
                o.bytes_current().and_then(|b| std::str::from_utf8(b).ok()).map(String::from)
            }),
            _ => None,
        }
    }

    fn get_elem(&mut self, obj: Oop, name: ElemName) -> GemResult<Oop> {
        self.elem_read(obj, name)
    }

    fn get_elem_at(&mut self, obj: Oop, name: ElemName, t: TxnTime) -> GemResult<Oop> {
        self.ensure_txn()?;
        let obj = self.swizzle(obj)?;
        let goop = self.ws.get(obj)?.goop;
        match goop {
            Some(g) => {
                let v = self
                    .db
                    .store
                    .get_traced(g, self.session_id, self.io_parent())?
                    .elem_at(name, t)
                    .unwrap_or(PRef::NIL);
                Ok(pref_to_oop(&self.ws, v))
            }
            // A transient object has no history: it did not exist at t.
            None => Ok(Oop::NIL),
        }
    }

    fn set_elem(&mut self, obj: Oop, name: ElemName, v: Oop) -> GemResult<()> {
        self.elem_write(obj, name, v)
    }

    fn elements(&mut self, obj: Oop) -> GemResult<Vec<Oop>> {
        self.ensure_txn()?;
        let obj = self.swizzle(obj)?;
        let goop = self.ws.get(obj)?.goop;
        if let (Some(t), Some(g)) = (self.dial.setting(), goop) {
            let vals: Vec<PRef> = self
                .db
                .store
                .get_traced(g, self.session_id, self.io_parent())?
                .elements_at(t)
                .map(|(_, v)| v)
                .collect();
            return Ok(vals.into_iter().map(|v| pref_to_oop(&self.ws, v)).collect());
        }
        if let Some(g) = goop {
            self.record_read(SlotId::Object(g));
        }
        let raw: Vec<(ElemName, Oop)> = self.ws.get(obj)?.present_elements().collect();
        let mut out = Vec::with_capacity(raw.len());
        for (name, v) in raw {
            let v2 = self.swizzle(v)?;
            if v2 != v {
                self.ws.get_mut(obj)?.swizzle_elem_in_place(name, v2);
            }
            out.push(v2);
        }
        Ok(out)
    }

    fn element_names(&mut self, obj: Oop) -> GemResult<Vec<ElemName>> {
        self.ensure_txn()?;
        let obj = self.swizzle(obj)?;
        let goop = self.ws.get(obj)?.goop;
        if let (Some(t), Some(g)) = (self.dial.setting(), goop) {
            return Ok(self
                .db
                .store
                .get_traced(g, self.session_id, self.io_parent())?
                .elements_at(t)
                .map(|(n, _)| n)
                .collect());
        }
        if let Some(g) = goop {
            self.record_read(SlotId::Object(g));
        }
        Ok(self.ws.get(obj)?.present_elements().map(|(n, _)| n).collect())
    }

    fn add_aliased(&mut self, obj: Oop, v: Oop) -> GemResult<()> {
        self.ensure_txn()?;
        self.note_write();
        let obj = self.swizzle(obj)?;
        if self.ws.get(obj)?.goop.is_some() {
            if self.dial.in_past() {
                return Err(GemError::WriteInPast);
            }
            self.wrote_committed = true;
        }
        self.ws.get_mut(obj)?.add_aliased(v);
        Ok(())
    }

    fn push_indexed(&mut self, obj: Oop, v: Oop) -> GemResult<i64> {
        self.ensure_txn()?;
        self.note_write();
        let obj = self.swizzle(obj)?;
        if self.ws.get(obj)?.goop.is_some() {
            if self.dial.in_past() {
                return Err(GemError::WriteInPast);
            }
            self.wrote_committed = true;
        }
        Ok(self.ws.get_mut(obj)?.push_indexed(v).as_int().unwrap())
    }

    fn obj_size(&mut self, obj: Oop) -> GemResult<usize> {
        self.ensure_txn()?;
        let obj = self.swizzle(obj)?;
        let goop = self.ws.get(obj)?.goop;
        if let (Some(t), Some(g)) = (self.dial.setting(), goop) {
            let pobj = self.db.store.get_traced(g, self.session_id, self.io_parent())?;
            return Ok(match pobj.bytes_at(t) {
                Some(b) => b.len(),
                None => pobj.elements_at(t).count(),
            });
        }
        if let Some(g) = goop {
            self.record_read(SlotId::Object(g));
        }
        let o = self.ws.get(obj)?;
        Ok(match o.bytes() {
            Some(b) => b.len(),
            None => o.size(),
        })
    }

    fn equals(&mut self, a: Oop, b: Oop) -> GemResult<bool> {
        let a = self.swizzle(a)?;
        let b = self.swizzle(b)?;
        let schema = self.db.schema.read();
        Ok(structurally_equal(&self.ws, &schema.symbols, a, b))
    }

    fn compare(&mut self, a: Oop, b: Oop) -> GemResult<Option<Ordering>> {
        let a = self.swizzle(a)?;
        let b = self.swizzle(b)?;
        gemstone_opal::world::compare_values(self, a, b)
    }

    fn get_global(&self, name: SymbolId) -> Option<Oop> {
        if let Some(v) = self.pending_globals.get(&name) {
            return Some(*v);
        }
        // Committed globals come from the transaction snapshot: lock-free,
        // and consistent with every other read in the transaction. Between
        // transactions, read the latest published view (the session's own
        // snapshot predates its own most recent commit).
        if self.txn.is_some() {
            self.snap.globals.get(&name).map(|p| pref_to_oop(&self.ws, *p))
        } else {
            self.db.committed_view().globals.get(&name).map(|p| pref_to_oop(&self.ws, *p))
        }
    }

    fn set_global(&mut self, name: SymbolId, v: Oop) -> GemResult<()> {
        self.ensure_txn()?;
        self.note_write();
        self.pending_globals.insert(name, v);
        Ok(())
    }

    fn system_message(&mut self, selector: SymbolId, args: &[Oop]) -> GemResult<Oop> {
        let name = self.sym_name(selector);
        match name.as_str() {
            "commitTransaction" => match self.commit() {
                Ok(_) => Ok(Oop::TRUE),
                Err(GemError::TransactionConflict { .. }) => Ok(Oop::FALSE),
                Err(e) => Err(e),
            },
            "abortTransaction" => {
                self.abort();
                Ok(Oop::TRUE)
            }
            "timeDial:" => {
                let t =
                    args[0].as_int().filter(|t| *t >= 0).ok_or_else(|| GemError::TypeMismatch {
                        expected: "non-negative integer time",
                        got: format!("{:?}", args[0]),
                    })?;
                self.set_time_dial(TxnTime::from_ticks(t as u64));
                Ok(args[0])
            }
            "timeDialNow" => {
                self.time_dial_now();
                Ok(Oop::TRUE)
            }
            "safeTime" => Ok(Oop::int(self.safe_time().ticks() as i64)),
            "currentTime" => Ok(Oop::int(self.db.txns.now().ticks() as i64)),
            "archiveHistoryBefore:" => {
                if self.user != DBA {
                    return Err(GemError::AuthorizationDenied {
                        segment: 0,
                        detail: "only the DBA may archive history".into(),
                    });
                }
                let t =
                    args[0].as_int().filter(|t| *t >= 0).ok_or_else(|| GemError::TypeMismatch {
                        expected: "non-negative integer time",
                        got: format!("{:?}", args[0]),
                    })?;
                let n = self.db.archive_history_before(TxnTime::from_ticks(t as u64))?;
                Ok(Oop::int(n as i64))
            }
            "createIndexOn:path:" => {
                let coll = self.swizzle(args[0])?;
                let goop = self.ws.get(coll)?.goop.ok_or_else(|| {
                    GemError::RuntimeError(
                        "createIndexOn: requires a committed collection (commit first)".into(),
                    )
                })?;
                let path = self.path_arg(args[1])?;
                let now = self.db.txns.now();
                let mut schema = self.db.schema.write();
                let Schema { symbols, dirs, schema_dirty, .. } = &mut *schema;
                dirs.create_index(&self.db.store, symbols, goop, path, now)?;
                *schema_dirty = true;
                Ok(Oop::TRUE)
            }
            "error:" => {
                let msg = self.string_value(args[0]).unwrap_or_else(|| format!("{:?}", args[0]));
                Err(GemError::RuntimeError(msg))
            }
            other => Err(GemError::DoesNotUnderstand {
                class: "System".into(),
                selector: other.to_string(),
            }),
        }
    }

    fn run_select(
        &mut self,
        coll: Oop,
        template: &QueryTemplate,
        captured: &[Oop],
    ) -> GemResult<Vec<Oop>> {
        self.ensure_txn()?;
        let coll = self.swizzle(coll)?;
        // Substitute the receiver and captured values into the template.
        // A verified SelectQuery always supplies exactly `n_captured` values
        // and a single-range template; re-check here because this entry
        // point is also reachable programmatically.
        template.validate().map_err(GemError::CorruptMethod)?;
        if captured.len() != template.n_captured as usize {
            return Err(GemError::CorruptMethod(format!(
                "select block captures {} values, got {}",
                template.n_captured,
                captured.len()
            )));
        }
        let mut query = template.query.clone();
        let Some(range0) = query.ranges.first_mut() else {
            return Err(GemError::CorruptMethod("select template has no range".into()));
        };
        range0.domain = Term::Const(coll);
        let mut env_consts: HashMap<VarId, Oop> = HashMap::new();
        for (i, v) in captured.iter().enumerate() {
            env_consts.insert(VarId(1 + i as u16), *v);
        }
        substitute(&mut query.pred, &env_consts);
        let catalog = self.db.schema.read().dirs.catalog().clone();
        let rows = self.eval_with_catalog(&query, &catalog)?;
        Ok(rows.into_iter().filter_map(|mut r| (!r.is_empty()).then(|| r.remove(0))).collect())
    }
}

/// Replace captured-variable terms with constants.
fn substitute(pred: &mut gemstone_calculus::Pred, env: &HashMap<VarId, Oop>) {
    use gemstone_calculus::Pred as P;
    match pred {
        P::True => {}
        P::And(a, b) | P::Or(a, b) => {
            substitute(a, env);
            substitute(b, env);
        }
        P::Not(a) => substitute(a, env),
        P::Cmp(a, _, b) | P::In(a, b) | P::Subset(a, b) => {
            substitute_term(a, env);
            substitute_term(b, env);
        }
    }
}

fn substitute_term(term: &mut Term, env: &HashMap<VarId, Oop>) {
    match term {
        Term::Var(v) => {
            if let Some(c) = env.get(v) {
                *term = Term::Const(*c);
            }
        }
        Term::Path(_, _) | Term::Const(_) => {}
        Term::Mul(a, b) | Term::Add(a, b) | Term::Sub(a, b) | Term::Div(a, b) => {
            substitute_term(a, env);
            substitute_term(b, env);
        }
    }
}

// ----------------------------------------------------------- QueryContext

impl QueryContext for Session {
    fn elem(&mut self, obj: Oop, name: ElemName) -> GemResult<Oop> {
        if obj.is_nil() {
            return Ok(Oop::NIL);
        }
        self.elem_read(obj, name)
    }

    fn elem_column(&mut self, objs: &[Oop], name: ElemName, out: &mut Vec<Oop>) -> GemResult<()> {
        self.ensure_txn()?;
        let past = self.dial.setting();
        out.reserve(objs.len());
        for &obj in objs {
            out.push(if obj.is_nil() { Oop::NIL } else { self.elem_read_in_txn(obj, name, past)? });
        }
        Ok(())
    }

    fn elements(&mut self, obj: Oop) -> GemResult<Vec<Oop>> {
        OpalWorld::elements(self, obj)
    }

    fn equals(&mut self, a: Oop, b: Oop) -> GemResult<bool> {
        OpalWorld::equals(self, a, b)
    }

    fn compare(&mut self, a: Oop, b: Oop) -> GemResult<Option<Ordering>> {
        OpalWorld::compare(self, a, b)
    }

    fn index_range(
        &mut self,
        collection: Oop,
        path: &[ElemName],
        lo: Option<(Oop, bool)>,
        hi: Option<(Oop, bool)>,
    ) -> GemResult<Option<Vec<Oop>>> {
        if self.has_local_writes() {
            return Ok(None);
        }
        let collection = self.swizzle(collection)?;
        let Some(goop) = self.ws.get(collection)?.goop else {
            return Ok(None);
        };
        let lo_key = match lo {
            None => None,
            Some((k, inc)) => {
                let k = self.swizzle(k)?;
                match self.session_dir_key(k)? {
                    Some(dk) => Some((dk, inc)),
                    None => return Ok(None),
                }
            }
        };
        let hi_key = match hi {
            None => None,
            Some((k, inc)) => {
                let k = self.swizzle(k)?;
                match self.session_dir_key(k)? {
                    Some(dk) => Some((dk, inc)),
                    None => return Ok(None),
                }
            }
        };
        // Serve at the dial when set, else the transaction snapshot —
        // directory answers stay consistent with every other read even
        // while concurrent commits re-key the directory.
        let at = Some(self.dial.setting().unwrap_or(self.snap.time));
        let goops = {
            let schema = self.db.schema.read();
            schema.dirs.range(
                goop,
                path,
                lo_key.as_ref().map(|(k, i)| (k, *i)),
                hi_key.as_ref().map(|(k, i)| (k, *i)),
                at,
            )
        };
        let Some(goops) = goops else { return Ok(None) };
        self.record_read(SlotId::Object(goop));
        let mut out = Vec::with_capacity(goops.len());
        for g in goops {
            out.push(self.swizzle(Oop::unswizzled(g))?);
        }
        Ok(Some(out))
    }

    fn join_key(&mut self, v: Oop) -> GemResult<Option<JoinKey>> {
        // The Object Manager's structural key is exactly the hash image of
        // `=` (structural equivalence IS value-key equality), so it can key
        // hash-join buckets directly. NaN is the one exception: its bits
        // collide while `NaN = NaN` is false, so it joins via `equals`.
        let v = self.swizzle(v)?;
        if v.as_float().is_some_and(f64::is_nan) {
            return Ok(None);
        }
        let schema = self.db.schema.read();
        Ok(Some(value_key(&self.ws, &schema.symbols, v)))
    }

    fn index_lookup(
        &mut self,
        collection: Oop,
        path: &[ElemName],
        key: Oop,
    ) -> GemResult<Option<Vec<Oop>>> {
        // Directories reflect committed state only.
        if self.has_local_writes() {
            return Ok(None);
        }
        let collection = self.swizzle(collection)?;
        let Some(goop) = self.ws.get(collection)?.goop else {
            return Ok(None);
        };
        let key = self.swizzle(key)?;
        let dir_key = match self.session_dir_key(key)? {
            Some(k) => k,
            None => return Ok(None),
        };
        let at = Some(self.dial.setting().unwrap_or(self.snap.time));
        let goops = {
            let schema = self.db.schema.read();
            schema.dirs.lookup(goop, path, &dir_key, at)
        };
        let Some(goops) = goops else { return Ok(None) };
        self.record_read(SlotId::Object(goop));
        let mut out = Vec::with_capacity(goops.len());
        for g in goops {
            out.push(self.swizzle(Oop::unswizzled(g))?);
        }
        Ok(Some(out))
    }
}

impl Session {
    /// A DirKey for a session value (mirrors the store-side key function).
    fn session_dir_key(&mut self, v: Oop) -> GemResult<Option<DirKey>> {
        Ok(match v.kind() {
            OopKind::Int(i) => Some(DirKey::num(i as f64)),
            OopKind::Float(f) => Some(DirKey::num(f)),
            OopKind::Sym(s) => Some(DirKey::text(&self.sym_name(s))),
            OopKind::Char(c) => Some(DirKey::Text(c.to_string().into_bytes())),
            OopKind::True | OopKind::False => {
                Some(DirKey::Ref(v.to_pref_immediate().unwrap().bits()))
            }
            OopKind::Heap(_) => {
                let o = self.ws.get(v)?;
                match o.bytes() {
                    Some(b) => Some(DirKey::Text(b.to_vec())),
                    None => o.goop.map(|g| DirKey::Ref(g.0)),
                }
            }
            _ => None,
        })
    }

    /// Parse the `path:` argument of `createIndexOn:path:` — a symbol,
    /// string, or array of symbols/strings.
    fn path_arg(&mut self, v: Oop) -> GemResult<Vec<SymbolId>> {
        if let Some(s) = v.as_sym() {
            return Ok(vec![s]);
        }
        if let Some(s) = self.string_value(v) {
            return Ok(vec![self.intern(&s)]);
        }
        if v.is_heap() {
            let parts = OpalWorld::elements(self, v)?;
            let mut path = Vec::with_capacity(parts.len());
            for p in parts {
                match p.as_sym() {
                    Some(s) => path.push(s),
                    None => {
                        let s = self.string_value(p).ok_or_else(|| GemError::TypeMismatch {
                            expected: "symbol path element",
                            got: format!("{p:?}"),
                        })?;
                        path.push(self.intern(&s));
                    }
                }
            }
            return Ok(path);
        }
        Err(GemError::TypeMismatch { expected: "path (symbol or array)", got: format!("{v:?}") })
    }
}
