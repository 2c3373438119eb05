//! Optimistic validation (Kung–Robinson backward validation).

use crate::access::AccessSet;
use gemstone_object::{ConflictKind, GemError, GemResult, Goop};
use gemstone_telemetry::{Counter, Histogram, Journal, JournalEvent};
use gemstone_temporal::{Clock, TxnTime};
use parking_lot::Mutex;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Identity of a transaction attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxnId(pub u64);

/// Handed to a session at `begin`; carries the snapshot point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnToken {
    pub id: TxnId,
    /// The transaction sees the database state as of this time.
    pub start: TxnTime,
    /// Telemetry session id of the owner (0 when begun through the plain
    /// `begin*` entries) — stamped into commit records so a later conflict
    /// can name the culprit session.
    pub session: u64,
}

/// Resolves an object to its current home track (installed by the engine;
/// the storage layer owns the GOOP table). Called under the manager's
/// inner lock, which precedes store internals in the DESIGN.md §9 lock
/// hierarchy.
pub type TrackResolver = Arc<dyn Fn(Goop) -> Option<u64> + Send + Sync>;

/// Objects/tracks attributed per conflict report (hot conflicts involve a
/// handful of slots; the cap keeps journal lines and reports bounded).
const MAX_REPORT_OBJECTS: usize = 8;

/// Distinct objects/tracks tracked in the conflict-heat tables before new
/// entries are dropped (existing entries keep counting).
const MAX_HEAT_ENTRIES: usize = 1024;

/// The forensic record of one validation failure: why the transaction
/// aborted, whose commit killed it, and which objects collided. Built by
/// the Transaction Manager at validation time, journaled as a `TxnConflict`
/// event, and retrievable per session via `Session::last_conflict`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictReport {
    /// Real overlap or watermark-conservative refusal.
    pub kind: ConflictKind,
    /// Telemetry session id of the aborted transaction (0 if unknown).
    pub session: u64,
    /// When the aborted transaction began (its snapshot time).
    pub started_at: TxnTime,
    /// The commit that killed it: the conflicting commit's time for an
    /// overlap, the prune watermark for a conservative refusal.
    pub culprit_time: TxnTime,
    /// Telemetry session id of the culprit committer (0 when unknown —
    /// always 0 for watermark conflicts: the culprit's record is pruned).
    pub culprit_session: u64,
    /// Overlapping object identities (capped at 8): the read∩write overlap
    /// for an overlap conflict, the transaction's read set for a watermark
    /// refusal (any of it may overlap the pruned records).
    pub goops: Vec<u64>,
    /// Current home tracks of `goops`, deduplicated (empty when no track
    /// resolver is installed).
    pub tracks: Vec<u64>,
}

/// Aggregated conflict-heat: how often validation failed, per kind, and
/// the objects/tracks most often involved (hottest first).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConflictStats {
    pub overlap: u64,
    pub watermark: u64,
    /// (goop, conflicts) sorted by count descending then goop.
    pub by_object: Vec<(u64, u64)>,
    /// (track, conflicts) sorted by count descending then track.
    pub by_track: Vec<(u64, u64)>,
}

impl ConflictStats {
    pub fn total(&self) -> u64 {
        self.overlap + self.watermark
    }
}

/// Validation granularity (the DESIGN.md §4.5 ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ValidationGrain {
    /// (object, element) — the paper's association-level accesses.
    #[default]
    Element,
    /// Whole object.
    Object,
}

struct CommitRecord {
    time: TxnTime,
    session: u64,
    writes: AccessSet,
}

struct Inner {
    active: HashMap<TxnId, TxnTime>,
    log: Vec<CommitRecord>,
    next_id: u64,
    /// Per-kind conflict totals plus bounded per-object / per-track heat
    /// tables — the aggregate view behind [`TransactionManager::conflict_stats`].
    conflicts_overlap: u64,
    conflicts_watermark: u64,
    conflict_objects: HashMap<u64, u64>,
    conflict_tracks: HashMap<u64, u64>,
    /// The most recent conflict report per telemetry session id, for
    /// `Session::last_conflict`.
    last_conflict: HashMap<u64, ConflictReport>,
    /// Newest commit time whose log record has been pruned. A writing
    /// transaction that began at or before this cannot be validated (the
    /// records it must check are gone) and aborts conservatively. This
    /// closes the registration race: a commit can prune its own record
    /// while a session is between reading the published snapshot and
    /// registering via `begin_at`.
    pruned_through: TxnTime,
}

/// Live outcome counters; shared cells for registry binding.
#[derive(Debug, Default)]
pub struct TxnCounters {
    pub begins: Counter,
    pub commits: Counter,
    pub aborts: Counter,
    /// Aborts caused by failed backward validation specifically (explicit
    /// `abort` calls count in `aborts` only).
    pub conflicts: Counter,
}

impl TxnCounters {
    /// Shared handles (non-detaching): every copy updates the same cells.
    /// This is what the registry binds, so the live `txn.*` metrics and the
    /// manager's own counts can never diverge.
    pub fn share(&self) -> TxnCounters {
        TxnCounters {
            begins: self.begins.clone(),
            commits: self.commits.clone(),
            aborts: self.aborts.clone(),
            conflicts: self.conflicts.clone(),
        }
    }
}

/// `Clone` takes a *detached* point-in-time copy (checkpoint semantics,
/// matching `DiskCounters`): updates to either side are independent. Use
/// [`TxnCounters::share`] when you want live cells.
impl Clone for TxnCounters {
    fn clone(&self) -> TxnCounters {
        TxnCounters {
            begins: self.begins.detached_copy(),
            commits: self.commits.detached_copy(),
            aborts: self.aborts.detached_copy(),
            conflicts: self.conflicts.detached_copy(),
        }
    }
}

/// The shared Transaction Manager.
pub struct TransactionManager {
    clock: Clock,
    grain: ValidationGrain,
    counters: TxnCounters,
    /// Flight-recorder handle; events are emitted under the manager lock,
    /// beside the counter moves, so journal and registry stay 1:1 under
    /// concurrent sessions.
    journal: Option<Journal>,
    /// Microseconds each committer waited to enter the validation critical
    /// section — the direct measure of commit-path contention.
    validation_wait: Histogram,
    /// Goop → home-track resolution for conflict attribution, installed
    /// once by the engine after construction (lock-free to read).
    resolver: OnceLock<TrackResolver>,
    inner: Mutex<Inner>,
}

impl TransactionManager {
    /// A manager whose first commit time follows `last_committed` (EPOCH for
    /// a fresh database).
    pub fn new(last_committed: TxnTime) -> TransactionManager {
        TransactionManager::with_grain(last_committed, ValidationGrain::Element)
    }

    /// Choose the validation granularity (benchmarks compare both).
    pub fn with_grain(last_committed: TxnTime, grain: ValidationGrain) -> TransactionManager {
        TransactionManager {
            clock: Clock::resume_after(last_committed),
            grain,
            counters: TxnCounters::default(),
            journal: None,
            validation_wait: Histogram::new(),
            resolver: OnceLock::new(),
            inner: Mutex::new(Inner {
                active: HashMap::new(),
                log: Vec::new(),
                next_id: 1,
                conflicts_overlap: 0,
                conflicts_watermark: 0,
                conflict_objects: HashMap::new(),
                conflict_tracks: HashMap::new(),
                last_conflict: HashMap::new(),
                // Commits from before this manager existed (pre-recovery)
                // have no log records: snapshots older than the resume
                // point cannot be validated.
                pruned_through: last_committed,
            }),
        }
    }

    /// Attach the flight recorder (before the manager is shared).
    pub fn attach_journal(&mut self, journal: Journal) {
        self.journal = Some(journal);
    }

    /// Install the goop → home-track resolver conflict reports use for
    /// track attribution. One-shot: later calls are ignored.
    pub fn set_track_resolver(&self, f: TrackResolver) {
        let _ = self.resolver.set(f);
    }

    #[inline]
    fn journal_on(&self) -> Option<&Journal> {
        match &self.journal {
            Some(j) if j.enabled() => Some(j),
            _ => None,
        }
    }

    /// Begin a transaction: snapshot at the latest committed time.
    pub fn begin(&self) -> TxnToken {
        self.begin_at(self.clock.last_issued())
    }

    /// Begin a transaction snapshotted at an explicit `start` time — the
    /// time of the state the session actually sees. A concurrent engine
    /// must pass its *published* committed time here, not the manager's
    /// clock: a transaction whose commit is logged (clock advanced) but not
    /// yet published has `log time > start` for sessions beginning off the
    /// published state, so validation still catches the overlap. Beginning
    /// from `clock.last_issued()` instead would blind validation to exactly
    /// that window.
    pub fn begin_at(&self, start: TxnTime) -> TxnToken {
        let mut inner = self.inner.lock();
        self.register_locked(&mut inner, start, 0)
    }

    /// [`TransactionManager::begin_at`], refusing a stale start. `None`
    /// means commits pruned the log past `start` between the caller reading
    /// its published view and registering here — the caller must re-read
    /// the (necessarily newer) published state and try again. Registering
    /// through this check closes the begin/prune race *at begin time*:
    /// once the transaction is in the active set, pruning never passes its
    /// start, so a registered writer cannot be conservatively aborted by
    /// the watermark it just checked.
    pub fn begin_at_checked(&self, start: TxnTime) -> Option<TxnToken> {
        self.begin_at_checked_for(start, 0)
    }

    /// [`TransactionManager::begin_at_checked`] with the owner's telemetry
    /// session id, stamped into the token (and, at commit, into the commit
    /// record) so conflict reports can name culprit sessions.
    pub fn begin_at_checked_for(&self, start: TxnTime, session: u64) -> Option<TxnToken> {
        let mut inner = self.inner.lock();
        if start < inner.pruned_through {
            return None;
        }
        Some(self.register_locked(&mut inner, start, session))
    }

    fn register_locked(&self, inner: &mut Inner, start: TxnTime, session: u64) -> TxnToken {
        let id = TxnId(inner.next_id);
        inner.next_id += 1;
        inner.active.insert(id, start);
        self.counters.begins.inc();
        if let Some(j) = self.journal_on() {
            j.emit(&JournalEvent::TxnBegin);
        }
        TxnToken { id, start, session }
    }

    /// Validate and commit: returns the commit time on success. On conflict
    /// the transaction is aborted (removed from the active set) and the
    /// session must retry from a fresh `begin`.
    ///
    /// Validation is backward: T's reads must not intersect the writes of
    /// any transaction that committed after T began. Read-only transactions
    /// skip validation entirely and always commit, without consuming a
    /// transaction time: a session that reads *as of its snapshot* saw a
    /// committed state that really existed, so it serializes at its start
    /// time no matter who committed since.
    pub fn commit(
        &self,
        token: TxnToken,
        reads: &AccessSet,
        writes: &AccessSet,
    ) -> GemResult<TxnTime> {
        let waited = Instant::now();
        let mut inner = self.inner.lock();
        if inner.active.remove(&token.id).is_none() {
            return Err(GemError::NoTransaction);
        }
        let wait_us = waited.elapsed().as_micros() as u64;
        self.validation_wait.record(wait_us);
        if let Some(j) = self.journal_on() {
            j.emit(&JournalEvent::ValidationWait { us: wait_us });
        }
        if writes.is_empty() {
            self.counters.commits.inc();
            if let Some(j) = self.journal_on() {
                j.emit(&JournalEvent::TxnCommit);
            }
            return Ok(token.start);
        }
        // Validation failure aborts: the watermark case means records this
        // transaction must validate against were pruned before it
        // registered (it raced a commit's prune between reading the
        // published snapshot and `begin_at`), so the overlap cannot be
        // ruled out and the abort is conservative.
        if let Err(report) = self.validate_locked(&mut inner, &token, &self.at_grain(reads)) {
            return Err(self.conflict_abort_locked(&mut inner, *report));
        }
        let time = self.clock.tick();
        let writes = self.at_grain(writes).into_owned();
        inner.log.push(CommitRecord { time, session: token.session, writes });
        self.counters.commits.inc();
        if let Some(j) = self.journal_on() {
            j.emit(&JournalEvent::TxnCommit);
        }
        self.prune_log(&mut inner);
        Ok(time)
    }

    /// Phase 1 of the engine's two-phase writing commit: validate
    /// `token`'s reads and assign the commit time, **without** logging the
    /// commit or removing the transaction from the active set. Because the
    /// transaction stays active, the prune horizon cannot pass its start
    /// while the caller makes the writes durable; because nothing is
    /// logged, a storage failure aborts ([`TransactionManager::abort`])
    /// with no trace in the commit log or the `pruned_through` watermark —
    /// the failure mode that would otherwise strand every later
    /// `begin_at_checked` below a commit time that never published.
    ///
    /// On conflict the transaction is aborted here, exactly as
    /// [`TransactionManager::commit`] would.
    ///
    /// The caller must serialize `prepare` → `finalize`/`abort` against
    /// every other *writing* commit (the engine holds its commit lock
    /// across the pair); read-only commits may interleave freely.
    pub fn prepare(
        &self,
        token: &TxnToken,
        reads: &AccessSet,
        writes: &AccessSet,
    ) -> GemResult<TxnTime> {
        let waited = Instant::now();
        let mut inner = self.inner.lock();
        if !inner.active.contains_key(&token.id) {
            return Err(GemError::NoTransaction);
        }
        let wait_us = waited.elapsed().as_micros() as u64;
        self.validation_wait.record(wait_us);
        if let Some(j) = self.journal_on() {
            j.emit(&JournalEvent::ValidationWait { us: wait_us });
        }
        if writes.is_empty() {
            // Schema-only commits consume no transaction time.
            return Ok(token.start);
        }
        if let Err(report) = self.validate_locked(&mut inner, token, &self.at_grain(reads)) {
            inner.active.remove(&token.id);
            return Err(self.conflict_abort_locked(&mut inner, *report));
        }
        Ok(self.clock.tick())
    }

    /// Phase 2: the writes are durable; log the commit at the `time`
    /// assigned by [`TransactionManager::prepare`] and retire the
    /// transaction. The write set moves into the commit log. Infallible in
    /// the engine's usage (the token was prepared and never finalized
    /// twice); `NoTransaction` guards misuse.
    pub fn finalize(
        &self,
        token: TxnToken,
        time: TxnTime,
        writes: AccessSet,
    ) -> GemResult<TxnTime> {
        let mut inner = self.inner.lock();
        if inner.active.remove(&token.id).is_none() {
            return Err(GemError::NoTransaction);
        }
        if !writes.is_empty() {
            let writes = match self.grain {
                ValidationGrain::Element => writes,
                ValidationGrain::Object => writes.coarsened(),
            };
            inner.log.push(CommitRecord { time, session: token.session, writes });
        }
        self.counters.commits.inc();
        if let Some(j) = self.journal_on() {
            j.emit(&JournalEvent::TxnCommit);
        }
        self.prune_log(&mut inner);
        Ok(time)
    }

    /// `set` at the validation grain: borrowed as recorded at element
    /// grain, a coarsened copy at object grain.
    fn at_grain<'a>(&self, set: &'a AccessSet) -> Cow<'a, AccessSet> {
        match self.grain {
            ValidationGrain::Element => Cow::Borrowed(set),
            ValidationGrain::Object => Cow::Owned(set.coarsened()),
        }
    }

    /// Backward validation of `reads_g` against the log and the watermark,
    /// under the inner lock. Does not touch the active set or counters; a
    /// failure returns the full forensic report for the caller to record.
    fn validate_locked(
        &self,
        inner: &mut Inner,
        token: &TxnToken,
        reads_g: &AccessSet,
    ) -> Result<(), Box<ConflictReport>> {
        if token.start < inner.pruned_through {
            // The culprit's record is pruned: attribute the refusal to the
            // watermark and name the whole read set (any of it may
            // overlap the records that are gone).
            let goops: Vec<u64> =
                reads_g.goops().into_iter().take(MAX_REPORT_OBJECTS).map(|g| g.0).collect();
            return Err(Box::new(self.attribute(ConflictReport {
                kind: ConflictKind::Watermark,
                session: token.session,
                started_at: token.start,
                culprit_time: inner.pruned_through,
                culprit_session: 0,
                tracks: Vec::new(),
                goops,
            })));
        }
        let conflict = inner
            .log
            .iter()
            .rev()
            .take_while(|rec| rec.time > token.start)
            .find(|rec| rec.writes.intersects(reads_g));
        if let Some(rec) = conflict {
            let goops: Vec<u64> = rec
                .writes
                .intersection_goops(reads_g)
                .into_iter()
                .take(MAX_REPORT_OBJECTS)
                .map(|g| g.0)
                .collect();
            return Err(Box::new(self.attribute(ConflictReport {
                kind: ConflictKind::Overlap,
                session: token.session,
                started_at: token.start,
                culprit_time: rec.time,
                culprit_session: rec.session,
                tracks: Vec::new(),
                goops,
            })));
        }
        Ok(())
    }

    /// Fill in the home tracks of a report's objects via the installed
    /// resolver (no resolver: tracks stay empty).
    fn attribute(&self, mut report: ConflictReport) -> ConflictReport {
        if let Some(resolve) = self.resolver.get() {
            let mut tracks: Vec<u64> =
                report.goops.iter().filter_map(|&g| resolve(Goop(g))).collect();
            tracks.sort_unstable();
            tracks.dedup();
            report.tracks = tracks;
        }
        report
    }

    /// Shared conflict epilogue, under the inner lock: move the abort and
    /// conflict counters, fold the report into the heat tables, stash it
    /// for `last_conflict`, journal `TxnAbort` + `TxnConflict` (beside the
    /// counter moves, so journaled conflict events and the conflicts
    /// counter stay 1:1 under concurrency), and build the error.
    fn conflict_abort_locked(&self, inner: &mut Inner, report: ConflictReport) -> GemError {
        self.counters.aborts.inc();
        self.counters.conflicts.inc();
        match report.kind {
            ConflictKind::Overlap => inner.conflicts_overlap += 1,
            ConflictKind::Watermark => inner.conflicts_watermark += 1,
        }
        for &g in &report.goops {
            if inner.conflict_objects.len() < MAX_HEAT_ENTRIES
                || inner.conflict_objects.contains_key(&g)
            {
                *inner.conflict_objects.entry(g).or_insert(0) += 1;
            }
        }
        for &t in &report.tracks {
            if inner.conflict_tracks.len() < MAX_HEAT_ENTRIES
                || inner.conflict_tracks.contains_key(&t)
            {
                *inner.conflict_tracks.entry(t).or_insert(0) += 1;
            }
        }
        if let Some(j) = self.journal_on() {
            j.emit(&JournalEvent::TxnAbort { conflict: true });
            j.emit(&JournalEvent::TxnConflict {
                kind: report.kind.as_str().to_string(),
                session: report.session,
                start: report.started_at.ticks(),
                culprit_time: report.culprit_time.ticks(),
                culprit_session: report.culprit_session,
                goops: report.goops.clone(),
                tracks: report.tracks.clone(),
            });
        }
        let detail = match report.kind {
            ConflictKind::Watermark => format!(
                "commit log pruned through {} but the transaction began at {}: \
                 overlap cannot be ruled out",
                report.culprit_time, report.started_at
            ),
            ConflictKind::Overlap => {
                let goops: Vec<String> = report.goops.iter().map(|g| format!("g{g}")).collect();
                format!(
                    "a transaction committed at {} wrote data read since {} (goops: {})",
                    report.culprit_time,
                    report.started_at,
                    if goops.is_empty() { "unrecorded".to_string() } else { goops.join(", ") }
                )
            }
        };
        let kind = report.kind;
        inner.last_conflict.insert(report.session, report);
        GemError::TransactionConflict { kind, detail }
    }

    /// The most recent conflict report recorded for `session`, if any.
    pub fn last_conflict_for(&self, session: u64) -> Option<ConflictReport> {
        self.inner.lock().last_conflict.get(&session).cloned()
    }

    /// Aggregated conflict heat: per-kind totals plus the objects and
    /// tracks most often involved, hottest first.
    pub fn conflict_stats(&self) -> ConflictStats {
        let inner = self.inner.lock();
        let mut by_object: Vec<(u64, u64)> =
            inner.conflict_objects.iter().map(|(&g, &n)| (g, n)).collect();
        by_object.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut by_track: Vec<(u64, u64)> =
            inner.conflict_tracks.iter().map(|(&t, &n)| (t, n)).collect();
        by_track.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ConflictStats {
            overlap: inner.conflicts_overlap,
            watermark: inner.conflicts_watermark,
            by_object,
            by_track,
        }
    }

    /// Abort without validating.
    pub fn abort(&self, token: TxnToken) {
        let mut inner = self.inner.lock();
        if inner.active.remove(&token.id).is_some() {
            self.counters.aborts.inc();
            if let Some(j) = self.journal_on() {
                j.emit(&JournalEvent::TxnAbort { conflict: false });
            }
        }
    }

    /// §5.4: "A read-only transaction can set its time dial to SafeTime to
    /// get the most recent state for which no currently running transaction
    /// can make changes." That is the newest time ≤ every active
    /// transaction's start.
    pub fn safe_time(&self) -> TxnTime {
        let inner = self.inner.lock();
        inner.active.values().copied().min().unwrap_or_else(|| self.clock.last_issued())
    }

    /// The most recent commit time.
    pub fn now(&self) -> TxnTime {
        self.clock.last_issued()
    }

    /// (commits, aborts) so far.
    pub fn outcome_counts(&self) -> (u64, u64) {
        (self.counters.commits.get(), self.counters.aborts.get())
    }

    /// Live counter cells (for registry binding).
    pub fn counters(&self) -> TxnCounters {
        self.counters.share()
    }

    /// The live validation-wait histogram (`txn.validation_wait_us`):
    /// microseconds spent waiting to enter the validation critical section.
    pub fn validation_wait_histogram(&self) -> Histogram {
        self.validation_wait.clone()
    }

    /// Drop log records no active transaction can conflict with, advancing
    /// the `pruned_through` watermark past everything removed.
    fn prune_log(&self, inner: &mut Inner) {
        let horizon = inner.active.values().copied().min();
        match horizon {
            Some(h) => {
                let removed_max = inner.log.iter().filter(|r| r.time <= h).map(|r| r.time).max();
                if let Some(m) = removed_max {
                    inner.pruned_through = inner.pruned_through.max(m);
                    inner.log.retain(|r| r.time > h);
                }
            }
            None => {
                if let Some(m) = inner.log.iter().map(|r| r.time).max() {
                    inner.pruned_through = inner.pruned_through.max(m);
                }
                inner.log.clear();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::SlotId;
    use gemstone_object::{ElemName, Goop, SymbolId};

    fn slot(g: u64, s: u32) -> SlotId {
        SlotId::Elem(Goop(g), ElemName::Sym(SymbolId(s)))
    }

    fn set(slots: &[SlotId]) -> AccessSet {
        let mut a = AccessSet::new();
        for s in slots {
            a.record(*s);
        }
        a
    }

    #[test]
    fn serial_transactions_commit_with_increasing_times() {
        let tm = TransactionManager::new(TxnTime::EPOCH);
        let t1 = tm.begin();
        let c1 = tm.commit(t1, &set(&[]), &set(&[slot(1, 1)])).unwrap();
        let t2 = tm.begin();
        let c2 = tm.commit(t2, &set(&[slot(1, 1)]), &set(&[slot(1, 1)])).unwrap();
        assert!(c2 > c1);
        assert_eq!(tm.outcome_counts(), (2, 0));
    }

    #[test]
    fn write_read_conflict_aborts_reader() {
        let tm = TransactionManager::new(TxnTime::EPOCH);
        let reader = tm.begin();
        let writer = tm.begin();
        tm.commit(writer, &set(&[]), &set(&[slot(1, 1)])).unwrap();
        let err = tm.commit(reader, &set(&[slot(1, 1)]), &set(&[slot(2, 2)]));
        assert!(matches!(err, Err(GemError::TransactionConflict { .. })));
        assert_eq!(tm.outcome_counts(), (1, 1));
    }

    #[test]
    fn disjoint_elements_do_not_conflict() {
        let tm = TransactionManager::new(TxnTime::EPOCH);
        let a = tm.begin();
        let b = tm.begin();
        tm.commit(a, &set(&[slot(1, 1)]), &set(&[slot(1, 1)])).unwrap();
        // b read a *different element of the same object*: fine at element grain.
        tm.commit(b, &set(&[slot(1, 2)]), &set(&[slot(1, 2)])).unwrap();
        assert_eq!(tm.outcome_counts(), (2, 0));
    }

    #[test]
    fn object_grain_is_stricter() {
        let tm = TransactionManager::with_grain(TxnTime::EPOCH, ValidationGrain::Object);
        let a = tm.begin();
        let b = tm.begin();
        tm.commit(a, &set(&[slot(1, 1)]), &set(&[slot(1, 1)])).unwrap();
        let err = tm.commit(b, &set(&[slot(1, 2)]), &set(&[slot(1, 2)]));
        assert!(err.is_err(), "false conflict at object grain");
    }

    #[test]
    fn blind_writes_do_not_conflict() {
        // Optimistic backward validation checks reads only: two blind
        // writers serialize by commit order.
        let tm = TransactionManager::new(TxnTime::EPOCH);
        let a = tm.begin();
        let b = tm.begin();
        tm.commit(a, &set(&[]), &set(&[slot(1, 1)])).unwrap();
        tm.commit(b, &set(&[]), &set(&[slot(1, 1)])).unwrap();
        assert_eq!(tm.outcome_counts(), (2, 0));
    }

    #[test]
    fn read_only_transactions_always_commit() {
        let tm = TransactionManager::new(TxnTime::EPOCH);
        let r = tm.begin();
        let w = tm.begin();
        tm.commit(w, &set(&[]), &set(&[slot(1, 1)])).unwrap();
        // r read something w later overwrote — but r reads *as of its
        // snapshot*, so its view is the committed state that existed at its
        // start: it serializes there and commits regardless of w.
        let c = tm.commit(r, &set(&[slot(1, 1)]), &set(&[])).unwrap();
        assert_eq!(c, r.start, "read-only commit serializes at its snapshot");
        // A read-only txn never consumes a transaction time.
        let before = tm.now();
        let r2 = tm.begin();
        assert_eq!(tm.commit(r2, &set(&[slot(9, 9)]), &set(&[])).unwrap(), before);
        assert_eq!(tm.now(), before, "no time consumed");
        assert_eq!(tm.outcome_counts(), (3, 0));
    }

    #[test]
    fn begin_at_validates_against_explicit_snapshot() {
        let tm = TransactionManager::new(TxnTime::EPOCH);
        // A writer's commit is logged (clock advanced) but imagine it is
        // not yet *published*: a session beginning from the published state
        // must still start at the pre-commit time.
        let published = tm.now();
        let w = tm.begin();
        // Session begins off the stale published root while w is in
        // flight…
        let r = tm.begin_at(published);
        assert_eq!(r.start, published);
        tm.commit(w, &set(&[]), &set(&[slot(1, 1)])).unwrap();
        // …and reads the slot the in-flight commit wrote: validation sees
        // the log record with time > start and aborts the overlap.
        let err = tm.commit(r, &set(&[slot(1, 1)]), &set(&[slot(2, 2)]));
        assert!(matches!(err, Err(GemError::TransactionConflict { .. })));
        // Whereas `begin()` (clock time) would have hidden that commit:
        let r2 = tm.begin();
        assert!(tm.commit(r2, &set(&[slot(1, 1)]), &set(&[slot(2, 2)])).is_ok());
    }

    #[test]
    fn pruned_snapshot_gap_aborts_conservatively() {
        let tm = TransactionManager::new(TxnTime::EPOCH);
        let published = tm.now();
        // w commits with nobody registered: its prune clears the log and
        // advances the watermark…
        let w = tm.begin();
        tm.commit(w, &set(&[]), &set(&[slot(1, 1)])).unwrap();
        // …then a session registers off the stale published snapshot (it
        // raced the prune). Its writes cannot be validated: abort.
        let r = tm.begin_at(published);
        let err = tm.commit(r, &set(&[slot(1, 1)]), &set(&[slot(2, 2)]));
        assert!(matches!(err, Err(GemError::TransactionConflict { .. })));
        // A read-only transaction off the same stale snapshot still
        // commits: it serializes at its start time.
        let r2 = tm.begin_at(published);
        assert_eq!(tm.commit(r2, &set(&[slot(1, 1)]), &set(&[])).unwrap(), published);
    }

    #[test]
    fn validation_wait_histogram_records_each_commit() {
        let tm = TransactionManager::new(TxnTime::EPOCH);
        let h = tm.validation_wait_histogram();
        assert_eq!(h.snapshot().count, 0);
        let a = tm.begin();
        tm.commit(a, &set(&[]), &set(&[slot(1, 1)])).unwrap();
        let b = tm.begin();
        tm.commit(b, &set(&[]), &set(&[])).unwrap();
        assert_eq!(h.snapshot().count, 2, "write and read-only commits both measured");
    }

    #[test]
    fn counters_clone_detaches_share_does_not() {
        let tm = TransactionManager::new(TxnTime::EPOCH);
        let live = tm.counters(); // share(): live cells
        let frozen = live.clone(); // Clone: detached checkpoint
        let t = tm.begin();
        tm.commit(t, &set(&[]), &set(&[slot(1, 1)])).unwrap();
        assert_eq!(live.begins.get(), 1, "shared cells see the manager's moves");
        assert_eq!(live.commits.get(), 1);
        assert_eq!(frozen.begins.get(), 0, "detached copy froze at the checkpoint");
        assert_eq!(frozen.commits.get(), 0);
        frozen.aborts.inc();
        assert_eq!(tm.counters().aborts.get(), 0, "moves on a detached copy stay private");
    }

    #[test]
    fn commit_unknown_token_fails() {
        let tm = TransactionManager::new(TxnTime::EPOCH);
        let t = tm.begin();
        tm.abort(t);
        assert!(matches!(tm.commit(t, &set(&[]), &set(&[])), Err(GemError::NoTransaction)));
    }

    #[test]
    fn safe_time_tracks_oldest_active() {
        let tm = TransactionManager::new(TxnTime::EPOCH);
        let a = tm.begin(); // starts at EPOCH level
        let w = tm.begin();
        tm.commit(w, &set(&[]), &set(&[slot(1, 1)])).unwrap();
        assert_eq!(tm.safe_time(), a.start, "a could still see pre-commit state");
        tm.abort(a);
        assert_eq!(tm.safe_time(), tm.now(), "no active txns: latest commit is safe");
    }

    #[test]
    fn conflict_is_against_snapshot_not_wallclock() {
        let tm = TransactionManager::new(TxnTime::EPOCH);
        // Writer commits BEFORE reader begins: no conflict.
        let w = tm.begin();
        tm.commit(w, &set(&[]), &set(&[slot(1, 1)])).unwrap();
        let r = tm.begin();
        assert!(tm.commit(r, &set(&[slot(1, 1)]), &set(&[])).is_ok());
    }

    #[test]
    fn log_pruning_keeps_validation_correct() {
        let tm = TransactionManager::new(TxnTime::EPOCH);
        let old = tm.begin();
        for i in 0..100 {
            let w = tm.begin();
            tm.commit(w, &set(&[]), &set(&[slot(i, 0)])).unwrap();
        }
        // `old` read slot(50,0), written meanwhile: must still abort even
        // after pruning (old is the horizon, so records stay).
        assert!(tm.commit(old, &set(&[slot(50, 0)]), &set(&[slot(200, 0)])).is_err());
    }

    #[test]
    fn concurrent_sessions_stress() {
        use std::sync::Arc;
        let tm = Arc::new(TransactionManager::new(TxnTime::EPOCH));
        let mut handles = Vec::new();
        for thread in 0..4u64 {
            let tm = tm.clone();
            handles.push(std::thread::spawn(move || {
                let mut committed = 0;
                for i in 0..200u64 {
                    let t = tm.begin();
                    let s = slot((thread * 1000 + i) % 50, 0);
                    if tm.commit(t, &set(&[s]), &set(&[s])).is_ok() {
                        committed += 1;
                    }
                }
                committed
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        let (commits, aborts) = tm.outcome_counts();
        assert_eq!(commits, total);
        assert_eq!(commits + aborts, 800);
        assert!(commits > 0);
    }
}
