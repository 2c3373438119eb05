//! The shared database: permanent store, schema, Transaction Manager.
//!
//! §6: "Sessions have shared access to the permanent database through
//! transactions." One [`Database`] is shared (via `Arc`) by any number of
//! [`Session`](crate::Session)s. Since PR 6 the old single `Mutex<DbInner>`
//! is shattered into independently-locked pieces so sessions read without
//! contending:
//!
//! - the [`PermanentStore`] is internally concurrent (sharded object table,
//!   sharded track cache, single writer lock) and needs no outer lock;
//! - the [`CommittedView`] — the committed time, the committed globals and
//!   the feed of objects recent commits changed — is an immutable `Arc`
//!   snapshot swapped atomically at commit-publish.
//!   Sessions clone the Arc at transaction begin and read it lock-free for
//!   the rest of the transaction;
//! - schema (symbols, classes, directories, users, method sources) sits
//!   behind a `RwLock` that statements only read;
//! - installed methods have their own `RwLock` (appends are rare, lookups
//!   constant);
//! - the `commit_lock` serializes the commit pipeline: validate → stage
//!   metadata → safe-write → publish. Read-only transactions never take it.
//!
//! Lock hierarchy (outermost first): `commit_lock` → txn-manager inner →
//! `effects` → `schema` → store writer → store internals → cache shard →
//! disk. The effect-summary cache sits above `schema` because the analyzer
//! resolves selectors and method tables (schema/methods read locks) while
//! holding the cache; invalidation sites must therefore drop their schema
//! guard before touching the cache. See DESIGN.md §9.

use crate::auth::AuthTable;
use crate::index::{DirRegistry, StatsRefresh};
use crate::meta::{self, MethodSource};
use crate::session::Session;
use gemstone_calculus::StatsCatalog;
use gemstone_object::{
    ClassId, ClassTable, GemError, GemResult, Goop, Kernel, PRef, SymbolId, SymbolTable,
};
use gemstone_opal::{install_kernel_methods, CompiledMethod, EffectCache};
use gemstone_storage::{DiskArray, PermanentStore, StoreConfig};
use gemstone_telemetry::{
    DiagnosticBundle, Journal, JournalConfig, JournalEvent, MetricsBatch, MetricsSnapshot,
    Telemetry,
};
use gemstone_temporal::TxnTime;
use gemstone_txn::TransactionManager;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Mutable schema state: everything a statement needs read access to and
/// DDL needs write access to. Statements take the read lock; only schema
/// changes (subclassing, method installs, index creation, user admin) take
/// the write lock.
pub(crate) struct Schema {
    pub symbols: SymbolTable,
    pub classes: ClassTable,
    pub kernel: Kernel,
    pub block_class: ClassId,
    pub method_sources: Vec<MethodSource>,
    pub dirs: DirRegistry,
    pub auth: AuthTable,
    /// The planner's statistics catalog: per-set cardinality, per-directory
    /// key sketches, per-predicate observed selectivities. Maintained under
    /// the commit choke point, persisted in [`meta::META_STATS`].
    pub stats: StatsCatalog,
    /// Schema (classes/methods/directories/users) changed since the last
    /// commit and must be flushed with it.
    pub schema_dirty: bool,
    /// The statistics catalog changed since the last metadata flush.
    /// Tracked separately from `schema_dirty` so routine stats refreshes
    /// don't masquerade as DDL.
    pub stats_dirty: bool,
    /// Symbols in the last flushed symbol table. The table only grows, and
    /// any statement may grow it (a new global or element name), so it is
    /// flushed whenever it is longer than this.
    pub symbols_flushed: usize,
}

impl Schema {
    /// Stage the metadata blobs that changed since the last flush — the
    /// symbol table if it grew, the class/method/directory blobs after a
    /// schema edit, the statistics after a refresh, and `globals` when the
    /// commit rebinds a global. Called under the commit lock just before a
    /// commit, so the metadata lands in the same safe-write group as the
    /// data.
    pub fn flush_meta(
        &mut self,
        store: &PermanentStore,
        globals: Option<&HashMap<SymbolId, PRef>>,
    ) {
        if self.symbols.len() != self.symbols_flushed {
            store.set_meta(meta::META_SYMBOLS, meta::put_symbols(&self.symbols));
            self.symbols_flushed = self.symbols.len();
        }
        if self.schema_dirty {
            store.set_meta(meta::META_CLASSES, meta::put_classes(&self.classes));
            store.set_meta(meta::META_METHODS, meta::put_method_sources(&self.method_sources));
            store.set_meta(meta::META_DIRS, meta::put_dir_specs(&self.dirs.spec_records()));
            self.schema_dirty = false;
        }
        if self.stats_dirty {
            store.set_meta(meta::META_STATS, meta::put_stats(&self.stats));
            self.stats_dirty = false;
        }
        if let Some(globals) = globals {
            store.set_meta(meta::META_GLOBALS, meta::put_globals(globals));
        }
    }
}

/// An immutable snapshot of committed state, published atomically by each
/// committing transaction. Sessions hold an `Arc<CommittedView>` for the
/// duration of a transaction and read it without any lock; the store's
/// temporal histories answer reads *as of* `time`, so the pair
/// (view, `elements_at(view.time)`) is a consistent snapshot even while
/// later commits land.
pub(crate) struct CommittedView {
    /// The commit time of the newest transaction visible in this view.
    pub time: TxnTime,
    /// Committed global bindings. Shared immutably: a commit that changes
    /// globals builds a new map and publishes a new Arc.
    pub globals: Arc<HashMap<SymbolId, PRef>>,
    /// The committed-change feed: the objects each of the last
    /// [`FEED_COMMITS`] writing commits changed, oldest first. Immutable
    /// like the rest of the view, so a session reads it without any lock.
    feed: Arc<[(TxnTime, Arc<[Goop]>)]>,
    /// Every object changed by a commit later than this time is named in
    /// `feed`; about older commits the feed says nothing.
    horizon: TxnTime,
}

/// Commits the change feed remembers. A session idle for longer than this
/// many foreign commits pays one whole-workspace refresh at its next begin.
const FEED_COMMITS: usize = 64;

impl CommittedView {
    /// The view a freshly created or reopened database starts from: nothing
    /// is known to have changed after `time`.
    fn initial(time: TxnTime, globals: Arc<HashMap<SymbolId, PRef>>) -> CommittedView {
        CommittedView { time, globals, feed: Arc::new([]), horizon: time }
    }

    /// The view a commit at `time` publishes over this one: same feed plus
    /// one entry naming the objects the commit `changed` (none for a
    /// schema-only commit), the oldest entry falling behind the horizon
    /// once the feed is full.
    pub fn advanced(
        &self,
        time: TxnTime,
        globals: Arc<HashMap<SymbolId, PRef>>,
        changed: impl Iterator<Item = Goop>,
    ) -> CommittedView {
        let changed: Arc<[Goop]> = changed.collect();
        if changed.is_empty() {
            return CommittedView { time, globals, feed: self.feed.clone(), horizon: self.horizon };
        }
        let skip = (self.feed.len() + 1).saturating_sub(FEED_COMMITS);
        let horizon = if skip == 0 { self.horizon } else { self.feed[skip - 1].0 };
        let feed = self.feed[skip..].iter().cloned().chain([(time, changed)]).collect();
        CommittedView { time, globals, feed, horizon }
    }

    /// The objects changed by commits in `(since, self.time]`, newest commit
    /// first, or `None` when `since` lies beyond the feed's horizon and only
    /// a whole-workspace refresh is safe. An object changed by several of
    /// those commits is named once per commit.
    pub fn changed_since(&self, since: TxnTime) -> Option<impl Iterator<Item = Goop> + '_> {
        (since >= self.horizon).then(|| {
            self.feed
                .iter()
                .rev()
                .take_while(move |(t, _)| *t > since)
                .flat_map(|(_, goops)| goops.iter().copied())
        })
    }
}

/// The GemStone database: create one, share it, log sessions in.
pub struct Database {
    pub(crate) store: PermanentStore,
    pub(crate) schema: RwLock<Schema>,
    /// Installed compiled methods. `MethodId` indexes this vector; ids with
    /// the high bit set are session-local doIts and never appear here.
    pub(crate) methods: RwLock<Vec<Arc<CompiledMethod>>>,
    pub(crate) committed: RwLock<Arc<CommittedView>>,
    /// Serializes the commit pipeline (validate → stage → write → publish).
    /// Never taken by readers or read-only commits.
    pub(crate) commit_lock: Mutex<()>,
    /// Effect summaries for installed methods, shared by every session and
    /// invalidated wholesale whenever a method is installed or rebound.
    /// Sits above `schema` in the lock hierarchy (the analyzer reads the
    /// schema while holding it).
    pub(crate) effects: Mutex<EffectCache>,
    pub(crate) txns: TransactionManager,
    pub(crate) telemetry: Telemetry,
    /// Master switch for the statistics observatory: when off (the
    /// default), planning, commits, and the journal behave exactly as
    /// before — the overhead gate relies on that.
    pub(crate) stats_on: AtomicBool,
    /// Whether commits passively refresh statistics for the sets they
    /// touch. Only consulted while `stats_on`; benchmarks freeze it to
    /// seed estimate drift (train, shift the data, watch the planner miss).
    pub(crate) stats_maintenance: AtomicBool,
}

/// Bind every layer's instrument handles into the registry under the
/// canonical names (see DESIGN.md §Telemetry). The layers keep owning
/// their cells; the registry shares the same atomics, which is what makes
/// the pre-existing stats accessors thin views over the registry. All
/// bindings are staged in a [`MetricsBatch`] and registered atomically so a
/// concurrent `snapshot()` never observes a half-bound layer.
fn bind_layer_metrics(telemetry: &Telemetry, store: &PermanentStore, txns: &TransactionManager) {
    let r = &telemetry.registry;
    let d = store.disk_counters();
    let c = store.cache_counters();
    let s = store.counters();
    let t = txns.counters();
    let mut batch = MetricsBatch::new()
        .counter("storage.disk.reads", &d.track_reads)
        .counter("storage.disk.writes", &d.track_writes)
        .counter("storage.disk.bytes_written", &d.bytes_written)
        .counter("storage.disk.failed_reads", &d.failed_reads)
        .counter("storage.disk.failed_writes", &d.failed_writes)
        .counter("storage.disk.fsyncs", &d.fsyncs)
        .counter("storage.cache.hits", &c.hits)
        .counter("storage.cache.misses", &c.misses)
        .counter("storage.cache.evictions", &c.evictions)
        .counter("storage.cache.fills_read", &c.fills_read)
        .counter("storage.cache.fills_commit", &c.fills_commit)
        .counter("storage.store.commits", &s.commits)
        .counter("storage.store.object_faults", &s.object_faults)
        .counter("storage.store.objects_written", &s.objects_written)
        .counter("txn.begins", &t.begins)
        .counter("txn.commits", &t.commits)
        .counter("txn.aborts", &t.aborts)
        .counter("txn.conflicts", &t.conflicts)
        .histogram("storage.commit.group_tracks", &store.group_size_histogram())
        .histogram("storage.disk.fsync_us", &d.fsync_us)
        .histogram("txn.validation_wait_us", &txns.validation_wait_histogram());
    for (i, (hits, misses)) in store.cache_shard_counters().iter().enumerate() {
        batch = batch
            .counter(&format!("storage.cache.shard{i}.hits"), hits)
            .counter(&format!("storage.cache.shard{i}.misses"), misses);
    }
    r.register_batch(batch);
    let rep = store.recovery_report();
    r.gauge("storage.recovery.roots_considered").set(rep.roots_considered as i64);
    r.gauge("storage.recovery.roots_valid").set(rep.roots_valid as i64);
    r.gauge("storage.recovery.roots_torn").set(rep.roots_torn as i64);
    r.gauge("storage.recovery.epoch").set(rep.recovered_epoch as i64);
    r.gauge("storage.recovery.tracks_salvaged").set(rep.tracks_salvaged as i64);
    r.gauge("storage.recovery.tracks_discarded").set(rep.tracks_discarded as i64);
    r.gauge("storage.recovery.log_records").set(rep.log_records as i64);
    r.gauge("storage.recovery.reopen_reads").set(rep.reopen_reads as i64);
    // Pre-create the session-level instruments (sessions bind the same
    // cells at login), so a journal baseline emitted at construction time
    // covers the full canonical name set and replay reproduces the live
    // snapshot name-for-name.
    for name in [
        "session.statements",
        "opal.interp.dispatches",
        "opal.interp.sends",
        "opal.verify.checks",
        "opal.verify.rejects",
        "opal.effects.computed",
        "opal.effects.pure",
        "opal.effects.read_only",
        "opal.effects.writes_local",
        "opal.effects.writes_global",
        "opal.effects.unknown",
        "opal.effects.stmts_classified",
        "opal.effects.stmts_static_ro",
        "opal.effects.static_ro_commits",
        "opal.effects.invalidations",
        "calculus.rows_scanned",
        "calculus.index_rows",
        "calculus.index_hits",
        "calculus.index_fallbacks",
        "calculus.select_in",
        "calculus.select_out",
        "calculus.nest_loops",
        "calculus.hash_builds",
        "calculus.hash_probes",
        "calculus.hash_matches",
        "calculus.rows_out",
        "calculus.stats.updates",
        "calculus.plan.choices",
        "calculus.plan.cost_based",
        "calculus.plan.replans",
        "calculus.plan.drift",
    ] {
        let _ = r.counter(name);
    }
    let _ = r.histogram("session.statement_ns");
    // Commit-timeline phase histograms, recorded by sessions per writing
    // commit (pre-created here for baseline name parity, like the session
    // counters above).
    for name in [
        "commit.phase.snapshot_age_us",
        "commit.phase.validation_us",
        "commit.phase.safe_write_us",
        "commit.phase.fsync_us",
        "commit.phase.publish_us",
    ] {
        let _ = r.histogram(name);
    }
}

fn kernel_from(classes: &ClassTable, symbols: &SymbolTable) -> GemResult<Kernel> {
    let class = |name: &str| -> GemResult<ClassId> {
        symbols
            .lookup(name)
            .and_then(|s| classes.by_name(s))
            .ok_or_else(|| GemError::Corrupt(format!("kernel class {name} missing")))
    };
    Ok(Kernel {
        object: class("Object")?,
        undefined_object: class("UndefinedObject")?,
        boolean: class("Boolean")?,
        true_class: class("True")?,
        false_class: class("False")?,
        magnitude: class("Magnitude")?,
        number: class("Number")?,
        small_integer: class("SmallInteger")?,
        float: class("Float")?,
        character: class("Character")?,
        collection: class("Collection")?,
        string: class("String")?,
        symbol: class("Symbol")?,
        array: class("Array")?,
        ordered_collection: class("OrderedCollection")?,
        set: class("Set")?,
        bag: class("Bag")?,
        dictionary: class("Dictionary")?,
        association: class("Association")?,
        metaclass: class("Metaclass")?,
        system_class: class("System")?,
    })
}

impl Database {
    /// The permanent store (benchmark/diagnostic knobs: cache bounds,
    /// simulated read latency).
    pub fn store(&self) -> &PermanentStore {
        &self.store
    }

    /// Format a fresh database on a simulated disk.
    pub fn create(cfg: StoreConfig) -> GemResult<Arc<Database>> {
        Database::create_with(cfg, Telemetry::new())
    }

    /// [`Database::create`] over an explicit telemetry bundle (tests inject
    /// a manual clock here for deterministic span durations).
    pub fn create_with(cfg: StoreConfig, telemetry: Telemetry) -> GemResult<Arc<Database>> {
        Database::create_with_store(PermanentStore::create(cfg)?, telemetry)
    }

    /// Format a fresh *persistent* database in a real file at `path` (the
    /// file backend: `pwrite` + group-commit `fdatasync`, so committed
    /// state survives the process). Replica `i` of a replicated config
    /// lives beside the file at `<path>.r{i}`.
    pub fn create_file(
        path: impl AsRef<std::path::Path>,
        cfg: StoreConfig,
    ) -> GemResult<Arc<Database>> {
        Database::create_file_with(path, cfg, Telemetry::new())
    }

    /// [`Database::create_file`] over an explicit telemetry bundle.
    pub fn create_file_with(
        path: impl AsRef<std::path::Path>,
        cfg: StoreConfig,
        telemetry: Telemetry,
    ) -> GemResult<Arc<Database>> {
        Database::create_with_store(PermanentStore::create_file(path, cfg)?, telemetry)
    }

    fn create_with_store(
        mut store: PermanentStore,
        telemetry: Telemetry,
    ) -> GemResult<Arc<Database>> {
        store.attach_tracer(telemetry.tracer.clone());
        let mut symbols = SymbolTable::new();
        let (mut classes, kernel) = ClassTable::bootstrap(&mut symbols);
        let block_class =
            classes.subclass(symbols.intern("BlockClosure"), kernel.object, vec![])?;
        let schema = Schema {
            symbols,
            classes,
            kernel,
            block_class,
            method_sources: Vec::new(),
            dirs: DirRegistry::default(),
            auth: AuthTable::new(),
            stats: StatsCatalog::default(),
            schema_dirty: true,
            stats_dirty: false,
            symbols_flushed: 0,
        };
        let mut txns = TransactionManager::new(TxnTime::EPOCH);
        bind_layer_metrics(&telemetry, &store, &txns);
        // If the flight recorder was started before creation, baseline the
        // registry *before* attaching the emission sites: the volume
        // formatting above already moved counters, and the baseline events
        // carry those values exactly once.
        if telemetry.journal.enabled() {
            telemetry.journal.emit_baseline(&telemetry.registry.snapshot());
            telemetry
                .journal
                .emit(&JournalEvent::CacheConfigured { tracks: store.cache_capacity() as u64 });
        }
        store.attach_journal(telemetry.journal.clone());
        txns.attach_journal(telemetry.journal.clone());
        let db = Arc::new(Database {
            store,
            schema: RwLock::new(schema),
            methods: RwLock::new(Vec::new()),
            committed: RwLock::new(Arc::new(CommittedView::initial(
                TxnTime::EPOCH,
                Arc::new(HashMap::new()),
            ))),
            commit_lock: Mutex::new(()),
            effects: Mutex::new(EffectCache::new()),
            txns,
            telemetry,
            stats_on: AtomicBool::new(false),
            stats_maintenance: AtomicBool::new(true),
        });
        db.install_track_resolver();
        // Kernel methods install through a bootstrap session.
        let mut boot = Session::internal_login(db.clone());
        install_kernel_methods(&mut boot)?;
        // Persist the initial schema.
        {
            let _commit = db.commit_lock.lock();
            let globals = db.committed.read().globals.clone();
            db.schema.write().flush_meta(&db.store, Some(&globals));
            let t = db.txns.now();
            db.store.commit_batch(t, &[])?;
            *db.committed.write() = Arc::new(CommittedView::initial(t, globals));
        }
        Ok(db)
    }

    /// An in-memory database with default sizing (the common test entry).
    pub fn in_memory() -> Arc<Database> {
        Database::create(StoreConfig::default()).expect("in-memory database")
    }

    /// Recover a database from a disk: newest valid root wins, schema is
    /// reloaded, user methods are recompiled from source, directories are
    /// rebuilt.
    pub fn open(disk: DiskArray, cache_tracks: usize) -> GemResult<Arc<Database>> {
        Database::open_with(disk, cache_tracks, Telemetry::new())
    }

    /// [`Database::open`] over an explicit telemetry bundle.
    pub fn open_with(
        disk: DiskArray,
        cache_tracks: usize,
        telemetry: Telemetry,
    ) -> GemResult<Arc<Database>> {
        Database::open_with_store(PermanentStore::open(disk, cache_tracks)?, telemetry)
    }

    /// Recover a *persistent* database from the file at `path` (created by
    /// [`Database::create_file`]): newest valid root wins, exactly as with
    /// [`Database::open`], but read from real storage.
    pub fn open_file(
        path: impl AsRef<std::path::Path>,
        cache_tracks: usize,
    ) -> GemResult<Arc<Database>> {
        Database::open_file_with(path, cache_tracks, Telemetry::new())
    }

    /// [`Database::open_file`] over an explicit telemetry bundle.
    pub fn open_file_with(
        path: impl AsRef<std::path::Path>,
        cache_tracks: usize,
        telemetry: Telemetry,
    ) -> GemResult<Arc<Database>> {
        Database::open_with_store(PermanentStore::open_file(path, 1, cache_tracks)?, telemetry)
    }

    fn open_with_store(
        mut store: PermanentStore,
        telemetry: Telemetry,
    ) -> GemResult<Arc<Database>> {
        store.attach_tracer(telemetry.tracer.clone());
        let symbols = match store.get_meta(meta::META_SYMBOLS)? {
            Some(b) => meta::get_symbols(&b)?,
            None => return Err(GemError::Corrupt("no symbol metadata".into())),
        };
        let classes = match store.get_meta(meta::META_CLASSES)? {
            Some(b) => meta::get_classes(&b)?,
            None => return Err(GemError::Corrupt("no class metadata".into())),
        };
        let globals = match store.get_meta(meta::META_GLOBALS)? {
            Some(b) => meta::get_globals(&b)?,
            None => HashMap::new(),
        };
        let method_sources = match store.get_meta(meta::META_METHODS)? {
            Some(b) => meta::get_method_sources(&b)?,
            None => Vec::new(),
        };
        let dir_specs = match store.get_meta(meta::META_DIRS)? {
            Some(b) => meta::get_dir_specs(&b)?,
            None => Vec::new(),
        };
        let stats = match store.get_meta(meta::META_STATS)? {
            Some(b) => meta::get_stats(&b)?,
            None => StatsCatalog::default(),
        };
        let kernel = kernel_from(&classes, &symbols)?;
        let block_class = symbols
            .lookup("BlockClosure")
            .and_then(|s| classes.by_name(s))
            .ok_or_else(|| GemError::Corrupt("BlockClosure class missing".into()))?;
        let last = store.root().commit_time;
        let dirs = DirRegistry::rebuild(&store, &symbols, &dir_specs, last)?;
        let schema = Schema {
            symbols_flushed: symbols.len(),
            symbols,
            classes,
            kernel,
            block_class,
            method_sources: method_sources.clone(),
            dirs,
            auth: AuthTable::new(),
            stats,
            schema_dirty: false,
            stats_dirty: false,
        };
        let mut txns = TransactionManager::new(last);
        bind_layer_metrics(&telemetry, &store, &txns);
        if telemetry.journal.enabled() {
            let rep = store.recovery_report();
            telemetry.journal.emit(&JournalEvent::Recovery {
                roots_considered: rep.roots_considered as u64,
                roots_valid: rep.roots_valid as u64,
                roots_torn: rep.roots_torn as u64,
                epoch: rep.recovered_epoch,
                tracks_salvaged: rep.tracks_salvaged as u64,
                tracks_discarded: rep.tracks_discarded as u64,
                log_records: rep.log_records as u64,
                reopen_reads: rep.reopen_reads,
            });
            telemetry.journal.emit_baseline(&telemetry.registry.snapshot());
            telemetry
                .journal
                .emit(&JournalEvent::CacheConfigured { tracks: store.cache_capacity() as u64 });
        }
        store.attach_journal(telemetry.journal.clone());
        txns.attach_journal(telemetry.journal.clone());
        let db = Arc::new(Database {
            store,
            schema: RwLock::new(schema),
            methods: RwLock::new(Vec::new()),
            committed: RwLock::new(Arc::new(CommittedView::initial(last, Arc::new(globals)))),
            commit_lock: Mutex::new(()),
            effects: Mutex::new(EffectCache::new()),
            txns,
            telemetry,
            stats_on: AtomicBool::new(false),
            stats_maintenance: AtomicBool::new(true),
        });
        db.install_track_resolver();
        // Rebuild method dictionaries: kernel first, then user sources in
        // their original order.
        let mut boot = Session::internal_login(db.clone());
        install_kernel_methods(&mut boot)?;
        for ms in method_sources {
            boot.recompile_method(&ms)?;
        }
        Ok(db)
    }

    /// Teach the Transaction Manager to map objects onto their home
    /// tracks for conflict attribution. The closure holds a `Weak` so the
    /// resolver never keeps the database alive ([`Database::into_disk`]
    /// relies on being the last strong reference); resolver reads are a
    /// lock-free `OnceLock` load plus the locations read lock, which the
    /// DESIGN.md §9 hierarchy permits under the manager's inner lock.
    fn install_track_resolver(self: &Arc<Database>) {
        let weak = Arc::downgrade(self);
        self.txns.set_track_resolver(Arc::new(move |goop| {
            weak.upgrade().and_then(|db| db.store.home_track(goop))
        }));
    }

    /// The current committed snapshot. Sessions clone this Arc at
    /// transaction begin and read against it lock-free.
    pub(crate) fn committed_view(&self) -> Arc<CommittedView> {
        self.committed.read().clone()
    }

    /// Log a user in, creating a session with its own workspace.
    pub fn login(self: &Arc<Database>, user: &str) -> GemResult<Session> {
        if !self.schema.read().auth.user_exists(user) {
            return Err(GemError::AuthorizationDenied {
                segment: 0,
                detail: format!("no such user {user}"),
            });
        }
        Ok(Session::login(self.clone(), user))
    }

    /// Administrator session.
    pub fn login_dba(self: &Arc<Database>) -> Session {
        Session::internal_login(self.clone())
    }

    /// Register a user (DBA operation).
    pub fn create_user(&self, name: &str) {
        let mut schema = self.schema.write();
        schema.auth.create_user(name);
        schema.schema_dirty = true;
    }

    /// Tear down to the raw disk for crash/recovery tests. Fails if other
    /// sessions still share the database.
    pub fn into_disk(self: Arc<Database>) -> GemResult<DiskArray> {
        match Arc::try_unwrap(self) {
            Ok(db) => Ok(db.store.into_disk()),
            Err(_) => Err(GemError::RuntimeError("database still shared".into())),
        }
    }

    /// What the reopening that produced this database saw and decided:
    /// roots probed/valid/torn, the winning epoch, tracks salvaged and
    /// discarded, catalog records walked, physical reads. All-default for
    /// a freshly created database, which performed no recovery.
    pub fn recovery_report(&self) -> gemstone_storage::RecoveryReport {
        self.store.recovery_report()
    }

    /// The database-wide telemetry bundle: metrics registry, span tracer,
    /// clock. Clones share all state with the database's own handles.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// A point-in-time copy of every registered metric. Diffable:
    /// `after.diff(&before)` isolates one workload's deltas.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.telemetry.registry.snapshot()
    }

    /// Start the flight recorder: events stream to segment files in
    /// `cfg.dir`. Every layer already holds a handle on the shared
    /// recorder, so this needs no re-attachment — it flips one shared
    /// flag and writes the baseline (the absolute registry state, so
    /// replaying the journal reproduces cumulative totals exactly).
    /// Start it while the database is otherwise idle: events from a
    /// session racing the baseline would replay twice.
    pub fn start_journal(&self, cfg: JournalConfig) -> GemResult<()> {
        let j = &self.telemetry.journal;
        j.start(cfg).map_err(|e| GemError::RuntimeError(format!("journal start: {e}")))?;
        j.emit_baseline(&self.telemetry.registry.snapshot());
        let tracks = self.store.cache_capacity() as u64;
        j.emit(&JournalEvent::CacheConfigured { tracks });
        Ok(())
    }

    /// Stop the flight recorder (segment files stay on disk).
    pub fn stop_journal(&self) {
        self.telemetry.journal.stop();
    }

    /// Build a diagnostic bundle from the live journal + metrics: track
    /// heat map, cache replay sweep, slow statements, recovery summary,
    /// and the replay-determinism verdict. Fails when the recorder is not
    /// running.
    pub fn diagnostic_bundle(&self, reason: &str) -> GemResult<DiagnosticBundle> {
        let j = &self.telemetry.journal;
        let dir = j.dir().ok_or_else(|| {
            GemError::RuntimeError("flight recorder not running (start_journal first)".into())
        })?;
        j.flush();
        let readout = Journal::read_from(&dir).map_err(GemError::RuntimeError)?;
        let live = self.telemetry.registry.snapshot();
        Ok(DiagnosticBundle::build(&readout, Some(&live), reason))
    }

    /// Auto-capture: write a diagnostic bundle beside the journal segments
    /// as `bundle-<reason>-<seq>.json`. A no-op returning `None` when the
    /// recorder is off (structured-failure paths call this untested for
    /// enablement). Returns the bundle path on success.
    pub fn capture_bundle(&self, reason: &str) -> Option<std::path::PathBuf> {
        let j = &self.telemetry.journal;
        if !j.enabled() {
            return None;
        }
        let dir = j.dir()?;
        j.flush();
        let readout = Journal::read_from(&dir).ok()?;
        let live = self.telemetry.registry.snapshot();
        let bundle = DiagnosticBundle::build(&readout, Some(&live), reason);
        let path = dir.join(format!("bundle-{}-{:04}.json", reason, j.next_bundle_seq()));
        std::fs::write(&path, bundle.to_json()).ok()?;
        Some(path)
    }

    /// Aggregated conflict forensics: per-kind abort totals plus the
    /// hottest objects and tracks, straight from the Transaction Manager.
    pub fn conflict_stats(&self) -> gemstone_txn::ConflictStats {
        self.txns.conflict_stats()
    }

    /// Storage/disk statistics snapshot (benchmark instrumentation).
    pub fn storage_stats(&self) -> (gemstone_storage::StoreStats, gemstone_storage::DiskStats) {
        (self.store.stats(), self.store.disk_stats())
    }

    /// Reset storage counters.
    pub fn reset_storage_stats(&self) {
        self.store.reset_stats();
    }

    /// (commits, aborts) seen by the Transaction Manager.
    pub fn txn_counts(&self) -> (u64, u64) {
        self.txns.outcome_counts()
    }

    /// Bound the store's object cache (LOOM-comparison benches).
    pub fn set_object_cache_limit(&self, limit: Option<usize>) {
        self.store.set_object_cache_limit(limit);
    }

    /// Direct access to the simulated disk (crash injection in tests and
    /// benches).
    pub fn with_disk<R>(&self, f: impl FnOnce(&mut gemstone_storage::DiskArray) -> R) -> R {
        self.store.with_disk(f)
    }

    /// Number of registered directories.
    pub fn directory_count(&self) -> usize {
        self.schema.read().dirs.count()
    }

    /// Switch the statistics observatory on and train it: every registered
    /// directory is sketched from its current state, so the very next plan
    /// is cost-based. Returns the number of refreshed sketches.
    pub fn enable_stats(&self) -> GemResult<usize> {
        self.stats_on.store(true, Ordering::Release);
        let updates = {
            let mut schema = self.schema.write();
            let now = self.txns.now().ticks();
            let Schema { dirs, stats, stats_dirty, .. } = &mut *schema;
            let ups = dirs.refresh_stats_all(&self.store, stats, now)?;
            if !ups.is_empty() {
                *stats_dirty = true;
            }
            ups
        };
        self.journal_stats_updates(&updates);
        Ok(updates.len())
    }

    /// Switch the statistics observatory off: planning, commits, and the
    /// journal revert to the exact pre-statistics behavior. The catalog is
    /// kept (re-enabling retrains over it).
    pub fn disable_stats(&self) {
        self.stats_on.store(false, Ordering::Release);
    }

    /// Whether the statistics observatory is on.
    pub fn stats_enabled(&self) -> bool {
        self.stats_on.load(Ordering::Acquire)
    }

    /// Freeze or resume passive commit-time statistics maintenance (only
    /// meaningful while stats are enabled). Freezing lets a workload shift
    /// the data out from under the trained statistics — the drift
    /// benchmark's setup.
    pub fn set_stats_maintenance(&self, on: bool) {
        self.stats_maintenance.store(on, Ordering::Release);
    }

    pub(crate) fn stats_maintenance_enabled(&self) -> bool {
        self.stats_on.load(Ordering::Acquire) && self.stats_maintenance.load(Ordering::Acquire)
    }

    /// A snapshot of the planner's statistics catalog (REPL `:stats`,
    /// doctor introspection).
    pub fn planner_stats(&self) -> StatsCatalog {
        self.schema.read().stats.clone()
    }

    /// Count each refreshed sketch and journal its `StatsUpdate` event —
    /// the counter and the event move together, so replay reproduces the
    /// live registry exactly. Call *after* dropping the schema lock.
    pub(crate) fn journal_stats_updates(&self, updates: &[StatsRefresh]) {
        for u in updates {
            self.telemetry.registry.counter("calculus.stats.updates").inc();
            if self.telemetry.journal.enabled() {
                self.telemetry.journal.emit(&JournalEvent::StatsUpdate {
                    set: u.set,
                    path: u.path.clone(),
                    cardinality: u.cardinality,
                    total: u.sketch.total,
                    distinct: u.sketch.distinct,
                    fuzz: u.sketch.fuzz,
                    points: u.sketch.encode_points(),
                });
            }
        }
    }

    /// DBA archive: prune element histories older than the state at
    /// `keep_from` across the whole database (§6's move-to-other-media).
    /// Returns the number of archived associations.
    pub fn archive_history_before(&self, keep_from: TxnTime) -> GemResult<usize> {
        let time = self.txns.now();
        self.store.archive_history_before(keep_from, time)
    }

    /// Administer users and segment privileges.
    pub fn with_auth<R>(&self, f: impl FnOnce(&mut AuthTable) -> R) -> R {
        let mut schema = self.schema.write();
        let r = f(&mut schema.auth);
        schema.schema_dirty = true;
        r
    }
}
