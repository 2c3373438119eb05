//! GemStone: the full system of Copeland & Maier, *Making Smalltalk a
//! Database System* (SIGMOD 1984), reproduced in Rust.
//!
//! The [`GemStone`] facade is the paper's **Executor**: it "is responsible
//! for controlling sessions in the GemStone system on behalf of users on
//! host machines … receiving blocks of code, returning results and error
//! messages. It maintains a Compiler and Interpreter for each active user"
//! (§6). Each [`Session`] owns a private object space and talks to the
//! shared permanent database through optimistic transactions, with the
//! OPAL language — ST80 plus paths, time, and declarative selection — as
//! the single data/programming/system language (§2F).
//!
//! ```
//! use gemstone::GemStone;
//!
//! let gs = GemStone::in_memory();
//! let mut session = gs.login("system").unwrap();
//! session.run("Object subclass: 'Employee' instVarNames: #('name' 'salary')").unwrap();
//! let v = session.run("| e | e := Employee new. e salary: 24650. e salary").unwrap();
//! assert_eq!(v.as_int(), Some(24650));
//! session.commit().unwrap();
//! ```

mod auth;
mod db;
mod index;
mod meta;
mod session;

pub use auth::{Access, AuthTable, DBA};
pub use db::Database;
pub use session::{PlanChoiceRecord, Session};

// Re-exports for downstream users of the public API.
pub use gemstone_calculus::{
    est_err_pct, KeySketch, OpNode, OpProfile, PlanStats, SelObs, SetStats, StatsCatalog,
};
pub use gemstone_object::{
    ConflictKind, ElemName, GemError, GemResult, Goop, Oop, OopKind, SegmentId,
};
pub use gemstone_opal::{Effect, EffectSummary};
pub use gemstone_storage::{
    CacheStats, DiskArray, DiskStats, FaultFile, FaultPlan, FileDisk, IoRecord, ReadFault,
    RecoveryReport, StoreConfig, StoreStats, TearClass, TrackDisk, TrackId,
};
pub use gemstone_telemetry::{
    replay, CacheSweepPoint, ConflictProfile, Counter, DiagnosticBundle, DriftEpisode, Gauge,
    Histogram, HistogramSnapshot, Journal, JournalConfig, JournalEvent, JournalReadout, ManualTime,
    MetricsRegistry, MetricsSnapshot, PlannerProfile, RecoverySummary, SlowEntry, SpanEvent,
    SpanKind, Telemetry, TelemetryClock, Tracer, TrackHeat, JOURNAL_SCHEMA,
};
pub use gemstone_temporal::TxnTime;
pub use gemstone_txn::{ConflictReport, ConflictStats};

use std::sync::Arc;

/// The GemStone system facade (the paper's Executor + Object Manager).
#[derive(Clone)]
pub struct GemStone {
    db: Arc<Database>,
}

impl GemStone {
    /// A fresh database on a simulated disk with default sizing.
    pub fn in_memory() -> GemStone {
        GemStone { db: Database::in_memory() }
    }

    /// A fresh database with explicit storage sizing.
    pub fn create(cfg: StoreConfig) -> GemResult<GemStone> {
        Ok(GemStone { db: Database::create(cfg)? })
    }

    /// A fresh *persistent* database in a real file at `path`: committed
    /// state survives the process and reopens with
    /// [`GemStone::open_file`].
    pub fn create_file(path: impl AsRef<std::path::Path>, cfg: StoreConfig) -> GemResult<GemStone> {
        Ok(GemStone { db: Database::create_file(path, cfg)? })
    }

    /// Recover a persistent database from the file at `path`.
    pub fn open_file(
        path: impl AsRef<std::path::Path>,
        cache_tracks: usize,
    ) -> GemResult<GemStone> {
        Ok(GemStone { db: Database::open_file(path, cache_tracks)? })
    }

    /// A fresh database over an explicit telemetry bundle (tests inject a
    /// manual clock for deterministic span durations).
    pub fn create_with(cfg: StoreConfig, telemetry: Telemetry) -> GemResult<GemStone> {
        Ok(GemStone { db: Database::create_with(cfg, telemetry)? })
    }

    /// Recover from a disk (crash recovery / restart).
    pub fn open(disk: DiskArray, cache_tracks: usize) -> GemResult<GemStone> {
        Ok(GemStone { db: Database::open(disk, cache_tracks)? })
    }

    /// [`GemStone::open`] over an explicit telemetry bundle (e.g. with the
    /// flight recorder already started, so the recovery pass is recorded).
    pub fn open_with(
        disk: DiskArray,
        cache_tracks: usize,
        telemetry: Telemetry,
    ) -> GemResult<GemStone> {
        Ok(GemStone { db: Database::open_with(disk, cache_tracks, telemetry)? })
    }

    /// The database-wide telemetry bundle.
    pub fn telemetry(&self) -> &Telemetry {
        self.db.telemetry()
    }

    /// Log a user in.
    pub fn login(&self, user: &str) -> GemResult<Session> {
        self.db.login(user)
    }

    /// The shared database handle.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// Register a user.
    pub fn create_user(&self, name: &str) {
        self.db.create_user(name);
    }

    /// Shut down, returning the raw disk (all sessions must be dropped).
    pub fn shutdown(self) -> GemResult<DiskArray> {
        self.db.into_disk()
    }
}
