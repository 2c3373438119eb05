//! Secondary storage management: the GemStone Object Manager's disk side
//! (§6 of Copeland & Maier, SIGMOD 1984).
//!
//! "We expect to obtain efficiency by having the database system control
//! secondary storage directly, without an intervening operating system. …
//! Disk access will always be by entire tracks, as a track is the natural
//! unit of physical access for a disk."
//!
//! The paper's implementation ran on special-purpose hardware; here a
//! whole-track [`Medium`] — in memory ([`SimDisk`]) or a real file
//! ([`FaultFile`]) — sits under one fault layer ([`Faulty`]) that does the
//! read/write accounting, crash injection and torn-write corruption — the
//! quantities the paper's storage claims are about. On top of it:
//!
//! * [`PersistentObject`] — the on-disk object representation: "objects are
//!   broken into elements and associations" with full histories;
//! * the **Boxer** ("whose job it is to fit objects into tracks") — see
//!   [`boxer`];
//! * the **Commit Manager** ("provides safe writing for groups of tracks.
//!   Safe writing guarantees that all the tracks in the group get written,
//!   or none get written") — shadow allocation plus an atomic root flip,
//!   see [`commit`];
//! * the **Track Manager** (scheduling/caching of track reads) — see
//!   [`TrackCache`];
//! * the **GOOP table** ("The GOOP is resolved through a global object
//!   table"), persisted as 512-entry pages plus a *location log*: every
//!   commit's catalog record carries the locations that commit changed and
//!   points at the record before it, and the pages are rewritten only at a
//!   periodic page-out — see [`PermanentStore`];
//! * the **Directory Manager**'s history-aware index structure
//!   ([`Directory`]) — "directories use standard techniques modified to
//!   handle object histories";
//! * [`PermanentStore`] — the facade that plays the Linker: it "incorporates
//!   updates made by a transaction in the permanent database at commit
//!   time".
//!
//! Tracks are never reclaimed: shadow pages simply supersede old ones. This
//! is deliberate and thematic — "database objects in the past never go away
//! … no garbage collection need be done on database objects" (§6).

pub mod boxer;
mod cache;
pub mod commit;
pub mod crashpoint;
mod directory;
mod disk;
mod file_disk;
mod format;
mod pobj;
mod store;

pub use cache::{
    CacheCounters, CacheStats, FillSource, ShardStats, ShardedTrackCache, TrackCache, CACHE_SHARDS,
};
pub use commit::RecoveryReport;
pub use crashpoint::{CrashSchedule, MatrixBackend, MatrixReport, Workload};
pub use directory::{DirKey, Directory, DirectorySpec};
pub use disk::{
    DiskArray, DiskCounters, DiskStats, FaultPlan, Faulty, IoRecord, Medium, RamDisk, ReadFault,
    SimDisk, TearClass, TrackDisk, TrackId, TRACK_HEADER,
};
pub use file_disk::{FaultFile, FileDisk};
pub use pobj::{ObjectDelta, PersistentObject};
pub use store::OBJ_SHARDS;
pub use store::{CommitPhases, PermanentStore, StoreConfig, StoreCounters, StoreStats};
