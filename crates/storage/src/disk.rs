//! Whole-track disks: two media under one fault layer.
//!
//! The paper's GemStone ran on special-purpose hardware with the database
//! controlling the disk directly; "disk access will always be by entire
//! tracks". A [`Medium`] is exactly that and nothing more — land bytes at
//! the start of a track slot, read a slot, sync, say which slots exist,
//! copy itself — and there are two: [`RamDisk`], a `Vec` of boxed tracks
//! that keeps tests and the crash matrix at memory speed, and
//! [`FileDisk`](crate::FileDisk), a preallocated track-aligned file.
//!
//! [`Faulty`] wraps either medium with everything the storage experiments
//! (C5, C7, C9, C10 in DESIGN.md) observe — access counters and their
//! journal events, the I/O trace, failure injection — written once. It is
//! the only code that decides a write is oversized, torn or refused, or
//! that a read falls inside a fault window, so a crash schedule means the
//! same thing on either medium. [`SimDisk`] and
//! [`FaultFile`](crate::FaultFile) are its two instances; [`TrackDisk`] is
//! the surface the store drives.
//!
//! Crash injection: a [`FaultPlan`] can arm a crash after N more writes —
//! the N+1st write *tears* at a chosen byte-offset class ([`TearClass`]) or
//! vanishes entirely (a clean crash between writes) and every subsequent
//! operation fails — and can inject transient read errors (a window of
//! failing reads that clears on its own), modeling power loss mid-commit
//! and media hiccups mid-recovery. A plan can also record the ordered
//! write/sync trace, which is how the crash-matrix harness
//! ([`crate::crashpoint`]) learns "commit k performs w writes" before
//! enumerating every crash point.

use gemstone_object::{GemError, GemResult};
use gemstone_telemetry::{Counter, Histogram, HistogramSnapshot, Journal, JournalEvent};

/// Index of a track on a disk.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TrackId(pub u32);

/// Bytes reserved at the start of every track by the Commit Manager:
/// a little-endian u32 payload length followed by a u64 FNV-1a checksum.
pub const TRACK_HEADER: usize = 12;

/// Disk access counters. Successful and failed operations are counted
/// separately: a torn or refused write never shows up in `track_writes`,
/// and a read served while the disk is down or inside a transient-error
/// window lands in `failed_reads` only.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DiskStats {
    pub track_reads: u64,
    pub track_writes: u64,
    pub bytes_written: u64,
    /// Reads that returned an error (dead disk, transient fault, absent
    /// track, I/O error).
    pub failed_reads: u64,
    /// Writes that returned an error (dead disk, torn write, oversized
    /// data, I/O error).
    pub failed_writes: u64,
    /// Durability barriers issued ([`TrackDisk::sync`]): real
    /// `fdatasync` calls on the file backend, counted no-ops on the
    /// simulated disk. Group commit means ~2 per commit, not 2 per track.
    pub fsyncs: u64,
}

// DiskStats deliberately stays a `Copy` value struct, so the fsync
// latency histogram lives only on `DiskCounters::fsync_us` and in the
// registry as `storage.disk.fsync_us`.

/// The live telemetry counters behind [`DiskStats`].  Handles are shared
/// atomics so a [`gemstone_telemetry::MetricsRegistry`] can bind the very
/// cells the disk increments; `Clone` deliberately *detaches* (fresh cells
/// holding the current values) because a checkpoint's counters must not
/// keep ticking with the original's.
#[derive(Debug, Default)]
pub struct DiskCounters {
    pub track_reads: Counter,
    pub track_writes: Counter,
    pub bytes_written: Counter,
    pub failed_reads: Counter,
    pub failed_writes: Counter,
    pub fsyncs: Counter,
    /// Latency of each successful durability barrier, in microseconds
    /// (bound by the registry as `storage.disk.fsync_us`).
    pub fsync_us: Histogram,
}

impl Clone for DiskCounters {
    fn clone(&self) -> DiskCounters {
        DiskCounters {
            track_reads: self.track_reads.detached_copy(),
            track_writes: self.track_writes.detached_copy(),
            bytes_written: self.bytes_written.detached_copy(),
            failed_reads: self.failed_reads.detached_copy(),
            failed_writes: self.failed_writes.detached_copy(),
            fsyncs: self.fsyncs.detached_copy(),
            fsync_us: self.fsync_us.detached_copy(),
        }
    }
}

impl DiskCounters {
    /// Freeze into the legacy value struct.
    pub fn snapshot(&self) -> DiskStats {
        DiskStats {
            track_reads: self.track_reads.get(),
            track_writes: self.track_writes.get(),
            bytes_written: self.bytes_written.get(),
            failed_reads: self.failed_reads.get(),
            failed_writes: self.failed_writes.get(),
            fsyncs: self.fsyncs.get(),
        }
    }

    /// Zero every cell (benchmark hygiene).
    pub fn reset(&self) {
        self.track_reads.reset();
        self.track_writes.reset();
        self.bytes_written.reset();
        self.failed_reads.reset();
        self.failed_writes.reset();
        self.fsyncs.reset();
        self.fsync_us.reset();
    }

    /// Shared handles (non-detaching, for registry binding).
    pub fn share(&self) -> DiskCounters {
        DiskCounters {
            track_reads: self.track_reads.clone(),
            track_writes: self.track_writes.clone(),
            bytes_written: self.bytes_written.clone(),
            failed_reads: self.failed_reads.clone(),
            failed_writes: self.failed_writes.clone(),
            fsyncs: self.fsyncs.clone(),
            fsync_us: self.fsync_us.clone(),
        }
    }
}

/// Where, within the record being written, a crashing write tears. The
/// classes are chosen to hit every structurally distinct prefix of a
/// checksummed track: inside the header's length field, inside its checksum
/// field, exactly between header and payload, mid-payload, and all-but-one
/// byte — plus `Clean`, where the doomed write never reaches the platter at
/// all (power lost between writes).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TearClass {
    /// The crashing write does not land at all: a clean crash between writes.
    Clean,
    /// Tear inside the header's length field (2 of its 4 bytes land).
    HeaderLen,
    /// Tear inside the header's checksum field (length + 4 of 8 sum bytes).
    HeaderSum,
    /// The full header lands; none of the payload does.
    AfterHeader,
    /// Half the record lands (the legacy `fail_after_writes` behaviour).
    #[default]
    Half,
    /// Everything but the final byte lands.
    Tail,
}

impl TearClass {
    /// Every class, in enumeration order.
    pub const ALL: [TearClass; 6] = [
        TearClass::Clean,
        TearClass::HeaderLen,
        TearClass::HeaderSum,
        TearClass::AfterHeader,
        TearClass::Half,
        TearClass::Tail,
    ];

    /// How many bytes of an `n`-byte record reach the platter.
    pub fn prefix_len(self, n: usize) -> usize {
        match self {
            TearClass::Clean => 0,
            TearClass::HeaderLen => 2.min(n),
            TearClass::HeaderSum => 8.min(n),
            TearClass::AfterHeader => TRACK_HEADER.min(n),
            TearClass::Half => (n / 2).max(1).min(n),
            TearClass::Tail => n.saturating_sub(1),
        }
    }

    /// Compact token used inside a printable `CrashSchedule`.
    pub fn token(self) -> &'static str {
        match self {
            TearClass::Clean => "clean",
            TearClass::HeaderLen => "hlen",
            TearClass::HeaderSum => "hsum",
            TearClass::AfterHeader => "hdr",
            TearClass::Half => "half",
            TearClass::Tail => "tail",
        }
    }

    /// Parse a [`TearClass::token`].
    pub fn from_token(s: &str) -> Option<TearClass> {
        TearClass::ALL.into_iter().find(|t| t.token() == s)
    }
}

/// A window of transient read errors: `after_reads` reads succeed, then the
/// next `count` reads fail (without killing the disk), then reads succeed
/// again. Models media hiccups — including ones that interrupt recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadFault {
    pub after_reads: u64,
    pub count: u64,
}

impl ReadFault {
    /// Advance the window past one read; true if that read fails.
    fn trips(&mut self) -> bool {
        if self.after_reads > 0 {
            self.after_reads -= 1;
            false
        } else if self.count > 0 {
            self.count -= 1;
            true
        } else {
            false
        }
    }
}

/// One physical I/O operation in order, as recorded by a tracing
/// [`FaultPlan`] — the evidence stream for fsync-ordering assertions
/// (no root-page write may precede its data tracks' sync barrier) and the
/// crash matrix's per-commit write counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoRecord {
    /// A successful whole-track write.
    Write { track: TrackId, len: usize },
    /// A successful durability barrier ([`TrackDisk::sync`]).
    Sync,
}

/// The pluggable fault-injection plan carried by a [`Faulty`] disk. The
/// default plan injects nothing.
#[derive(Debug, Default, Clone)]
pub struct FaultPlan {
    /// `Some(n)`: n more writes succeed; the next one crashes the disk,
    /// tearing per [`FaultPlan::tear`].
    pub crash_after_writes: Option<u64>,
    /// How the crashing write tears ([`TearClass::Clean`] = it never lands).
    pub tear: TearClass,
    /// Transient read-error window.
    pub read_fault: Option<ReadFault>,
    /// Record every successful write and sync in the I/O trace.
    pub record_trace: bool,
}

impl FaultPlan {
    /// The legacy arm-and-tear plan: `n` writes succeed, the next tears in
    /// half and the disk dies.
    pub fn crash_after(n: u64) -> FaultPlan {
        FaultPlan { crash_after_writes: Some(n), tear: TearClass::Half, ..FaultPlan::default() }
    }

    /// A tracing plan that injects no faults.
    pub fn trace() -> FaultPlan {
        FaultPlan { record_trace: true, ..FaultPlan::default() }
    }
}

/// The whole-track disk surface the storage stack is written against. The
/// store, the Commit Manager and the crash-point matrix all drive
/// `dyn TrackDisk` and cannot tell the media apart except through
/// [`TrackDisk::backend_name`]. [`Faulty`] is the implementation; the trait
/// is what lets one [`DiskArray`] hold either medium.
pub trait TrackDisk: Send + std::fmt::Debug {
    /// Stable backend identifier stamped into journal events
    /// (`"sim"` / `"file"`).
    fn backend_name(&self) -> &'static str;

    /// Track size in bytes (includes the [`TRACK_HEADER`]).
    fn track_size(&self) -> usize;

    /// The live counter cells: [`DiskCounters::snapshot`] reads them,
    /// [`DiskCounters::share`] binds them to a registry.
    fn counters(&self) -> &DiskCounters;

    /// Attach the flight recorder; every counter move also emits a journal
    /// event, so replaying the journal reproduces the counters.
    fn attach_journal(&mut self, journal: Journal);

    /// Install a fault plan, reviving the disk if it was dead. The I/O
    /// trace is cleared when the new plan records one.
    fn set_fault_plan(&mut self, plan: FaultPlan);

    /// The ordered write/sync trace accumulated so far (with
    /// `record_trace` armed), clearing it.
    fn take_io_trace(&mut self) -> Vec<IoRecord>;

    /// True once a crash has been triggered.
    fn is_dead(&self) -> bool;

    /// Write an entire track. `data` must fit in the track; short data is
    /// zero-padded (a track is always written whole).
    fn write_track(&mut self, id: TrackId, data: &[u8]) -> GemResult<()>;

    /// Read an entire track.
    fn read_track(&mut self, id: TrackId) -> GemResult<&[u8]>;

    /// Durability barrier: everything written so far must survive power
    /// loss before this returns. `fdatasync` on the file backend, a
    /// counted no-op on the simulated disk. Never consumes the fault
    /// plan's write budget — crash-point indices stay write-aligned.
    fn sync(&mut self) -> GemResult<()>;

    /// True if the track has ever been written. A probe may read the
    /// medium (a reopened file learns existence on first touch); it moves
    /// no counter.
    fn track_exists(&mut self, id: TrackId) -> bool;

    /// Number of written tracks at or past `frontier` — the orphans a
    /// recovered root does not reference (shadow writes of a torn commit).
    fn tracks_beyond(&mut self, frontier: u32) -> u32;

    /// Checkpoint: an independent copy of the platter. Counters detach and
    /// any journal is dropped — a checkpoint must not keep emitting.
    fn checkpoint(&self) -> GemResult<Box<dyn TrackDisk>>;

    /// Number of tracks ever written.
    fn tracks_in_use(&mut self) -> usize {
        self.tracks_beyond(0) as usize
    }

    /// Disarm all fault injection and revive the disk (power-up after a
    /// crash; any torn data remains).
    fn revive(&mut self) {
        self.set_fault_plan(FaultPlan::default());
    }

    /// Arm crash injection: `n` more writes succeed, the next one tears in
    /// half (shorthand for installing [`FaultPlan::crash_after`]).
    fn fail_after_writes(&mut self, n: u64) {
        self.set_fault_plan(FaultPlan::crash_after(n));
    }
}

/// Whole-track storage and nothing else: no counters, no faults, no
/// policy. [`Faulty`] is the only caller, and it never hands a medium an
/// oversized write or a read of a slot that does not exist.
pub trait Medium: Send + std::fmt::Debug + Sized + 'static {
    /// Backend identifier stamped into journal events.
    const NAME: &'static str;

    /// Track size in bytes (includes the [`TRACK_HEADER`]).
    fn track_size(&self) -> usize;

    /// Land `bytes` at the start of slot `id` — a whole zero-padded track,
    /// or the torn prefix of a crashing write. Past them the slot keeps
    /// what it held (zeros if it never existed). The slot exists afterwards
    /// — on a file, which remembers only bytes, if it holds a nonzero byte.
    fn write(&mut self, id: TrackId, bytes: &[u8]) -> GemResult<()>;

    /// Read a whole slot.
    fn read(&mut self, id: TrackId) -> GemResult<&[u8]>;

    /// Durability barrier, returning its latency in microseconds.
    fn sync(&mut self) -> GemResult<u64>;

    /// Every written slot lies below this index.
    fn slot_count(&self) -> usize;

    /// True if the slot has ever been written (a torn prefix counts). May
    /// read the slot to find out.
    fn exists(&mut self, id: TrackId) -> bool;

    /// An independent copy of the platter.
    fn checkpoint(&self) -> GemResult<Self>;
}

fn never_written(id: TrackId) -> GemError {
    GemError::DiskFailure(format!("track {id:?} never written"))
}

/// The simulated medium: a slot is a boxed track, absent until written.
#[derive(Debug)]
pub struct RamDisk {
    track_size: usize,
    tracks: Vec<Option<Box<[u8]>>>,
}

impl Medium for RamDisk {
    const NAME: &'static str = "sim";

    fn track_size(&self) -> usize {
        self.track_size
    }

    fn write(&mut self, id: TrackId, bytes: &[u8]) -> GemResult<()> {
        let (idx, size) = (id.0 as usize, self.track_size);
        if idx >= self.tracks.len() {
            self.tracks.resize_with(idx + 1, || None);
        }
        let slot = self.tracks[idx].get_or_insert_with(|| vec![0; size].into_boxed_slice());
        slot[..bytes.len()].copy_from_slice(bytes);
        Ok(())
    }

    fn read(&mut self, id: TrackId) -> GemResult<&[u8]> {
        self.tracks.get(id.0 as usize).and_then(|t| t.as_deref()).ok_or_else(|| never_written(id))
    }

    /// The simulated platter is always durable: a barrier takes no time.
    fn sync(&mut self) -> GemResult<u64> {
        Ok(0)
    }

    fn slot_count(&self) -> usize {
        self.tracks.len()
    }

    fn exists(&mut self, id: TrackId) -> bool {
        self.tracks.get(id.0 as usize).is_some_and(|t| t.is_some())
    }

    fn checkpoint(&self) -> GemResult<RamDisk> {
        Ok(RamDisk { track_size: self.track_size, tracks: self.tracks.clone() })
    }
}

/// The fault layer: one [`TrackDisk`] over any [`Medium`]. Owns the
/// [`FaultPlan`], death, the I/O trace, the counters and the journal, so a
/// tear, a read-fault window or a failed `pwrite` is decided, counted and
/// journaled here and nowhere else.
#[derive(Debug)]
pub struct Faulty<M> {
    pub(crate) medium: M,
    plan: FaultPlan,
    dead: bool,
    io_trace: Vec<IoRecord>,
    /// Scratch track: a write is zero-padded here to a whole track.
    pad: Vec<u8>,
    meter: Meter,
}

/// The simulated disk: the fault layer over [`RamDisk`].
pub type SimDisk = Faulty<RamDisk>;

impl SimDisk {
    /// A fresh disk. `track_size` includes the [`TRACK_HEADER`].
    pub fn new(track_size: usize) -> SimDisk {
        assert!(track_size > TRACK_HEADER * 2, "track size too small");
        Faulty::over(RamDisk { track_size, tracks: Vec::new() })
    }
}

impl<M: Medium> Faulty<M> {
    /// Wrap a medium with the default (passthrough) plan.
    pub(crate) fn over(medium: M) -> Faulty<M> {
        Faulty {
            pad: vec![0; medium.track_size()],
            medium,
            plan: FaultPlan::default(),
            dead: false,
            io_trace: Vec::new(),
            meter: Meter { counters: DiskCounters::default(), journal: None, backend: M::NAME },
        }
    }
}

impl<M: Medium> TrackDisk for Faulty<M> {
    fn backend_name(&self) -> &'static str {
        M::NAME
    }

    fn track_size(&self) -> usize {
        self.pad.len()
    }

    fn counters(&self) -> &DiskCounters {
        &self.meter.counters
    }

    fn attach_journal(&mut self, journal: Journal) {
        self.meter.journal = Some(journal);
    }

    fn set_fault_plan(&mut self, plan: FaultPlan) {
        if plan.record_trace {
            self.io_trace.clear();
        }
        self.plan = plan;
        self.dead = false;
    }

    fn take_io_trace(&mut self) -> Vec<IoRecord> {
        std::mem::take(&mut self.io_trace)
    }

    fn is_dead(&self) -> bool {
        self.dead
    }

    fn write_track(&mut self, id: TrackId, data: &[u8]) -> GemResult<()> {
        let size = self.pad.len();
        let landed = if self.dead {
            Err(GemError::DiskDead)
        } else if data.len() > size {
            Err(GemError::DiskFailure(format!(
                "data ({} bytes) exceeds track size ({size})",
                data.len()
            )))
        } else if self.plan.crash_after_writes == Some(0) {
            // Crashing write: a prefix of the *record* lands (a record
            // smaller than the track still tears — the head lost power
            // mid-record, not mid-padding) and the disk dies. A `Clean`
            // tear lands nothing: power died between writes.
            self.dead = true;
            let prefix = &data[..self.plan.tear.prefix_len(data.len())];
            let torn = if prefix.is_empty() { Ok(()) } else { self.medium.write(id, prefix) };
            torn.and(Err(GemError::DiskFailure("power lost mid-write (torn track)".into())))
        } else {
            if let Some(n) = &mut self.plan.crash_after_writes {
                *n -= 1;
            }
            self.pad[..data.len()].copy_from_slice(data);
            self.pad[data.len()..].fill(0);
            self.medium.write(id, &self.pad)
        };
        self.meter.wrote(id, landed.is_ok().then_some(size as u64));
        if landed.is_ok() && self.plan.record_trace {
            self.io_trace.push(IoRecord::Write { track: id, len: data.len() });
        }
        landed
    }

    fn read_track(&mut self, id: TrackId) -> GemResult<&[u8]> {
        let refused = if self.dead {
            Some(GemError::DiskDead)
        } else if self.plan.read_fault.as_mut().is_some_and(ReadFault::trips) {
            Some(GemError::DiskFailure(format!("transient read error on {id:?}")))
        } else if !self.medium.exists(id) {
            Some(never_written(id))
        } else {
            None
        };
        let read = match refused {
            Some(e) => Err(e),
            None => self.medium.read(id),
        };
        self.meter.read(id, read.is_ok());
        read
    }

    fn sync(&mut self) -> GemResult<()> {
        let us = if self.dead { Err(GemError::DiskDead) } else { self.medium.sync() };
        self.meter.synced(us.as_ref().ok().copied());
        us?;
        if self.plan.record_trace {
            self.io_trace.push(IoRecord::Sync);
        }
        Ok(())
    }

    fn track_exists(&mut self, id: TrackId) -> bool {
        self.medium.exists(id)
    }

    fn tracks_beyond(&mut self, frontier: u32) -> u32 {
        (frontier..self.medium.slot_count() as u32)
            .filter(|&i| self.medium.exists(TrackId(i)))
            .count() as u32
    }

    fn checkpoint(&self) -> GemResult<Box<dyn TrackDisk>> {
        Ok(Box::new(Faulty {
            medium: self.medium.checkpoint()?,
            plan: self.plan.clone(),
            dead: self.dead,
            io_trace: self.io_trace.clone(),
            pad: self.pad.clone(),
            meter: Meter {
                counters: self.meter.counters.clone(), // detaches
                journal: None,
                backend: M::NAME,
            },
        }))
    }
}

/// Counters and flight recorder of one disk. Every operation moves exactly
/// one counter (a failed sync moves none) and emits the matching journal
/// event, so replaying the journal reproduces the counters.
#[derive(Debug)]
struct Meter {
    counters: DiskCounters,
    /// Attached to the primary replica only (the one whose counters the
    /// registry binds); a checkpoint drops it.
    journal: Option<Journal>,
    backend: &'static str,
}

impl Meter {
    #[inline]
    fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref().filter(|j| j.enabled())
    }

    /// A track write: `Some(bytes)` landed, `None` failed.
    fn wrote(&self, id: TrackId, bytes: Option<u64>) {
        match bytes {
            Some(b) => {
                self.counters.track_writes.inc();
                self.counters.bytes_written.add(b);
            }
            None => self.counters.failed_writes.inc(),
        }
        if let Some(j) = self.journal() {
            j.emit(&JournalEvent::TrackWrite {
                track: id.0 as u64,
                ok: bytes.is_some(),
                bytes: bytes.unwrap_or(0),
                backend: self.backend.into(),
            });
        }
    }

    fn read(&self, id: TrackId, ok: bool) {
        let cell = if ok { &self.counters.track_reads } else { &self.counters.failed_reads };
        cell.inc();
        if let Some(j) = self.journal() {
            j.emit(&JournalEvent::TrackRead {
                track: id.0 as u64,
                ok,
                backend: self.backend.into(),
            });
        }
    }

    /// A durability barrier: `Some(us)` succeeded after `us` microseconds.
    fn synced(&self, us: Option<u64>) {
        if let Some(us) = us {
            self.counters.fsyncs.inc();
            self.counters.fsync_us.record(us);
        }
        if let Some(j) = self.journal() {
            j.emit(&JournalEvent::DiskSync { ok: us.is_some(), backend: self.backend.into() });
            if let Some(us) = us {
                j.emit(&JournalEvent::FsyncLatency { us, backend: self.backend.into() });
            }
        }
    }
}

/// A replicated set of disks (§6: the Object Manager handles "requests for
/// replication of data"). Writes go to every live replica; reads are served
/// by the first replica that can deliver the track, so data survives the
/// loss of any proper subset of replicas. The replicas are [`TrackDisk`]
/// trait objects, so an array may be simulated, file-backed, or (in tests)
/// a mix.
#[derive(Debug)]
pub struct DiskArray {
    replicas: Vec<Box<dyn TrackDisk>>,
    /// Tracks per safe-write group (root write included), recorded by the
    /// Commit Manager via [`DiskArray::note_safe_write_group`].
    group_sizes: Histogram,
}

impl DiskArray {
    /// `n` mirrored simulated replicas of `track_size` tracks.
    pub fn new(track_size: usize, n: usize) -> DiskArray {
        assert!(n >= 1);
        DiskArray {
            replicas: (0..n)
                .map(|_| Box::new(SimDisk::new(track_size)) as Box<dyn TrackDisk>)
                .collect(),
            group_sizes: Histogram::new(),
        }
    }

    /// Wrap any [`TrackDisk`] backend as a single-replica array.
    pub fn from_backend(disk: Box<dyn TrackDisk>) -> DiskArray {
        DiskArray { replicas: vec![disk], group_sizes: Histogram::new() }
    }

    /// Wrap a set of [`TrackDisk`] backends as mirrored replicas.
    pub fn from_backends(replicas: Vec<Box<dyn TrackDisk>>) -> DiskArray {
        assert!(!replicas.is_empty());
        DiskArray { replicas, group_sizes: Histogram::new() }
    }

    /// Checkpoint every replica: an independent array whose counters and
    /// group-size histogram detach. Fails if any replica cannot be copied
    /// (on the file backend, an `fs::copy` that fails).
    pub fn checkpoint(&self) -> GemResult<DiskArray> {
        Ok(DiskArray {
            replicas: self.replicas.iter().map(|d| d.checkpoint()).collect::<GemResult<_>>()?,
            group_sizes: self.group_sizes.detached_copy(),
        })
    }

    /// The primary replica's backend identifier (`"sim"` / `"file"`).
    pub fn backend_name(&self) -> &'static str {
        self.replicas[0].backend_name()
    }

    /// Record that a safe-write group of `tracks` tracks (root included)
    /// committed against this array.
    pub fn note_safe_write_group(&self, tracks: u64) {
        self.group_sizes.record(tracks);
    }

    /// Distribution of tracks per committed safe-write group.
    pub fn write_group_sizes(&self) -> HistogramSnapshot {
        self.group_sizes.snapshot()
    }

    /// The live histogram cell (for registry binding).
    pub fn group_size_histogram(&self) -> Histogram {
        self.group_sizes.clone()
    }

    /// Track size.
    pub fn track_size(&self) -> usize {
        self.replicas[0].track_size()
    }

    /// Number of replicas.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Access a replica (crash injection in tests).
    pub fn replica_mut(&mut self, i: usize) -> &mut dyn TrackDisk {
        &mut *self.replicas[i]
    }

    /// Run `op` on every replica; it succeeds if *any* replica did,
    /// otherwise the last replica's error stands.
    fn on_every_replica(
        &mut self,
        mut op: impl FnMut(&mut dyn TrackDisk) -> GemResult<()>,
    ) -> GemResult<()> {
        let mut outcome = Err(GemError::DiskFailure("no replicas".into()));
        for d in &mut self.replicas {
            let r = op(&mut **d);
            if outcome.is_err() {
                outcome = r;
            }
        }
        outcome
    }

    /// Write to all live replicas. Succeeds if *any* replica took the write;
    /// the caller learns of degraded redundancy via [`Self::live_replicas`].
    pub fn write_track(&mut self, id: TrackId, data: &[u8]) -> GemResult<()> {
        self.on_every_replica(|d| d.write_track(id, data))
    }

    /// Durability barrier across the array. Mirrors the write semantics:
    /// the commit survives if *any* replica made it durable.
    pub fn sync(&mut self) -> GemResult<()> {
        self.on_every_replica(|d| d.sync())
    }

    /// Read from the first replica able to serve the track. Exactly one
    /// replica performs (and counts) one read per logical call: the serving
    /// replica is chosen by uncounted existence probes first, so no
    /// replica's counters double-count and dead replicas aren't touched.
    pub fn read_track(&mut self, id: TrackId) -> GemResult<&[u8]> {
        match self.replicas.iter_mut().position(|d| !d.is_dead() && d.track_exists(id)) {
            Some(i) => self.replicas[i].read_track(id),
            None if self.live_replicas() == 0 => Err(GemError::DiskDead),
            None => Err(never_written(id)),
        }
    }

    /// True if any replica (live or dead) holds the track.
    pub fn track_exists(&mut self, id: TrackId) -> bool {
        self.replicas.iter_mut().any(|d| d.track_exists(id))
    }

    /// Orphan tracks at or past `frontier` on the primary replica.
    pub fn tracks_beyond(&mut self, frontier: u32) -> u32 {
        self.replicas[0].tracks_beyond(frontier)
    }

    /// How many replicas are currently serving I/O.
    pub fn live_replicas(&self) -> usize {
        self.replicas.iter().filter(|d| !d.is_dead()).count()
    }

    /// Stats of replica 0 (the primary), for benchmarks.
    pub fn stats(&self) -> DiskStats {
        self.counters().snapshot()
    }

    /// The primary replica's live counter cells.
    pub fn counters(&self) -> &DiskCounters {
        self.replicas[0].counters()
    }

    /// Attach the flight recorder to the primary replica — the one whose
    /// counters the registry binds, so journal events stay 1:1 with
    /// registry moves even when a mirror serves reads.
    pub fn attach_journal(&mut self, journal: Journal) {
        self.replicas[0].attach_journal(journal);
    }

    /// Reset all replica counters and the group-size histogram.
    pub fn reset_stats(&mut self) {
        for d in &self.replicas {
            d.counters().reset();
        }
        self.group_sizes.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file_disk::tests::scratch;

    /// One simulated and one file disk: every behaviour below is one body
    /// checked on both media.
    fn both(track_size: usize) -> [Box<dyn TrackDisk>; 2] {
        [Box::new(SimDisk::new(track_size)), Box::new(scratch(track_size))]
    }

    #[test]
    fn write_then_read_roundtrip() {
        for mut d in both(256) {
            d.write_track(TrackId(3), b"hello tracks").unwrap();
            let back = d.read_track(TrackId(3)).unwrap();
            assert_eq!(&back[..12], b"hello tracks");
            assert_eq!(back.len(), 256, "tracks are read whole");
            assert!(back[12..].iter().all(|&b| b == 0), "zero padded");
        }
    }

    #[test]
    fn stats_count_accesses() {
        for mut d in both(256) {
            d.write_track(TrackId(0), b"x").unwrap();
            d.write_track(TrackId(1), b"y").unwrap();
            let _ = d.read_track(TrackId(0)).unwrap();
            let s = d.counters().snapshot();
            assert_eq!((s.track_writes, s.track_reads, s.bytes_written), (2, 1, 512));
        }
    }

    #[test]
    fn oversized_write_rejected() {
        for mut d in both(64) {
            assert!(d.write_track(TrackId(0), &[0u8; 65]).is_err());
            assert!(!d.track_exists(TrackId(0)), "{}: nothing landed", d.backend_name());
            assert!(d.write_track(TrackId(0), &[0u8; 64]).is_ok());
            let s = d.counters().snapshot();
            assert_eq!((s.track_writes, s.failed_writes), (1, 1), "{}", d.backend_name());
        }
    }

    #[test]
    fn unwritten_track_read_fails() {
        for mut d in both(256) {
            assert!(d.read_track(TrackId(9)).is_err());
            assert!(!d.track_exists(TrackId(9)));
            assert_eq!(d.counters().snapshot().failed_reads, 1, "{}", d.backend_name());
        }
    }

    #[test]
    fn crash_injection_tears_and_kills() {
        for mut d in both(64) {
            d.write_track(TrackId(0), &[0xAA; 64]).unwrap();
            d.fail_after_writes(1);
            d.write_track(TrackId(1), &[0xBB; 64]).unwrap(); // the 1 allowed write
            let err = d.write_track(TrackId(0), &[0xCC; 64]); // tears
            assert!(err.is_err());
            assert!(d.is_dead());
            assert!(matches!(d.read_track(TrackId(0)), Err(GemError::DiskDead)), "disk down");
            d.revive();
            let t0 = d.read_track(TrackId(0)).unwrap().to_vec();
            assert_eq!(&t0[..32], &[0xCC; 32], "first half of torn write landed");
            assert_eq!(&t0[32..], &[0xAA; 32], "second half is the old data");
        }
    }

    #[test]
    fn failed_ops_counted_separately() {
        for mut d in both(64) {
            d.write_track(TrackId(0), &[0xAA; 64]).unwrap();
            d.fail_after_writes(0);
            assert!(d.write_track(TrackId(0), &[0xCC; 64]).is_err()); // torn
            assert!(d.write_track(TrackId(1), b"x").is_err()); // dead
            assert!(d.read_track(TrackId(0)).is_err()); // dead
            let s = d.counters().snapshot();
            assert_eq!(s.track_writes, 1, "only the successful write counts");
            assert_eq!(s.failed_writes, 2, "torn + dead write");
            assert_eq!(s.track_reads, 0);
            assert_eq!(s.failed_reads, 1);
            assert_eq!(s.bytes_written, 64);
        }
    }

    #[test]
    fn tear_class_prefixes() {
        // A 40-byte record on a 64-byte track, torn at each class.
        for (tear, want_new) in [
            (TearClass::Clean, 0usize),
            (TearClass::HeaderLen, 2),
            (TearClass::HeaderSum, 8),
            (TearClass::AfterHeader, 12),
            (TearClass::Half, 20),
            (TearClass::Tail, 39),
        ] {
            for mut d in both(64) {
                let ctx = format!("{tear:?} on {}", d.backend_name());
                d.write_track(TrackId(0), &[0xAA; 64]).unwrap();
                d.set_fault_plan(FaultPlan {
                    crash_after_writes: Some(0),
                    tear,
                    ..FaultPlan::default()
                });
                assert!(d.write_track(TrackId(0), &[0xCC; 40]).is_err());
                assert!(d.is_dead());
                d.revive();
                let t = d.read_track(TrackId(0)).unwrap();
                assert!(t[..want_new].iter().all(|&b| b == 0xCC), "{ctx}: new prefix");
                assert!(t[want_new..40].iter().all(|&b| b == 0xAA), "{ctx}: old suffix");
            }
        }
    }

    #[test]
    fn transient_read_fault_window() {
        for mut d in both(64) {
            d.write_track(TrackId(0), b"\x01data").unwrap();
            d.set_fault_plan(FaultPlan {
                read_fault: Some(ReadFault { after_reads: 1, count: 2 }),
                ..FaultPlan::default()
            });
            assert!(d.read_track(TrackId(0)).is_ok(), "first read succeeds");
            assert!(d.read_track(TrackId(0)).is_err(), "window open");
            assert!(d.read_track(TrackId(0)).is_err(), "window open");
            assert!(d.read_track(TrackId(0)).is_ok(), "window closed");
            assert!(!d.is_dead(), "transient faults never kill the disk");
            let s = d.counters().snapshot();
            assert_eq!((s.track_reads, s.failed_reads), (2, 2), "{}", d.backend_name());
        }
    }

    #[test]
    fn io_trace_orders_writes_and_syncs() {
        for mut d in both(64) {
            d.set_fault_plan(FaultPlan { crash_after_writes: Some(3), ..FaultPlan::trace() });
            d.write_track(TrackId(2), &[1; 10]).unwrap();
            d.write_track(TrackId(3), &[2; 20]).unwrap();
            d.sync().unwrap();
            d.write_track(TrackId(0), &[3; 30]).unwrap();
            d.sync().unwrap();
            assert!(d.write_track(TrackId(5), &[4; 40]).is_err(), "crash: not traced");
            assert!(d.sync().is_err(), "dead: not traced");
            assert_eq!(
                d.take_io_trace(),
                vec![
                    IoRecord::Write { track: TrackId(2), len: 10 },
                    IoRecord::Write { track: TrackId(3), len: 20 },
                    IoRecord::Sync,
                    IoRecord::Write { track: TrackId(0), len: 30 },
                    IoRecord::Sync,
                ],
                "{}",
                d.backend_name()
            );
            assert!(d.take_io_trace().is_empty(), "trace drained");
        }
    }

    #[test]
    fn tracks_beyond_counts_orphans() {
        for mut d in both(64) {
            d.write_track(TrackId(0), b"a").unwrap();
            d.write_track(TrackId(4), b"b").unwrap();
            d.write_track(TrackId(7), b"c").unwrap();
            assert_eq!(d.tracks_in_use(), 3, "{}", d.backend_name());
            assert_eq!(d.tracks_beyond(0), 3);
            assert_eq!(d.tracks_beyond(4), 2);
            assert_eq!(d.tracks_beyond(5), 1);
            assert_eq!(d.tracks_beyond(8), 0);
            assert_eq!(d.tracks_beyond(1_000), 0, "{}: past the medium", d.backend_name());
        }
    }

    #[test]
    fn fsyncs_counted_and_dead_disk_refuses_sync() {
        for mut d in both(64) {
            d.write_track(TrackId(0), b"\x01x").unwrap();
            d.sync().unwrap();
            d.sync().unwrap();
            assert_eq!(d.counters().snapshot().fsyncs, 2);
            assert_eq!(d.counters().fsync_us.snapshot().count, 2, "one latency per barrier");
            if d.backend_name() == "sim" {
                assert_eq!(d.counters().fsync_us.snapshot().sum, 0, "the sim syncs instantly");
            }
            d.set_fault_plan(FaultPlan::crash_after(0));
            assert!(d.write_track(TrackId(1), b"\x01y").is_err());
            assert!(matches!(d.sync(), Err(GemError::DiskDead)));
            assert_eq!(d.counters().snapshot().fsyncs, 2, "a dead disk's sync moves no counter");
        }
    }

    #[test]
    fn checkpoint_is_independent() {
        for mut d in both(64) {
            d.write_track(TrackId(2), b"\x01before").unwrap();
            let mut ck = d.checkpoint().unwrap();
            // Diverge: the original moves on, the checkpoint must not see it.
            d.write_track(TrackId(3), b"\x01after").unwrap();
            assert!(ck.track_exists(TrackId(2)));
            assert!(!ck.track_exists(TrackId(3)), "{}: checkpoint froze", d.backend_name());
            assert_eq!(ck.read_track(TrackId(2)).unwrap()[..7], b"\x01before"[..]);
            // Counters detached: each side moved only its own.
            assert_eq!(d.counters().snapshot().track_writes, 2);
            assert_eq!(d.counters().snapshot().track_reads, 0);
            assert_eq!(ck.counters().snapshot().track_writes, 1);
            assert_eq!(ck.counters().snapshot().track_reads, 1);
        }
    }

    #[test]
    fn disk_array_survives_replica_loss() {
        let mut a = DiskArray::new(128, 2);
        a.write_track(TrackId(5), b"replicated").unwrap();
        // Primary dies.
        a.replica_mut(0).fail_after_writes(0);
        let _ = a.replica_mut(0).write_track(TrackId(6), b"boom");
        assert_eq!(a.live_replicas(), 1);
        let back = a.read_track(TrackId(5)).unwrap();
        assert_eq!(&back[..10], b"replicated", "mirror serves the read");
    }

    #[test]
    fn array_read_counts_exactly_one_replica_read() {
        // One logical read = one physical read on the serving replica; the
        // mirror is untouched (an earlier probe-then-reborrow version read
        // — and counted — the same track twice).
        let mut a = DiskArray::new(128, 2);
        a.write_track(TrackId(0), b"counted once").unwrap();
        a.reset_stats();
        let mirror_reads = |a: &mut DiskArray| a.replica_mut(1).counters().snapshot().track_reads;
        for _ in 0..5 {
            a.read_track(TrackId(0)).unwrap();
        }
        assert_eq!(a.stats().track_reads, 5, "primary serves and counts each read once");
        assert_eq!(mirror_reads(&mut a), 0, "mirror untouched");

        // Failed lookups (missing track) charge no replica either.
        assert!(a.read_track(TrackId(7)).is_err());
        assert_eq!(a.stats().track_reads, 5);
        assert_eq!(mirror_reads(&mut a), 0);

        // After the primary dies, the mirror serves — again one read each.
        a.replica_mut(0).fail_after_writes(0);
        let _ = a.replica_mut(0).write_track(TrackId(1), b"boom");
        a.read_track(TrackId(0)).unwrap();
        assert_eq!(mirror_reads(&mut a), 1);
    }

    #[test]
    fn disk_array_write_degrades_but_succeeds() {
        let mut a = DiskArray::new(128, 2);
        a.replica_mut(1).fail_after_writes(0);
        let _ = a.replica_mut(1).write_track(TrackId(0), b"kill");
        assert!(a.write_track(TrackId(1), b"still ok").is_ok());
        assert_eq!(a.live_replicas(), 1);
    }
}
