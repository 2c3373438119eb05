//! The durable file-backed track store: [`FileDisk`] + [`FaultFile`].
//!
//! Everything in the paper's §4 storage story — shadow tracks, safe-writes,
//! two root pages — exists to survive power loss, which a memory-only
//! [`SimDisk`](crate::SimDisk) cannot demonstrate. [`FileDisk`] maps the
//! same whole-track interface onto a preallocated, track-aligned file:
//!
//! ```text
//! offset 0 ──────────────┐ header slot (one track-sized slot)
//!   magic "GEMFILE1"     │   8 bytes
//!   format version (u32) │   4 bytes LE
//!   track size     (u32) │   4 bytes LE
//! offset 1·S ────────────┤ track 0   — the Commit Manager's root page A
//! offset 2·S ────────────┤ track 1   — root page B
//! offset 3·S ────────────┤ track 2   — first data track
//!   ...                  │ track i at offset (i+1)·S
//! ```
//!
//! Every track access is one whole-slot `pread`/`pwrite` (never smaller —
//! the paper's "disk access will always be by entire tracks"), and
//! durability is explicit: [`FileDisk::sync`] issues `fdatasync`, and the
//! Commit Manager batches it per safe-write group (group commit — two
//! barriers per commit, not one per track; see `commit::safe_write_group`).
//!
//! [`FaultFile`] wraps a [`FileDisk`] with the identical fault-injection
//! surface as the simulated disk — the six [`TearClass`] byte-offset tears
//! land as raw short `pwrite`s at the same offsets within the track slot,
//! and transient read faults open the same windows — so the crash-point
//! matrix ([`crate::crashpoint`]) runs unchanged against real files. All
//! production paths go through `FaultFile` with the default (no-fault)
//! plan; `FileDisk` alone is the raw counted layer.
//!
//! Track-existence semantics: the simulated disk remembers which tracks
//! were ever written; a file can only remember bytes. On open, a track
//! *exists* iff its slot contains any nonzero byte. This is sound for the
//! crash matrix because every record the Commit Manager writes is framed
//! (nonzero little-endian length field first), and every tear class with a
//! nonzero prefix lands at least part of that length field — while a
//! `Clean` tear lands nothing, exactly matching "never written".

use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use gemstone_object::{GemError, GemResult};
use gemstone_telemetry::{Journal, JournalEvent};

use crate::disk::{
    DiskCounters, DiskStats, FaultPlan, IoRecord, TrackDisk, TrackId, WriteRecord, TRACK_HEADER,
};

/// File magic: identifies a GemStone track file, format 1.
const MAGIC: &[u8; 8] = b"GEMFILE1";

/// On-disk format version (bumped on incompatible layout changes). v2:
/// one extent per commit group, ending in a catalog record that logs the
/// commit's location changes (see `store`).
const FORMAT_VERSION: u32 = 2;

/// Preallocation granularity: growing the file extends it by this many
/// track slots at once, so steady-state appends never change file length
/// (length changes are metadata updates that `fdatasync` may skip).
const PREALLOC_TRACKS: usize = 64;

/// Monotonic suffix for checkpoint copies ([`FaultFile::clone_disk`]).
static CLONE_SEQ: AtomicU64 = AtomicU64::new(0);

fn io_err(what: &str, path: &Path, e: std::io::Error) -> GemError {
    GemError::DiskFailure(format!("{what} {}: {e}", path.display()))
}

/// The raw durable layer: a preallocated, track-aligned file with
/// whole-track `pread`/`pwrite`, explicit `fdatasync`, and access counters.
/// No fault logic lives here — wrap it in a [`FaultFile`] (production
/// always does, with the default passthrough plan).
#[derive(Debug)]
pub struct FileDisk {
    path: PathBuf,
    file: File,
    track_size: usize,
    /// Capacity in track slots (excludes the header slot).
    cap_tracks: usize,
    /// Which tracks have ever been written (rebuilt on open by scanning
    /// slots for any nonzero byte).
    exists: Vec<bool>,
    stats: DiskCounters,
    journal: Option<Journal>,
    /// Scratch buffer returned by [`FileDisk::read_slot`].
    read_buf: Vec<u8>,
    /// Remove the file on drop (checkpoint copies are ephemeral).
    ephemeral: bool,
}

impl FileDisk {
    /// Create a fresh track file at `path` (must not exist), writing the
    /// header slot and preallocating the first slot batch.
    pub fn create(path: impl Into<PathBuf>, track_size: usize) -> GemResult<FileDisk> {
        assert!(track_size > TRACK_HEADER * 2, "track size too small");
        assert!(track_size >= 16, "track too small for the file header");
        let path = path.into();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)
            .map_err(|e| io_err("create", &path, e))?;
        let mut header = vec![0u8; track_size];
        header[..8].copy_from_slice(MAGIC);
        header[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        header[12..16].copy_from_slice(&(track_size as u32).to_le_bytes());
        file.write_at(&header, 0).map_err(|e| io_err("write header of", &path, e))?;
        let cap_tracks = PREALLOC_TRACKS;
        file.set_len(((cap_tracks + 1) * track_size) as u64)
            .map_err(|e| io_err("preallocate", &path, e))?;
        // The header (and the file's very existence) must survive power
        // loss before any commit is acknowledged against it.
        file.sync_all().map_err(|e| io_err("sync", &path, e))?;
        Ok(FileDisk {
            path,
            file,
            track_size,
            cap_tracks,
            exists: vec![false; cap_tracks],
            stats: DiskCounters::default(),
            journal: None,
            read_buf: vec![0u8; track_size],
            ephemeral: false,
        })
    }

    /// Open an existing track file, validating the header and rebuilding
    /// the track-existence map (any nonzero byte in a slot = written).
    pub fn open(path: impl Into<PathBuf>) -> GemResult<FileDisk> {
        let path = path.into();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| io_err("open", &path, e))?;
        let mut head = [0u8; 16];
        file.read_exact_at(&mut head, 0).map_err(|e| io_err("read header of", &path, e))?;
        if &head[..8] != MAGIC {
            return Err(GemError::DiskFailure(format!(
                "{}: not a GemStone track file (bad magic)",
                path.display()
            )));
        }
        let version = u32::from_le_bytes(head[8..12].try_into().expect("4 bytes"));
        if version != FORMAT_VERSION {
            return Err(GemError::DiskFailure(format!(
                "{}: unsupported track-file format v{version} (expected v{FORMAT_VERSION})",
                path.display()
            )));
        }
        let track_size = u32::from_le_bytes(head[12..16].try_into().expect("4 bytes")) as usize;
        if track_size <= TRACK_HEADER * 2 {
            return Err(GemError::DiskFailure(format!(
                "{}: corrupt header (track size {track_size})",
                path.display()
            )));
        }
        // The header is input: bound it by the file before allocating
        // from it. A real volume holds the header slot plus a track.
        let len = file.metadata().map_err(|e| io_err("stat", &path, e))?.len();
        if len < 2 * track_size as u64 {
            return Err(GemError::DiskFailure(format!(
                "{}: corrupt header (track size {track_size} in a {len}-byte file)",
                path.display()
            )));
        }
        let cap_tracks = len as usize / track_size - 1;
        let mut exists = vec![false; cap_tracks];
        let mut buf = vec![0u8; track_size];
        for (i, slot) in exists.iter_mut().enumerate() {
            let off = ((i + 1) * track_size) as u64;
            file.read_exact_at(&mut buf, off).map_err(|e| io_err("scan", &path, e))?;
            *slot = buf.iter().any(|&b| b != 0);
        }
        Ok(FileDisk {
            path,
            file,
            track_size,
            cap_tracks,
            exists,
            stats: DiskCounters::default(),
            journal: None,
            read_buf: vec![0u8; track_size],
            ephemeral: false,
        })
    }

    /// The file's location on disk.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Track size in bytes (from the header on open).
    pub fn track_size(&self) -> usize {
        self.track_size
    }

    /// Number of tracks ever written.
    pub fn tracks_in_use(&self) -> usize {
        self.exists.iter().filter(|&&e| e).count()
    }

    /// Access counters so far.
    pub fn stats(&self) -> DiskStats {
        self.stats.snapshot()
    }

    /// The live counter cells (for registry binding).
    pub fn counters(&self) -> DiskCounters {
        self.stats.share()
    }

    /// Reset counters (benchmark hygiene).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Attach the flight recorder.
    pub fn attach_journal(&mut self, journal: Journal) {
        self.journal = Some(journal);
    }

    #[inline]
    fn journal_on(&self) -> Option<&Journal> {
        match &self.journal {
            Some(j) if j.enabled() => Some(j),
            _ => None,
        }
    }

    #[inline]
    fn offset(&self, id: TrackId) -> u64 {
        (id.0 as u64 + 1) * self.track_size as u64
    }

    /// Extend preallocation so slot `idx` is addressable.
    fn ensure_capacity(&mut self, idx: usize) -> GemResult<()> {
        if idx < self.cap_tracks {
            return Ok(());
        }
        let new_cap = (idx / PREALLOC_TRACKS + 1) * PREALLOC_TRACKS;
        self.file
            .set_len(((new_cap + 1) * self.track_size) as u64)
            .map_err(|e| io_err("preallocate", &self.path, e))?;
        self.exists.resize(new_cap, false);
        self.cap_tracks = new_cap;
        Ok(())
    }

    fn note_failed_write(&self, id: TrackId) {
        self.stats.failed_writes.inc();
        if let Some(j) = self.journal_on() {
            j.emit(&JournalEvent::TrackWrite {
                track: id.0 as u64,
                ok: false,
                bytes: 0,
                backend: "file".into(),
            });
        }
    }

    fn note_failed_read(&self, id: TrackId) {
        self.stats.failed_reads.inc();
        if let Some(j) = self.journal_on() {
            j.emit(&JournalEvent::TrackRead {
                track: id.0 as u64,
                ok: false,
                backend: "file".into(),
            });
        }
    }

    /// One successful whole-track write: zero-pad to the slot, `pwrite`,
    /// count, journal.
    fn write_padded(&mut self, id: TrackId, data: &[u8]) -> GemResult<()> {
        self.ensure_capacity(id.0 as usize)?;
        let mut buf = vec![0u8; self.track_size];
        buf[..data.len()].copy_from_slice(data);
        let off = self.offset(id);
        self.file.write_at(&buf, off).map_err(|e| io_err("write", &self.path, e))?;
        self.exists[id.0 as usize] = true;
        self.stats.track_writes.inc();
        self.stats.bytes_written.add(self.track_size as u64);
        if let Some(j) = self.journal_on() {
            j.emit(&JournalEvent::TrackWrite {
                track: id.0 as u64,
                ok: true,
                bytes: self.track_size as u64,
                backend: "file".into(),
            });
        }
        Ok(())
    }

    /// A raw *partial* write into a slot — the torn prefix of a crashing
    /// write. Uncounted (the logical write failed); bytes past the prefix
    /// keep whatever the slot held.
    fn write_torn_prefix(&mut self, id: TrackId, prefix: &[u8]) -> GemResult<()> {
        self.ensure_capacity(id.0 as usize)?;
        let off = self.offset(id);
        self.file.write_at(prefix, off).map_err(|e| io_err("torn write", &self.path, e))?;
        // A landed prefix is physically on the platter: the track now
        // exists, exactly as the simulated disk records it.
        self.exists[id.0 as usize] = true;
        Ok(())
    }

    /// One successful whole-track read into the scratch buffer.
    fn read_slot(&mut self, id: TrackId) -> GemResult<&[u8]> {
        let off = self.offset(id);
        self.file
            .read_exact_at(&mut self.read_buf, off)
            .map_err(|e| io_err("read", &self.path, e))?;
        self.stats.track_reads.inc();
        if let Some(j) = self.journal_on() {
            j.emit(&JournalEvent::TrackRead {
                track: id.0 as u64,
                ok: true,
                backend: "file".into(),
            });
        }
        Ok(&self.read_buf)
    }

    /// Durability barrier: `fdatasync` the file, count it, time it,
    /// journal it.
    pub fn sync(&mut self) -> GemResult<()> {
        let start = std::time::Instant::now();
        self.file.sync_data().map_err(|e| io_err("fdatasync", &self.path, e))?;
        let us = start.elapsed().as_micros() as u64;
        self.stats.fsyncs.inc();
        self.stats.fsync_us.record(us);
        if let Some(j) = self.journal_on() {
            j.emit(&JournalEvent::DiskSync { ok: true, backend: "file".into() });
            j.emit(&JournalEvent::FsyncLatency { us, backend: "file".into() });
        }
        Ok(())
    }

    /// True if the track has ever been written.
    pub fn track_exists(&self, id: TrackId) -> bool {
        self.exists.get(id.0 as usize).copied().unwrap_or(false)
    }

    /// Written tracks at or past `frontier` (orphan scan).
    pub fn tracks_beyond(&self, frontier: u32) -> u32 {
        self.exists.iter().skip(frontier as usize).filter(|&&e| e).count() as u32
    }
}

impl Drop for FileDisk {
    fn drop(&mut self) {
        if self.ephemeral {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// The fault-injection wrapper over a [`FileDisk`] — the file backend's
/// [`TrackDisk`] implementation. Carries the same [`FaultPlan`] as the
/// simulated disk and tears crashing writes at the same [`TearClass`]
/// byte offsets, but the tears land as real short `pwrite`s, so a torn
/// root page is torn *in the file* and recovery must read past it.
///
/// [`TearClass`]: crate::TearClass
#[derive(Debug)]
pub struct FaultFile {
    inner: FileDisk,
    plan: FaultPlan,
    dead: bool,
    trace: Vec<WriteRecord>,
    io_trace: Vec<IoRecord>,
}

impl FaultFile {
    /// Create a fresh file-backed disk (no faults armed).
    pub fn create(path: impl Into<PathBuf>, track_size: usize) -> GemResult<FaultFile> {
        Ok(FaultFile::wrap(FileDisk::create(path, track_size)?))
    }

    /// Open an existing file-backed disk (no faults armed).
    pub fn open(path: impl Into<PathBuf>) -> GemResult<FaultFile> {
        Ok(FaultFile::wrap(FileDisk::open(path)?))
    }

    /// Wrap a raw [`FileDisk`] with the default (passthrough) plan.
    pub fn wrap(inner: FileDisk) -> FaultFile {
        FaultFile {
            inner,
            plan: FaultPlan::default(),
            dead: false,
            trace: Vec::new(),
            io_trace: Vec::new(),
        }
    }

    /// Mark the underlying file ephemeral: it is deleted when this disk
    /// (and every checkpoint copy of it) is dropped.
    pub fn set_ephemeral(&mut self, ephemeral: bool) {
        self.inner.ephemeral = ephemeral;
    }

    /// The file's location on disk.
    pub fn path(&self) -> &Path {
        self.inner.path()
    }
}

impl TrackDisk for FaultFile {
    fn backend_name(&self) -> &'static str {
        "file"
    }

    fn track_size(&self) -> usize {
        self.inner.track_size()
    }

    fn tracks_in_use(&self) -> usize {
        self.inner.tracks_in_use()
    }

    fn stats(&self) -> DiskStats {
        self.inner.stats()
    }

    fn counters(&self) -> DiskCounters {
        self.inner.counters()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    fn attach_journal(&mut self, journal: Journal) {
        self.inner.attach_journal(journal);
    }

    fn set_fault_plan(&mut self, plan: FaultPlan) {
        if plan.record_trace {
            self.trace.clear();
            self.io_trace.clear();
        }
        self.plan = plan;
        self.dead = false;
    }

    fn take_write_trace(&mut self) -> Vec<WriteRecord> {
        std::mem::take(&mut self.trace)
    }

    fn take_io_trace(&mut self) -> Vec<IoRecord> {
        std::mem::take(&mut self.io_trace)
    }

    fn revive(&mut self) {
        self.plan = FaultPlan::default();
        self.dead = false;
    }

    fn is_dead(&self) -> bool {
        self.dead
    }

    fn write_track(&mut self, id: TrackId, data: &[u8]) -> GemResult<()> {
        if self.dead {
            self.inner.note_failed_write(id);
            return Err(GemError::DiskDead);
        }
        if data.len() > self.inner.track_size() {
            self.inner.note_failed_write(id);
            return Err(GemError::DiskFailure(format!(
                "data ({} bytes) exceeds track size ({})",
                data.len(),
                self.inner.track_size()
            )));
        }
        if let Some(n) = self.plan.crash_after_writes {
            if n == 0 {
                // Crashing write: a prefix of the record reaches the file
                // (same byte offsets as the simulated tear — the classes
                // index into the record, the record starts the slot).
                let prefix = self.plan.tear.prefix_len(data.len()).min(self.inner.track_size());
                if prefix > 0 {
                    self.inner.write_torn_prefix(id, &data[..prefix])?;
                }
                self.dead = true;
                self.inner.note_failed_write(id);
                return Err(GemError::DiskFailure("power lost mid-write (torn track)".into()));
            }
            self.plan.crash_after_writes = Some(n - 1);
        }
        self.inner.write_padded(id, data)?;
        if self.plan.record_trace {
            self.trace.push(WriteRecord { track: id, len: data.len() });
            self.io_trace.push(IoRecord::Write { track: id, len: data.len() });
        }
        Ok(())
    }

    fn read_track(&mut self, id: TrackId) -> GemResult<&[u8]> {
        if self.dead {
            self.inner.note_failed_read(id);
            return Err(GemError::DiskDead);
        }
        if let Some(fault) = &mut self.plan.read_fault {
            if fault.after_reads > 0 {
                fault.after_reads -= 1;
            } else if fault.count > 0 {
                fault.count -= 1;
                self.inner.note_failed_read(id);
                return Err(GemError::DiskFailure(format!("transient read error on {id:?}")));
            }
        }
        if !self.inner.track_exists(id) {
            self.inner.note_failed_read(id);
            return Err(GemError::DiskFailure(format!("track {id:?} never written")));
        }
        self.inner.read_slot(id)
    }

    fn sync(&mut self) -> GemResult<()> {
        if self.dead {
            if let Some(j) = self.inner.journal_on() {
                j.emit(&JournalEvent::DiskSync { ok: false, backend: "file".into() });
            }
            return Err(GemError::DiskDead);
        }
        self.inner.sync()?;
        if self.plan.record_trace {
            self.io_trace.push(IoRecord::Sync);
        }
        Ok(())
    }

    fn track_exists(&self, id: TrackId) -> bool {
        self.inner.track_exists(id)
    }

    fn tracks_beyond(&self, frontier: u32) -> u32 {
        self.inner.tracks_beyond(frontier)
    }

    /// Checkpoint: copy the file to a fresh `.ck{N}` sibling and open it.
    /// The copy is ephemeral (deleted when the checkpoint drops), counters
    /// detach, and any journal is dropped — matching `SimDisk::clone`.
    fn clone_disk(&self) -> Box<dyn TrackDisk> {
        let n = CLONE_SEQ.fetch_add(1, Ordering::Relaxed);
        let copy_path = PathBuf::from(format!("{}.ck{n}", self.inner.path.display()));
        // pwrite goes through the page cache, so a same-process copy sees
        // every byte written so far without an intervening fsync.
        std::fs::copy(&self.inner.path, &copy_path).unwrap_or_else(|e| {
            panic!("checkpoint copy {} -> {}: {e}", self.inner.path.display(), copy_path.display())
        });
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&copy_path)
            .unwrap_or_else(|e| panic!("open checkpoint {}: {e}", copy_path.display()));
        let inner = FileDisk {
            path: copy_path,
            file,
            track_size: self.inner.track_size,
            cap_tracks: self.inner.cap_tracks,
            exists: self.inner.exists.clone(),
            stats: self.inner.stats.clone(), // detaches, like the journal below
            journal: None,
            read_buf: vec![0u8; self.inner.track_size],
            ephemeral: true,
        };
        Box::new(FaultFile {
            inner,
            plan: self.plan.clone(),
            dead: self.dead,
            trace: self.trace.clone(),
            io_trace: self.io_trace.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::TearClass;
    use std::sync::atomic::AtomicU32;

    static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    /// A unique scratch dir under the target dir, removed on drop.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Scratch {
            let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir()
                .join(format!("gemstone-filedisk-{tag}-{}-{n}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            Scratch(dir)
        }

        fn file(&self, name: &str) -> PathBuf {
            self.0.join(name)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn write_read_roundtrip_and_padding() {
        let s = Scratch::new("roundtrip");
        let mut d = FaultFile::create(s.file("db.gem"), 256).unwrap();
        d.write_track(TrackId(3), b"hello tracks").unwrap();
        let back = d.read_track(TrackId(3)).unwrap();
        assert_eq!(&back[..12], b"hello tracks");
        assert_eq!(back.len(), 256, "tracks are read whole");
        assert!(back[12..].iter().all(|&b| b == 0), "zero padded");
    }

    #[test]
    fn reopen_preserves_tracks_and_existence() {
        let s = Scratch::new("reopen");
        let path = s.file("db.gem");
        {
            let mut d = FaultFile::create(&path, 128).unwrap();
            d.write_track(TrackId(0), b"\x01root").unwrap();
            d.write_track(TrackId(7), b"\x02data").unwrap();
            d.sync().unwrap();
        }
        let mut d = FaultFile::open(&path).unwrap();
        assert_eq!(d.track_size(), 128, "track size from the header");
        assert!(d.track_exists(TrackId(0)));
        assert!(d.track_exists(TrackId(7)));
        assert!(!d.track_exists(TrackId(3)), "gap slot scanned as unwritten");
        assert_eq!(d.tracks_in_use(), 2);
        assert_eq!(d.tracks_beyond(1), 1);
        assert_eq!(&d.read_track(TrackId(7)).unwrap()[..5], b"\x02data");
        assert!(d.read_track(TrackId(3)).is_err(), "unwritten slot refuses reads");
    }

    #[test]
    fn open_rejects_foreign_files() {
        let s = Scratch::new("magic");
        let mut lying = Vec::from(*MAGIC);
        lying.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        lying.extend_from_slice(&u32::MAX.to_le_bytes());
        // A volume written before the location log: same magic, version 1.
        let mut v1 = Vec::from(*MAGIC);
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&256u32.to_le_bytes());
        v1.resize(4 * 256, 0);
        for (name, bytes, want) in [
            ("notdb", &b"definitely not a track file, padded out to header size"[..], "bad magic"),
            ("short", &MAGIC[..], "read header"),
            ("lying", &lying[..], "track size 4294967295 in a 16-byte file"),
            ("v1", &v1[..], "unsupported track-file format v1 (expected v2)"),
        ] {
            let path = s.file(name);
            std::fs::write(&path, bytes).unwrap();
            let err = FaultFile::open(&path).unwrap_err();
            assert!(matches!(err, GemError::DiskFailure(_)), "{name}: {err:?}");
            assert!(format!("{err:?}").contains(want), "{name}: {err:?}");
        }
    }

    #[test]
    fn tear_classes_land_at_file_offsets() {
        // Mirror of the SimDisk tear test: a 40-byte record on a 64-byte
        // track, torn at each class — but the torn bytes are in a real file
        // and must still be there after a reopen.
        for (tear, want_new) in [
            (TearClass::Clean, 0usize),
            (TearClass::HeaderLen, 2),
            (TearClass::HeaderSum, 8),
            (TearClass::AfterHeader, 12),
            (TearClass::Half, 20),
            (TearClass::Tail, 39),
        ] {
            let s = Scratch::new("tear");
            let path = s.file("db.gem");
            let mut d = FaultFile::create(&path, 64).unwrap();
            d.write_track(TrackId(0), &[0xAA; 64]).unwrap();
            d.set_fault_plan(FaultPlan {
                crash_after_writes: Some(0),
                tear,
                ..FaultPlan::default()
            });
            assert!(d.write_track(TrackId(0), &[0xCC; 40]).is_err());
            assert!(d.is_dead());
            drop(d); // the process is gone; only the file remains
            let mut d = FaultFile::open(&path).unwrap();
            let t = d.read_track(TrackId(0)).unwrap();
            assert!(t[..want_new].iter().all(|&b| b == 0xCC), "{tear:?}: new prefix");
            assert!(t[want_new..40].iter().all(|&b| b == 0xAA), "{tear:?}: old suffix");
        }
    }

    #[test]
    fn clean_tear_on_fresh_track_leaves_it_unwritten() {
        let s = Scratch::new("clean");
        let path = s.file("db.gem");
        let mut d = FaultFile::create(&path, 64).unwrap();
        d.write_track(TrackId(0), &[0x01; 10]).unwrap();
        let mut plan = FaultPlan::crash_after(0);
        plan.tear = TearClass::Clean;
        d.set_fault_plan(plan);
        assert!(d.write_track(TrackId(5), &[0x02; 10]).is_err());
        drop(d);
        let d = FaultFile::open(&path).unwrap();
        assert!(!d.track_exists(TrackId(5)), "clean tear never reached the file");
        assert!(d.track_exists(TrackId(0)));
    }

    #[test]
    fn fsyncs_counted_and_dead_disk_refuses_sync() {
        let s = Scratch::new("sync");
        let mut d = FaultFile::create(s.file("db.gem"), 64).unwrap();
        d.write_track(TrackId(0), b"\x01x").unwrap();
        d.sync().unwrap();
        d.sync().unwrap();
        assert_eq!(d.stats().fsyncs, 2);
        d.set_fault_plan(FaultPlan::crash_after(0));
        assert!(d.write_track(TrackId(1), b"\x01y").is_err());
        assert!(matches!(d.sync(), Err(GemError::DiskDead)));
        assert_eq!(d.stats().fsyncs, 2, "a dead disk's sync moves no counter");
    }

    #[test]
    fn transient_read_fault_window_matches_sim() {
        let s = Scratch::new("readfault");
        let mut d = FaultFile::create(s.file("db.gem"), 64).unwrap();
        d.write_track(TrackId(0), b"\x01data").unwrap();
        d.set_fault_plan(FaultPlan {
            read_fault: Some(crate::disk::ReadFault { after_reads: 1, count: 2 }),
            ..FaultPlan::default()
        });
        assert!(d.read_track(TrackId(0)).is_ok(), "first read succeeds");
        assert!(d.read_track(TrackId(0)).is_err(), "window open");
        assert!(d.read_track(TrackId(0)).is_err(), "window open");
        assert!(d.read_track(TrackId(0)).is_ok(), "window closed");
        assert!(!d.is_dead());
        let st = d.stats();
        assert_eq!((st.track_reads, st.failed_reads), (2, 2));
    }

    #[test]
    fn checkpoint_clone_is_independent_and_ephemeral() {
        let s = Scratch::new("clone");
        let mut d = FaultFile::create(s.file("db.gem"), 64).unwrap();
        d.write_track(TrackId(2), b"\x01before").unwrap();
        let mut ck = d.clone_disk();
        let ck_path = PathBuf::from(format!("{}", s.0.join("db.gem").display()));
        // Diverge: the original moves on, the checkpoint must not see it.
        d.write_track(TrackId(3), b"\x01after").unwrap();
        assert!(ck.track_exists(TrackId(2)));
        assert!(!ck.track_exists(TrackId(3)), "checkpoint froze before the write");
        assert_eq!(ck.read_track(TrackId(2)).unwrap()[..7], b"\x01before"[..]);
        // The copy lives next to the original and vanishes on drop.
        let copies = || {
            std::fs::read_dir(&s.0)
                .unwrap()
                .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().contains(".ck"))
                .count()
        };
        assert_eq!(copies(), 1, "one checkpoint file next to {}", ck_path.display());
        drop(ck);
        assert_eq!(copies(), 0, "ephemeral checkpoint removed on drop");
    }

    #[test]
    fn io_trace_orders_writes_and_syncs() {
        let s = Scratch::new("iotrace");
        let mut d = FaultFile::create(s.file("db.gem"), 64).unwrap();
        d.set_fault_plan(FaultPlan::trace());
        d.write_track(TrackId(2), &[1; 10]).unwrap();
        d.write_track(TrackId(3), &[2; 20]).unwrap();
        d.sync().unwrap();
        d.write_track(TrackId(0), &[3; 30]).unwrap();
        d.sync().unwrap();
        assert_eq!(
            d.take_io_trace(),
            vec![
                IoRecord::Write { track: TrackId(2), len: 10 },
                IoRecord::Write { track: TrackId(3), len: 20 },
                IoRecord::Sync,
                IoRecord::Write { track: TrackId(0), len: 30 },
                IoRecord::Sync,
            ]
        );
        assert!(d.take_io_trace().is_empty(), "trace drained");
    }

    #[test]
    fn preallocation_grows_in_batches() {
        let s = Scratch::new("prealloc");
        let path = s.file("db.gem");
        let mut d = FaultFile::create(&path, 64).unwrap();
        let len = || std::fs::metadata(&path).unwrap().len();
        assert_eq!(len(), 65 * 64, "header slot + first batch");
        d.write_track(TrackId(63), b"\x01edge").unwrap();
        assert_eq!(len(), 65 * 64, "inside the batch: no growth");
        d.write_track(TrackId(64), b"\x01next").unwrap();
        assert_eq!(len(), 129 * 64, "second batch allocated whole");
    }
}
