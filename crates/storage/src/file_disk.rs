//! The durable track medium: [`FileDisk`], and [`FaultFile`] over it.
//!
//! Everything in the paper's §4 storage story — shadow tracks, safe-writes,
//! two root pages — exists to survive power loss, which a memory-only
//! [`SimDisk`](crate::SimDisk) cannot demonstrate. [`FileDisk`] is the same
//! whole-track [`Medium`] as the simulated one, laid out as a preallocated,
//! track-aligned file:
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
//! durability is explicit: a sync is one `fdatasync`, and the Commit
//! Manager batches it per safe-write group (group commit — two barriers
//! per commit, not one per track; see `commit::safe_write_group`).
//!
//! [`FaultFile`] is the [`Faulty`] fault layer over a `FileDisk` — the same
//! code that tears, counts and journals for the simulated disk — so the six
//! [`TearClass`](crate::TearClass) tears land as raw short `pwrite`s at the
//! same offsets within the track slot, transient read faults open the same
//! windows, and the crash-point matrix ([`crate::crashpoint`]) runs
//! unchanged against real files. A failed `pread`, `pwrite`, `set_len` or
//! `fdatasync` is a medium error like any other: that layer counts and
//! journals it once.
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

use crate::disk::{Faulty, Medium, TrackId, TRACK_HEADER};

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

/// Monotonic suffix for checkpoint copies ([`Medium::checkpoint`]).
static CLONE_SEQ: AtomicU64 = AtomicU64::new(0);

fn io_err(what: &str, path: &Path, e: std::io::Error) -> GemError {
    GemError::DiskFailure(format!("{what} {}: {e}", path.display()))
}

/// The durable medium: a preallocated, track-aligned file with whole-slot
/// `pread`/`pwrite` and explicit `fdatasync`. No fault or counting logic
/// lives here — [`FaultFile`] wraps it.
#[derive(Debug)]
pub struct FileDisk {
    path: PathBuf,
    file: File,
    track_size: usize,
    /// Which slots have ever been written; its length is the preallocated
    /// capacity in slots (header slot excluded). Rebuilt on open by
    /// scanning slots for any nonzero byte.
    exists: Vec<bool>,
    /// Scratch buffer a read returns.
    read_buf: Vec<u8>,
    /// Remove the file on drop (checkpoint copies are ephemeral).
    ephemeral: bool,
}

impl FileDisk {
    /// Create a fresh track file at `path` (must not exist), writing the
    /// header slot and preallocating the first slot batch.
    fn create(path: PathBuf, track_size: usize) -> GemResult<FileDisk> {
        if track_size <= TRACK_HEADER * 2 {
            return Err(GemError::DiskFailure(format!("track size {track_size} too small")));
        }
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
        file.write_all_at(&header, 0).map_err(|e| io_err("write header of", &path, e))?;
        file.set_len(((PREALLOC_TRACKS + 1) * track_size) as u64)
            .map_err(|e| io_err("preallocate", &path, e))?;
        // The header (and the file's very existence) must survive power
        // loss before any commit is acknowledged against it.
        file.sync_all().map_err(|e| io_err("sync", &path, e))?;
        Ok(FileDisk::at(path, file, track_size, vec![false; PREALLOC_TRACKS]))
    }

    /// Open an existing track file, validating the header and rebuilding
    /// the track-existence map (any nonzero byte in a slot = written).
    fn open(path: PathBuf) -> GemResult<FileDisk> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| io_err("open", &path, e))?;
        let mut head = [0u8; 16];
        file.read_exact_at(&mut head, 0).map_err(|e| io_err("read header of", &path, e))?;
        let le_u32 =
            |at: usize| u32::from_le_bytes([head[at], head[at + 1], head[at + 2], head[at + 3]]);
        if &head[..8] != MAGIC {
            return Err(GemError::DiskFailure(format!(
                "{}: not a GemStone track file (bad magic)",
                path.display()
            )));
        }
        let version = le_u32(8);
        if version != FORMAT_VERSION {
            return Err(GemError::DiskFailure(format!(
                "{}: unsupported track-file format v{version} (expected v{FORMAT_VERSION})",
                path.display()
            )));
        }
        let track_size = le_u32(12) as usize;
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
        let mut exists = vec![false; len as usize / track_size - 1];
        let mut buf = vec![0u8; track_size];
        for (i, slot) in exists.iter_mut().enumerate() {
            let off = ((i + 1) * track_size) as u64;
            file.read_exact_at(&mut buf, off).map_err(|e| io_err("scan", &path, e))?;
            *slot = buf.iter().any(|&b| b != 0);
        }
        Ok(FileDisk::at(path, file, track_size, exists))
    }

    fn at(path: PathBuf, file: File, track_size: usize, exists: Vec<bool>) -> FileDisk {
        FileDisk { path, file, track_size, exists, read_buf: vec![0; track_size], ephemeral: false }
    }

    #[inline]
    fn offset(&self, id: TrackId) -> u64 {
        (id.0 as u64 + 1) * self.track_size as u64
    }

    /// Extend preallocation so slot `idx` is addressable.
    fn ensure_capacity(&mut self, idx: usize) -> GemResult<()> {
        if idx < self.exists.len() {
            return Ok(());
        }
        let new_cap = (idx / PREALLOC_TRACKS + 1) * PREALLOC_TRACKS;
        self.file
            .set_len(((new_cap + 1) * self.track_size) as u64)
            .map_err(|e| io_err("preallocate", &self.path, e))?;
        self.exists.resize(new_cap, false);
        Ok(())
    }
}

impl Medium for FileDisk {
    const NAME: &'static str = "file";

    fn track_size(&self) -> usize {
        self.track_size
    }

    fn write(&mut self, id: TrackId, bytes: &[u8]) -> GemResult<()> {
        self.ensure_capacity(id.0 as usize)?;
        let off = self.offset(id);
        self.file.write_all_at(bytes, off).map_err(|e| io_err("write", &self.path, e))?;
        // Whole or torn, the landed bytes are in the file: the slot exists.
        self.exists[id.0 as usize] = true;
        Ok(())
    }

    fn read(&mut self, id: TrackId) -> GemResult<&[u8]> {
        let off = self.offset(id);
        self.file
            .read_exact_at(&mut self.read_buf, off)
            .map_err(|e| io_err("read", &self.path, e))?;
        Ok(&self.read_buf)
    }

    fn sync(&mut self) -> GemResult<u64> {
        let start = std::time::Instant::now();
        self.file.sync_data().map_err(|e| io_err("fdatasync", &self.path, e))?;
        Ok(start.elapsed().as_micros() as u64)
    }

    fn slot_count(&self) -> usize {
        self.exists.len()
    }

    fn exists(&self, id: TrackId) -> bool {
        self.exists.get(id.0 as usize) == Some(&true)
    }

    /// Copy the file to a fresh `.ck{N}` sibling and open it. The copy is
    /// ephemeral: it is deleted when the checkpoint drops.
    fn checkpoint(&self) -> GemResult<FileDisk> {
        let n = CLONE_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = PathBuf::from(format!("{}.ck{n}", self.path.display()));
        // pwrite goes through the page cache, so a same-process copy sees
        // every byte written so far without an intervening fsync.
        std::fs::copy(&self.path, &path).map_err(|e| io_err("checkpoint", &self.path, e))?;
        let file = OpenOptions::new().read(true).write(true).open(&path).map_err(|e| {
            let _ = std::fs::remove_file(&path);
            io_err("open checkpoint", &path, e)
        })?;
        let mut copy = FileDisk::at(path, file, self.track_size, self.exists.clone());
        copy.ephemeral = true;
        Ok(copy)
    }
}

impl Drop for FileDisk {
    fn drop(&mut self) {
        if self.ephemeral {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// The file backend: the [`Faulty`] fault layer over a [`FileDisk`], so a
/// torn root page is torn *in the file* and recovery must read past it.
pub type FaultFile = Faulty<FileDisk>;

impl FaultFile {
    /// Create a fresh file-backed disk (no faults armed).
    pub fn create(path: impl Into<PathBuf>, track_size: usize) -> GemResult<FaultFile> {
        Ok(Faulty::over(FileDisk::create(path.into(), track_size)?))
    }

    /// Open an existing file-backed disk (no faults armed).
    pub fn open(path: impl Into<PathBuf>) -> GemResult<FaultFile> {
        Ok(Faulty::over(FileDisk::open(path.into())?))
    }

    /// Mark the underlying file ephemeral: it is deleted when this disk
    /// (and every checkpoint copy of it) is dropped.
    pub fn set_ephemeral(&mut self, ephemeral: bool) {
        self.medium.ephemeral = ephemeral;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::disk::{DiskArray, FaultPlan, TearClass, TrackDisk};
    use std::sync::atomic::AtomicU32;

    static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    /// A fresh ephemeral file volume in the temp dir.
    pub(crate) fn scratch(track_size: usize) -> FaultFile {
        let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("gemstone-scratch-{}-{n}.gem", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut d = FaultFile::create(path, track_size).unwrap();
        d.set_ephemeral(true);
        d
    }

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
    fn reopen_preserves_tracks_and_existence() {
        let s = Scratch::new("reopen");
        let path = s.file("db.gem");
        {
            let mut d = FaultFile::create(&path, 128).unwrap();
            d.write_track(TrackId(0), b"\x01root").unwrap();
            d.write_track(TrackId(7), &[0xAA; 64]).unwrap();
            d.sync().unwrap();
            // The crash tears track 7 with a real short pwrite.
            d.set_fault_plan(FaultPlan {
                crash_after_writes: Some(0),
                tear: TearClass::HeaderSum,
                ..FaultPlan::default()
            });
            assert!(d.write_track(TrackId(7), &[0xCC; 40]).is_err());
        } // the process is gone; only the file remains
        let mut d = FaultFile::open(&path).unwrap();
        assert_eq!(d.track_size(), 128, "track size from the header");
        assert!(d.track_exists(TrackId(0)));
        assert!(d.track_exists(TrackId(7)));
        assert!(!d.track_exists(TrackId(3)), "gap slot scanned as unwritten");
        assert_eq!(d.tracks_in_use(), 2);
        assert_eq!(d.tracks_beyond(1), 1);
        assert_eq!(&d.read_track(TrackId(0)).unwrap()[..5], b"\x01root");
        let torn = d.read_track(TrackId(7)).unwrap();
        assert!(torn[..8].iter().all(|&b| b == 0xCC), "torn prefix outlived the process");
        assert!(torn[8..64].iter().all(|&b| b == 0xAA), "old bytes past the tear");
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
    fn checkpoint_copies_are_ephemeral() {
        let s = Scratch::new("clone");
        let mut d = FaultFile::create(s.file("db.gem"), 64).unwrap();
        d.write_track(TrackId(2), b"\x01before").unwrap();
        let copies = || {
            std::fs::read_dir(&s.0)
                .unwrap()
                .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().contains(".ck"))
                .count()
        };
        let ck = d.checkpoint().unwrap();
        assert_eq!(copies(), 1, "one checkpoint file beside the volume");
        drop(ck);
        assert_eq!(copies(), 0, "ephemeral checkpoint removed on drop");
    }

    #[test]
    fn checkpoint_of_a_vanished_volume_is_an_error() {
        let s = Scratch::new("vanished");
        let path = s.file("db.gem");
        let mut a = DiskArray::from_backend(Box::new(FaultFile::create(&path, 64).unwrap()));
        a.write_track(TrackId(2), b"\x01x").unwrap();
        std::fs::remove_file(&path).unwrap(); // the open fd keeps the volume alive
        assert!(a.read_track(TrackId(2)).is_ok(), "the volume itself still serves");
        assert!(matches!(a.checkpoint(), Err(GemError::DiskFailure(_))));
    }

    #[test]
    fn io_errors_are_counted() {
        let mut d = scratch(64);
        d.write_track(TrackId(3), b"\x01x").unwrap();
        d.sync().unwrap();
        // A second handle cuts the volume back to its header slot: track 3
        // is still known to exist, but its pread now runs past the end.
        OpenOptions::new().write(true).open(&d.medium.path).unwrap().set_len(64).unwrap();
        assert!(matches!(d.read_track(TrackId(3)), Err(GemError::DiskFailure(_))));
        let s = d.counters().snapshot();
        assert_eq!((s.track_reads, s.failed_reads), (0, 1));
        assert!(!d.is_dead(), "an I/O error is not a crash");
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
