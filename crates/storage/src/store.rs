//! The permanent store: the disk side of the Object Manager.
//!
//! Plays the §6 roles end to end: the **Linker** ("incorporates updates made
//! by a transaction in the permanent database at commit time"), the
//! **Boxer**, the **GOOP table** ("The GOOP is resolved through a global
//! object table"), and drives the **Commit Manager**. Committed objects are
//! faulted in from tracks on demand and cached; the object cache can be
//! bounded to force faulting for the LOOM comparison (C7).
//!
//! # The GOOP table on disk: pages plus a location log
//!
//! A commit group is one extent: the touched object images, any staged
//! metadata, any page-out pages, and last a *catalog record*, whose
//! location goes in the root. The record carries the page and metadata
//! maps, this commit's own `(goop, location)` changes, and the location of
//! the previous record — so the records since the last page-out form a
//! chain, a log over the paged GOOP table. A commit therefore writes the
//! locations it changed, not the 512-entry pages they sit on.
//!
//! Pages are rewritten only at a **page-out**, which happens inside an
//! ordinary commit group once the chain's bytes (this record included)
//! reach the serialized size of the pages the chain has dirtied: page
//! writes never exceed the log they replace, and the log a reopening must
//! replay never outgrows the pages. [`PermanentStore::open`] loads the
//! pages named by the newest record, walks `prev` back to the last
//! page-out and applies the records oldest-first.
//!
//! # Concurrency
//!
//! Every operation takes `&self`; sessions on different threads fault,
//! read and commit against one shared store. The internal locking is
//! fine-grained so that the common path — faulting a committed object —
//! never serializes behind a committing writer:
//!
//! - committed object images live in [`OBJ_SHARDS`] `RwLock` shards keyed
//!   by GOOP, each holding `Arc<PersistentObject>` — a fault hands out a
//!   cheap `Arc` clone and readers then touch no store lock at all;
//! - the track cache is a [`ShardedTrackCache`] (lock-striped by track);
//! - the GOOP table (`locations`) is one `RwLock` ordered map, read per
//!   fault, extended only at commit publish (ordered so a page-out builds
//!   each page from a range);
//! - all commit-time mutable state (catalog, staged metadata, allocation
//!   frontiers) sits behind the single `writer` mutex — commits are
//!   serialized, which the §6 shadow-track design requires anyway (one
//!   safe-write group at a time owns the track frontier);
//! - the simulated disk array has its own mutex, held only across actual
//!   track I/O.
//!
//! Commits are copy-on-write: the Linker applies deltas to *private clones*
//! of the touched objects, the whole group is safe-written, and only after
//! the disk succeeds are the new `Arc`s, locations and root published.
//! A failed commit therefore rolls back for free — shared state was never
//! touched — while concurrent readers keep resolving against the old
//! images throughout. Lock order (outermost first):
//! `writer → disk → objects-shard → locations → root → evict`;
//! no path holds two of these except `evict → objects-shard` during
//! bounded-cache eviction.

use crate::boxer::{self, Extent};
use crate::cache::{CacheCounters, CacheStats, FillSource, ShardedTrackCache};
use crate::commit::{self, RecoveryReport, FIRST_DATA_TRACK};
use crate::disk::{DiskArray, DiskCounters, DiskStats, TrackDisk, TRACK_HEADER};
use crate::format::{self, Catalog, GoopPage, Location, Root, GOOP_PAGE_SPAN};
use crate::pobj::{ObjectDelta, PersistentObject};
use gemstone_object::{GemError, GemResult, Goop};
use gemstone_telemetry::{Counter, Histogram, Journal, JournalEvent, SpanKind, Tracer};
use gemstone_temporal::TxnTime;
use parking_lot::{Mutex, RwLock};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

/// Object-image shards; GOOPs are striped round-robin so neighboring
/// allocations land on different locks.
pub const OBJ_SHARDS: usize = 8;

/// Build the replica set of a file-backed volume: replica 0 lives at
/// `path`, replica `i` beside it at `<path>.r{i}`.
fn file_replicas<D: TrackDisk + 'static>(
    path: &std::path::Path,
    n: usize,
    mut make: impl FnMut(std::path::PathBuf) -> GemResult<D>,
) -> GemResult<Vec<Box<dyn TrackDisk>>> {
    (0..n)
        .map(|i| {
            let p = if i == 0 {
                path.to_path_buf()
            } else {
                std::path::PathBuf::from(format!("{}.r{i}", path.display()))
            };
            Ok(Box::new(make(p)?) as Box<dyn TrackDisk>)
        })
        .collect()
}

/// How one commit's storage leg spent its time, returned by
/// [`PermanentStore::commit_batch_traced`] so the session can assemble a
/// full commit timeline (snapshot age / validation / safe-write / fsync /
/// publish) without reaching into the disk layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommitPhases {
    /// Wall microseconds inside the safe-write group (all track writes on
    /// every replica plus the durability barriers).
    pub safe_write_us: u64,
    /// The slice of `safe_write_us` spent inside fsync barriers on the
    /// primary replica.
    pub fsync_us: u64,
}

/// Store construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Track size in bytes (includes the [`TRACK_HEADER`]).
    pub track_size: usize,
    /// Track-cache capacity, in tracks.
    pub cache_tracks: usize,
    /// Number of disk replicas (§6 replication).
    pub replicas: usize,
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig { track_size: 8192, cache_tracks: 256, replicas: 1 }
    }
}

/// Store-level counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct StoreStats {
    /// Commits applied.
    pub commits: u64,
    /// Objects faulted in from tracks.
    pub object_faults: u64,
    /// Object images written.
    pub objects_written: u64,
}

/// Live counters behind [`StoreStats`]; shared cells for registry binding.
#[derive(Debug, Default)]
pub struct StoreCounters {
    pub commits: Counter,
    pub object_faults: Counter,
    pub objects_written: Counter,
}

impl StoreCounters {
    fn snapshot(&self) -> StoreStats {
        StoreStats {
            commits: self.commits.get(),
            object_faults: self.object_faults.get(),
            objects_written: self.objects_written.get(),
        }
    }

    fn reset(&self) {
        self.commits.reset();
        self.object_faults.reset();
        self.objects_written.reset();
    }

    fn share(&self) -> StoreCounters {
        StoreCounters {
            commits: self.commits.clone(),
            object_faults: self.object_faults.clone(),
            objects_written: self.objects_written.clone(),
        }
    }
}

/// The location log since the last page-out: what a reopening replays
/// over the paged GOOP table.
#[derive(Debug, Default)]
struct Chain {
    /// Serialized bytes of the catalog records since the last page-out.
    bytes: usize,
    /// The GOOP-table pages their location changes dirty.
    pages: BTreeSet<u32>,
}

/// The GOOP-table page holding `goop`'s entry.
fn page_of(goop: Goop) -> u32 {
    (goop.0 / GOOP_PAGE_SPAN) as u32
}

/// Everything only a committing writer touches, under one mutex: the
/// catalog, the location log and metadata staging plus both allocation
/// frontiers.
#[derive(Debug)]
struct WriterState {
    /// The newest catalog record (its page and metadata maps are carried
    /// into the next one).
    catalog: Catalog,
    chain: Chain,
    /// Committed entries per GOOP-table page, so the page-out rule sizes
    /// pages without building them.
    page_len: HashMap<u32, usize>,
    /// Metadata blobs staged since the last commit (key → bytes).
    staged_metas: BTreeMap<u8, Vec<u8>>,
    next_goop: u64,
    next_track: u32,
}

/// Bounded-object-cache state: one *global* FIFO across all object shards,
/// so `set_object_cache_limit(Some(n))` means n objects total — the LOOM
/// C7 comparison depends on a global bound, not a per-shard one.
///
/// Invariant: `order` holds exactly one entry per resident object (an
/// entry is pushed when an image is newly installed in a shard and popped
/// when that image is evicted), so `order.len()` *is* the resident count.
#[derive(Debug, Default)]
struct EvictState {
    order: VecDeque<Goop>,
    limit: Option<usize>,
}

/// The permanent database. All operations take `&self`; see the module
/// docs for the locking design.
pub struct PermanentStore {
    disk: Mutex<DiskArray>,
    cache: ShardedTrackCache,
    /// Committed objects currently in memory (clean copies of disk state),
    /// striped by GOOP.
    objects: Vec<RwLock<HashMap<Goop, Arc<PersistentObject>>>>,
    /// The GOOP table. Kept live (extended at publish, never cloned per
    /// commit): snapshot readers can only reach a GOOP through another
    /// object's state *as of their snapshot*, so they never look up an
    /// identity that did not exist at that time.
    locations: RwLock<BTreeMap<Goop, Location>>,
    writer: Mutex<WriterState>,
    root: RwLock<Root>,
    evict: Mutex<EvictState>,
    /// Track size in bytes (immutable after construction; cached here so
    /// the read path never locks the disk just to size a buffer).
    track_size: usize,
    stats: StoreCounters,
    /// What the last reopening saw ([`RecoveryReport::default`] for a
    /// freshly created volume, which performed no recovery).
    recovery_report: RecoveryReport,
    /// Span recorder for track-I/O, if the owning database traces.
    tracer: Option<Tracer>,
    /// Flight-recorder handle for store-level events (faults, commit
    /// groups). Checked with one atomic load; `None` until attached.
    journal: Option<Journal>,
}

impl PermanentStore {
    fn assemble(
        disk: DiskArray,
        cache: ShardedTrackCache,
        locations: BTreeMap<Goop, Location>,
        catalog: Catalog,
        chain: Chain,
        root: Root,
        recovery_report: RecoveryReport,
    ) -> PermanentStore {
        let mut page_len = HashMap::new();
        for g in locations.keys() {
            *page_len.entry(page_of(*g)).or_insert(0) += 1;
        }
        PermanentStore {
            track_size: disk.track_size(),
            disk: Mutex::new(disk),
            cache,
            objects: (0..OBJ_SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            locations: RwLock::new(locations),
            writer: Mutex::new(WriterState {
                catalog,
                chain,
                page_len,
                staged_metas: BTreeMap::new(),
                next_goop: root.next_goop,
                next_track: root.next_track,
            }),
            root: RwLock::new(root),
            evict: Mutex::new(EvictState::default()),
            stats: StoreCounters::default(),
            recovery_report,
            tracer: None,
            journal: None,
        }
    }

    /// Format a fresh database volume on a simulated disk.
    pub fn create(cfg: StoreConfig) -> GemResult<PermanentStore> {
        let disk = DiskArray::new(cfg.track_size, cfg.replicas.max(1));
        PermanentStore::create_on(disk, cfg.cache_tracks)
    }

    /// Format a fresh database volume in a real file at `path` (replica `i`
    /// of a replicated config lives beside it at `<path>.r{i}`). The file
    /// backend gives the §4 storage story its missing half: the safe-write
    /// groups land via `pwrite` + batched `fdatasync`, so committed state
    /// survives the death of the process.
    pub fn create_file(
        path: impl AsRef<std::path::Path>,
        cfg: StoreConfig,
    ) -> GemResult<PermanentStore> {
        let disk =
            DiskArray::from_backends(file_replicas(path.as_ref(), cfg.replicas.max(1), |p| {
                crate::file_disk::FaultFile::create(p, cfg.track_size)
            })?);
        PermanentStore::create_on(disk, cfg.cache_tracks)
    }

    /// Recover a file-backed volume created by [`PermanentStore::create_file`].
    pub fn open_file(
        path: impl AsRef<std::path::Path>,
        replicas: usize,
        cache_tracks: usize,
    ) -> GemResult<PermanentStore> {
        let disk = DiskArray::from_backends(file_replicas(path.as_ref(), replicas.max(1), |p| {
            crate::file_disk::FaultFile::open(p)
        })?);
        PermanentStore::open(disk, cache_tracks)
    }

    /// Format a fresh volume onto an already-constructed disk array (any
    /// backend): write the initial empty commit so a valid root always
    /// exists, then assemble the store.
    pub fn create_on(mut disk: DiskArray, cache_tracks: usize) -> GemResult<PermanentStore> {
        let mut extent = Extent::new(FIRST_DATA_TRACK, disk.track_size() - TRACK_HEADER);
        let catalog = extent.push(&format::put_catalog(&Catalog::default()));
        let writes = extent.into_writes();
        let root = Root {
            epoch: 1,
            commit_time: TxnTime::EPOCH,
            next_goop: 1,
            next_track: FIRST_DATA_TRACK + writes.len() as u32,
            catalog,
        };
        commit::safe_write_group(&mut disk, &writes, &root)?;
        Ok(PermanentStore::assemble(
            disk,
            ShardedTrackCache::new(cache_tracks),
            BTreeMap::new(),
            Catalog::default(),
            Chain::default(),
            root,
            RecoveryReport::default(),
        ))
    }

    /// Open an existing volume: recovery. Reads the newest valid root,
    /// then the GOOP table — the pages the newest catalog record names,
    /// with the location log replayed over them — and the catalog; objects
    /// fault in lazily. The whole pass is read-only, so a crash *during*
    /// recovery leaves the volume untouched and a retry sees the identical
    /// state. What was seen and decided is recorded in
    /// [`PermanentStore::recovery_report`].
    pub fn open(mut disk: DiskArray, cache_tracks: usize) -> GemResult<PermanentStore> {
        let reads_before = disk.stats().track_reads;
        let (root, mut report) = commit::recover_root_report(&mut disk)?;
        let root_reads = disk.stats().track_reads - reads_before;
        let cache = ShardedTrackCache::new(cache_tracks);
        let payload = disk.track_size() - TRACK_HEADER;
        // Walk the log from the newest catalog record back to the last
        // page-out. Shadow allocation only moves forward, so every `prev`
        // lies on an earlier track than its successor; insisting on that
        // makes the walk terminate even over a corrupt chain.
        let mut records: Vec<(Location, Catalog)> = Vec::new(); // newest first
        let mut at = root.catalog;
        loop {
            let record = format::get_catalog(&read_blob_with(&mut disk, &cache, &at, payload)?)?;
            let prev = record.prev;
            records.push((at, record));
            match prev {
                None => break,
                Some(p) if p.extent_first < at.extent_first => at = p,
                Some(p) => {
                    return Err(GemError::Corrupt(format!(
                        "catalog record on track {} names its predecessor on track {}",
                        at.extent_first.0, p.extent_first.0
                    )))
                }
            }
        }
        let mut locations = BTreeMap::new();
        for loc in records[0].1.goop_pages.values() {
            let page_bytes = read_blob_with(&mut disk, &cache, loc, payload)?;
            for (goop, l) in format::get_goop_page(&page_bytes)? {
                locations.insert(Goop(goop), l);
            }
        }
        let mut chain = Chain::default();
        for (at, record) in records.iter().rev().filter(|(_, r)| r.prev.is_some()) {
            chain.bytes += at.len as usize;
            for &(goop, l) in &record.log {
                chain.pages.insert(page_of(Goop(goop)));
                locations.insert(Goop(goop), l);
            }
        }
        report.log_records = records.len() as u32;
        report.reopen_reads = disk.stats().track_reads - reads_before;
        report.tracks_salvaged = (report.reopen_reads - root_reads) as u32 + report.roots_valid;
        report.tracks_discarded = disk.tracks_beyond(root.next_track);
        let catalog = records.swap_remove(0).1;
        Ok(PermanentStore::assemble(disk, cache, locations, catalog, chain, root, report))
    }

    /// Tear down to the raw disk (crash/recovery tests re-open it).
    pub fn into_disk(self) -> DiskArray {
        self.disk.into_inner()
    }

    /// Direct access to the disk (crash injection in tests/benches; needs
    /// exclusive ownership, so no session can be mid-operation).
    pub fn disk_mut(&mut self) -> &mut DiskArray {
        self.disk.get_mut()
    }

    /// Run `f` against the locked disk (diagnostics, fault planning from
    /// shared contexts).
    pub fn with_disk<R>(&self, f: impl FnOnce(&mut DiskArray) -> R) -> R {
        f(&mut self.disk.lock())
    }

    /// Bound the in-memory object cache (evicting clean residents FIFO);
    /// `None` = unbounded. The bound is global across all object shards.
    pub fn set_object_cache_limit(&self, limit: Option<usize>) {
        let mut ev = self.evict.lock();
        ev.limit = limit;
        self.enforce_cache_limit_locked(&mut ev, None);
    }

    /// Allocate a fresh permanent identity.
    pub fn alloc_goop(&self) -> Goop {
        let mut w = self.writer.lock();
        let g = Goop(w.next_goop);
        w.next_goop += 1;
        g
    }

    /// True if the identity exists in the committed database.
    pub fn contains(&self, goop: Goop) -> bool {
        self.locations.read().contains_key(&goop) || self.shard(goop).read().contains_key(&goop)
    }

    /// Number of committed objects.
    pub fn object_count(&self) -> usize {
        self.locations.read().len()
    }

    #[inline]
    fn shard(&self, goop: Goop) -> &RwLock<HashMap<Goop, Arc<PersistentObject>>> {
        &self.objects[goop.0 as usize % OBJ_SHARDS]
    }

    /// Fetch a committed object, faulting it from tracks if necessary.
    /// The returned `Arc` is immutable committed state: readers hold it
    /// across arbitrary work without pinning any store lock.
    pub fn get(&self, goop: Goop) -> GemResult<Arc<PersistentObject>> {
        self.get_traced(goop, 0, 0)
    }

    /// [`PermanentStore::get`] with span attribution: a fault's track-I/O
    /// span is credited to `session` under parent span `parent` (0 = none).
    /// Attribution rides the call instead of store state so concurrent
    /// sessions cannot mislabel each other's I/O.
    pub fn get_traced(
        &self,
        goop: Goop,
        session: u64,
        parent: u64,
    ) -> GemResult<Arc<PersistentObject>> {
        if let Some(obj) = self.shard(goop).read().get(&goop) {
            return Ok(obj.clone());
        }
        let loc = *self
            .locations
            .read()
            .get(&goop)
            .ok_or_else(|| GemError::Corrupt(format!("unknown {goop:?}")))?;
        let span =
            self.tracer.as_ref().map(|t| t.begin(SpanKind::TrackIo, session, parent, "track-read"));
        let bytes = self.read_blob(&loc)?;
        if let (Some(t), Some(sp)) = (&self.tracer, span) {
            t.end(sp);
        }
        let obj = Arc::new(format::get_object(&bytes)?);
        // Install, unless a racing faulter beat us — first one in wins and
        // is the only one that counts the fault and the residency.
        {
            let mut shard = self.shard(goop).write();
            if let Some(existing) = shard.get(&goop) {
                return Ok(existing.clone());
            }
            shard.insert(goop, obj.clone());
        }
        self.stats.object_faults.inc();
        if let Some(j) = self.journal_on() {
            j.emit(&JournalEvent::ObjectFault { goop: goop.0 });
        }
        self.note_resident(goop);
        Ok(obj)
    }

    /// Stage a metadata blob (symbol table, class table, globals…) to be
    /// persisted with the next commit.
    pub fn set_meta(&self, key: u8, bytes: Vec<u8>) {
        self.writer.lock().staged_metas.insert(key, bytes);
    }

    /// Read a metadata blob (staged value wins over the committed one).
    pub fn get_meta(&self, key: u8) -> GemResult<Option<Vec<u8>>> {
        let loc = {
            let w = self.writer.lock();
            if let Some(b) = w.staged_metas.get(&key) {
                return Ok(Some(b.clone()));
            }
            w.catalog.metas.get(&key).copied()
        };
        match loc {
            None => Ok(None),
            Some(loc) => Ok(Some(self.read_blob(&loc)?)),
        }
    }

    /// The primary-extent track holding `goop`'s committed image, when
    /// the object has one (an object created but never committed has no
    /// home yet).  Forensics uses this to map conflicting objects onto
    /// disk tracks; lock-wise it takes only the locations read lock, so
    /// it is safe to call from under the transaction manager.
    pub fn home_track(&self, goop: Goop) -> Option<u64> {
        let loc = *self.locations.read().get(&goop)?;
        let payload = self.track_size - TRACK_HEADER;
        Some(loc.extent_first.0 as u64 + (loc.offset as usize / payload) as u64)
    }

    /// Apply a validated transaction's writes at commit time `time`:
    /// Linker → Boxer → Commit Manager. All-or-nothing, copy-on-write: the
    /// deltas are applied to private clones of the touched objects and
    /// nothing shared is mutated until the safe-write group reaches disk,
    /// so a failed commit leaves memory exactly as it was — and staged
    /// metadata stays staged, traveling with the next successful group
    /// (the crash matrix caught an earlier take-then-fail version silently
    /// dropping it).
    pub fn commit_batch(&self, time: TxnTime, deltas: &[ObjectDelta]) -> GemResult<()> {
        self.commit_batch_traced(time, deltas, 0, 0).map(|_| ())
    }

    /// [`PermanentStore::commit_batch`] with span attribution for the
    /// safe-write-group I/O (0 = unattributed).  Returns the storage-side
    /// phase timings so the session can assemble a full commit timeline.
    pub fn commit_batch_traced(
        &self,
        time: TxnTime,
        deltas: &[ObjectDelta],
        session: u64,
        parent: u64,
    ) -> GemResult<CommitPhases> {
        let mut w = self.writer.lock();

        // 1. Linker: apply deltas to private clones of the permanent
        //    objects (copy-on-write — published images stay untouched).
        let mut touched: Vec<Goop> = Vec::with_capacity(deltas.len());
        let mut images: HashMap<Goop, PersistentObject> = HashMap::new();
        for d in deltas {
            let image = match images.entry(d.goop) {
                Entry::Occupied(image) => image.into_mut(),
                Entry::Vacant(slot) => {
                    let base = if d.is_new {
                        match self.shard(d.goop).read().get(&d.goop) {
                            Some(existing) => (**existing).clone(),
                            None => PersistentObject::new(d.goop, d.class, d.segment),
                        }
                    } else {
                        (*self.get(d.goop)?).clone() // fault in before updating
                    };
                    touched.push(d.goop);
                    slot.insert(base)
                }
            };
            image.apply_delta(d, time);
        }

        self.write_images(&mut w, time, touched, images, session, parent)
    }

    /// Boxer → Commit Manager → publish, shared by [`commit_batch`] and
    /// [`archive_history_before`]: serialize `images` (in `touched` order),
    /// safe-write the group, and only on disk success publish the new
    /// `Arc`s, locations, catalog and root.
    ///
    /// [`commit_batch`]: PermanentStore::commit_batch
    /// [`archive_history_before`]: PermanentStore::archive_history_before
    fn write_images(
        &self,
        w: &mut WriterState,
        time: TxnTime,
        touched: Vec<Goop>,
        images: HashMap<Goop, PersistentObject>,
        session: u64,
        parent: u64,
    ) -> GemResult<CommitPhases> {
        // 2. Boxer: the whole group is one extent — object images, staged
        //    metadata, any page-out pages, and last the catalog record the
        //    root names. Metadata is *borrowed*, not drained: a failed safe
        //    write must leave it staged for the next attempt.
        let last = self.root();
        let mut extent = Extent::new(w.next_track, self.track_size - TRACK_HEADER);
        let new_locs: BTreeMap<Goop, Location> =
            touched.iter().map(|g| (*g, extent.push(&format::put_object(&images[g])))).collect();
        let mut catalog = Catalog {
            prev: Some(last.catalog),
            goop_pages: w.catalog.goop_pages.clone(),
            metas: w.catalog.metas.clone(),
            log: new_locs.iter().map(|(g, l)| (g.0, *l)).collect(),
        };
        for (key, bytes) in &w.staged_metas {
            catalog.metas.insert(*key, extent.push(bytes));
        }

        // 3. The location log: the record carries this commit's location
        //    changes and points at the previous record — unless the chain,
        //    this record included, has reached the size of the pages it
        //    dirties, in which case those pages are rewritten (merging the
        //    published table with this commit's locations; the shared table
        //    is not touched until publish) and a new chain starts. Every
        //    input to the rule is persisted state, so a replayed commit
        //    produces a byte-identical group — the crash matrix depends on
        //    write index k meaning the same write on every run.
        let touched_pages: BTreeSet<u32> = touched.iter().map(|g| page_of(*g)).collect();
        let mut record = format::put_catalog(&catalog);
        let paged_out = {
            let committed = self.locations.read();
            let mut dirty: BTreeMap<u32, usize> = w
                .chain
                .pages
                .union(&touched_pages)
                .map(|&p| (p, w.page_len.get(&p).copied().unwrap_or(0)))
                .collect();
            for g in new_locs.keys().filter(|g| !committed.contains_key(g)) {
                *dirty.entry(page_of(*g)).or_default() += 1;
            }
            let page_bytes: usize = dirty.values().map(|&n| format::page_bytes(n)).sum();
            let page_out = w.chain.bytes + record.len() >= page_bytes;
            if page_out {
                for &p in dirty.keys() {
                    let lo = Goop(p as u64 * GOOP_PAGE_SPAN);
                    let hi = Goop(lo.0 + GOOP_PAGE_SPAN);
                    let mut page: GoopPage =
                        committed.range(lo..hi).map(|(g, l)| (g.0, *l)).collect();
                    page.extend(new_locs.range(lo..hi).map(|(g, l)| (g.0, *l)));
                    catalog.goop_pages.insert(p, extent.push(&format::put_goop_page(&page)));
                }
                catalog.prev = None;
                catalog.log.clear();
                record = format::put_catalog(&catalog);
            }
            page_out
        };
        let record_len = record.len();
        let catalog_at = extent.push(&record);
        let group = extent.into_writes();
        let next_track = w.next_track + group.len() as u32;

        // 4. Commit Manager: safe-write the whole group, then flip the root.
        let new_root = Root {
            epoch: last.epoch + 1,
            commit_time: time,
            next_goop: w.next_goop,
            next_track,
            catalog: catalog_at,
        };
        let span = self
            .tracer
            .as_ref()
            .map(|t| t.begin(SpanKind::TrackIo, session, parent, "safe-write-group"));
        let (wrote, backend, phases) = {
            let mut disk = self.disk.lock();
            // Phase timing: wall time for the whole group, and the slice
            // of it spent inside durability barriers — diffed off the
            // primary replica's live fsync-latency histogram while the
            // disk lock serializes all other sync sources.
            let fsync_before = disk.counters().fsync_us.snapshot().sum;
            let started = std::time::Instant::now();
            let r = commit::safe_write_group(&mut disk, &group, &new_root);
            let safe_write_us = started.elapsed().as_micros() as u64;
            let fsync_us = disk.counters().fsync_us.snapshot().sum.saturating_sub(fsync_before);
            if r.is_ok() {
                disk.note_safe_write_group(group.len() as u64 + 1);
            }
            (r, disk.backend_name(), CommitPhases { safe_write_us, fsync_us })
        };
        if let (Some(t), Some(sp)) = (&self.tracer, span) {
            t.end(sp);
        }
        wrote?; // failure: nothing shared was mutated — rollback is free
        let group_len = group.len() as u64;
        // Write-through: the tracks just committed are the hottest candidates
        // for the next read — populate the cache from the group payloads
        // (counted apart from read-through fills).
        for (track, payload_bytes) in group {
            self.cache.put_from(track, payload_bytes, FillSource::CommitWrite);
        }

        // 5. Success: publish. New images become the committed ones, the
        //    GOOP table, location log and root advance, staged metadata is
        //    consumed. Readers that already hold old `Arc`s keep them —
        //    that is the snapshot they asked for.
        let mut fresh_residents: Vec<Goop> = Vec::new();
        for (g, obj) in images {
            if self.shard(g).write().insert(g, Arc::new(obj)).is_none() {
                fresh_residents.push(g);
            }
        }
        {
            let mut locations = self.locations.write();
            for (g, l) in new_locs {
                if locations.insert(g, l).is_none() {
                    *w.page_len.entry(page_of(g)).or_insert(0) += 1;
                }
            }
        }
        if paged_out {
            w.chain = Chain::default();
        } else {
            w.chain.bytes += record_len;
            w.chain.pages.extend(touched_pages);
        }
        w.catalog = catalog;
        w.next_track = next_track;
        w.staged_metas.clear();
        *self.root.write() = new_root;
        self.stats.commits.inc();
        self.stats.objects_written.add(touched.len() as u64);
        if let Some(j) = self.journal_on() {
            j.emit(&JournalEvent::SafeWriteGroup {
                tracks: group_len + 1,
                objects: touched.len() as u64,
                fsyncs: commit::FSYNCS_PER_GROUP,
                backend: backend.into(),
            });
        }
        {
            let mut ev = self.evict.lock();
            for g in fresh_residents {
                ev.order.push_back(g);
            }
            self.enforce_cache_limit_locked(&mut ev, None);
        }
        Ok(phases)
    }

    /// The database-administrator archive operation (§6: "A database
    /// administrator can explicitly move objects to other media … some
    /// objects in it may become temporarily or permanently inaccessible").
    /// Prunes committed associations strictly older than the state in force
    /// at `keep_from` across every object, returns the number of archived
    /// associations, and checkpoints the pruned image as one commit group at
    /// `time`. States at or after `keep_from` remain fully queryable.
    ///
    /// Runs under the writer lock for its whole span, so it cannot
    /// interleave with a commit; concurrent readers keep their old `Arc`s.
    pub fn archive_history_before(&self, keep_from: TxnTime, time: TxnTime) -> GemResult<usize> {
        let mut w = self.writer.lock();
        let goops = self.all_goops();
        let mut archived = 0usize;
        let mut touched = Vec::new();
        let mut images: HashMap<Goop, PersistentObject> = HashMap::new();
        for g in goops {
            let mut obj = (*self.get(g)?).clone();
            let mut pruned = 0;
            for history in obj.elements.values_mut() {
                pruned += history.prune_before(keep_from).len();
            }
            if let Some(bh) = &mut obj.bytes {
                pruned += bh.prune_before(keep_from).len();
            }
            if pruned > 0 {
                archived += pruned;
                touched.push(g);
                images.insert(g, obj);
            }
        }
        if archived == 0 {
            return Ok(0);
        }
        // Checkpoint: the pruned images land on fresh tracks under a new
        // root through the same pipeline a commit uses.
        self.write_images(&mut w, time, touched, images, 0, 0)?;
        Ok(archived)
    }

    /// Last committed root (epoch, time).
    pub fn root(&self) -> Root {
        *self.root.read()
    }

    /// What the reopening that produced this store saw and decided
    /// (all-default for a freshly created volume).
    pub fn recovery_report(&self) -> RecoveryReport {
        self.recovery_report
    }

    /// Store counters.
    pub fn stats(&self) -> StoreStats {
        self.stats.snapshot()
    }

    /// Live store counter cells (for registry binding).
    pub fn counters(&self) -> StoreCounters {
        self.stats.share()
    }

    /// Live track-cache counter cells (for registry binding).
    pub fn cache_counters(&self) -> CacheCounters {
        self.cache.counters()
    }

    /// Live per-shard track-cache (hit, miss) cells, shard 0 first (for
    /// registry binding).
    pub fn cache_shard_counters(&self) -> Vec<(Counter, Counter)> {
        self.cache.shard_counters()
    }

    /// Live primary-disk counter cells (for registry binding).
    pub fn disk_counters(&self) -> DiskCounters {
        self.disk.lock().counters().share()
    }

    /// The live safe-write-group size histogram (shared cells, for
    /// registry binding).
    pub fn group_size_histogram(&self) -> Histogram {
        self.disk.lock().group_size_histogram()
    }

    /// Attach a span recorder for track-I/O spans.
    pub fn attach_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    /// Attach the flight recorder to the whole storage stack: the store's
    /// own event sites plus the track cache and the *primary* disk replica
    /// (the only replica whose counters are registry-bound, so journal
    /// replay stays 1:1 with the live metrics).
    pub fn attach_journal(&mut self, journal: Journal) {
        self.cache.attach_journal(journal.clone());
        self.disk.get_mut().attach_journal(journal.clone());
        self.journal = Some(journal);
    }

    #[inline]
    fn journal_on(&self) -> Option<&Journal> {
        match &self.journal {
            Some(j) if j.enabled() => Some(j),
            _ => None,
        }
    }

    /// Track-cache capacity in tracks (journal `cache_configured` events).
    pub fn cache_capacity(&self) -> usize {
        self.cache.capacity()
    }

    /// Disk counters.
    pub fn disk_stats(&self) -> DiskStats {
        self.disk.lock().stats()
    }

    /// Track-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Reset all counters (benchmark hygiene).
    pub fn reset_stats(&self) {
        self.stats.reset();
        self.disk.lock().reset_stats();
        self.cache.reset_stats();
    }

    /// Iterate every committed identity (directory rebuild at recovery).
    pub fn all_goops(&self) -> Vec<Goop> {
        self.locations.read().keys().copied().collect()
    }

    /// Record a newly installed resident and enforce the bound, keeping
    /// the just-installed object itself off the victim list.
    fn note_resident(&self, goop: Goop) {
        let mut ev = self.evict.lock();
        ev.order.push_back(goop);
        self.enforce_cache_limit_locked(&mut ev, Some(goop));
    }

    /// FIFO-evict down to the bound. `keep` (the object that triggered the
    /// enforcement) is re-queued rather than evicted, tolerating a
    /// momentary overshoot of one. Lock order: the evict mutex is held and
    /// object-shard write locks are taken inside it — the one sanctioned
    /// nesting (see module docs).
    fn enforce_cache_limit_locked(&self, ev: &mut EvictState, keep: Option<Goop>) {
        let Some(limit) = ev.limit else { return };
        let mut kept_back = None;
        while ev.order.len() > limit {
            let Some(candidate) = ev.order.pop_front() else { break };
            if Some(candidate) == keep {
                kept_back = Some(candidate);
                if ev.order.len() <= limit {
                    break;
                }
                continue;
            }
            self.shard(candidate).write().remove(&candidate);
        }
        if let Some(k) = kept_back {
            ev.order.push_back(k);
        }
    }

    /// Read a blob at `loc` through the track cache, locking the disk only
    /// on a miss.
    fn read_blob(&self, loc: &Location) -> GemResult<Vec<u8>> {
        let payload = self.track_size - TRACK_HEADER;
        let mut out = Vec::with_capacity(loc.len as usize);
        for (track, skip, take) in boxer::covering_tracks(loc, payload) {
            let hit = self
                .cache
                .with_track(track, |data| out.extend_from_slice(&data[skip..skip + take]));
            if hit.is_some() {
                continue;
            }
            let data = commit::read_checked(&mut self.disk.lock(), track)?;
            out.extend_from_slice(&data[skip..skip + take]);
            self.cache.put_from(track, data, FillSource::ReadThrough);
        }
        Ok(out)
    }
}

/// Read a blob at `loc` through the track cache from an exclusively owned
/// disk (the recovery pass, before the store is assembled).
fn read_blob_with(
    disk: &mut DiskArray,
    cache: &ShardedTrackCache,
    loc: &Location,
    track_payload: usize,
) -> GemResult<Vec<u8>> {
    let mut out = Vec::with_capacity(loc.len as usize);
    for (track, skip, take) in boxer::covering_tracks(loc, track_payload) {
        let hit = cache.with_track(track, |data| out.extend_from_slice(&data[skip..skip + take]));
        if hit.is_some() {
            continue;
        }
        let data = commit::read_checked(disk, track)?;
        out.extend_from_slice(&data[skip..skip + take]);
        cache.put_from(track, data, FillSource::ReadThrough);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::TrackId;
    use gemstone_object::{ClassId, ElemName, PRef, SegmentId};

    fn t(n: u64) -> TxnTime {
        TxnTime::from_ticks(n)
    }

    fn delta(goop: Goop, writes: Vec<(ElemName, PRef)>, is_new: bool) -> ObjectDelta {
        ObjectDelta {
            goop,
            class: ClassId(3),
            segment: SegmentId(0),
            alias_next: 0,
            elem_writes: writes,
            bytes_write: None,
            is_new,
        }
    }

    fn small_cfg() -> StoreConfig {
        StoreConfig { track_size: 256, cache_tracks: 16, replicas: 1 }
    }

    #[test]
    fn create_commit_get() {
        let store = PermanentStore::create(small_cfg()).unwrap();
        let g = store.alloc_goop();
        store
            .commit_batch(t(1), &[delta(g, vec![(ElemName::Int(1), PRef::int(42))], true)])
            .unwrap();
        let obj = store.get(g).unwrap();
        assert_eq!(obj.elem_current(ElemName::Int(1)), Some(PRef::int(42)));
        assert_eq!(store.object_count(), 1);
    }

    #[test]
    fn reopen_recovers_everything() {
        let store = PermanentStore::create(small_cfg()).unwrap();
        let g1 = store.alloc_goop();
        let g2 = store.alloc_goop();
        store
            .commit_batch(
                t(1),
                &[
                    delta(g1, vec![(ElemName::Int(1), PRef::int(10))], true),
                    delta(g2, vec![(ElemName::Int(1), PRef::goop(g1))], true),
                ],
            )
            .unwrap();
        store
            .commit_batch(t(2), &[delta(g1, vec![(ElemName::Int(1), PRef::int(20))], false)])
            .unwrap();
        store.set_meta(7, b"symbols!".to_vec());
        store.commit_batch(t(3), &[]).unwrap();

        let disk = store.into_disk();
        let store2 = PermanentStore::open(disk, 16).unwrap();
        assert_eq!(store2.object_count(), 2);
        let o1 = store2.get(g1).unwrap();
        assert_eq!(o1.elem_current(ElemName::Int(1)), Some(PRef::int(20)));
        assert_eq!(o1.elem_at(ElemName::Int(1), t(1)), Some(PRef::int(10)), "history survives");
        assert_eq!(store2.get(g2).unwrap().elem_current(ElemName::Int(1)), Some(PRef::goop(g1)));
        assert_eq!(store2.get_meta(7).unwrap().unwrap(), b"symbols!");
        assert_eq!(store2.root().commit_time, t(3));
        // Goop allocation resumes without collision.
        let g3 = store2.alloc_goop();
        assert!(g3 > g2);
    }

    #[test]
    fn crash_mid_commit_preserves_previous_state() {
        let mut store = PermanentStore::create(small_cfg()).unwrap();
        let g = store.alloc_goop();
        store
            .commit_batch(t(1), &[delta(g, vec![(ElemName::Int(1), PRef::int(1))], true)])
            .unwrap();
        // Crash after the second commit's data track, before its root.
        store.disk_mut().replica_mut(0).fail_after_writes(1);
        let err =
            store.commit_batch(t(2), &[delta(g, vec![(ElemName::Int(1), PRef::int(2))], false)]);
        assert!(err.is_err());
        let mut disk = store.into_disk();
        disk.replica_mut(0).revive();
        let store2 = PermanentStore::open(disk, 16).unwrap();
        assert_eq!(
            store2.get(g).unwrap().elem_current(ElemName::Int(1)),
            Some(PRef::int(1)),
            "aborted commit invisible"
        );
        assert_eq!(store2.root().commit_time, t(1));
    }

    #[test]
    fn failed_commit_rolls_back_memory_state() {
        let mut store = PermanentStore::create(small_cfg()).unwrap();
        let g = store.alloc_goop();
        store
            .commit_batch(t(1), &[delta(g, vec![(ElemName::Int(1), PRef::int(1))], true)])
            .unwrap();
        store.disk_mut().replica_mut(0).fail_after_writes(0);
        assert!(store
            .commit_batch(t(2), &[delta(g, vec![(ElemName::Int(1), PRef::int(2))], false)])
            .is_err());
        store.disk_mut().replica_mut(0).revive();
        assert_eq!(
            store.get(g).unwrap().elem_current(ElemName::Int(1)),
            Some(PRef::int(1)),
            "in-memory object rolled back"
        );
        // And the store remains usable:
        store
            .commit_batch(t(3), &[delta(g, vec![(ElemName::Int(1), PRef::int(3))], false)])
            .unwrap();
        assert_eq!(store.get(g).unwrap().elem_current(ElemName::Int(1)), Some(PRef::int(3)));
    }

    #[test]
    fn staged_meta_survives_failed_commit() {
        // The crash matrix flushed this out: a failed safe write used to
        // consume the staged metadata, so the *next* commit persisted data
        // without the schema that belonged with it.
        let mut store = PermanentStore::create(small_cfg()).unwrap();
        let g = store.alloc_goop();
        store.set_meta(7, b"schema".to_vec());
        store.disk_mut().replica_mut(0).fail_after_writes(0);
        assert!(store
            .commit_batch(t(1), &[delta(g, vec![(ElemName::Int(1), PRef::int(1))], true)])
            .is_err());
        store.disk_mut().replica_mut(0).revive();
        store
            .commit_batch(t(2), &[delta(g, vec![(ElemName::Int(1), PRef::int(1))], true)])
            .unwrap();
        let disk = store.into_disk();
        let store2 = PermanentStore::open(disk, 16).unwrap();
        assert_eq!(
            store2.get_meta(7).unwrap().as_deref(),
            Some(&b"schema"[..]),
            "metadata staged before the crash reaches disk with the retry"
        );
    }

    #[test]
    fn recovery_report_after_reopen() {
        let mut store = PermanentStore::create(small_cfg()).unwrap();
        assert_eq!(store.recovery_report(), RecoveryReport::default(), "create = no recovery");
        let g = store.alloc_goop();
        store
            .commit_batch(t(1), &[delta(g, vec![(ElemName::Int(1), PRef::int(1))], true)])
            .unwrap();
        // Crash the next commit after one data write: orphan shadow tracks.
        store.disk_mut().replica_mut(0).fail_after_writes(1);
        assert!(store
            .commit_batch(t(2), &[delta(g, vec![(ElemName::Int(1), PRef::int(2))], false)])
            .is_err());
        let mut disk = store.into_disk();
        disk.replica_mut(0).revive();
        let store2 = PermanentStore::open(disk, 16).unwrap();
        let r = store2.recovery_report();
        assert_eq!(r.roots_considered, 2);
        assert!(r.roots_valid >= 1);
        assert_eq!(r.recovered_epoch, store2.root().epoch);
        assert!(r.reopen_reads > 0);
        assert!(r.tracks_salvaged > 0);
        assert!(r.log_records >= 1, "at least the newest catalog record");
        assert!(r.tracks_discarded > 0, "the torn commit's shadow track is an orphan");
    }

    #[test]
    fn a_one_object_update_costs_the_same_whatever_the_table_size() {
        // The update's image and its catalog record share one track, then
        // the root — with 10 committed objects and with 10,000. (Rewriting
        // the object's 512-entry GOOP-table page instead would cost 4 tracks
        // at 10 objects and 7 at 10,000.) The median of nine updates skips
        // the occasional page-out.
        let writes_per_update = |objects: usize| {
            let store = PermanentStore::create(StoreConfig {
                track_size: 4096,
                cache_tracks: 64,
                replicas: 1,
            })
            .unwrap();
            let goops: Vec<Goop> = (0..objects).map(|_| store.alloc_goop()).collect();
            let mut time = 0;
            for chunk in goops.chunks(1000) {
                time += 1;
                let deltas: Vec<ObjectDelta> = chunk
                    .iter()
                    .map(|g| delta(*g, vec![(ElemName::Int(1), PRef::int(0))], true))
                    .collect();
                store.commit_batch(t(time), &deltas).unwrap();
            }
            let target = goops[objects / 2];
            let mut writes: Vec<u64> = (0..9)
                .map(|i| {
                    time += 1;
                    let before = store.disk_stats().track_writes;
                    let d = delta(target, vec![(ElemName::Int(1), PRef::int(i))], false);
                    store.commit_batch(t(time), &[d]).unwrap();
                    store.disk_stats().track_writes - before
                })
                .collect();
            writes.sort_unstable();
            writes[writes.len() / 2]
        };
        assert_eq!(writes_per_update(10), 2, "one data track, then the root");
        assert_eq!(writes_per_update(10_000), 2, "the table's size does not show");
    }

    #[test]
    fn reopen_replays_the_log_across_page_outs() {
        let mut store = PermanentStore::create(small_cfg()).unwrap();
        let goops: Vec<Goop> = (0..40).map(|_| store.alloc_goop()).collect();
        let deltas: Vec<ObjectDelta> = goops
            .iter()
            .map(|g| delta(*g, vec![(ElemName::Int(1), PRef::int(-1))], true))
            .collect();
        store.commit_batch(t(1), &deltas).unwrap();
        let mut walked = Vec::new();
        for i in 0..30u64 {
            let g = goops[(i * 7 % 40) as usize];
            let d = delta(g, vec![(ElemName::Int(1), PRef::int(i as i64))], false);
            store.commit_batch(t(2 + i), &[d]).unwrap();
            // A reopening rebuilds exactly the writer's table and log.
            let reopened =
                PermanentStore::open(store.disk_mut().checkpoint().unwrap(), 16).unwrap();
            assert_eq!(*reopened.locations.read(), *store.locations.read(), "after commit {i}");
            let (a, b) = (reopened.writer.lock(), store.writer.lock());
            assert_eq!(a.chain.bytes, b.chain.bytes, "after commit {i}");
            assert_eq!(a.chain.pages, b.chain.pages, "after commit {i}");
            assert_eq!(a.page_len, b.page_len, "after commit {i}");
            assert_eq!(a.catalog, b.catalog, "after commit {i}");
            walked.push(reopened.recovery_report().log_records);
        }
        assert!(walked.iter().any(|&n| n >= 3), "the log grows: {walked:?}");
        assert!(walked.windows(2).any(|w| w[1] < w[0]), "a page-out cuts it back: {walked:?}");
        let reopened = PermanentStore::open(store.into_disk(), 16).unwrap();
        for (i, g) in goops.iter().enumerate() {
            let last = (0..30u64).rev().find(|k| (k * 7 % 40) as usize == i);
            let want = last.map_or(-1, |k| k as i64);
            assert_eq!(
                reopened.get(*g).unwrap().elem_current(ElemName::Int(1)),
                Some(PRef::int(want))
            );
        }
    }

    #[test]
    fn a_chain_that_does_not_run_backwards_is_corrupt() {
        // Hand-build a newest catalog record whose `prev` names its own
        // track, then one naming a later track: reopening must refuse both
        // with a structured error rather than loop or chase garbage.
        for forward in [0u32, 5] {
            let mut store = PermanentStore::create(small_cfg()).unwrap();
            let g = store.alloc_goop();
            store
                .commit_batch(t(1), &[delta(g, vec![(ElemName::Int(1), PRef::int(1))], true)])
                .unwrap();
            let root = store.root();
            let track = TrackId(root.next_track);
            let placeholder = Location { extent_first: track, offset: 0, len: 0 };
            let mut record = Catalog { prev: Some(placeholder), ..Catalog::default() };
            let len = format::put_catalog(&record).len() as u32;
            record.prev =
                Some(Location { extent_first: TrackId(track.0 + forward), offset: 0, len });
            let at = Location { extent_first: track, offset: 0, len };
            let new_root =
                Root { epoch: root.epoch + 1, next_track: track.0 + 1, catalog: at, ..root };
            commit::safe_write_group(
                store.disk_mut(),
                &[(track, format::put_catalog(&record))],
                &new_root,
            )
            .unwrap();
            match PermanentStore::open(store.into_disk(), 16) {
                Err(GemError::Corrupt(msg)) => assert!(msg.contains("predecessor"), "{msg}"),
                Err(e) => panic!("prev +{forward}: wrong error {e:?}"),
                Ok(_) => panic!("prev +{forward}: a chain that does not run backwards opened"),
            }
        }
    }

    #[test]
    fn object_cache_limit_forces_faults() {
        let store = PermanentStore::create(small_cfg()).unwrap();
        let goops: Vec<Goop> = (0..8).map(|_| store.alloc_goop()).collect();
        let deltas: Vec<ObjectDelta> = goops
            .iter()
            .map(|g| delta(*g, vec![(ElemName::Int(1), PRef::int(g.0 as i64))], true))
            .collect();
        store.commit_batch(t(1), &deltas).unwrap();
        store.set_object_cache_limit(Some(2));
        store.reset_stats();
        for g in &goops {
            let o = store.get(*g).unwrap();
            assert_eq!(o.elem_current(ElemName::Int(1)), Some(PRef::int(g.0 as i64)));
        }
        assert!(store.stats().object_faults >= 6, "bounded cache must fault");
        store.set_object_cache_limit(None);
    }

    #[test]
    fn large_object_spans_many_tracks() {
        let store = PermanentStore::create(small_cfg()).unwrap();
        let g = store.alloc_goop();
        let big = vec![0xEEu8; 10_000]; // 40 × 244-byte track payloads
        store
            .commit_batch(
                t(1),
                &[ObjectDelta {
                    goop: g,
                    class: ClassId(11),
                    segment: SegmentId(0),
                    alias_next: 0,
                    elem_writes: vec![],
                    bytes_write: Some(big.clone()),
                    is_new: true,
                }],
            )
            .unwrap();
        let disk = store.into_disk();
        let store2 = PermanentStore::open(disk, 64).unwrap();
        assert_eq!(store2.get(g).unwrap().bytes_current().unwrap(), &big[..]);
    }

    #[test]
    fn old_states_remain_on_disk() {
        // Shadow writing never overwrites: total tracks only grow, and a
        // re-opened store sees all history.
        let mut store = PermanentStore::create(small_cfg()).unwrap();
        let g = store.alloc_goop();
        store
            .commit_batch(t(1), &[delta(g, vec![(ElemName::Int(1), PRef::int(1))], true)])
            .unwrap();
        let used_before = store.disk_mut().replica_mut(0).tracks_in_use();
        store
            .commit_batch(t(2), &[delta(g, vec![(ElemName::Int(1), PRef::int(2))], false)])
            .unwrap();
        let used_after = store.disk_mut().replica_mut(0).tracks_in_use();
        assert!(used_after > used_before, "shadow tracks accumulate");
        let obj = store.get(g).unwrap();
        assert_eq!(obj.elem_at(ElemName::Int(1), t(1)), Some(PRef::int(1)));
    }

    #[test]
    fn many_objects_across_pages() {
        // Exercise multiple GOOP-table pages (span = 512).
        let store =
            PermanentStore::create(StoreConfig { track_size: 4096, cache_tracks: 64, replicas: 1 })
                .unwrap();
        let goops: Vec<Goop> = (0..1200).map(|_| store.alloc_goop()).collect();
        for chunk in goops.chunks(300) {
            let time = store.root().commit_time.ticks() + 1;
            let deltas: Vec<ObjectDelta> = chunk
                .iter()
                .map(|g| delta(*g, vec![(ElemName::Int(0), PRef::int(g.0 as i64 * 3))], true))
                .collect();
            store.commit_batch(t(time), &deltas).unwrap();
        }
        let disk = store.into_disk();
        let store2 = PermanentStore::open(disk, 64).unwrap();
        assert_eq!(store2.object_count(), 1200);
        for g in [goops[0], goops[599], goops[1199]] {
            assert_eq!(
                store2.get(g).unwrap().elem_current(ElemName::Int(0)),
                Some(PRef::int(g.0 as i64 * 3))
            );
        }
    }

    #[test]
    fn replicated_store_survives_primary_loss() {
        let mut store = PermanentStore::create(StoreConfig {
            track_size: 256,
            cache_tracks: 0, // no cache: force disk reads
            replicas: 2,
        })
        .unwrap();
        let g = store.alloc_goop();
        store
            .commit_batch(t(1), &[delta(g, vec![(ElemName::Int(1), PRef::int(7))], true)])
            .unwrap();
        // Kill the primary replica.
        store.disk_mut().replica_mut(0).fail_after_writes(0);
        let _ = store.disk_mut().replica_mut(0).write_track(TrackId(99), b"x");
        assert_eq!(store.disk_mut().live_replicas(), 1);
        // Evict from memory, force re-fault from the mirror.
        store.set_object_cache_limit(Some(0));
        store.set_object_cache_limit(None);
        assert_eq!(store.get(g).unwrap().elem_current(ElemName::Int(1)), Some(PRef::int(7)));
    }

    #[test]
    fn parallel_faulting_returns_consistent_objects() {
        let store =
            PermanentStore::create(StoreConfig { track_size: 4096, cache_tracks: 64, replicas: 1 })
                .unwrap();
        let goops: Vec<Goop> = (0..64).map(|_| store.alloc_goop()).collect();
        let deltas: Vec<ObjectDelta> = goops
            .iter()
            .map(|g| delta(*g, vec![(ElemName::Int(1), PRef::int(g.0 as i64))], true))
            .collect();
        store.commit_batch(t(1), &deltas).unwrap();
        // Drop every resident image so all threads fault from tracks.
        store.set_object_cache_limit(Some(0));
        store.set_object_cache_limit(None);
        store.reset_stats();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for g in &goops {
                        let o = store.get(*g).unwrap();
                        assert_eq!(o.elem_current(ElemName::Int(1)), Some(PRef::int(g.0 as i64)));
                    }
                });
            }
        });
        // Racing faulters may both deserialize, but only one installs and
        // counts: faults never exceed the object count.
        let faults = store.stats().object_faults;
        assert!((1..=64).contains(&faults), "got {faults}");
    }

    #[test]
    fn readers_keep_old_arcs_across_commits() {
        let store = PermanentStore::create(small_cfg()).unwrap();
        let g = store.alloc_goop();
        store
            .commit_batch(t(1), &[delta(g, vec![(ElemName::Int(1), PRef::int(1))], true)])
            .unwrap();
        let before = store.get(g).unwrap();
        store
            .commit_batch(t(2), &[delta(g, vec![(ElemName::Int(1), PRef::int(2))], false)])
            .unwrap();
        // The old Arc still answers with the old state (its histories end
        // at t1)…
        assert_eq!(before.elem_current(ElemName::Int(1)), Some(PRef::int(1)));
        // …while a fresh fetch sees both versions.
        let after = store.get(g).unwrap();
        assert_eq!(after.elem_at(ElemName::Int(1), t(1)), Some(PRef::int(1)));
        assert_eq!(after.elem_current(ElemName::Int(1)), Some(PRef::int(2)));
    }

    #[test]
    fn concurrent_commits_and_reads_stay_coherent() {
        // One writer thread committing monotone values, several readers
        // re-fetching: every observed value must be one the writer actually
        // committed, and the final state must be the last commit.
        let store = Arc::new(
            PermanentStore::create(StoreConfig { track_size: 4096, cache_tracks: 64, replicas: 1 })
                .unwrap(),
        );
        let g = store.alloc_goop();
        store
            .commit_batch(t(1), &[delta(g, vec![(ElemName::Int(1), PRef::int(0))], true)])
            .unwrap();
        const ROUNDS: i64 = 30;
        std::thread::scope(|s| {
            let w = Arc::clone(&store);
            s.spawn(move || {
                for i in 1..=ROUNDS {
                    w.commit_batch(
                        t(1 + i as u64),
                        &[delta(g, vec![(ElemName::Int(1), PRef::int(i))], false)],
                    )
                    .unwrap();
                }
            });
            for _ in 0..3 {
                let r = Arc::clone(&store);
                s.spawn(move || {
                    let mut last = -1i64;
                    for _ in 0..200 {
                        let o = r.get(g).unwrap();
                        let v = o.elem_current(ElemName::Int(1)).unwrap().as_int().unwrap();
                        assert!((0..=ROUNDS).contains(&v));
                        assert!(v >= last, "committed values are monotone: {v} < {last}");
                        last = v;
                    }
                });
            }
        });
        let o = store.get(g).unwrap();
        assert_eq!(o.elem_current(ElemName::Int(1)), Some(PRef::int(ROUNDS)));
    }
}
