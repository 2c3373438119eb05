//! The permanent store: the disk side of the Object Manager.
//!
//! Plays the §6 roles end to end: the **Linker** ("incorporates updates made
//! by a transaction in the permanent database at commit time"), the
//! **Boxer**, the **GOOP table** ("The GOOP is resolved through a global
//! object table"), and drives the **Commit Manager**. Committed objects are
//! faulted in from tracks on demand and cached; the object cache can be
//! bounded to force faulting for the LOOM comparison (C7).
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
//! - the GOOP table (`locations`) is one `RwLock` map, read per fault,
//!   extended only at commit publish;
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

use crate::boxer;
use crate::cache::{CacheCounters, CacheStats, FillSource, ShardedTrackCache};
use crate::commit::{self, RecoveryReport, FIRST_DATA_TRACK};
use crate::disk::{DiskArray, DiskCounters, DiskStats, TrackDisk, TrackId, TRACK_HEADER};
use crate::format::{self, Catalog, GoopPage, Location, Root, GOOP_PAGE_SPAN};
use crate::pobj::{ObjectDelta, PersistentObject};
use gemstone_object::{GemError, GemResult, Goop};
use gemstone_telemetry::{Counter, Histogram, Journal, JournalEvent, SpanKind, Tracer};
use gemstone_temporal::TxnTime;
use parking_lot::{Mutex, RwLock};
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

/// Everything only a committing writer touches, under one mutex: the
/// catalog and metadata staging plus both allocation frontiers.
#[derive(Debug)]
struct WriterState {
    catalog: Catalog,
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
    locations: RwLock<HashMap<Goop, Location>>,
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
        locations: HashMap<Goop, Location>,
        catalog: Catalog,
        root: Root,
        recovery_report: RecoveryReport,
    ) -> PermanentStore {
        PermanentStore {
            track_size: disk.track_size(),
            disk: Mutex::new(disk),
            cache,
            objects: (0..OBJ_SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            locations: RwLock::new(locations),
            writer: Mutex::new(WriterState {
                catalog,
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
        let root = Root {
            epoch: 1,
            commit_time: TxnTime::EPOCH,
            next_goop: 1,
            next_track: FIRST_DATA_TRACK + 1,
            catalog: Location {
                extent_first: TrackId(FIRST_DATA_TRACK),
                extent_len: 1,
                offset: 0,
                len: format::put_catalog(&Catalog::default()).len() as u32,
            },
        };
        let cat_blob = format::put_catalog(&Catalog::default());
        commit::safe_write_group(&mut disk, &[(TrackId(FIRST_DATA_TRACK), cat_blob)], &root)?;
        Ok(PermanentStore::assemble(
            disk,
            ShardedTrackCache::new(cache_tracks),
            HashMap::new(),
            Catalog::default(),
            root,
            RecoveryReport::default(),
        ))
    }

    /// Open an existing volume: recovery. Reads the newest valid root,
    /// loads the catalog and the GOOP table; objects fault in lazily. The
    /// whole pass is read-only, so a crash *during* recovery leaves the
    /// volume untouched and a retry sees the identical state. What was
    /// seen and decided is recorded in [`PermanentStore::recovery_report`].
    pub fn open(mut disk: DiskArray, cache_tracks: usize) -> GemResult<PermanentStore> {
        let reads_before = disk.stats().track_reads;
        let (root, mut report) = commit::recover_root_report(&mut disk)?;
        let root_reads = disk.stats().track_reads - reads_before;
        let cache = ShardedTrackCache::new(cache_tracks);
        let payload = disk.track_size() - TRACK_HEADER;
        let cat_bytes = read_blob_with(&mut disk, &cache, &root.catalog, payload)?;
        let catalog = format::get_catalog(&cat_bytes)?;
        let mut locations = HashMap::new();
        for loc in catalog.goop_pages.values() {
            let page_bytes = read_blob_with(&mut disk, &cache, loc, payload)?;
            for (goop, l) in format::get_goop_page(&page_bytes)? {
                locations.insert(Goop(goop), l);
            }
        }
        report.reopen_reads = disk.stats().track_reads - reads_before;
        report.tracks_salvaged = (report.reopen_reads - root_reads) as u32 + report.roots_valid;
        report.tracks_discarded = disk.tracks_beyond(root.next_track);
        Ok(PermanentStore::assemble(disk, cache, locations, catalog, root, report))
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
            if let std::collections::hash_map::Entry::Vacant(slot) = images.entry(d.goop) {
                let base = if d.is_new {
                    match self.shard(d.goop).read().get(&d.goop) {
                        Some(existing) => (**existing).clone(),
                        None => PersistentObject::new(d.goop, d.class, d.segment),
                    }
                } else {
                    (*self.get(d.goop)?).clone() // fault in before updating
                };
                slot.insert(base);
                touched.push(d.goop);
            }
            images.get_mut(&d.goop).expect("just inserted").apply_delta(d, time);
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
        let payload = self.track_size - TRACK_HEADER;

        // 2. Boxer: serialize touched objects into extent A.
        let blobs: Vec<Vec<u8>> = touched.iter().map(|g| format::put_object(&images[g])).collect();
        let (obj_locs, writes_a) = boxer::pack(&blobs, w.next_track, payload);
        let track_after_a = w.next_track + writes_a.len() as u32;
        let new_locs: HashMap<Goop, Location> =
            touched.iter().copied().zip(obj_locs.iter().copied()).collect();

        // 3. Rewrite dirty GOOP-table pages into extent B (with staged
        //    metadata blobs). The page set is ordered so a replayed commit
        //    produces a byte-identical group — the crash matrix depends on
        //    write index k meaning the same write on every run. Pages merge
        //    the published table with this commit's fresh locations; the
        //    shared table itself is not touched until publish.
        let dirty_pages: BTreeSet<u32> =
            touched.iter().map(|g| (g.0 / GOOP_PAGE_SPAN) as u32).collect();
        let mut page_blobs: Vec<(u32, Vec<u8>)> = Vec::new();
        {
            let committed = self.locations.read();
            for &page_no in &dirty_pages {
                let lo = page_no as u64 * GOOP_PAGE_SPAN;
                let hi = lo + GOOP_PAGE_SPAN;
                let mut page: GoopPage = committed
                    .iter()
                    .filter(|(g, _)| (lo..hi).contains(&g.0))
                    .map(|(g, l)| (g.0, *l))
                    .collect();
                page.extend(
                    new_locs
                        .iter()
                        .filter(|(g, _)| (lo..hi).contains(&g.0))
                        .map(|(g, l)| (g.0, *l)),
                );
                page_blobs.push((page_no, format::put_goop_page(&page)));
            }
        }
        // Metadata is *borrowed*, not drained: a failed safe write must
        // leave it staged for the next attempt.
        let metas: Vec<(u8, &Vec<u8>)> = w.staged_metas.iter().map(|(k, b)| (*k, b)).collect();
        let b_blobs: Vec<Vec<u8>> = page_blobs
            .iter()
            .map(|(_, b)| b.clone())
            .chain(metas.iter().map(|(_, b)| (*b).clone()))
            .collect();
        let (b_locs, writes_b) = boxer::pack(&b_blobs, track_after_a, payload);
        let track_after_b = track_after_a + writes_b.len() as u32;
        let mut new_catalog = w.catalog.clone();
        for ((page_no, _), loc) in page_blobs.iter().zip(&b_locs) {
            new_catalog.goop_pages.insert(*page_no, *loc);
        }
        for ((key, _), loc) in metas.iter().zip(&b_locs[page_blobs.len()..]) {
            new_catalog.metas.insert(*key, *loc);
        }

        // 4. Catalog into extent C.
        let cat_blob = format::put_catalog(&new_catalog);
        let (cat_locs, writes_c) = boxer::pack(&[cat_blob], track_after_b, payload);
        let track_after_c = track_after_b + writes_c.len() as u32;

        // 5. Commit Manager: safe-write the whole group, then flip the root.
        let new_root = Root {
            epoch: self.root.read().epoch + 1,
            commit_time: time,
            next_goop: w.next_goop,
            next_track: track_after_c,
            catalog: cat_locs[0],
        };
        let mut group = writes_a;
        group.extend(writes_b);
        group.extend(writes_c);
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

        // 6. Success: publish. New images become the committed ones, the
        //    GOOP table and root advance, staged metadata is consumed.
        //    Readers that already hold old `Arc`s keep them — that is the
        //    snapshot they asked for.
        let mut fresh_residents: Vec<Goop> = Vec::new();
        for (g, obj) in images {
            if self.shard(g).write().insert(g, Arc::new(obj)).is_none() {
                fresh_residents.push(g);
            }
        }
        self.locations.write().extend(new_locs);
        w.catalog = new_catalog;
        w.next_track = track_after_c;
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
            let names: Vec<_> = obj.elements.keys().copied().collect();
            for n in names {
                pruned += obj.elements.get_mut(&n).unwrap().prune_before(keep_from).len();
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
        self.disk.lock().counters()
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
        let mut v: Vec<Goop> = self.locations.read().keys().copied().collect();
        v.sort();
        v
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
        // Crash after two writes of the second commit's group.
        store.disk_mut().replica_mut(0).fail_after_writes(2);
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
        assert!(r.tracks_discarded > 0, "the torn commit's shadow track is an orphan");
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
