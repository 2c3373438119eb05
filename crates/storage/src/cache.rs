//! The Track Manager's cache.
//!
//! §6: "The Track Manager schedules reads and writes of tracks." Reads are
//! served through an LRU cache of track payloads; hit/miss counters feed the
//! clustering experiments (C7).
//!
//! The cache is backend-agnostic: it fronts the store's [`TrackDisk`]
//! whichever medium sits under it (the simulated [`RamDisk`] or the real
//! [`FileDisk`]), caching decoded payloads with the track checksum already
//! stripped. On the file backend the commit path's write-through fills are
//! what keep a freshly reopened volume from re-reading every track it just
//! wrote; recovery instead starts cold via [`TrackCache::clear`] /
//! [`ShardedTrackCache::clear`] so nothing stale survives a root rollback.
//!
//! [`TrackDisk`]: crate::TrackDisk
//! [`RamDisk`]: crate::RamDisk
//! [`FileDisk`]: crate::FileDisk

use crate::disk::TrackId;
use gemstone_telemetry::{Counter, Journal, JournalEvent};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};

/// Cache statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    /// Entries pushed out by capacity pressure (invalidations not counted).
    pub evictions: u64,
    /// Entries filled on the read path (a miss pulled the track from disk).
    pub fills_read: u64,
    /// Entries filled on the commit path (a safe-write group populated the
    /// cache with the tracks it just wrote).
    pub fills_commit: u64,
}

/// Why a track payload is entering the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillSource {
    /// A read miss pulled the track from disk.
    ReadThrough,
    /// A commit wrote the track and populates the cache write-through.
    CommitWrite,
}

/// Live counters behind [`CacheStats`]; shared cells for registry binding.
#[derive(Debug, Default)]
pub struct CacheCounters {
    pub hits: Counter,
    pub misses: Counter,
    pub evictions: Counter,
    pub fills_read: Counter,
    pub fills_commit: Counter,
}

impl CacheCounters {
    fn snapshot(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            fills_read: self.fills_read.get(),
            fills_commit: self.fills_commit.get(),
        }
    }

    fn reset(&self) {
        self.hits.reset();
        self.misses.reset();
        self.evictions.reset();
        self.fills_read.reset();
        self.fills_commit.reset();
    }

    /// Shared handles (non-detaching): every clone updates the same cells.
    /// This is what lets all shards of a [`ShardedTrackCache`] move one
    /// aggregate set of counters while the registry binds those same cells.
    pub fn share(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.clone(),
            misses: self.misses.clone(),
            evictions: self.evictions.clone(),
            fills_read: self.fills_read.clone(),
            fills_commit: self.fills_commit.clone(),
        }
    }
}

/// An LRU cache of track payloads (checksum already stripped).
///
/// Recency is an append-only queue of `(track, stamp)` touch records; each
/// entry stores its latest stamp, and queue records with stale stamps are
/// tombstones skipped during eviction. Every operation — including eviction
/// — is amortized O(1): a touch record is pushed once and popped at most
/// once, where a `min_by_key` sweep would make each insert O(len).
#[derive(Debug)]
pub struct TrackCache {
    capacity: usize,
    entries: HashMap<TrackId, (u64, Vec<u8>)>,
    /// Touch order, oldest first; stale stamps are tombstones.
    recency: VecDeque<(TrackId, u64)>,
    tick: u64,
    stats: CacheCounters,
    journal: Option<Journal>,
    /// Which shard of a [`ShardedTrackCache`] this is (0 standalone);
    /// stamped into `CacheAccess` journal events.
    shard_index: u64,
}

impl TrackCache {
    /// A cache holding up to `capacity` tracks.
    pub fn new(capacity: usize) -> TrackCache {
        TrackCache::with_counters(capacity, CacheCounters::default())
    }

    /// A cache that moves the given (possibly shared) counter cells instead
    /// of private ones — the building block of [`ShardedTrackCache`], whose
    /// shards all report into one aggregate set.
    pub fn with_counters(capacity: usize, counters: CacheCounters) -> TrackCache {
        TrackCache {
            capacity,
            entries: HashMap::new(),
            recency: VecDeque::new(),
            tick: 0,
            stats: counters,
            journal: None,
            shard_index: 0,
        }
    }

    /// Capacity in tracks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Attach the flight recorder; every counter move below also emits a
    /// journal event.
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

    /// Record a touch of `id` now, returning the stamp. The caller must
    /// store the stamp into the entry before the next [`Self::compact`].
    fn touch(&mut self, id: TrackId) -> u64 {
        self.tick += 1;
        self.recency.push_back((id, self.tick));
        self.tick
    }

    /// Keep tombstones from accumulating without bound under hit-heavy
    /// workloads; the sweep cost amortizes over the pushes that grew it.
    fn compact(&mut self) {
        if self.recency.len() > self.entries.len() * 2 + 16 {
            let entries = &self.entries;
            self.recency.retain(|(t, stamp)| entries.get(t).is_some_and(|(s, _)| s == stamp));
        }
    }

    /// Remove the least recently used entry (assumes one exists).
    fn evict_lru(&mut self) {
        while let Some((victim, stamp)) = self.recency.pop_front() {
            match self.entries.get(&victim) {
                // Live head record: this is the true LRU entry.
                Some((s, _)) if *s == stamp => {
                    self.entries.remove(&victim);
                    self.stats.evictions.inc();
                    if let Some(j) = self.journal_on() {
                        j.emit(&JournalEvent::CacheEvict { track: victim.0 as u64 });
                    }
                    return;
                }
                // Tombstone (entry re-touched later, or invalidated).
                _ => {}
            }
        }
    }

    /// Look up a track, refreshing its recency.
    pub fn get(&mut self, id: TrackId) -> Option<&[u8]> {
        if !self.entries.contains_key(&id) {
            self.stats.misses.inc();
            if let Some(j) = self.journal_on() {
                j.emit(&JournalEvent::CacheAccess {
                    track: id.0 as u64,
                    shard: self.shard_index,
                    hit: false,
                });
            }
            return None;
        }
        let stamp = self.touch(id);
        {
            let (last, _) = self.entries.get_mut(&id).expect("checked above");
            *last = stamp;
        }
        self.compact();
        self.stats.hits.inc();
        if let Some(j) = self.journal_on() {
            j.emit(&JournalEvent::CacheAccess {
                track: id.0 as u64,
                shard: self.shard_index,
                hit: true,
            });
        }
        let (_, data) = self.entries.get(&id).expect("checked above");
        Some(data.as_slice())
    }

    /// Insert (or refresh) a track payload on the read path, evicting the
    /// least recently used entry if full.
    pub fn put(&mut self, id: TrackId, data: Vec<u8>) {
        self.put_from(id, data, FillSource::ReadThrough);
    }

    /// Insert (or refresh) a track payload, attributing the fill to
    /// `source` (read-through miss vs. commit-path write-through).
    pub fn put_from(&mut self, id: TrackId, data: Vec<u8>, source: FillSource) {
        if self.capacity == 0 {
            return;
        }
        if !self.entries.contains_key(&id) && self.entries.len() >= self.capacity {
            self.evict_lru();
        }
        let stamp = self.touch(id);
        self.entries.insert(id, (stamp, data));
        self.compact();
        match source {
            FillSource::ReadThrough => self.stats.fills_read.inc(),
            FillSource::CommitWrite => self.stats.fills_commit.inc(),
        }
        if let Some(j) = self.journal_on() {
            j.emit(&JournalEvent::CacheFill {
                track: id.0 as u64,
                commit: matches!(source, FillSource::CommitWrite),
            });
        }
    }

    /// Drop a track (it has been superseded by a shadow copy). Its queue
    /// records become tombstones.
    pub fn invalidate(&mut self, id: TrackId) {
        self.entries.remove(&id);
    }

    /// Drop everything (recovery).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.recency.clear();
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats.snapshot()
    }

    /// The live counter cells (for registry binding).
    pub fn counters(&self) -> CacheCounters {
        self.stats.share()
    }

    /// Reset counters.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Number of cached tracks.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Shards in a [`ShardedTrackCache`]. Adjacent tracks land on different
/// shards (round-robin by track id), so parallel faulting of a clustered
/// object's tracks takes disjoint locks.
pub const CACHE_SHARDS: usize = 8;

/// Per-shard hit/miss tallies (see [`ShardedTrackCache::shard_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    pub hits: u64,
    pub misses: u64,
}

/// A lock-striped track cache: [`CACHE_SHARDS`] independent [`TrackCache`]s,
/// each behind its own mutex, selected round-robin by track id. Concurrent
/// sessions faulting different tracks proceed in parallel; the aggregate
/// counters (one shared set of cells moved by every shard, under that
/// shard's lock) keep the canonical `storage.cache.*` metrics and their
/// journal events exactly as coherent as the single-lock cache had them.
///
/// Eviction is per-shard LRU over `capacity / shards` slots (remainder
/// spread over the low shards), which approximates — but is not identical
/// to — a single global LRU: hit/miss counts under capacity pressure can
/// differ from the unsharded cache by the imbalance of the track→shard
/// distribution. The perf trajectory is generated against this policy.
///
/// A capacity below [`CACHE_SHARDS`] shards down to one slot per shard
/// (never a zero-capacity shard, which would silently refuse fills):
/// tiny caches trade parallelism for actually caching.
#[derive(Debug)]
pub struct ShardedTrackCache {
    shards: Vec<Mutex<TrackCache>>,
    /// Aggregate cells shared by every shard (canonical registry names).
    counters: CacheCounters,
    /// Per-shard hit/miss cells (`storage.cache.shard<i>.*`), always
    /// [`CACHE_SHARDS`] entries; the tail stays zero when sharded down.
    shard_hits: Vec<Counter>,
    shard_misses: Vec<Counter>,
    capacity: usize,
}

impl ShardedTrackCache {
    /// A sharded cache holding up to `capacity` tracks in total.
    pub fn new(capacity: usize) -> ShardedTrackCache {
        let counters = CacheCounters::default();
        let nshards = if capacity == 0 { CACHE_SHARDS } else { CACHE_SHARDS.min(capacity) };
        let shards = (0..nshards)
            .map(|i| {
                let per = capacity / nshards + usize::from(i < capacity % nshards);
                let mut shard = TrackCache::with_counters(per, counters.share());
                shard.shard_index = i as u64;
                Mutex::new(shard)
            })
            .collect();
        ShardedTrackCache {
            shards,
            counters,
            shard_hits: (0..CACHE_SHARDS).map(|_| Counter::new()).collect(),
            shard_misses: (0..CACHE_SHARDS).map(|_| Counter::new()).collect(),
            capacity,
        }
    }

    #[inline]
    fn shard_of(&self, id: TrackId) -> usize {
        id.0 as usize % self.shards.len()
    }

    /// Total capacity in tracks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Attach the flight recorder to every shard (events are emitted under
    /// the owning shard's lock, beside the aggregate counter moves, so the
    /// journal stays 1:1 with the registry under concurrency).
    pub fn attach_journal(&mut self, journal: Journal) {
        for s in &mut self.shards {
            s.get_mut().attach_journal(journal.clone());
        }
    }

    /// Look up a track and hand its payload to `f`. Counts a hit or miss
    /// either way (aggregate + per-shard).
    pub fn with_track<R>(&self, id: TrackId, f: impl FnOnce(&[u8]) -> R) -> Option<R> {
        let i = self.shard_of(id);
        let mut shard = self.shards[i].lock();
        let r = shard.get(id).map(f);
        match r {
            Some(_) => self.shard_hits[i].inc(),
            None => self.shard_misses[i].inc(),
        }
        r
    }

    /// Insert (or refresh) a track payload, attributing the fill.
    pub fn put_from(&self, id: TrackId, data: Vec<u8>, source: FillSource) {
        self.shards[self.shard_of(id)].lock().put_from(id, data, source);
    }

    /// Drop a track (superseded by a shadow copy).
    pub fn invalidate(&self, id: TrackId) {
        self.shards[self.shard_of(id)].lock().invalidate(id);
    }

    /// Drop everything (recovery).
    pub fn clear(&self) {
        for s in &self.shards {
            s.lock().clear();
        }
    }

    /// Aggregate hit/miss counters across all shards.
    pub fn stats(&self) -> CacheStats {
        self.counters.snapshot()
    }

    /// The live aggregate counter cells (for registry binding).
    pub fn counters(&self) -> CacheCounters {
        self.counters.share()
    }

    /// Per-shard (hits, misses) tallies, shard 0 first.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        (0..CACHE_SHARDS)
            .map(|i| ShardStats {
                hits: self.shard_hits[i].get(),
                misses: self.shard_misses[i].get(),
            })
            .collect()
    }

    /// The live per-shard hit/miss cells (for registry binding), shard 0
    /// first.
    pub fn shard_counters(&self) -> Vec<(Counter, Counter)> {
        (0..CACHE_SHARDS)
            .map(|i| (self.shard_hits[i].clone(), self.shard_misses[i].clone()))
            .collect()
    }

    /// Reset aggregate and per-shard counters.
    pub fn reset_stats(&self) {
        self.counters.reset();
        for i in 0..CACHE_SHARDS {
            self.shard_hits[i].reset();
            self.shard_misses[i].reset();
        }
    }

    /// Cached tracks across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True when every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_miss_accounting() {
        let mut c = TrackCache::new(2);
        assert!(c.get(TrackId(1)).is_none());
        c.put(TrackId(1), vec![1]);
        assert_eq!(c.get(TrackId(1)), Some(&[1u8][..]));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 1, 0));
    }

    #[test]
    fn fill_sources_counted_separately() {
        let mut c = TrackCache::new(2);
        c.put(TrackId(1), vec![1]); // read-through
        c.put_from(TrackId(2), vec![2], FillSource::CommitWrite);
        c.put_from(TrackId(2), vec![9], FillSource::CommitWrite); // refresh counts too
        let s = c.stats();
        assert_eq!((s.fills_read, s.fills_commit), (1, 2));
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = TrackCache::new(2);
        c.put(TrackId(1), vec![1]);
        c.put(TrackId(2), vec![2]);
        let _ = c.get(TrackId(1)); // 1 is now most recent
        c.put(TrackId(3), vec![3]); // evicts 2
        assert!(c.get(TrackId(1)).is_some());
        assert!(c.get(TrackId(2)).is_none());
        assert!(c.get(TrackId(3)).is_some());
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn refresh_does_not_grow() {
        let mut c = TrackCache::new(2);
        c.put(TrackId(1), vec![1]);
        c.put(TrackId(1), vec![9]);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(TrackId(1)), Some(&[9u8][..]));
    }

    #[test]
    fn zero_capacity_never_stores() {
        let mut c = TrackCache::new(0);
        c.put(TrackId(1), vec![1]);
        assert!(c.get(TrackId(1)).is_none());
    }

    #[test]
    fn invalidate_removes() {
        let mut c = TrackCache::new(4);
        c.put(TrackId(1), vec![1]);
        c.invalidate(TrackId(1));
        assert!(c.get(TrackId(1)).is_none());
    }

    #[test]
    fn eviction_order_survives_interleaved_gets_and_puts() {
        // Heavy interleaving of refreshes, re-puts, and invalidations: the
        // tombstoned queue must still evict in exact LRU order.
        let mut c = TrackCache::new(3);
        c.put(TrackId(1), vec![1]);
        c.put(TrackId(2), vec![2]);
        c.put(TrackId(3), vec![3]);
        // Touch order now 1, 2, 3. Refresh 1 twice, 2 once (stale records
        // for both pile up in the queue).
        let _ = c.get(TrackId(1));
        let _ = c.get(TrackId(2));
        let _ = c.get(TrackId(1));
        // LRU order: 3, 2, 1. Insert 4 → evicts 3.
        c.put(TrackId(4), vec![4]);
        assert!(c.get(TrackId(3)).is_none(), "3 was LRU");
        assert_eq!(c.len(), 3);
        // Re-put of 2 refreshes it. LRU order: 1, 4, 2. Insert 5 → evicts 1.
        c.put(TrackId(2), vec![22]);
        c.put(TrackId(5), vec![5]);
        assert!(c.get(TrackId(1)).is_none(), "1 was LRU");
        assert_eq!(c.get(TrackId(2)), Some(&[22u8][..]), "re-put payload survives");
        // That get refreshed 2: LRU order is now 4, 5, 2. Invalidate the
        // current LRU (4); its queue records become tombstones eviction must
        // skip over.
        c.invalidate(TrackId(4));
        c.put(TrackId(6), vec![6]); // room after the invalidate — no eviction
        assert_eq!(c.len(), 3);
        c.put(TrackId(7), vec![7]); // evicts 5 (oldest live touch; 4 skipped)
        assert!(c.get(TrackId(5)).is_none(), "5 evicted after invalidated 4 skipped");
        assert!(c.get(TrackId(2)).is_some());
        assert!(c.get(TrackId(6)).is_some());
        assert!(c.get(TrackId(7)).is_some());
    }

    #[test]
    fn long_interleaving_matches_reference_lru() {
        // Pseudo-random get/put stream checked against an O(n²) reference
        // implementation.
        #[derive(Default)]
        struct RefLru {
            order: Vec<(u32, Vec<u8>)>, // oldest first
        }
        impl RefLru {
            fn get(&mut self, id: u32) -> Option<Vec<u8>> {
                let pos = self.order.iter().position(|(t, _)| *t == id)?;
                let e = self.order.remove(pos);
                let v = e.1.clone();
                self.order.push(e);
                Some(v)
            }
            fn put(&mut self, id: u32, data: Vec<u8>, cap: usize) {
                if let Some(pos) = self.order.iter().position(|(t, _)| *t == id) {
                    self.order.remove(pos);
                } else if self.order.len() >= cap {
                    self.order.remove(0);
                }
                self.order.push((id, data));
            }
        }

        let mut c = TrackCache::new(4);
        let mut r = RefLru::default();
        let mut state = 0x2545F491u64;
        for step in 0..2000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let id = ((state >> 33) % 10) as u32;
            match (state >> 13) % 3 {
                0 => {
                    let got = c.get(TrackId(id)).map(|b| b.to_vec());
                    assert_eq!(got, r.get(id), "step {step}: get({id}) diverged");
                }
                1 => {
                    let payload = vec![(step % 251) as u8];
                    c.put(TrackId(id), payload.clone());
                    r.put(id, payload, 4);
                }
                _ => {
                    c.invalidate(TrackId(id));
                    if let Some(pos) = r.order.iter().position(|(t, _)| *t == id) {
                        r.order.remove(pos);
                    }
                }
            }
            assert_eq!(c.len(), r.order.len(), "step {step}: size diverged");
        }
    }

    #[test]
    fn clear_drops_entries_and_recency() {
        // Recovery (a root rollback on reopen) must leave no stale payload
        // *and* no stale recency record that could mis-order later
        // evictions.
        let mut c = TrackCache::new(2);
        c.put(TrackId(1), vec![1]);
        c.put(TrackId(2), vec![2]);
        c.clear();
        assert!(c.is_empty());
        assert!(c.recency.is_empty(), "recovery leaves no tombstones behind");
        // Post-recovery fills evict in fresh LRU order, unaffected by
        // pre-recovery touches.
        c.put(TrackId(3), vec![3]);
        c.put(TrackId(4), vec![4]);
        c.put(TrackId(5), vec![5]); // evicts 3, not anything historical
        assert!(c.get(TrackId(3)).is_none());
        assert!(c.get(TrackId(4)).is_some());
        assert!(c.get(TrackId(5)).is_some());
    }

    #[test]
    fn sharded_cache_routes_by_track_and_aggregates_counters() {
        let c = ShardedTrackCache::new(64);
        for i in 0..16u32 {
            c.put_from(TrackId(i), vec![i as u8], FillSource::ReadThrough);
        }
        assert_eq!(c.len(), 16);
        // Every track readable back through the striped path.
        for i in 0..16u32 {
            assert_eq!(c.with_track(TrackId(i), |b| b.to_vec()), Some(vec![i as u8]));
        }
        assert!(c.with_track(TrackId(99), |b| b.to_vec()).is_none());
        let stats = c.stats();
        assert_eq!(stats.hits, 16);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.fills_read, 16);
        // Per-shard tallies sum to the aggregate.
        let per: Vec<ShardStats> = c.shard_stats();
        assert_eq!(per.iter().map(|s| s.hits).sum::<u64>(), 16);
        assert_eq!(per.iter().map(|s| s.misses).sum::<u64>(), 1);
        // 16 consecutive tracks over 8 shards: two hits each.
        assert!(per.iter().all(|s| s.hits == 2));
    }

    #[test]
    fn sharded_cache_invalidate_clear_and_reset() {
        let c = ShardedTrackCache::new(8);
        c.put_from(TrackId(3), vec![3], FillSource::CommitWrite);
        c.put_from(TrackId(4), vec![4], FillSource::CommitWrite);
        c.invalidate(TrackId(3));
        assert_eq!(c.len(), 1);
        assert!(c.with_track(TrackId(3), |_| ()).is_none());
        c.reset_stats();
        assert_eq!(c.stats(), CacheStats::default());
        assert!(c.shard_stats().iter().all(|s| *s == ShardStats::default()));
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn sharded_cache_zero_capacity_never_retains() {
        let c = ShardedTrackCache::new(0);
        c.put_from(TrackId(1), vec![1], FillSource::ReadThrough);
        assert!(c.is_empty());
        assert!(c.with_track(TrackId(1), |_| ()).is_none());
    }

    #[test]
    fn sharded_cache_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShardedTrackCache>();
    }

    #[test]
    fn sharded_capacity_distributes_remainder() {
        // 10 slots over 8 shards: shards 0-1 get 2, the rest 1 — so 10
        // distinct tracks all landing evenly survive without eviction only
        // up to per-shard capacity. Fill one track per shard, then verify
        // a second round on shards 0 and 1 fits while shard 2 evicts.
        let c = ShardedTrackCache::new(10);
        assert_eq!(c.capacity(), 10);
        for i in 0..8u32 {
            c.put_from(TrackId(i), vec![i as u8], FillSource::ReadThrough);
        }
        c.put_from(TrackId(8), vec![8], FillSource::ReadThrough); // shard 0, slot 2
        c.put_from(TrackId(9), vec![9], FillSource::ReadThrough); // shard 1, slot 2
        assert_eq!(c.len(), 10);
        c.put_from(TrackId(10), vec![10], FillSource::ReadThrough); // shard 2 evicts
        assert_eq!(c.len(), 10);
        assert_eq!(c.stats().evictions, 1);
    }
}
