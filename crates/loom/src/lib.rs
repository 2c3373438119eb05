//! LOOM — a faithful small model of the Large Object-Oriented Memory
//! [Kaehler & Krasner], the §7 comparison point.
//!
//! "LOOM maintains a two-level object space in main memory and on disk.
//! Objects are moved to main memory from disk as needed. LOOM does not meet
//! our needs for four reasons. First, it is intended for a single user
//! system. Second, while it allows many more objects than standard Smalltalk
//! implementations, it retains the same maximum size for objects. Third, it
//! uses the standard Smalltalk representation of objects … Fourth, LOOM
//! hasn't completely dealt with the problems of clustering and indexing in
//! secondary storage."
//!
//! This crate reproduces precisely those four properties:
//!
//! 1. single user — no transactions, no sessions;
//! 2. the 64KB object cap is **enforced** ([`LoomError::ObjectTooLarge`]);
//! 3. objects are contiguous blocks of OOP fields (no histories, no
//!    element names) — the "standard Smalltalk representation";
//! 4. objects are placed on disk individually, with no clustering and no
//!    indexes: every fault costs its own track I/O.
//!
//! Benchmark C7 runs the same object graphs through LOOM and through the
//! GemStone Object Manager and compares fault and track-read counts.

use gemstone_storage::{SimDisk, TrackDisk, TrackId, TRACK_HEADER};
use std::collections::HashMap;
use std::fmt;

/// A LOOM object pointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LoomOop(pub u32);

/// LOOM's per-object size cap: "the same maximum size for objects" as ST80.
pub const MAX_OBJECT_BYTES: usize = 64 * 1024;

/// Errors from the two-level memory.
#[derive(Debug, Clone, PartialEq)]
pub enum LoomError {
    ObjectTooLarge { bytes: usize },
    UnknownObject(LoomOop),
    FieldOutOfRange { index: usize, size: usize },
    Disk(String),
}

impl fmt::Display for LoomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoomError::ObjectTooLarge { bytes } => {
                write!(f, "object of {bytes} bytes exceeds LOOM's 64KB limit")
            }
            LoomError::UnknownObject(o) => write!(f, "unknown object {o:?}"),
            LoomError::FieldOutOfRange { index, size } => {
                write!(f, "field {index} out of range for {size} fields")
            }
            LoomError::Disk(m) => write!(f, "disk error: {m}"),
        }
    }
}

impl std::error::Error for LoomError {}

/// A resident object: contiguous OOP fields (the standard representation).
#[derive(Debug, Clone, PartialEq)]
pub struct LoomObject {
    pub fields: Vec<u32>,
}

impl LoomObject {
    fn byte_size(&self) -> usize {
        4 + self.fields.len() * 4
    }

    fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.byte_size());
        out.extend_from_slice(&(self.fields.len() as u32).to_le_bytes());
        for f in &self.fields {
            out.extend_from_slice(&f.to_le_bytes());
        }
        out
    }

    fn deserialize(data: &[u8]) -> LoomObject {
        let n = u32::from_le_bytes(data[..4].try_into().unwrap()) as usize;
        let mut fields = Vec::with_capacity(n);
        for i in 0..n {
            let off = 4 + i * 4;
            fields.push(u32::from_le_bytes(data[off..off + 4].try_into().unwrap()));
        }
        LoomObject { fields }
    }
}

#[derive(Debug, Clone, Copy)]
struct DiskSlot {
    first_track: u32,
    len: u32,
}

/// Access counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct LoomStats {
    pub faults: u64,
    pub evictions: u64,
    pub hits: u64,
}

/// The two-level object memory.
pub struct LoomMemory {
    disk: SimDisk,
    resident: HashMap<LoomOop, (u64, bool, LoomObject)>, // (last_use, dirty, obj)
    on_disk: HashMap<LoomOop, DiskSlot>,
    capacity: usize,
    next_oop: u32,
    next_track: u32,
    tick: u64,
    stats: LoomStats,
}

impl LoomMemory {
    /// A memory that keeps at most `capacity` objects resident, over a disk
    /// with `track_size`-byte tracks.
    pub fn new(track_size: usize, capacity: usize) -> LoomMemory {
        LoomMemory {
            disk: SimDisk::new(track_size),
            resident: HashMap::new(),
            on_disk: HashMap::new(),
            capacity: capacity.max(1),
            next_oop: 1,
            next_track: 0,
            tick: 0,
            stats: LoomStats::default(),
        }
    }

    /// Create an object with the given fields. Enforces the 64KB cap.
    pub fn create(&mut self, fields: Vec<u32>) -> Result<LoomOop, LoomError> {
        let obj = LoomObject { fields };
        if obj.byte_size() > MAX_OBJECT_BYTES {
            return Err(LoomError::ObjectTooLarge { bytes: obj.byte_size() });
        }
        let oop = LoomOop(self.next_oop);
        self.next_oop += 1;
        self.make_room()?;
        self.tick += 1;
        self.resident.insert(oop, (self.tick, true, obj));
        Ok(oop)
    }

    /// Read a field, faulting the object in if necessary.
    pub fn read_field(&mut self, oop: LoomOop, index: usize) -> Result<u32, LoomError> {
        self.touch(oop)?;
        let (_, _, obj) = &self.resident[&oop];
        obj.fields
            .get(index)
            .copied()
            .ok_or(LoomError::FieldOutOfRange { index, size: obj.fields.len() })
    }

    /// Write a field, faulting the object in if necessary.
    pub fn write_field(&mut self, oop: LoomOop, index: usize, v: u32) -> Result<(), LoomError> {
        self.touch(oop)?;
        let entry = self.resident.get_mut(&oop).unwrap();
        entry.1 = true;
        let size = entry.2.fields.len();
        *entry.2.fields.get_mut(index).ok_or(LoomError::FieldOutOfRange { index, size })? = v;
        Ok(())
    }

    /// Number of fields of an object.
    pub fn field_count(&mut self, oop: LoomOop) -> Result<usize, LoomError> {
        self.touch(oop)?;
        Ok(self.resident[&oop].2.fields.len())
    }

    /// Ensure the object is resident (and refresh recency).
    fn touch(&mut self, oop: LoomOop) -> Result<(), LoomError> {
        self.tick += 1;
        if let Some(entry) = self.resident.get_mut(&oop) {
            entry.0 = self.tick;
            self.stats.hits += 1;
            return Ok(());
        }
        let slot = *self.on_disk.get(&oop).ok_or(LoomError::UnknownObject(oop))?;
        // Fault: read the object's own tracks (no clustering: nothing else
        // comes in with it).
        let payload = self.disk.track_size() - TRACK_HEADER;
        let mut data = Vec::with_capacity(slot.len as usize);
        let n_tracks = (slot.len as usize).div_ceil(payload);
        for i in 0..n_tracks {
            let raw = self
                .disk
                .read_track(TrackId(slot.first_track + i as u32))
                .map_err(|e| LoomError::Disk(e.to_string()))?;
            let take = payload.min(slot.len as usize - data.len());
            data.extend_from_slice(&raw[TRACK_HEADER..TRACK_HEADER + take]);
        }
        let obj = LoomObject::deserialize(&data);
        self.stats.faults += 1;
        self.make_room()?;
        let tick = self.tick;
        self.resident.insert(oop, (tick, false, obj));
        Ok(())
    }

    /// Evict LRU residents until below capacity, writing dirty ones back.
    fn make_room(&mut self) -> Result<(), LoomError> {
        while self.resident.len() >= self.capacity {
            let victim = *self
                .resident
                .iter()
                .min_by_key(|(_, (last, _, _))| *last)
                .map(|(oop, _)| oop)
                .expect("nonempty");
            let (_, dirty, obj) = self.resident.remove(&victim).unwrap();
            if dirty || !self.on_disk.contains_key(&victim) {
                self.write_out(victim, &obj)?;
            }
            self.stats.evictions += 1;
        }
        Ok(())
    }

    fn write_out(&mut self, oop: LoomOop, obj: &LoomObject) -> Result<(), LoomError> {
        let data = obj.serialize();
        let payload = self.disk.track_size() - TRACK_HEADER;
        let first = self.next_track;
        let n_tracks = data.len().div_ceil(payload).max(1);
        for (i, chunk) in data.chunks(payload).enumerate() {
            let mut framed = vec![0u8; TRACK_HEADER];
            framed.extend_from_slice(chunk);
            self.disk
                .write_track(TrackId(first + i as u32), &framed)
                .map_err(|e| LoomError::Disk(e.to_string()))?;
        }
        self.next_track += n_tracks as u32;
        self.on_disk.insert(oop, DiskSlot { first_track: first, len: data.len() as u32 });
        Ok(())
    }

    /// Flush every dirty resident to disk (checkpoint).
    pub fn flush(&mut self) -> Result<(), LoomError> {
        let dirty: Vec<LoomOop> =
            self.resident.iter().filter(|(_, (_, d, _))| *d).map(|(o, _)| *o).collect();
        for oop in dirty {
            let obj = self.resident[&oop].2.clone();
            self.write_out(oop, &obj)?;
            self.resident.get_mut(&oop).unwrap().1 = false;
        }
        Ok(())
    }

    /// Fault/hit/eviction counters.
    pub fn stats(&self) -> LoomStats {
        self.stats
    }

    /// Disk access counters.
    pub fn disk_stats(&self) -> gemstone_storage::DiskStats {
        self.disk.counters().snapshot()
    }

    /// Reset counters between benchmark phases.
    pub fn reset_stats(&mut self) {
        self.stats = LoomStats::default();
        self.disk.counters().reset();
    }

    /// Number of currently resident objects.
    pub fn resident_count(&self) -> usize {
        self.resident.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_read_write() {
        let mut m = LoomMemory::new(512, 8);
        let a = m.create(vec![1, 2, 3]).unwrap();
        assert_eq!(m.read_field(a, 1).unwrap(), 2);
        m.write_field(a, 1, 99).unwrap();
        assert_eq!(m.read_field(a, 1).unwrap(), 99);
        assert_eq!(m.field_count(a).unwrap(), 3);
        assert!(matches!(m.read_field(a, 9), Err(LoomError::FieldOutOfRange { .. })));
    }

    #[test]
    fn the_64k_cap_is_real() {
        let mut m = LoomMemory::new(512, 8);
        let too_big = vec![0u32; (MAX_OBJECT_BYTES / 4) + 1];
        assert!(matches!(m.create(too_big), Err(LoomError::ObjectTooLarge { .. })));
        let just_fits = vec![0u32; (MAX_OBJECT_BYTES - 4) / 4];
        assert!(m.create(just_fits).is_ok());
    }

    #[test]
    fn eviction_and_fault_roundtrip() {
        let mut m = LoomMemory::new(512, 2);
        let oops: Vec<LoomOop> = (0..10).map(|i| m.create(vec![i, i * 2]).unwrap()).collect();
        assert!(m.resident_count() <= 2);
        // Every old object faults back with its data intact.
        for (i, &oop) in oops.iter().enumerate() {
            assert_eq!(m.read_field(oop, 1).unwrap(), i as u32 * 2);
        }
        assert!(m.stats().faults >= 8, "most reads faulted: {:?}", m.stats());
    }

    #[test]
    fn dirty_objects_survive_eviction() {
        let mut m = LoomMemory::new(512, 2);
        let a = m.create(vec![7]).unwrap();
        m.write_field(a, 0, 42).unwrap();
        // Push a out with newcomers.
        for i in 0..5 {
            m.create(vec![i]).unwrap();
        }
        assert_eq!(m.read_field(a, 0).unwrap(), 42);
    }

    #[test]
    fn no_clustering_means_fault_per_object() {
        // N small objects, working set >> capacity: each access is its own
        // track read (the §7 critique this model exists to exhibit).
        let mut m = LoomMemory::new(4096, 4);
        let oops: Vec<LoomOop> = (0..64).map(|i| m.create(vec![i]).unwrap()).collect();
        m.flush().unwrap();
        m.reset_stats();
        for &oop in &oops {
            m.read_field(oop, 0).unwrap();
        }
        let s = m.stats();
        let d = m.disk_stats();
        assert!(s.faults >= 60);
        assert!(d.track_reads >= s.faults, "every fault reads at least one track: {d:?} vs {s:?}");
    }

    #[test]
    fn unknown_object_is_an_error() {
        let mut m = LoomMemory::new(512, 2);
        assert!(matches!(m.read_field(LoomOop(99), 0), Err(LoomError::UnknownObject(_))));
    }

    #[test]
    fn flush_is_idempotent() {
        let mut m = LoomMemory::new(512, 4);
        let a = m.create(vec![1]).unwrap();
        m.flush().unwrap();
        let w1 = m.disk_stats().track_writes;
        m.flush().unwrap();
        assert_eq!(m.disk_stats().track_writes, w1, "clean objects are not rewritten");
        let _ = a;
    }
}
