//! The on-disk serialization format.
//!
//! Everything the store persists — object images ("elements and
//! associations", §6), the GOOP table pages, the catalog records, and the
//! root record — round-trips through the functions here. The format is
//! little endian and versioned by a magic word in the root. Every decoder
//! treats its input as untrusted: a count is checked against the bytes
//! left before anything is allocated or looped over.

use crate::disk::TrackId;
use crate::pobj::PersistentObject;
use bytes::{Buf, BufMut};
use gemstone_object::{ClassId, ElemName, GemError, GemResult, Goop, PRef, SegmentId, SymbolId};
use gemstone_temporal::{History, TxnTime};
use std::collections::BTreeMap;

/// Root magic: identifies a formatted GemStone volume.
pub const ROOT_MAGIC: u32 = 0x4753_1984; // "GS" 1984

/// Where a serialized blob lives: a byte range within an *extent* — the run
/// of consecutive fresh tracks a commit group was boxed into, counted from
/// the extent's first track.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Location {
    pub extent_first: TrackId,
    pub offset: u32,
    pub len: u32,
}

/// Serialized size of a [`Location`].
const LOCATION_BYTES: usize = 12;

/// Serialized size of one GOOP-table entry, in a page or a catalog log.
const ENTRY_BYTES: usize = 8 + LOCATION_BYTES;

/// The root record, written last in every safe-write group. Two root tracks
/// alternate; the one with the highest valid epoch wins at recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Root {
    pub epoch: u64,
    pub commit_time: TxnTime,
    pub next_goop: u64,
    pub next_track: u32,
    pub catalog: Location,
}

/// A catalog record: the last blob of every commit group, named by the
/// root. The page and metadata maps describe the whole volume; `log` and
/// `prev` make the records a chain — the *location log* — over the paged
/// GOOP table: each record holds the location changes of its own commit
/// and points at the record before it, back to the last page-out, whose
/// record has no `prev` because its changes are in the pages.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Catalog {
    /// The previous catalog record; `None` at a page-out.
    pub prev: Option<Location>,
    /// Every GOOP-table page, as of the last page-out.
    pub goop_pages: BTreeMap<u32, Location>,
    /// Metadata blobs (symbol table, class table, globals — serialized by
    /// the core crate).
    pub metas: BTreeMap<u8, Location>,
    /// This commit's `(goop, image location)` changes in goop order (empty
    /// at a page-out).
    pub log: Vec<(u64, Location)>,
}

/// Number of GOOPs covered by one GOOP-table page.
pub const GOOP_PAGE_SPAN: u64 = 512;

/// A GOOP-table page: goop → object image location.
pub type GoopPage = BTreeMap<u64, Location>;

/// Serialized size of a GOOP-table page holding `entries` entries.
pub fn page_bytes(entries: usize) -> usize {
    4 + entries * ENTRY_BYTES
}

// ---------------------------------------------------------------- helpers

fn need(buf: &[u8], n: usize) -> GemResult<()> {
    if buf.remaining() < n {
        Err(GemError::Corrupt(format!("truncated record: need {n}, have {}", buf.remaining())))
    } else {
        Ok(())
    }
}

/// Read a `u32` count of items at least `each` bytes long, refusing one
/// the remaining bytes cannot hold — a lying count fails here instead of
/// driving a huge allocation or loop.
fn get_count(buf: &mut &[u8], each: usize) -> GemResult<usize> {
    need(buf, 4)?;
    let n = buf.get_u32_le() as usize;
    need(buf, n.saturating_mul(each))?;
    Ok(n)
}

pub fn put_location(buf: &mut Vec<u8>, loc: &Location) {
    buf.put_u32_le(loc.extent_first.0);
    buf.put_u32_le(loc.offset);
    buf.put_u32_le(loc.len);
}

pub fn get_location(buf: &mut &[u8]) -> GemResult<Location> {
    need(buf, LOCATION_BYTES)?;
    Ok(Location {
        extent_first: TrackId(buf.get_u32_le()),
        offset: buf.get_u32_le(),
        len: buf.get_u32_le(),
    })
}

fn put_entries<'a>(
    buf: &mut Vec<u8>,
    entries: impl ExactSizeIterator<Item = (&'a u64, &'a Location)>,
) {
    buf.put_u32_le(entries.len() as u32);
    for (goop, loc) in entries {
        buf.put_u64_le(*goop);
        put_location(buf, loc);
    }
}

fn get_entries(buf: &mut &[u8]) -> GemResult<Vec<(u64, Location)>> {
    let n = get_count(buf, ENTRY_BYTES)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let goop = buf.get_u64_le();
        out.push((goop, get_location(buf)?));
    }
    Ok(out)
}

// ------------------------------------------------------------------ root

pub fn put_root(root: &Root) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    buf.put_u32_le(ROOT_MAGIC);
    buf.put_u64_le(root.epoch);
    buf.put_u64_le(root.commit_time.ticks());
    buf.put_u64_le(root.next_goop);
    buf.put_u32_le(root.next_track);
    put_location(&mut buf, &root.catalog);
    buf
}

pub fn get_root(mut buf: &[u8]) -> GemResult<Root> {
    let b = &mut buf;
    need(b, 4)?;
    if b.get_u32_le() != ROOT_MAGIC {
        return Err(GemError::Corrupt("bad root magic".into()));
    }
    need(b, 28)?;
    Ok(Root {
        epoch: b.get_u64_le(),
        commit_time: TxnTime::from_ticks(b.get_u64_le()),
        next_goop: b.get_u64_le(),
        next_track: b.get_u32_le(),
        catalog: get_location(b)?,
    })
}

// --------------------------------------------------------------- catalog

pub fn put_catalog(cat: &Catalog) -> Vec<u8> {
    let mut buf = Vec::with_capacity(
        32 + (cat.goop_pages.len() + cat.metas.len()) * (4 + LOCATION_BYTES)
            + cat.log.len() * ENTRY_BYTES,
    );
    match &cat.prev {
        None => buf.put_u8(0),
        Some(loc) => {
            buf.put_u8(1);
            put_location(&mut buf, loc);
        }
    }
    buf.put_u32_le(cat.goop_pages.len() as u32);
    for (page, loc) in &cat.goop_pages {
        buf.put_u32_le(*page);
        put_location(&mut buf, loc);
    }
    buf.put_u32_le(cat.metas.len() as u32);
    for (key, loc) in &cat.metas {
        buf.put_u8(*key);
        put_location(&mut buf, loc);
    }
    put_entries(&mut buf, cat.log.iter().map(|(g, l)| (g, l)));
    buf
}

pub fn get_catalog(mut buf: &[u8]) -> GemResult<Catalog> {
    let b = &mut buf;
    let mut cat = Catalog::default();
    need(b, 1)?;
    cat.prev = match b.get_u8() {
        0 => None,
        1 => Some(get_location(b)?),
        t => return Err(GemError::Corrupt(format!("bad catalog prev tag {t}"))),
    };
    for _ in 0..get_count(b, 4 + LOCATION_BYTES)? {
        let page = b.get_u32_le();
        cat.goop_pages.insert(page, get_location(b)?);
    }
    for _ in 0..get_count(b, 1 + LOCATION_BYTES)? {
        let key = b.get_u8();
        cat.metas.insert(key, get_location(b)?);
    }
    cat.log = get_entries(b)?;
    Ok(cat)
}

// -------------------------------------------------------------- goop page

pub fn put_goop_page(page: &GoopPage) -> Vec<u8> {
    let mut buf = Vec::with_capacity(page_bytes(page.len()));
    put_entries(&mut buf, page.iter());
    buf
}

pub fn get_goop_page(mut buf: &[u8]) -> GemResult<GoopPage> {
    Ok(get_entries(&mut buf)?.into_iter().collect())
}

// ----------------------------------------------------------- element name

const NAME_INT: u8 = 0;
const NAME_SYM: u8 = 1;
const NAME_ALIAS: u8 = 2;

pub fn put_elem_name(buf: &mut Vec<u8>, name: ElemName) {
    match name {
        ElemName::Int(i) => {
            buf.put_u8(NAME_INT);
            buf.put_i64_le(i);
        }
        ElemName::Sym(s) => {
            buf.put_u8(NAME_SYM);
            buf.put_u64_le(s.0 as u64);
        }
        ElemName::Alias(a) => {
            buf.put_u8(NAME_ALIAS);
            buf.put_u64_le(a);
        }
    }
}

pub fn get_elem_name(buf: &mut &[u8]) -> GemResult<ElemName> {
    need(buf, 9)?;
    let tag = buf.get_u8();
    let payload = buf.get_u64_le();
    match tag {
        NAME_INT => Ok(ElemName::Int(payload as i64)),
        NAME_SYM => Ok(ElemName::Sym(SymbolId(payload as u32))),
        NAME_ALIAS => Ok(ElemName::Alias(payload)),
        t => Err(GemError::Corrupt(format!("bad element-name tag {t}"))),
    }
}

// ----------------------------------------------------------------- object

const FLAG_HAS_BYTES: u8 = 1;

/// Serialize a persistent object: header, then per element its name and
/// association table, then the byte-body history.
pub fn put_object(obj: &PersistentObject) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 + obj.elements.len() * 32);
    buf.put_u64_le(obj.goop.0);
    buf.put_u32_le(obj.class.0);
    buf.put_u16_le(obj.segment.0);
    buf.put_u8(if obj.bytes.is_some() { FLAG_HAS_BYTES } else { 0 });
    buf.put_u64_le(obj.alias_next);
    buf.put_u32_le(obj.elements.len() as u32);
    for (name, hist) in &obj.elements {
        put_elem_name(&mut buf, *name);
        buf.put_u32_le(hist.committed_len() as u32);
        for e in hist.entries().iter().take(hist.committed_len()) {
            buf.put_u64_le(e.time.ticks());
            buf.put_u64_le(e.value.bits());
        }
    }
    if let Some(bh) = &obj.bytes {
        buf.put_u32_le(bh.committed_len() as u32);
        for e in bh.entries().iter().take(bh.committed_len()) {
            buf.put_u64_le(e.time.ticks());
            buf.put_u32_le(e.value.len() as u32);
            buf.put_slice(&e.value);
        }
    }
    buf
}

/// Deserialize an object image.
pub fn get_object(mut buf: &[u8]) -> GemResult<PersistentObject> {
    let b = &mut buf;
    need(b, 8 + 4 + 2 + 1 + 8)?;
    let goop = Goop(b.get_u64_le());
    let class = ClassId(b.get_u32_le());
    let segment = SegmentId(b.get_u16_le());
    let flags = b.get_u8();
    let alias_next = b.get_u64_le();
    let mut obj = PersistentObject::new(goop, class, segment);
    obj.alias_next = alias_next;
    for _ in 0..get_count(b, 9 + 4)? {
        let name = get_elem_name(b)?;
        let mut hist = History::new();
        for _ in 0..get_count(b, 16)? {
            let time = TxnTime::from_ticks(b.get_u64_le());
            let value = PRef::from_bits(b.get_u64_le());
            hist.write_committed(time, value);
        }
        obj.elements.insert(name, hist);
    }
    if flags & FLAG_HAS_BYTES != 0 {
        let mut hist: History<Box<[u8]>> = History::new();
        for _ in 0..get_count(b, 12)? {
            need(b, 12)?;
            let time = TxnTime::from_ticks(b.get_u64_le());
            let len = b.get_u32_le() as usize;
            need(b, len)?;
            let mut data = vec![0u8; len];
            b.copy_to_slice(&mut data);
            hist.write_committed(time, data.into_boxed_slice());
        }
        obj.bytes = Some(hist);
    }
    Ok(obj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pobj::ObjectDelta;

    fn t(n: u64) -> TxnTime {
        TxnTime::from_ticks(n)
    }

    fn loc(a: u32, c: u32, d: u32) -> Location {
        Location { extent_first: TrackId(a), offset: c, len: d }
    }

    /// A catalog record with every section populated.
    fn full_catalog() -> Catalog {
        let mut cat = Catalog { prev: Some(loc(4, 30, 90)), ..Catalog::default() };
        cat.goop_pages.insert(0, loc(5, 0, 100));
        cat.goop_pages.insert(3, loc(9, 50, 200));
        cat.metas.insert(1, loc(11, 0, 64));
        cat.log = vec![(7, loc(12, 0, 40)), (519, loc(12, 40, 33))];
        cat
    }

    #[test]
    fn root_roundtrip() {
        let root = Root {
            epoch: 42,
            commit_time: t(99),
            next_goop: 1000,
            next_track: 77,
            catalog: loc(3, 100, 500),
        };
        assert_eq!(get_root(&put_root(&root)).unwrap(), root);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = put_root(&Root {
            epoch: 1,
            commit_time: t(1),
            next_goop: 1,
            next_track: 1,
            catalog: loc(0, 0, 0),
        });
        bytes[0] ^= 0xFF;
        assert!(matches!(get_root(&bytes), Err(GemError::Corrupt(_))));
    }

    #[test]
    fn catalog_roundtrip() {
        let cat = full_catalog();
        assert_eq!(get_catalog(&put_catalog(&cat)).unwrap(), cat);
        assert_eq!(get_catalog(&put_catalog(&Catalog::default())).unwrap(), Catalog::default());
    }

    #[test]
    fn truncated_or_lying_catalog_is_corrupt() {
        let bytes = put_catalog(&full_catalog());
        for cut in 0..bytes.len() {
            assert!(
                matches!(get_catalog(&bytes[..cut]), Err(GemError::Corrupt(_))),
                "cut at {cut}"
            );
        }
        // The log count is the record's last section: claim four billion
        // entries where two follow. The decoder must refuse before it
        // allocates for them.
        let at = bytes.len() - 4 - 2 * ENTRY_BYTES;
        let mut lying = bytes.clone();
        lying[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(get_catalog(&lying), Err(GemError::Corrupt(_))));
        let mut bad_tag = bytes;
        bad_tag[0] = 7;
        assert!(matches!(get_catalog(&bad_tag), Err(GemError::Corrupt(_))));
    }

    #[test]
    fn goop_page_roundtrip() {
        let mut page = GoopPage::new();
        page.insert(7, loc(1, 0, 10));
        page.insert(519, loc(2, 10, 20));
        let bytes = put_goop_page(&page);
        assert_eq!(bytes.len(), page_bytes(2));
        assert_eq!(get_goop_page(&bytes).unwrap(), page);
    }

    #[test]
    fn elem_names_roundtrip() {
        for name in [
            ElemName::Int(-5),
            ElemName::Int(i64::MAX),
            ElemName::Sym(SymbolId(12)),
            ElemName::Alias(u64::MAX / 2),
        ] {
            let mut buf = Vec::new();
            put_elem_name(&mut buf, name);
            assert_eq!(get_elem_name(&mut &buf[..]).unwrap(), name);
        }
    }

    #[test]
    fn object_roundtrip_with_histories() {
        let mut obj = PersistentObject::new(Goop(9), ClassId(3), SegmentId(2));
        obj.apply_delta(
            &ObjectDelta {
                goop: Goop(9),
                class: ClassId(3),
                segment: SegmentId(2),
                alias_next: 4,
                elem_writes: vec![
                    (ElemName::Sym(SymbolId(1)), PRef::int(24_650)),
                    (ElemName::Alias(0), PRef::goop(Goop(55))),
                ],
                bytes_write: None,
                is_new: true,
            },
            t(2),
        );
        obj.apply_delta(
            &ObjectDelta {
                goop: Goop(9),
                class: ClassId(3),
                segment: SegmentId(2),
                alias_next: 4,
                elem_writes: vec![(ElemName::Sym(SymbolId(1)), PRef::int(30_000))],
                bytes_write: None,
                is_new: false,
            },
            t(8),
        );
        let back = get_object(&put_object(&obj)).unwrap();
        assert_eq!(back, obj);
        assert_eq!(back.elem_at(ElemName::Sym(SymbolId(1)), t(5)), Some(PRef::int(24_650)));
    }

    #[test]
    fn byte_object_roundtrip() {
        let mut obj = PersistentObject::new(Goop(2), ClassId(11), SegmentId(0));
        let mut hist: History<Box<[u8]>> = History::new();
        hist.write_committed(t(3), b"Seattle".to_vec().into_boxed_slice());
        hist.write_committed(t(8), b"Portland".to_vec().into_boxed_slice());
        obj.bytes = Some(hist);
        let back = get_object(&put_object(&obj)).unwrap();
        assert_eq!(back, obj);
        assert_eq!(back.bytes_at(t(4)), Some(&b"Seattle"[..]));
    }

    #[test]
    fn pending_writes_are_not_persisted() {
        let mut obj = PersistentObject::new(Goop(2), ClassId(1), SegmentId(0));
        let mut hist = History::with_initial(t(1), PRef::int(1));
        hist.write_pending(PRef::int(99));
        obj.elements.insert(ElemName::Int(0), hist);
        let back = get_object(&put_object(&obj)).unwrap();
        assert_eq!(back.elem_current(ElemName::Int(0)), Some(PRef::int(1)));
    }

    #[test]
    fn truncated_object_is_detected() {
        let mut obj = PersistentObject::new(Goop(9), ClassId(3), SegmentId(2));
        obj.elements.insert(ElemName::Int(1), History::with_initial(t(1), PRef::int(5)));
        let bytes = put_object(&obj);
        for cut in [0, 10, bytes.len() - 1] {
            assert!(get_object(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_readers() {
        // Corrupt tracks must surface as GemError::Corrupt, not panics or
        // giant allocations.
        let mut rng_state = 0x12345678u64;
        let mut next = move || {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (rng_state >> 33) as u8
        };
        for len in [0usize, 1, 8, 33, 257] {
            for _ in 0..50 {
                let mut junk: Vec<u8> = (0..len).map(|_| next()).collect();
                let _ = get_object(&junk);
                let _ = get_root(&junk);
                let _ = get_catalog(&junk);
                let _ = get_goop_page(&junk);
                // A valid prev tag steers the catalog decoder past its
                // first byte into the counted sections.
                if let Some(b) = junk.first_mut() {
                    *b &= 1;
                    let _ = get_catalog(&junk);
                }
            }
        }
    }

    #[test]
    fn large_object_roundtrip() {
        // §4.3: objects beyond ST80's 64KB cap.
        let mut obj = PersistentObject::new(Goop(3), ClassId(11), SegmentId(0));
        let big = vec![0x5Au8; 300_000];
        let mut hist: History<Box<[u8]>> = History::new();
        hist.write_committed(t(1), big.clone().into_boxed_slice());
        obj.bytes = Some(hist);
        let img = put_object(&obj);
        assert!(img.len() > 300_000);
        let back = get_object(&img).unwrap();
        assert_eq!(back.bytes_current().unwrap(), &big[..]);
    }
}
