//! The Commit Manager: checksummed tracks and atomic group writes.
//!
//! §6: "The Commit Manager provides safe writing for groups of tracks. Safe
//! writing guarantees that all the tracks in the group get written, or none
//! get written, and that the tracks in the group replace their old versions
//! atomically."
//!
//! The mechanism is shadow writing: every group is written to *fresh*
//! tracks (the allocator is monotonic, so live tracks are never touched),
//! and the group becomes visible only when a new root record — carrying an
//! incremented epoch and a checksum — lands on one of the two alternating
//! root tracks. A crash anywhere before the root write leaves the old root
//! (and therefore the old state) intact; a crash *during* the root write
//! tears the new root, whose checksum then fails, and recovery falls back
//! to the other root. Either way the commit is all-or-nothing.

use crate::disk::{DiskArray, TrackId, TRACK_HEADER};
use crate::format::{self, Root};
use gemstone_object::{GemError, GemResult};

/// The two alternating root tracks.
pub const ROOT_TRACKS: [TrackId; 2] = [TrackId(0), TrackId(1)];

/// First track available to data (after the roots).
pub const FIRST_DATA_TRACK: u32 = 2;

/// FNV-1a 64-bit, the track checksum.
pub fn checksum(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Write `payload` to `id` with a checksum header. The payload must fit in
/// `track_size - TRACK_HEADER` bytes.
pub fn write_checked(disk: &mut DiskArray, id: TrackId, payload: &[u8]) -> GemResult<()> {
    let cap = disk.track_size() - TRACK_HEADER;
    if payload.len() > cap {
        return Err(GemError::DiskFailure(format!(
            "payload {} exceeds track capacity {cap}",
            payload.len()
        )));
    }
    let mut framed = Vec::with_capacity(TRACK_HEADER + payload.len());
    framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    framed.extend_from_slice(&checksum(payload).to_le_bytes());
    framed.extend_from_slice(payload);
    disk.write_track(id, &framed)
}

/// Read a track and verify its checksum, returning the payload with the
/// zero padding stripped (the header records the true payload length).
pub fn read_checked(disk: &mut DiskArray, id: TrackId) -> GemResult<Vec<u8>> {
    let raw = disk.read_track(id)?;
    if raw.len() < TRACK_HEADER {
        return Err(GemError::Corrupt(format!("track {id:?} shorter than header")));
    }
    let len = u32::from_le_bytes(raw[..4].try_into().unwrap()) as usize;
    let stored = u64::from_le_bytes(raw[4..12].try_into().unwrap());
    if TRACK_HEADER + len > raw.len() {
        return Err(GemError::Corrupt(format!("track {id:?} claims impossible length {len}")));
    }
    let payload = &raw[TRACK_HEADER..TRACK_HEADER + len];
    if checksum(payload) != stored {
        return Err(GemError::Corrupt(format!("checksum mismatch on track {id:?}")));
    }
    Ok(payload.to_vec())
}

/// How many durability barriers one committed safe-write group costs: the
/// data barrier plus the ack barrier. Group commit — the count is per
/// *group*, never per track.
pub const FSYNCS_PER_GROUP: u64 = 2;

/// Commit a group: write every data track, then flip the root. Returns the
/// root track used. Data tracks MUST be fresh (shadow) tracks; the caller's
/// allocator guarantees that.
///
/// Durability is batched (group commit): one barrier after the data tracks
/// — the root must never be visible before the data it points at — and one
/// after the root write, so the commit is on the platter before the caller
/// acknowledges it. [`FSYNCS_PER_GROUP`] barriers per group, regardless of
/// group size. Barriers never consume a fault plan's write budget, so a
/// crash schedule's write index means the same thing on every backend.
pub fn safe_write_group(
    disk: &mut DiskArray,
    data: &[(TrackId, Vec<u8>)],
    root: &Root,
) -> GemResult<TrackId> {
    for (id, payload) in data {
        debug_assert!(id.0 >= FIRST_DATA_TRACK, "data must not touch root tracks");
        write_checked(disk, *id, payload)?;
    }
    disk.sync()?;
    let root_track = ROOT_TRACKS[(root.epoch % 2) as usize];
    write_checked(disk, root_track, &format::put_root(root))?;
    disk.sync()?;
    Ok(root_track)
}

/// What recovery saw and decided: which root slots were probed, how many
/// were valid or torn, the epoch that won, and — once
/// [`PermanentStore::open`](crate::PermanentStore::open) finishes — how many
/// tracks were salvaged (read and checksum-verified) versus discarded
/// (orphan shadow tracks of a torn commit), how many catalog records the
/// location log replayed, and how many physical reads the reopening cost.
/// Surfaced through `Db`/`Session` so recovery behaviour is observable
/// and assertable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Root slots probed (always the two alternating root tracks).
    pub roots_considered: u32,
    /// Root slots holding a valid checksummed root record.
    pub roots_valid: u32,
    /// Root slots holding data that failed the checksum or magic (torn).
    pub roots_torn: u32,
    /// The epoch of the root that won.
    pub recovered_epoch: u64,
    /// Tracks read and checksum-verified while loading the catalog chain +
    /// GOOP table.
    pub tracks_salvaged: u32,
    /// Catalog records walked: the newest one back to the last page-out,
    /// both included.
    pub log_records: u32,
    /// Orphan tracks past the recovered root's allocation frontier —
    /// shadow writes of a commit that never became visible.
    pub tracks_discarded: u32,
    /// Physical track reads performed by the reopening.
    pub reopen_reads: u64,
}

/// Recovery: read both root tracks, keep the valid one with the highest
/// epoch. A database must have at least one valid root (written at format
/// time), otherwise the volume is corrupt.
///
/// Error discipline matters here. A root slot that was **never written**
/// (track absent) or that holds a **torn** record (checksum/magic failure)
/// is skipped — that is exactly the crash the alternating-root scheme
/// defends against. But a slot that exists and fails to **read** (transient
/// I/O error, dead disk) aborts recovery with the error: falling back to
/// the other root there would silently resurrect an older epoch and
/// un-commit acknowledged transactions. The caller retries once the device
/// recovers — recovery itself is read-only, hence re-crashable.
pub fn recover_root(disk: &mut DiskArray) -> GemResult<Root> {
    recover_root_report(disk).map(|(root, _)| root)
}

/// [`recover_root`], also returning the partially-filled [`RecoveryReport`]
/// (root-slot accounting; the store fills the track/read counters).
pub fn recover_root_report(disk: &mut DiskArray) -> GemResult<(Root, RecoveryReport)> {
    let mut best: Option<Root> = None;
    let mut report = RecoveryReport::default();
    for id in ROOT_TRACKS {
        report.roots_considered += 1;
        if !disk.track_exists(id) {
            continue; // slot never written (young volume) — not a tear
        }
        match read_checked(disk, id) {
            Ok(payload) => match format::get_root(&payload) {
                Ok(root) => {
                    report.roots_valid += 1;
                    if best.is_none_or(|b| root.epoch > b.epoch) {
                        best = Some(root);
                    }
                }
                Err(_) => report.roots_torn += 1,
            },
            // Checksum/framing failure: the root write tore. Skip the slot.
            Err(GemError::Corrupt(_)) => report.roots_torn += 1,
            // I/O failure: cannot tell which root is newest. Abort, retry.
            Err(e) => return Err(e),
        }
    }
    match best {
        Some(root) => {
            report.recovered_epoch = root.epoch;
            Ok((root, report))
        }
        None => Err(GemError::Corrupt("no valid root record".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::Location;
    use gemstone_temporal::TxnTime;

    fn root(epoch: u64) -> Root {
        Root {
            epoch,
            commit_time: TxnTime::from_ticks(epoch),
            next_goop: 1,
            next_track: FIRST_DATA_TRACK + epoch as u32 * 4,
            catalog: Location { extent_first: TrackId(FIRST_DATA_TRACK), offset: 0, len: 0 },
        }
    }

    #[test]
    fn checked_roundtrip_and_corruption_detection() {
        let mut d = DiskArray::new(256, 1);
        write_checked(&mut d, TrackId(5), b"payload").unwrap();
        assert_eq!(read_checked(&mut d, TrackId(5)).unwrap()[..7], b"payload"[..]);
        // Corrupt a byte by rewriting raw.
        let mut raw = d.replica_mut(0).read_track(TrackId(5)).unwrap().to_vec();
        raw[TRACK_HEADER + 2] ^= 0x01;
        d.replica_mut(0).write_track(TrackId(5), &raw).unwrap();
        assert!(matches!(read_checked(&mut d, TrackId(5)), Err(GemError::Corrupt(_))));
    }

    #[test]
    fn roots_alternate_and_latest_wins() {
        let mut d = DiskArray::new(256, 1);
        let t1 = safe_write_group(&mut d, &[], &root(1)).unwrap();
        let t2 = safe_write_group(&mut d, &[], &root(2)).unwrap();
        assert_ne!(t1, t2, "alternating root slots");
        assert_eq!(recover_root(&mut d).unwrap().epoch, 2);
        safe_write_group(&mut d, &[], &root(3)).unwrap();
        assert_eq!(recover_root(&mut d).unwrap().epoch, 3);
    }

    #[test]
    fn crash_before_root_preserves_old_state() {
        let mut d = DiskArray::new(256, 1);
        safe_write_group(&mut d, &[(TrackId(2), b"v1".to_vec())], &root(1)).unwrap();
        // Crash after 1 data write of the next group — root never lands.
        d.replica_mut(0).fail_after_writes(1);
        let data = vec![(TrackId(3), b"v2a".to_vec()), (TrackId(4), b"v2b".to_vec())];
        assert!(safe_write_group(&mut d, &data, &root(2)).is_err());
        d.replica_mut(0).revive();
        let r = recover_root(&mut d).unwrap();
        assert_eq!(r.epoch, 1, "old root still rules");
    }

    #[test]
    fn crash_during_root_write_falls_back() {
        let mut d = DiskArray::new(256, 1);
        safe_write_group(&mut d, &[], &root(1)).unwrap();
        // Next group: 1 data write succeeds, the root write tears.
        d.replica_mut(0).fail_after_writes(1);
        assert!(safe_write_group(&mut d, &[(TrackId(2), b"x".to_vec())], &root(2)).is_err());
        d.replica_mut(0).revive();
        let r = recover_root(&mut d).unwrap();
        assert_eq!(r.epoch, 1, "torn root fails checksum; epoch 1 survives");
    }

    #[test]
    fn empty_disk_has_no_root() {
        let mut d = DiskArray::new(256, 1);
        assert!(recover_root(&mut d).is_err());
    }

    #[test]
    fn recovery_report_counts_roots() {
        let mut d = DiskArray::new(256, 1);
        safe_write_group(&mut d, &[], &root(1)).unwrap();
        let (r, report) = recover_root_report(&mut d).unwrap();
        assert_eq!(r.epoch, 1);
        assert_eq!(report.roots_considered, 2);
        assert_eq!(report.roots_valid, 1, "slot 0 never written at epoch 1");
        assert_eq!(report.roots_torn, 0);
        assert_eq!(report.recovered_epoch, 1);

        // Tear the next root mid-write: one valid root + one torn root.
        d.replica_mut(0).set_fault_plan(crate::disk::FaultPlan {
            crash_after_writes: Some(0),
            tear: crate::disk::TearClass::Half,
            ..Default::default()
        });
        assert!(safe_write_group(&mut d, &[], &root(2)).is_err());
        d.replica_mut(0).revive();
        let (r, report) = recover_root_report(&mut d).unwrap();
        assert_eq!(r.epoch, 1, "torn epoch-2 root loses");
        assert_eq!((report.roots_valid, report.roots_torn), (1, 1));
    }

    #[test]
    fn transient_read_error_aborts_recovery_instead_of_losing_commits() {
        // Both roots valid (epochs 2 and 3). A transient read error on the
        // newest root's track must NOT silently fall back to epoch 2 — that
        // would un-commit an acknowledged transaction. Recovery aborts with
        // the error and succeeds on retry.
        let mut d = DiskArray::new(256, 1);
        safe_write_group(&mut d, &[], &root(2)).unwrap();
        safe_write_group(&mut d, &[], &root(3)).unwrap();
        d.replica_mut(0).set_fault_plan(crate::disk::FaultPlan {
            read_fault: Some(crate::disk::ReadFault { after_reads: 1, count: 1 }),
            ..Default::default()
        });
        assert!(recover_root(&mut d).is_err(), "I/O error must abort recovery");
        assert_eq!(recover_root(&mut d).unwrap().epoch, 3, "retry sees the newest root");
    }

    #[test]
    fn payload_capacity_respects_header() {
        let mut d = DiskArray::new(64, 1);
        assert!(write_checked(&mut d, TrackId(2), &[0u8; 52]).is_ok());
        assert!(write_checked(&mut d, TrackId(2), &[0u8; 53]).is_err());
    }

    /// The fsync-ordering contract, checked against the physical I/O trace:
    /// the root-page write must never be issued before the barrier covering
    /// its data tracks, and the ack barrier must be the last operation —
    /// which makes a torn write *after* acknowledgement impossible by
    /// construction (there is nothing left to write once the caller hears
    /// "committed").
    fn assert_group_commit_ordering(mut d: DiskArray) {
        use crate::disk::{FaultPlan, IoRecord};
        d.replica_mut(0).set_fault_plan(FaultPlan::trace());
        let data = vec![(TrackId(2), b"a".to_vec()), (TrackId(3), b"b".to_vec())];
        let root_track = safe_write_group(&mut d, &data, &root(1)).unwrap();
        let trace = d.replica_mut(0).take_io_trace();

        let is_root =
            |r: &IoRecord| matches!(r, IoRecord::Write { track, .. } if *track == root_track);
        let first_sync = trace.iter().position(|r| *r == IoRecord::Sync).expect("a data barrier");
        let root_write = trace.iter().position(is_root).expect("a root write");
        assert!(first_sync < root_write, "root write before the data barrier: {trace:?}");
        assert!(
            trace[..first_sync]
                .iter()
                .all(|r| matches!(r, IoRecord::Write { track, .. } if track.0 >= FIRST_DATA_TRACK)),
            "everything before the data barrier is a data-track write: {trace:?}"
        );
        assert_eq!(trace.last(), Some(&IoRecord::Sync), "ack barrier is the final operation");
        let syncs = trace.iter().filter(|r| **r == IoRecord::Sync).count() as u64;
        assert_eq!(syncs, FSYNCS_PER_GROUP, "group commit: 2 barriers for a 3-track group");
    }

    #[test]
    fn group_commit_fsync_ordering_sim() {
        assert_group_commit_ordering(DiskArray::new(256, 1));
    }

    #[test]
    fn group_commit_fsync_ordering_file() {
        let f = crate::file_disk::tests::scratch(256);
        assert_group_commit_ordering(DiskArray::from_backend(Box::new(f)));
    }
}
