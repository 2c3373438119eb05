//! The Boxer: "whose job it is to fit objects into tracks after database
//! changes" (§6).
//!
//! Every commit group is packed into one *extent*: the serialized blobs are
//! concatenated and split across a run of consecutive fresh tracks. Objects
//! committed together therefore share tracks — commit-time clustering, the
//! basis of the "physical access paths parallel logical access" claim
//! measured by experiment C7. An object larger than a track simply spans
//! several (the §4.3 requirement that only secondary storage bounds object
//! size).

use crate::disk::TrackId;
use crate::format::Location;

/// One extent under construction. Blobs are appended in order, each placed
/// right after the previous one, so a blob's location is known the
/// moment it is pushed — a later blob (the catalog record) can name the
/// earlier ones.
#[derive(Debug)]
pub struct Extent {
    first_track: u32,
    track_payload: usize,
    stream: Vec<u8>,
}

impl Extent {
    /// An empty extent starting at `first_track`, with `track_payload`
    /// usable bytes per track.
    pub fn new(first_track: u32, track_payload: usize) -> Extent {
        assert!(track_payload > 0);
        Extent { first_track, track_payload, stream: Vec::new() }
    }

    /// Append `blob`, returning where it will live.
    pub fn push(&mut self, blob: &[u8]) -> Location {
        let loc = Location {
            extent_first: TrackId(self.first_track),
            offset: self.stream.len() as u32,
            len: blob.len() as u32,
        };
        self.stream.extend_from_slice(blob);
        loc
    }

    /// The `(track, payload)` writes to hand to the Commit Manager: one per
    /// track the pushed bytes cover, none for an empty extent.
    pub fn into_writes(self) -> Vec<(TrackId, Vec<u8>)> {
        self.stream
            .chunks(self.track_payload)
            .enumerate()
            .map(|(i, chunk)| (TrackId(self.first_track + i as u32), chunk.to_vec()))
            .collect()
    }
}

/// The tracks of an extent that cover a blob at `loc`, with the byte range
/// each contributes: `(track, skip_within_track, take)`.
pub fn covering_tracks(loc: &Location, track_payload: usize) -> Vec<(TrackId, usize, usize)> {
    let mut out = Vec::new();
    let mut remaining = loc.len as usize;
    let mut pos = loc.offset as usize;
    while remaining > 0 {
        let track_index = pos / track_payload;
        let within = pos % track_payload;
        let take = remaining.min(track_payload - within);
        out.push((TrackId(loc.extent_first.0 + track_index as u32), within, take));
        pos += take;
        remaining -= take;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pack(
        blobs: &[Vec<u8>],
        first_track: u32,
        payload: usize,
    ) -> (Vec<Location>, Vec<(TrackId, Vec<u8>)>) {
        let mut extent = Extent::new(first_track, payload);
        let locs = blobs.iter().map(|b| extent.push(b)).collect();
        (locs, extent.into_writes())
    }

    #[test]
    fn small_blobs_share_one_track() {
        let blobs = vec![vec![1u8; 10], vec![2u8; 20], vec![3u8; 5]];
        let (locs, writes) = pack(&blobs, 100, 64);
        assert_eq!(writes.len(), 1, "35 bytes fit one 64-byte track");
        assert_eq!(writes[0].0, TrackId(100));
        assert_eq!(locs[0].offset, 0);
        assert_eq!(locs[1].offset, 10);
        assert_eq!(locs[2].offset, 30);
        assert!(locs.iter().all(|l| l.extent_first == TrackId(100)));
    }

    #[test]
    fn large_blob_spans_tracks() {
        let blobs = vec![vec![7u8; 150]];
        let (locs, writes) = pack(&blobs, 5, 64);
        assert_eq!(writes.len(), 3, "150 bytes need 3×64-byte tracks");
        let cover = covering_tracks(&locs[0], 64);
        assert_eq!(cover, vec![(TrackId(5), 0, 64), (TrackId(6), 0, 64), (TrackId(7), 0, 22)]);
    }

    #[test]
    fn blob_straddling_a_boundary() {
        let blobs = vec![vec![1u8; 50], vec![2u8; 30]];
        let (locs, _) = pack(&blobs, 0, 64);
        let cover = covering_tracks(&locs[1], 64);
        // Second blob starts at offset 50: 14 bytes on track 0, 16 on track 1.
        assert_eq!(cover, vec![(TrackId(0), 50, 14), (TrackId(1), 0, 16)]);
    }

    #[test]
    fn reassembly_matches_original() {
        let blobs: Vec<Vec<u8>> = (0..5).map(|i| vec![i as u8; 37 * (i + 1)]).collect();
        let payload = 64;
        let (locs, writes) = pack(&blobs, 10, payload);
        // Simulate the disk: track -> data.
        let disk: std::collections::HashMap<TrackId, Vec<u8>> = writes.into_iter().collect();
        for (i, loc) in locs.iter().enumerate() {
            let mut got = Vec::new();
            for (track, skip, take) in covering_tracks(loc, payload) {
                got.extend_from_slice(&disk[&track][skip..skip + take]);
            }
            assert_eq!(got, blobs[i], "blob {i}");
        }
    }

    #[test]
    fn empty_extent_writes_nothing() {
        let (locs, writes) = pack(&[], 3, 64);
        assert!(locs.is_empty());
        assert!(writes.is_empty(), "no empty track is ever materialised");
    }

    #[test]
    fn zero_length_blob_has_empty_cover() {
        let blobs = vec![Vec::new(), vec![1u8; 4]];
        let (locs, _) = pack(&blobs, 0, 64);
        assert!(covering_tracks(&locs[0], 64).is_empty());
        assert_eq!(covering_tracks(&locs[1], 64).len(), 1);
    }
}
