//! Immutable segment files of Bloom-filter-encoded records.
//!
//! A segment is the unit of persistent storage: one shard's worth of
//! `(record id, filter)` entries written once and never modified (updates
//! happen by writing new segments and compacting). The layout is
//!
//! ```text
//! magic   u32   "PSG1"
//! version u16   1
//! shard   u32   owning shard
//! flen    u32   filter length in bits
//! count   u32   number of entries
//! entry × count:
//!   elen  u32   length prefix (= 8 + ⌈flen/8⌉)
//!   id    u64   record id
//!   bits  ⌈flen/8⌉ bytes, little-endian bit order
//! fnv1a   u64   checksum of everything above
//! ```
//!
//! Decoding validates the declared sizes *exactly* before trusting any
//! entry, so every truncation is detected deterministically, and verifies
//! the trailing FNV-1a checksum, so every byte flip is detected — both as
//! typed [`PprlError::Storage`] errors.

use crate::arena::{ArenaBuilder, FilterArena};
use crate::format::{append_checksum, checked_body, io_err, storage_err, Reader};
use crate::vfs::{StdVfs, Vfs};
use pprl_core::bitvec::BitVec;
use pprl_core::error::{PprlError, Result};
use std::path::Path;

/// Segment file magic ("PSG1").
const SEGMENT_MAGIC: u32 = 0x3147_5350;
/// Current segment format version.
const SEGMENT_VERSION: u16 = 1;
/// Header bytes before the entries.
const HEADER_LEN: usize = 18;

/// One stored record: id plus encoded filter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentRecord {
    /// Caller-assigned record id (unique across the index by convention).
    pub id: u64,
    /// The Bloom-filter encoding.
    pub filter: BitVec,
}

/// Decoded segment: shard ownership, filter geometry, entries.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Owning shard.
    pub shard: u32,
    /// Filter length in bits.
    pub filter_len: usize,
    /// Stored records.
    pub records: Vec<SegmentRecord>,
}

/// Number of records a well-formed segment file of `bytes` length holds
/// for `filter_len`-bit filters, derived purely from the file size (the
/// layout is fixed: header, `count` equal-length entries, checksum).
pub fn record_count_for_size(bytes: u64, filter_len: usize) -> usize {
    let entry = (4 + 8 + filter_len.div_ceil(8)) as u64;
    (bytes.saturating_sub((HEADER_LEN + 8) as u64) / entry) as usize
}

/// Serialises a segment to its file image.
pub fn encode_segment(
    shard: u32,
    filter_len: usize,
    records: &[(u64, &BitVec)],
) -> Result<Vec<u8>> {
    let filter_bytes = filter_len.div_ceil(8);
    let count = u32::try_from(records.len())
        .map_err(|_| PprlError::invalid("records", "segment exceeds u32 entries"))?;
    let flen = u32::try_from(filter_len)
        .map_err(|_| PprlError::invalid("filter_len", "exceeds u32 bits"))?;
    let entry_len = 8 + filter_bytes;
    let mut out = Vec::with_capacity(HEADER_LEN + records.len() * (4 + entry_len) + 8);
    out.extend_from_slice(&SEGMENT_MAGIC.to_le_bytes());
    out.extend_from_slice(&SEGMENT_VERSION.to_le_bytes());
    out.extend_from_slice(&shard.to_le_bytes());
    out.extend_from_slice(&flen.to_le_bytes());
    out.extend_from_slice(&count.to_le_bytes());
    for (id, filter) in records {
        if filter.len() != filter_len {
            return Err(PprlError::shape(
                format!("{filter_len} bits"),
                format!("{} bits", filter.len()),
            ));
        }
        out.extend_from_slice(&(entry_len as u32).to_le_bytes());
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(&filter.to_bytes());
    }
    append_checksum(&mut out);
    Ok(out)
}

/// Parses and verifies a segment file image. Any byte flip, truncation,
/// or structural malformation yields a typed [`PprlError::Storage`].
pub fn decode_segment(bytes: &[u8]) -> Result<Segment> {
    if bytes.len() < HEADER_LEN + 8 {
        return Err(storage_err(format!(
            "segment too short: {} bytes",
            bytes.len()
        )));
    }
    // Structural validation first: header sizes determine the exact file
    // length, so truncation (and flips inside the size fields) are caught
    // deterministically before the checksum is even consulted.
    let mut header = Reader::new(&bytes[..HEADER_LEN], "segment header");
    let magic = header.u32()?;
    if magic != SEGMENT_MAGIC {
        return Err(storage_err(format!(
            "not a segment file (magic {magic:#x})"
        )));
    }
    let version = header.u16()?;
    if version != SEGMENT_VERSION {
        return Err(storage_err(format!(
            "unsupported segment version {version}"
        )));
    }
    let shard = header.u32()?;
    let filter_len = header.u32()? as usize;
    let count = header.u32()? as usize;
    let filter_bytes = filter_len.div_ceil(8);
    let entry_len = 8 + filter_bytes;
    let expected = HEADER_LEN
        .checked_add(
            count
                .checked_mul(4 + entry_len)
                .ok_or_else(|| storage_err(format!("segment entry count {count} overflows")))?,
        )
        .and_then(|n| n.checked_add(8))
        .ok_or_else(|| storage_err(format!("segment entry count {count} overflows")))?;
    if bytes.len() != expected {
        return Err(storage_err(format!(
            "segment size mismatch: header declares {count} entries of {entry_len} bytes \
             ({expected} bytes total), file has {}",
            bytes.len()
        )));
    }
    let body = checked_body(bytes, "segment")?;
    let mut r = Reader::new(&body[HEADER_LEN..], "segment entries");
    let mut records = Vec::with_capacity(count);
    for i in 0..count {
        let declared = r.u32()? as usize;
        if declared != entry_len {
            return Err(storage_err(format!(
                "segment entry {i} length prefix {declared}, expected {entry_len}"
            )));
        }
        let id = r.u64()?;
        let filter = BitVec::from_bytes(r.take(filter_bytes)?, filter_len)
            .map_err(|e| storage_err(format!("segment entry {i}: {e}")))?;
        records.push(SegmentRecord { id, filter });
    }
    r.finish()?;
    Ok(Segment {
        shard,
        filter_len,
        records,
    })
}

/// Serialises a segment file image straight from an arena's rows, in
/// arena row order, without materialising a `BitVec` per record. The
/// output is byte-identical to [`encode_segment`] over the same rows in
/// the same order: a filter's wire bytes are the little-endian bytes of
/// its backing words truncated to `⌈flen/8⌉` (the `BitVec::to_bytes`
/// contract), which is read here off each row's words, gathered from
/// the arena's tile.
pub fn encode_segment_from_arena(shard: u32, arena: &FilterArena) -> Result<Vec<u8>> {
    let filter_len = arena.filter_len();
    let filter_bytes = filter_len.div_ceil(8);
    let count = u32::try_from(arena.len())
        .map_err(|_| PprlError::invalid("records", "segment exceeds u32 entries"))?;
    let flen = u32::try_from(filter_len)
        .map_err(|_| PprlError::invalid("filter_len", "exceeds u32 bits"))?;
    let entry_len = 8 + filter_bytes;
    let mut out = Vec::with_capacity(HEADER_LEN + arena.len() * (4 + entry_len) + 8);
    out.extend_from_slice(&SEGMENT_MAGIC.to_le_bytes());
    out.extend_from_slice(&SEGMENT_VERSION.to_le_bytes());
    out.extend_from_slice(&shard.to_le_bytes());
    out.extend_from_slice(&flen.to_le_bytes());
    out.extend_from_slice(&count.to_le_bytes());
    let mut row = vec![0u64; arena.stride()];
    for i in 0..arena.len() {
        out.extend_from_slice(&(entry_len as u32).to_le_bytes());
        out.extend_from_slice(&arena.id(i).to_le_bytes());
        arena.row_into(i, &mut row);
        for (b, word) in (0..filter_bytes).step_by(8).zip(&row) {
            out.extend_from_slice(&word.to_le_bytes()[..(filter_bytes - b).min(8)]);
        }
    }
    append_checksum(&mut out);
    Ok(out)
}

/// Parses and verifies a segment file image directly into a columnar
/// [`FilterArena`] — one builder push per entry instead of one `BitVec`
/// heap allocation per record. Validation is identical to
/// [`decode_segment`]: exact structural sizes, the trailing FNV-1a
/// checksum, per-entry length prefixes, and rejection of set bits beyond
/// the declared filter length. Returns the owning shard alongside the
/// arena (rows sorted by `(popcount, id)`; a segment already written in
/// that order — the arena-native flush/compaction output — skips the
/// sort entirely).
pub fn decode_segment_arena(bytes: &[u8]) -> Result<(u32, FilterArena)> {
    if bytes.len() < HEADER_LEN + 8 {
        return Err(storage_err(format!(
            "segment too short: {} bytes",
            bytes.len()
        )));
    }
    let mut header = Reader::new(&bytes[..HEADER_LEN], "segment header");
    let magic = header.u32()?;
    if magic != SEGMENT_MAGIC {
        return Err(storage_err(format!(
            "not a segment file (magic {magic:#x})"
        )));
    }
    let version = header.u16()?;
    if version != SEGMENT_VERSION {
        return Err(storage_err(format!(
            "unsupported segment version {version}"
        )));
    }
    let shard = header.u32()?;
    let filter_len = header.u32()? as usize;
    let count = header.u32()? as usize;
    let filter_bytes = filter_len.div_ceil(8);
    let entry_len = 8 + filter_bytes;
    let expected = HEADER_LEN
        .checked_add(
            count
                .checked_mul(4 + entry_len)
                .ok_or_else(|| storage_err(format!("segment entry count {count} overflows")))?,
        )
        .and_then(|n| n.checked_add(8))
        .ok_or_else(|| storage_err(format!("segment entry count {count} overflows")))?;
    if bytes.len() != expected {
        return Err(storage_err(format!(
            "segment size mismatch: header declares {count} entries of {entry_len} bytes \
             ({expected} bytes total), file has {}",
            bytes.len()
        )));
    }
    let body = checked_body(bytes, "segment")?;
    let mut r = Reader::new(&body[HEADER_LEN..], "segment entries");
    let stride = BitVec::words_for_len(filter_len);
    let mut builder = ArenaBuilder::with_capacity(filter_len, count);
    let mut row = vec![0u64; stride];
    for i in 0..count {
        let declared = r.u32()? as usize;
        if declared != entry_len {
            return Err(storage_err(format!(
                "segment entry {i} length prefix {declared}, expected {entry_len}"
            )));
        }
        let id = r.u64()?;
        let raw = r.take(filter_bytes)?;
        for (word, bytes) in row.iter_mut().zip(raw.chunks(8)) {
            let mut le = [0u8; 8];
            le[..bytes.len()].copy_from_slice(bytes);
            *word = u64::from_le_bytes(le);
        }
        // `push` re-checks the tail-bit invariant, matching
        // `BitVec::from_bytes`' rejection of bits set beyond filter_len.
        builder
            .push(id, &row)
            .map_err(|e| storage_err(format!("segment entry {i}: {e}")))?;
    }
    r.finish()?;
    Ok((shard, builder.finish()))
}

/// Writes a segment file (whole-file write; segments are immutable).
pub fn write_segment(
    path: &Path,
    shard: u32,
    filter_len: usize,
    records: &[(u64, &BitVec)],
) -> Result<()> {
    write_segment_with(&StdVfs, path, shard, filter_len, records)
}

/// [`write_segment`] through an injectable [`Vfs`]. Durably persists the
/// file's *content* (write + fsync); making its directory entry durable
/// is the caller's barrier (`sync_dir` once per batch of segments).
pub fn write_segment_with(
    vfs: &dyn Vfs,
    path: &Path,
    shard: u32,
    filter_len: usize,
    records: &[(u64, &BitVec)],
) -> Result<()> {
    let bytes = encode_segment(shard, filter_len, records)?;
    vfs.write(path, &bytes)
        .map_err(|e| io_err(path, "writing", e))?;
    vfs.sync_file(path).map_err(|e| io_err(path, "syncing", e))
}

/// Writes a segment file straight from an arena's rows through an
/// injectable [`Vfs`] (content write + fsync; the directory barrier is
/// the caller's, as with [`write_segment_with`]).
pub fn write_segment_arena_with(
    vfs: &dyn Vfs,
    path: &Path,
    shard: u32,
    arena: &FilterArena,
) -> Result<()> {
    let bytes = encode_segment_from_arena(shard, arena)?;
    vfs.write(path, &bytes)
        .map_err(|e| io_err(path, "writing", e))?;
    vfs.sync_file(path).map_err(|e| io_err(path, "syncing", e))
}

/// Reads and verifies a segment file.
pub fn read_segment(path: &Path) -> Result<Segment> {
    read_segment_with(&StdVfs, path)
}

/// [`read_segment`] through an injectable [`Vfs`].
pub fn read_segment_with(vfs: &dyn Vfs, path: &Path) -> Result<Segment> {
    let bytes = vfs.read(path).map_err(|e| io_err(path, "reading", e))?;
    decode_segment(&bytes).map_err(|e| storage_err(format!("{}: {e}", path.display())))
}

/// Reads and verifies a segment file directly into a columnar arena.
pub fn read_segment_arena_with(vfs: &dyn Vfs, path: &Path) -> Result<(u32, FilterArena)> {
    let bytes = vfs.read(path).map_err(|e| io_err(path, "reading", e))?;
    decode_segment_arena(&bytes).map_err(|e| storage_err(format!("{}: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records(n: usize, len: usize) -> Vec<(u64, BitVec)> {
        (0..n)
            .map(|i| {
                let ones: Vec<usize> = (0..len).filter(|p| (p + i) % 7 == 0).collect();
                (
                    i as u64 * 3 + 1,
                    BitVec::from_positions(len, &ones).unwrap(),
                )
            })
            .collect()
    }

    fn refs(records: &[(u64, BitVec)]) -> Vec<(u64, &BitVec)> {
        records.iter().map(|(id, f)| (*id, f)).collect()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let records = sample_records(5, 100);
        let bytes = encode_segment(3, 100, &refs(&records)).unwrap();
        let seg = decode_segment(&bytes).unwrap();
        assert_eq!(seg.shard, 3);
        assert_eq!(seg.filter_len, 100);
        assert_eq!(seg.records.len(), 5);
        for ((id, filter), rec) in records.iter().zip(&seg.records) {
            assert_eq!(*id, rec.id);
            assert_eq!(*filter, rec.filter);
        }
    }

    #[test]
    fn empty_segment_round_trips() {
        let bytes = encode_segment(0, 64, &[]).unwrap();
        let seg = decode_segment(&bytes).unwrap();
        assert!(seg.records.is_empty());
        assert_eq!(seg.filter_len, 64);
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let records = sample_records(3, 80);
        let bytes = encode_segment(1, 80, &refs(&records)).unwrap();
        for pos in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[pos] ^= 1u8 << bit;
                let err = decode_segment(&bad).expect_err(&format!("byte {pos} bit {bit}"));
                assert!(
                    matches!(err, PprlError::Storage(_)),
                    "byte {pos} bit {bit}: {err}"
                );
            }
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let records = sample_records(4, 64);
        let bytes = encode_segment(0, 64, &refs(&records)).unwrap();
        for cut in 0..bytes.len() {
            let err = decode_segment(&bytes[..cut]).expect_err(&format!("cut at {cut}"));
            assert!(matches!(err, PprlError::Storage(_)), "cut {cut}: {err}");
        }
    }

    #[test]
    fn extension_is_detected() {
        let records = sample_records(2, 64);
        let mut bytes = encode_segment(0, 64, &refs(&records)).unwrap();
        bytes.push(0);
        assert!(matches!(
            decode_segment(&bytes).unwrap_err(),
            PprlError::Storage(_)
        ));
    }

    #[test]
    fn filter_length_mismatch_rejected_at_encode() {
        let f = BitVec::zeros(32);
        let err = encode_segment(0, 64, &[(1, &f)]).unwrap_err();
        assert!(matches!(err, PprlError::ShapeMismatch { .. }), "{err}");
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("pprl-index-segment-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg-0.seg");
        let records = sample_records(6, 120);
        write_segment(&path, 2, 120, &refs(&records)).unwrap();
        let seg = read_segment(&path).unwrap();
        assert_eq!(seg.records.len(), 6);
        assert_eq!(seg.shard, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_is_storage_error() {
        let err = read_segment(Path::new("/nonexistent/seg.seg")).unwrap_err();
        assert!(matches!(err, PprlError::Storage(_)), "{err}");
    }

    #[test]
    fn arena_encode_is_byte_identical_to_record_encode() {
        for len in [63usize, 64, 80, 100, 129] {
            let mut records = sample_records(9, len);
            // Arena row order is (popcount, id); feed the record encoder
            // the same order so the images must match byte for byte.
            records.sort_by_key(|(id, f)| (f.count_ones(), *id));
            let via_records = encode_segment(5, len, &refs(&records)).unwrap();
            let arena = crate::arena::FilterArena::from_records(records, len).unwrap();
            let via_arena = encode_segment_from_arena(5, &arena).unwrap();
            assert_eq!(via_records, via_arena, "len={len}");
        }
    }

    #[test]
    fn arena_decode_round_trips_and_matches_record_decode() {
        for len in [63usize, 64, 100, 130] {
            let records = sample_records(7, len);
            let bytes = encode_segment(2, len, &refs(&records)).unwrap();
            let seg = decode_segment(&bytes).unwrap();
            let (shard, arena) = decode_segment_arena(&bytes).unwrap();
            assert_eq!(shard, 2);
            assert_eq!(arena.filter_len(), len);
            assert_eq!(arena.len(), seg.records.len());
            let mut expect: Vec<(u64, BitVec)> =
                seg.records.into_iter().map(|r| (r.id, r.filter)).collect();
            expect.sort_by_key(|(id, f)| (f.count_ones(), *id));
            for (i, (id, filter)) in expect.iter().enumerate() {
                let (got_id, got_filter) = arena.get(i).unwrap();
                assert_eq!(got_id, *id, "len={len} row {i}");
                assert_eq!(&got_filter, filter, "len={len} row {i}");
            }
            // Decode→encode of an already-sorted image is the identity.
            let sorted_bytes = encode_segment_from_arena(2, &arena).unwrap();
            let (_, again) = decode_segment_arena(&sorted_bytes).unwrap();
            assert_eq!(
                encode_segment_from_arena(2, &again).unwrap(),
                sorted_bytes,
                "len={len}"
            );
        }
    }

    #[test]
    fn arena_decode_detects_every_byte_flip_and_truncation() {
        let records = sample_records(3, 80);
        let bytes = encode_segment(1, 80, &refs(&records)).unwrap();
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x10;
            let err = decode_segment_arena(&bad).expect_err(&format!("byte {pos}"));
            assert!(matches!(err, PprlError::Storage(_)), "byte {pos}: {err}");
        }
        for cut in 0..bytes.len() {
            let err = decode_segment_arena(&bytes[..cut]).expect_err(&format!("cut at {cut}"));
            assert!(matches!(err, PprlError::Storage(_)), "cut {cut}: {err}");
        }
    }
}
