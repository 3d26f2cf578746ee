//! Columnar filter arena: one shard slot's filters as a flat word array.
//!
//! Instead of a `Vec<BitVec>` (one heap allocation and pointer chase per
//! record), an arena stores every filter in a single contiguous
//! `Vec<u64>` with a fixed words-per-filter `stride`, plus parallel
//! `ids` and `popcounts` arrays. Rows are sorted ascending by
//! `(popcount, id)`, so any contiguous row range supports the same
//! popcount-based Dice upper-bound reasoning as the old per-record
//! layout.
//!
//! # Tiles
//!
//! The words are laid out in *tiles* of [`TILE_ROWS`] = 8 consecutive
//! rows, word-major inside a tile: word `w` of rows `8t..8t + 8` is
//! `words[t * 8 * stride + w * 8..][..8]`. A tile is exactly the input
//! of the scan kernel (`pprl_similarity::kernel::Kernel::score_tile`),
//! which ANDs each tile word with one broadcast probe word and popcounts
//! all eight rows into eight per-row counters at once. The kernel reads
//! the first `stride / 2` words of a tile (every row's prefix) and the
//! rest only for probes whose prefix count can still reach the query's
//! admission count. Because rows ascend by popcount, a tile's first
//! popcount bounds the admission count of all eight rows, and a query's
//! popcount window is a contiguous row range. The last tile is padded
//! with zero rows; the scan masks the padding lanes off.
//!
//! A tile occupies the same words whether it is stored row-major or
//! word-major, so [`ArenaBuilder::finish`] transposes each 8-row span in
//! place and the arena is never held twice. Reading one row back
//! ([`FilterArena::row_into`]) is a strided gather; only segment
//! encoding, compaction and band-key summaries need it.

use crate::format::storage_err;
use pprl_core::bitvec::BitVec;
use pprl_core::error::Result;
pub use pprl_similarity::kernel::TILE_ROWS;

/// A popcount-sorted, flat columnar store of equal-length filters.
#[derive(Debug, Default)]
pub struct FilterArena {
    /// Words per filter (`BitVec::words_for_len(filter_len)`).
    stride: usize,
    /// Filter length in bits.
    filter_len: usize,
    /// All filter words in 8-row word-major tiles (see the module docs),
    /// the last tile zero-padded to 8 rows.
    words: Vec<u64>,
    /// Record ids, parallel to rows.
    ids: Vec<u64>,
    /// Filter popcounts, parallel to rows, ascending.
    popcounts: Vec<u32>,
}

impl FilterArena {
    /// Builds an arena from `(id, filter)` records, sorting rows by
    /// `(popcount, id)`. Every filter must have `filter_len` bits.
    pub fn from_records(records: Vec<(u64, BitVec)>, filter_len: usize) -> Result<FilterArena> {
        let mut builder = ArenaBuilder::with_capacity(filter_len, records.len());
        for (id, filter) in &records {
            builder.push_filter(*id, filter)?;
        }
        Ok(builder.finish())
    }

    /// Number of rows (records).
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the arena holds no rows.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Words per filter row.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Filter length in bits.
    pub fn filter_len(&self) -> usize {
        self.filter_len
    }

    /// Number of tiles (`len` rows rounded up to whole tiles).
    #[inline]
    pub fn tiles(&self) -> usize {
        self.len().div_ceil(TILE_ROWS)
    }

    /// Tile `t`: rows `8t..8t + 8`, word-major (`8 * stride` words).
    #[inline]
    pub fn tile(&self, t: usize) -> &[u64] {
        let span = TILE_ROWS * self.stride;
        &self.words[t * span..(t + 1) * span]
    }

    /// Gathers row `i`'s filter words into `out` (`stride` words).
    pub fn row_into(&self, i: usize, out: &mut [u64]) {
        assert_eq!(out.len(), self.stride, "row_into: buffer is not one stride");
        let tile = self.tile(i / TILE_ROWS);
        for (word, lanes) in out.iter_mut().zip(tile.chunks_exact(TILE_ROWS)) {
            *word = lanes[i % TILE_ROWS];
        }
    }

    /// Record id of row `i`.
    #[inline]
    pub fn id(&self, i: usize) -> u64 {
        self.ids[i]
    }

    /// Popcount of row `i`'s filter.
    #[inline]
    pub fn popcount(&self, i: usize) -> u32 {
        self.popcounts[i]
    }

    /// All row popcounts (ascending).
    #[inline]
    pub fn popcounts(&self) -> &[u32] {
        &self.popcounts
    }

    /// Smallest popcount in the arena (`None` when empty).
    pub fn pc_min(&self) -> Option<u32> {
        self.popcounts.first().copied()
    }

    /// Largest popcount in the arena (`None` when empty).
    pub fn pc_max(&self) -> Option<u32> {
        self.popcounts.last().copied()
    }

    /// Approximate heap footprint in bytes (words + ids + popcounts).
    pub fn bytes(&self) -> usize {
        self.words.len() * 8 + self.ids.len() * 8 + self.popcounts.len() * 4
    }

    /// Reconstructs row `i` as an owned `(id, BitVec)` pair.
    pub fn get(&self, i: usize) -> Result<(u64, BitVec)> {
        let mut words = vec![0u64; self.stride];
        self.row_into(i, &mut words);
        let filter = BitVec::from_words(words, self.filter_len)?;
        Ok((self.ids[i], filter))
    }
}

/// Streaming constructor for [`FilterArena`]: rows are pushed one at a
/// time as `(id, &[u64])` word slices (or `BitVec`s) with **no
/// per-record heap allocation** — each push appends to the builder's
/// three flat arrays. Rows may arrive in any order; [`finish`] sorts by
/// `(popcount, id)` only if the input was not already sorted, so a
/// k-way merge that pushes rows in key order pays nothing.
///
/// The builder doubles as the store's columnar `pending` buffer: it
/// keeps rows row-major in insertion order until `finish`, and exposes
/// row accessors so the WAL image and per-shard flush can iterate it in
/// place. `finish` converts to the arena's tiles.
///
/// [`finish`]: ArenaBuilder::finish
#[derive(Debug)]
pub struct ArenaBuilder {
    stride: usize,
    filter_len: usize,
    words: Vec<u64>,
    ids: Vec<u64>,
    popcounts: Vec<u32>,
    /// True while rows so far are ascending by `(popcount, id)`.
    sorted: bool,
}

impl ArenaBuilder {
    /// An empty builder for `filter_len`-bit rows.
    pub fn new(filter_len: usize) -> ArenaBuilder {
        ArenaBuilder::with_capacity(filter_len, 0)
    }

    /// An empty builder preallocated for `rows` rows (rounded up to
    /// whole tiles, so a sorted `finish` pads and transposes in place).
    pub fn with_capacity(filter_len: usize, rows: usize) -> ArenaBuilder {
        let stride = BitVec::words_for_len(filter_len);
        ArenaBuilder {
            stride,
            filter_len,
            words: Vec::with_capacity(rows.next_multiple_of(TILE_ROWS) * stride),
            ids: Vec::with_capacity(rows),
            popcounts: Vec::with_capacity(rows),
            sorted: true,
        }
    }

    /// Appends one row from its backing words (little-endian bit order,
    /// as produced by [`BitVec::as_words`]). Rejects a wrong word count
    /// and set bits beyond `filter_len` — a poisoned popcount would
    /// silently break the sorted-arena pruning bounds.
    pub fn push(&mut self, id: u64, row: &[u64]) -> Result<()> {
        if row.len() != self.stride {
            return Err(storage_err(format!(
                "record {id} has {} words, arena expects {} ({} bits)",
                row.len(),
                self.stride,
                self.filter_len
            )));
        }
        let rem = self.filter_len % 64;
        if rem != 0 {
            if let Some(&last) = row.last() {
                if last & !((1u64 << rem) - 1) != 0 {
                    return Err(storage_err(format!(
                        "record {id} has bits set beyond its {} bit length",
                        self.filter_len
                    )));
                }
            }
        }
        let pc: u32 = row.iter().map(|w| w.count_ones()).sum();
        if self.sorted {
            if let (Some(&prev_pc), Some(&prev_id)) = (self.popcounts.last(), self.ids.last()) {
                if (pc, id) < (prev_pc, prev_id) {
                    self.sorted = false;
                }
            }
        }
        self.words.extend_from_slice(row);
        self.ids.push(id);
        self.popcounts.push(pc);
        Ok(())
    }

    /// Appends one row from a `BitVec` (must be `filter_len` bits).
    pub fn push_filter(&mut self, id: u64, filter: &BitVec) -> Result<()> {
        if filter.len() != self.filter_len {
            return Err(storage_err(format!(
                "record {id} has {} bits, arena expects {}",
                filter.len(),
                self.filter_len
            )));
        }
        self.push(id, filter.as_words())
    }

    /// Number of rows pushed so far.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when no rows have been pushed.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Words per row.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Row length in bits.
    pub fn filter_len(&self) -> usize {
        self.filter_len
    }

    /// Row `i`'s words, in insertion order.
    #[inline]
    pub fn row(&self, i: usize) -> &[u64] {
        &self.words[i * self.stride..(i + 1) * self.stride]
    }

    /// Record id of row `i`, in insertion order.
    #[inline]
    pub fn id(&self, i: usize) -> u64 {
        self.ids[i]
    }

    /// All record ids, in insertion order.
    #[inline]
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// Popcount of row `i`.
    #[inline]
    pub fn popcount(&self, i: usize) -> u32 {
        self.popcounts[i]
    }

    /// Approximate heap footprint in bytes (words + ids + popcounts).
    pub fn bytes(&self) -> usize {
        self.words.len() * 8 + self.ids.len() * 8 + self.popcounts.len() * 4
    }

    /// Drops every row, keeping the allocations for reuse.
    pub fn clear(&mut self) {
        self.words.clear();
        self.ids.clear();
        self.popcounts.clear();
        self.sorted = true;
    }

    /// Reconstructs row `i` as an owned `(id, BitVec)` pair.
    pub fn get(&self, i: usize) -> Result<(u64, BitVec)> {
        let filter = BitVec::from_words(self.row(i).to_vec(), self.filter_len)?;
        Ok((self.ids[i], filter))
    }

    /// Finalises into a popcount-sorted, tiled [`FilterArena`]. When
    /// rows were pushed already sorted by `(popcount, id)` — the k-way
    /// merge and sorted-segment decode cases — the word array is padded
    /// to whole tiles and each tile is transposed in place, through one
    /// tile of scratch; the sort (stable, so duplicate keys keep
    /// insertion order) and its permuted copy run only for genuinely
    /// unordered input, which is scattered straight into tiles.
    pub fn finish(self) -> FilterArena {
        let ArenaBuilder {
            stride,
            filter_len,
            mut words,
            mut ids,
            mut popcounts,
            sorted,
        } = self;
        let tiled_len = ids.len().next_multiple_of(TILE_ROWS) * stride;
        if sorted {
            words.resize(tiled_len, 0);
            let mut scratch = vec![0u64; TILE_ROWS * stride];
            for tile in words.chunks_exact_mut(TILE_ROWS * stride) {
                scratch.copy_from_slice(tile);
                for (w, lanes) in tile.chunks_exact_mut(TILE_ROWS).enumerate() {
                    for (j, word) in lanes.iter_mut().enumerate() {
                        *word = scratch[j * stride + w];
                    }
                }
            }
        } else {
            let mut order: Vec<u32> = (0..ids.len() as u32).collect();
            order.sort_by_key(|&i| (popcounts[i as usize], ids[i as usize], i));
            let mut tiled = vec![0u64; tiled_len];
            for (r, &i) in order.iter().enumerate() {
                let i = i as usize;
                let base = (r / TILE_ROWS) * TILE_ROWS * stride + r % TILE_ROWS;
                for (w, &word) in words[i * stride..(i + 1) * stride].iter().enumerate() {
                    tiled[base + w * TILE_ROWS] = word;
                }
            }
            words = tiled;
            ids = order.iter().map(|&i| ids[i as usize]).collect();
            popcounts = order.iter().map(|&i| popcounts[i as usize]).collect();
        }
        FilterArena {
            stride,
            filter_len,
            words,
            ids,
            popcounts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pprl_core::error::PprlError;
    use pprl_core::rng::SplitMix64;

    fn random_records(n: usize, len: usize, seed: u64) -> Vec<(u64, BitVec)> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|i| {
                let ones: Vec<usize> = (0..len)
                    .filter(|_| rng.next_u64().is_multiple_of(3))
                    .collect();
                (i as u64, BitVec::from_positions(len, &ones).unwrap())
            })
            .collect()
    }

    #[test]
    fn rows_are_popcount_sorted_and_round_trip() {
        let records = random_records(60, 100, 9);
        let arena = FilterArena::from_records(records.clone(), 100).unwrap();
        assert_eq!(arena.len(), 60);
        assert_eq!(arena.stride(), 2);
        assert_eq!(arena.tiles(), 8);
        assert_eq!(arena.tile(7).len(), 16);
        let mut prev = (0u32, 0u64);
        let mut seen = std::collections::HashSet::new();
        for i in 0..arena.len() {
            let key = (arena.popcount(i), arena.id(i));
            assert!(i == 0 || key > prev, "rows not sorted at {i}");
            prev = key;
            let (id, filter) = arena.get(i).unwrap();
            let original = &records.iter().find(|(rid, _)| *rid == id).unwrap().1;
            assert_eq!(&filter, original, "row {i} round-trip");
            assert_eq!(arena.popcount(i) as usize, original.count_ones());
            seen.insert(id);
        }
        assert_eq!(seen.len(), 60, "every record present exactly once");
        assert_eq!(arena.pc_min(), Some(arena.popcount(0)));
        assert_eq!(arena.pc_max(), Some(arena.popcount(59)));
    }

    #[test]
    fn rejects_wrong_length_and_handles_empty() {
        let err = FilterArena::from_records(vec![(0, BitVec::zeros(32))], 64).unwrap_err();
        assert!(matches!(err, PprlError::Storage(_)), "{err}");
        let arena = FilterArena::from_records(Vec::new(), 64).unwrap();
        assert!(arena.is_empty());
        assert_eq!(arena.pc_min(), None);
        assert_eq!(arena.pc_max(), None);
    }

    #[test]
    fn builder_matches_from_records_in_any_insertion_order() {
        let records = random_records(80, 100, 41);
        let oracle = FilterArena::from_records(records.clone(), 100).unwrap();
        // Insertion order (unsorted input) and pre-sorted order must both
        // finish into the identical arena.
        let mut unsorted = ArenaBuilder::with_capacity(100, records.len());
        for (id, f) in &records {
            unsorted.push(*id, f.as_words()).unwrap();
        }
        let mut sorted_recs = records.clone();
        sorted_recs.sort_by_key(|(id, f)| (f.count_ones(), *id));
        let mut sorted = ArenaBuilder::new(100);
        for (id, f) in &sorted_recs {
            sorted.push_filter(*id, f).unwrap();
        }
        for arena in [unsorted.finish(), sorted.finish()] {
            assert_eq!(arena.tiles(), oracle.tiles());
            for t in 0..arena.tiles() {
                assert_eq!(arena.tile(t), oracle.tile(t), "tile {t}");
            }
            assert_eq!(arena.popcounts(), oracle.popcounts());
            assert_eq!(arena.len(), oracle.len());
            for i in 0..arena.len() {
                assert_eq!(arena.id(i), oracle.id(i));
            }
        }
    }

    /// The word-major tile layout against the definition, for row
    /// counts on both sides of whole tiles: word `w` of row `i` sits at
    /// `tile(i / 8)[8w + i % 8]`, padding lanes are zero, and `row_into`
    /// and `get` give back every pushed row, from sorted and unsorted
    /// builders alike.
    #[test]
    fn tiles_are_word_major_and_round_trip_every_row() {
        for n in 0..=17usize {
            for len in [1usize, 64, 100, 320] {
                let records = random_records(n, len, 7 + n as u64);
                let mut sorted_recs = records.clone();
                sorted_recs.sort_by_key(|(id, f)| (f.count_ones(), *id));
                let mut unsorted = ArenaBuilder::new(len);
                for (id, f) in &records {
                    unsorted.push_filter(*id, f).unwrap();
                }
                let mut sorted = ArenaBuilder::with_capacity(len, n);
                for (id, f) in &sorted_recs {
                    sorted.push_filter(*id, f).unwrap();
                }
                for arena in [unsorted.finish(), sorted.finish()] {
                    let stride = arena.stride();
                    assert_eq!(arena.len(), n);
                    assert_eq!(arena.tiles(), n.div_ceil(TILE_ROWS));
                    let mut row = vec![0u64; stride];
                    for (i, (id, filter)) in sorted_recs.iter().enumerate() {
                        let tile = arena.tile(i / TILE_ROWS);
                        for (w, &word) in filter.as_words().iter().enumerate() {
                            assert_eq!(tile[w * TILE_ROWS + i % TILE_ROWS], word, "n={n} row {i}");
                        }
                        arena.row_into(i, &mut row);
                        assert_eq!(row, filter.as_words(), "n={n} len={len} row {i}");
                        assert_eq!(arena.get(i).unwrap(), (*id, filter.clone()));
                    }
                    for i in n..arena.tiles() * TILE_ROWS {
                        let tile = arena.tile(i / TILE_ROWS);
                        for w in 0..stride {
                            assert_eq!(tile[w * TILE_ROWS + i % TILE_ROWS], 0, "padding lane {i}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn builder_rejects_bad_stride_and_tail_bits() {
        let mut b = ArenaBuilder::new(100); // stride 2, 36 tail bits
        let err = b.push(7, &[0u64; 3]).unwrap_err();
        assert!(matches!(err, PprlError::Storage(_)), "{err}");
        // Bit 100 set (beyond filter_len) must be rejected, not counted.
        let err = b.push(8, &[0u64, 1u64 << 36]).unwrap_err();
        assert!(matches!(err, PprlError::Storage(_)), "{err}");
        assert!(b.is_empty());
        b.push(9, &[u64::MAX, (1u64 << 36) - 1]).unwrap();
        assert_eq!(b.popcount(0), 100);
        b.clear();
        assert!(b.is_empty());
    }
}
