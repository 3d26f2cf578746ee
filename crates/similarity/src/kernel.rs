//! Word-slice comparison kernels for the columnar scan path, with
//! runtime CPU-feature dispatch.
//!
//! The index query engine stores Bloom filters in flat `u64` arenas (see
//! `pprl-index`), so its hot loop works on `&[u64]` slices rather than
//! `BitVec`s. These kernels are the slice-level counterparts of
//! [`pprl_core::bitvec::BitVec::and_count`] and
//! [`crate::bitvec_sim::dice_bits`]:
//!
//! * [`and_count`] — one pair, four independent accumulators so the
//!   popcounts pipeline instead of serialising on one add chain;
//! * [`Kernel::score_tile`] — one arena *tile* against every live probe
//!   of a scan in a single call. A tile holds [`TILE_ROWS`] = 8 rows
//!   word-major: word `w` of all eight rows sits in `tile[8w..8w + 8]`,
//!   so one probe word, broadcast, meets the same word of eight rows in
//!   one vector AND, and one vector popcount adds into a vector of eight
//!   per-row counters. Each counter belongs to one row from start to
//!   finish, so no path ever folds lanes across rows.
//!
//! The tile scan is a two-stage admission test: each probe carries an
//! integer *admission count* `cmin`, and a row matters only if its
//! intersection count `c` reaches it. The first stage counts the row
//! prefix (the first [`prefix_words`] words) and rejects the row when
//! `c_prefix + popcount(probe suffix) < cmin` — one vector compare for
//! all eight rows — which is sound because the suffix can add at most
//! the probe suffix's popcount. A probe with a surviving row is finished
//! over the suffix in the same call. The result per probe is a row mask
//! plus exact counts, the same on every dispatch path.
//!
//! # Dispatch
//!
//! Each kernel has several implementations, selected **once per process**
//! by runtime CPU-feature detection (`is_x86_feature_detected!` and the
//! aarch64 equivalent). The default x86-64 code model does not even
//! guarantee a hardware `popcnt` instruction, so the paths form a real
//! performance ladder:
//!
//! | name       | arch     | requires                  | technique                          |
//! |------------|----------|---------------------------|------------------------------------|
//! | `scalar`   | any      | —                         | unrolled loop, SWAR popcount       |
//! | `portable` | x86-64   | `popcnt`                  | same loop, hardware popcount       |
//! | `avx2`     | x86-64   | `avx2`                    | Muła nibble-LUT popcount, 256-bit  |
//! | `avx512`   | x86-64   | `avx512f+avx512vpopcntdq` | `vpopcntq`, 512-bit lanes          |
//! | `neon`     | aarch64  | `neon`                    | `cnt.16b` + widening adds, 128-bit |
//!
//! (`portable` is the portable-width stand-in for `std::simd`, which is
//! still nightly-only: the scalar loop recompiled with the baseline
//! popcount feature enabled, which the autovectoriser is free to widen.)
//!
//! The environment variable `PPRL_KERNEL` forces a path by name (`scalar`
//! included) for tests and benches; `auto` or unset picks the best
//! supported path. Forcing an *unsupported* path falls back to the best
//! supported one rather than executing illegal instructions — compare
//! [`requested_kernel`] with [`kernel_name`] (or call
//! [`requested_is_supported`]) to detect the fallback.
//!
//! Every kernel is exact: the intersection popcounts are integers and
//! [`dice_from_counts`] reproduces `dice_bits`' f64 expression term for
//! term, so scores computed through this module are bit-identical to the
//! scalar `BitVec` path. The property suite in
//! `crates/index/tests/kernel_equivalence.rs` checks every path available
//! on the host against the `BitVec` oracle, including odd tail lengths,
//! and checks [`Kernel::score_tile`] against a scalar reference on
//! partial tiles and at admission counts set exactly at, and one above,
//! each stage's count.

use std::sync::OnceLock;

/// Rows per arena tile: the unit [`Kernel::score_tile`] scores, and the
/// width of its vector of per-row counters.
pub const TILE_ROWS: usize = 8;

/// One dispatchable implementation of the scan kernels.
///
/// Instances only come out of [`available_kernels`] / [`active_kernel`],
/// which guarantees the backing functions are safe to execute on this
/// CPU: the constructors are private and a `Kernel` is only built after
/// its required features were detected at runtime.
#[derive(Clone, Copy)]
pub struct Kernel {
    name: &'static str,
    and_count: fn(&[u64], &[u64]) -> usize,
    score_tile: fn(&[u64], u8, &[BlockProbe<'_>], &mut [BlockHits]) -> BlockTotals,
}

impl Kernel {
    /// Path name as accepted by `PPRL_KERNEL` (e.g. `"avx2"`).
    #[inline]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Intersection popcount of two equal-length word slices.
    ///
    /// The length check is a cheap release-mode assert: a mismatched pair
    /// means a corrupt arena stride, and silently mis-scoring records is
    /// strictly worse than aborting the scan.
    #[inline]
    pub fn and_count(&self, a: &[u64], b: &[u64]) -> usize {
        assert_eq!(
            a.len(),
            b.len(),
            "and_count: word-count mismatch (arena stride corrupt?)"
        );
        (self.and_count)(a, b)
    }

    /// Scores one tile (`tile`: [`TILE_ROWS`] rows of one stride,
    /// word-major) against every probe in `probes`, writing one
    /// [`BlockHits`] per probe into `out[..probes.len()]`. Only the first
    /// `rows` lanes hold rows; the rest are padding and are never scored
    /// or admitted. Bit `j` of `admitted` is set iff row `j`'s
    /// intersection count with the probe is at least the probe's `cmin`;
    /// see the module docs for the two stages. The returned totals let a
    /// caller skip reading `out` when no row was admitted.
    ///
    /// The shape checks stay on in release builds, as with
    /// [`Kernel::and_count`]: one per probe per tile.
    #[inline]
    pub fn score_tile(
        &self,
        tile: &[u64],
        rows: usize,
        probes: &[BlockProbe<'_>],
        out: &mut [BlockHits],
    ) -> BlockTotals {
        assert!(
            tile.len().is_multiple_of(TILE_ROWS),
            "score_tile: a tile must hold exactly {TILE_ROWS} rows of one stride"
        );
        assert!(rows <= TILE_ROWS, "score_tile: more rows than tile lanes");
        let stride = tile.len() / TILE_ROWS;
        assert!(out.len() >= probes.len(), "score_tile: output too short");
        for probe in probes {
            assert_eq!(
                probe.words.len(),
                stride,
                "score_tile: probe width differs from the row stride"
            );
        }
        let lanes = ((1u16 << rows) - 1) as u8;
        (self.score_tile)(tile, lanes, probes, &mut out[..probes.len()])
    }
}

impl PartialEq for Kernel {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
    }
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel").field("name", &self.name).finish()
    }
}

/// One live probe of a [`Kernel::score_tile`] call: the probe's filter
/// words (one row stride long) and its admission count `cmin` — a row
/// is admitted iff its intersection count with the probe is at least
/// `cmin`. The fields are private so the cached suffix popcount always
/// matches the words.
#[derive(Debug, Clone, Copy)]
pub struct BlockProbe<'a> {
    words: &'a [u64],
    /// Popcount of `words[prefix_words(words.len())..]`.
    suffix_ones: u32,
    cmin: u32,
    /// The prefix bound restated on the prefix count alone:
    /// `c_prefix + suffix_ones >= cmin` iff `c_prefix >= prefix_need`.
    prefix_need: u32,
}

impl<'a> BlockProbe<'a> {
    /// A probe over `words` admitting rows whose count reaches `cmin`.
    pub fn new(words: &'a [u64], cmin: u32) -> BlockProbe<'a> {
        let suffix_ones = words[prefix_words(words.len())..]
            .iter()
            .map(|w| w.count_ones())
            .sum();
        BlockProbe {
            words,
            suffix_ones,
            cmin: 0,
            prefix_need: 0,
        }
        .with_cmin(cmin)
    }

    /// The same probe at another admission count.
    #[inline]
    pub fn with_cmin(self, cmin: u32) -> BlockProbe<'a> {
        BlockProbe {
            cmin,
            prefix_need: cmin.saturating_sub(self.suffix_ones),
            ..self
        }
    }
}

/// What [`Kernel::score_tile`] found for one probe against one tile.
/// Bit `j` of each mask stands for row `j` of the tile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockHits {
    /// Rows that passed the prefix bound and were counted in full.
    pub scored: u8,
    /// Scored rows whose full count reached `cmin`.
    pub admitted: u8,
    /// The full intersection count of each scored row, and 0 in every
    /// other lane (rows the prefix bound rejected, and padding).
    pub counts: [u32; TILE_ROWS],
}

/// Words of a `stride`-word row that [`Kernel::score_tile`] counts
/// before it applies the prefix bound: the first half, rounded down.
#[inline]
pub fn prefix_words(stride: usize) -> usize {
    stride / 2
}

/// Totals over every probe of one [`Kernel::score_tile`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockTotals {
    /// Rows scored in full, summed over the probes.
    pub scored: u32,
    /// Union of the probes' `admitted` masks.
    pub admitted: u8,
}

impl BlockTotals {
    /// Folds one probe's verdict into the totals.
    #[inline(always)]
    fn add(&mut self, hits: &BlockHits) {
        self.scored += hits.scored.count_ones();
        self.admitted |= hits.admitted;
    }
}

/// The tile scan over eight per-row counters held in a plain array,
/// shared by the paths whose counters live in several registers
/// (`scalar`, `portable`, `neon`): `count8(probe, from, to)` returns the
/// counts of `probe[from..to]` against the same words of the tile's
/// eight rows.
#[inline(always)]
fn score_tile_with(
    tile: &[u64],
    lanes: u8,
    probes: &[BlockProbe<'_>],
    out: &mut [BlockHits],
    count8: impl Fn(&[u64], usize, usize) -> [u32; TILE_ROWS],
) -> BlockTotals {
    let stride = tile.len() / TILE_ROWS;
    let split = prefix_words(stride);
    let mut totals = BlockTotals::default();
    for (probe, hits) in probes.iter().zip(out.iter_mut()) {
        let mut counts = count8(probe.words, 0, split);
        let mut scored = 0u8;
        for (j, &count) in counts.iter().enumerate() {
            scored |= u8::from(count >= probe.prefix_need) << j;
        }
        scored &= lanes;
        if scored == 0 {
            *hits = BlockHits::default();
            continue;
        }
        let suffix = count8(probe.words, split, stride);
        let mut admitted = 0u8;
        for (j, (count, extra)) in counts.iter_mut().zip(suffix).enumerate() {
            // Branch-free: rejected rows and padding read 0.
            let hit = (scored >> j) & 1;
            *count = (*count + extra) * u32::from(hit);
            admitted |= (u8::from(*count >= probe.cmin) & hit) << j;
        }
        *hits = BlockHits {
            scored,
            admitted,
            counts,
        };
        totals.add(hits);
    }
    totals
}

/// Asks the CPU to start loading `words` (typically a tile a few tiles
/// ahead of the one being scored) into cache, one hint per cache line.
/// A single-probe scan runs at the speed memory streams in, and the
/// hardware prefetcher alone does not keep a 1 KB-per-tile stream far
/// enough ahead. A hint never faults and changes no result; it is a
/// no-op off x86-64.
#[inline]
pub fn prefetch(words: &[u64]) {
    #[cfg(target_arch = "x86_64")]
    x86::prefetch(words);
    #[cfg(not(target_arch = "x86_64"))]
    let _ = words;
}

/// Intersection popcount of two equal-length word slices, through the
/// dispatched kernel. Equals
/// [`pprl_core::bitvec::BitVec::and_count`] on the backing words of two
/// equal-length vectors (trailing bits are zero by invariant).
#[inline]
pub fn and_count(a: &[u64], b: &[u64]) -> usize {
    active_kernel().and_count(a, b)
}

/// Dice coefficient from an intersection popcount and the two filter
/// cardinalities — the exact f64 expression of
/// [`crate::bitvec_sim::dice_bits`], so kernel-computed scores are
/// bit-identical to the scalar path (including the both-empty = 1.0
/// convention).
#[inline]
pub fn dice_from_counts(intersection: usize, ones_a: usize, ones_b: usize) -> f64 {
    if ones_a + ones_b == 0 {
        return 1.0;
    }
    2.0 * intersection as f64 / (ones_a + ones_b) as f64
}

// ---------------------------------------------------------------------------
// Scalar reference path (always available, any architecture).
// ---------------------------------------------------------------------------

mod scalar {
    use super::TILE_ROWS;

    #[inline]
    pub(super) fn and_count(a: &[u64], b: &[u64]) -> usize {
        debug_assert_eq!(a.len(), b.len());
        let mut acc = [0usize; 4];
        let mut chunks_a = a.chunks_exact(4);
        let mut chunks_b = b.chunks_exact(4);
        for (ca, cb) in chunks_a.by_ref().zip(chunks_b.by_ref()) {
            acc[0] += (ca[0] & cb[0]).count_ones() as usize;
            acc[1] += (ca[1] & cb[1]).count_ones() as usize;
            acc[2] += (ca[2] & cb[2]).count_ones() as usize;
            acc[3] += (ca[3] & cb[3]).count_ones() as usize;
        }
        let mut tail = 0usize;
        for (x, y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
            tail += (x & y).count_ones() as usize;
        }
        acc[0] + acc[1] + acc[2] + acc[3] + tail
    }

    /// Counts of `probe[from..to]` against the same words of the tile's
    /// eight rows: one counter per row, one tile word per probe word.
    #[inline(always)]
    pub(super) fn count8(tile: &[u64], probe: &[u64], from: usize, to: usize) -> [u32; TILE_ROWS] {
        let mut acc = [0u32; TILE_ROWS];
        let tile = &tile[from * TILE_ROWS..to * TILE_ROWS];
        for (&q, rows) in probe[from..to].iter().zip(tile.chunks_exact(TILE_ROWS)) {
            for (count, &row) in acc.iter_mut().zip(rows) {
                *count += (q & row).count_ones();
            }
        }
        acc
    }

    #[inline]
    pub(super) fn score_tile(
        tile: &[u64],
        lanes: u8,
        probes: &[super::BlockProbe<'_>],
        out: &mut [super::BlockHits],
    ) -> super::BlockTotals {
        super::score_tile_with(tile, lanes, probes, out, |probe, from, to| {
            count8(tile, probe, from, to)
        })
    }
}

// ---------------------------------------------------------------------------
// x86-64 paths. Every `unsafe` here is justified by runtime feature
// detection: the wrappers are only ever reachable through a `Kernel`
// that `detect_kernels` constructed after the matching
// `is_x86_feature_detected!` returned true.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    use super::{BlockHits, BlockProbe, BlockTotals, TILE_ROWS};
    use core::arch::x86_64::*;

    /// One `prefetcht0` per 64-byte line of `words`.
    #[inline]
    pub(super) fn prefetch(words: &[u64]) {
        for line in words.chunks(8) {
            // SAFETY: `prefetcht0` is part of the x86-64 baseline (SSE)
            // and is only a hint: it reads nothing into the program and
            // never faults; the address is inside `words` anyway.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(line.as_ptr().cast()) };
        }
    }

    // ---- portable: the scalar loop with hardware popcount enabled ----
    //
    // The default x86-64 baseline predates `popcnt`, so release builds of
    // the scalar path emit a SWAR bit-count sequence per word. Recompiling
    // the same loop with the feature enabled replaces that with one
    // instruction — and leaves the autovectoriser free to widen it.

    #[target_feature(enable = "popcnt")]
    fn and_count_popcnt_impl(a: &[u64], b: &[u64]) -> usize {
        super::scalar::and_count(a, b)
    }

    #[target_feature(enable = "popcnt")]
    fn score_tile_popcnt_impl(
        tile: &[u64],
        lanes: u8,
        probes: &[BlockProbe<'_>],
        out: &mut [BlockHits],
    ) -> BlockTotals {
        super::scalar::score_tile(tile, lanes, probes, out)
    }

    pub(super) fn and_count_portable(a: &[u64], b: &[u64]) -> usize {
        // SAFETY: reachable only via a Kernel built after
        // is_x86_feature_detected!("popcnt") succeeded.
        unsafe { and_count_popcnt_impl(a, b) }
    }

    pub(super) fn score_tile_portable(
        tile: &[u64],
        lanes: u8,
        probes: &[BlockProbe<'_>],
        out: &mut [BlockHits],
    ) -> BlockTotals {
        // SAFETY: as above — popcnt was detected at runtime.
        unsafe { score_tile_popcnt_impl(tile, lanes, probes, out) }
    }

    // ---- avx2: Muła nibble-LUT popcount over 256-bit lanes ----
    //
    // No popcount instruction exists at 256 bits, so each byte is split
    // into nibbles looked up in an in-register table (`vpshufb`), and the
    // byte counts are folded into u64 lanes with `vpsadbw` — the classic
    // Muła/Kurz/Lemire harley-seal building block. A tile word is two
    // registers (rows 0–3 and rows 4–7), and `vpsadbw` folds each u64
    // lane's own eight bytes, so every lane stays one row's counter.

    #[inline]
    #[target_feature(enable = "avx2")]
    fn popcnt_bytes_avx2(v: __m256i) -> __m256i {
        let lookup = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2,
            3, 3, 4,
        );
        let low_mask = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(v, low_mask);
        let hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
        _mm256_add_epi8(
            _mm256_shuffle_epi8(lookup, lo),
            _mm256_shuffle_epi8(lookup, hi),
        )
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn hsum_epi64_avx2(v: __m256i) -> usize {
        let mut lanes = [0u64; 4];
        // SAFETY: `lanes` is a 32-byte writable buffer; storeu has no
        // alignment requirement.
        unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast(), v) };
        (lanes[0] + lanes[1] + lanes[2] + lanes[3]) as usize
    }

    #[target_feature(enable = "avx2")]
    fn and_count_avx2_impl(a: &[u64], b: &[u64]) -> usize {
        let n = a.len();
        let zero = _mm256_setzero_si256();
        let mut acc = zero;
        let mut i = 0usize;
        while i + 4 <= n {
            // SAFETY: i + 4 <= n, so 32 bytes starting at offset i are in
            // bounds for both slices; loadu tolerates any alignment.
            let v = unsafe {
                let va = _mm256_loadu_si256(a.as_ptr().add(i).cast());
                let vb = _mm256_loadu_si256(b.as_ptr().add(i).cast());
                _mm256_and_si256(va, vb)
            };
            acc = _mm256_add_epi64(acc, _mm256_sad_epu8(popcnt_bytes_avx2(v), zero));
            i += 4;
        }
        let mut total = hsum_epi64_avx2(acc);
        while i < n {
            total += (a[i] & b[i]).count_ones() as usize;
            i += 1;
        }
        total
    }

    /// Counts of `probe[from..to]` against the same words of the tile's
    /// eight rows, as u64 lanes: rows 0–3 and rows 4–7. Byte counts
    /// accumulate for up to 31 words (8 per word stays under 256) before
    /// one `vpsadbw` widens them.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn count8_avx2(tile: &[u64], probe: &[u64], from: usize, to: usize) -> [__m256i; 2] {
        let zero = _mm256_setzero_si256();
        let mut acc = [zero; 2];
        let mut w = from;
        while w < to {
            let run = to.min(w + 31);
            let mut bytes = [zero; 2];
            while w < run {
                let q = _mm256_set1_epi64x(probe[w] as i64);
                let at = w * TILE_ROWS;
                // SAFETY: the caller checked tile.len() == 8 * probe.len(),
                // and w < to <= probe.len(), so both 32-byte loads (tile
                // words at..at + 8) are in bounds.
                let (lo, hi) = unsafe {
                    (
                        _mm256_loadu_si256(tile.as_ptr().add(at).cast()),
                        _mm256_loadu_si256(tile.as_ptr().add(at + 4).cast()),
                    )
                };
                bytes[0] = _mm256_add_epi8(bytes[0], popcnt_bytes_avx2(_mm256_and_si256(lo, q)));
                bytes[1] = _mm256_add_epi8(bytes[1], popcnt_bytes_avx2(_mm256_and_si256(hi, q)));
                w += 1;
            }
            acc[0] = _mm256_add_epi64(acc[0], _mm256_sad_epu8(bytes[0], zero));
            acc[1] = _mm256_add_epi64(acc[1], _mm256_sad_epu8(bytes[1], zero));
        }
        acc
    }

    /// Bit `j` set iff u64 lane `j` of `counts` (rows 0–3, then 4–7)
    /// reaches `floor` — a signed compare, exact since counts and the
    /// floor fit in 33 bits.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn reach_mask_avx2(counts: [__m256i; 2], floor: __m256i) -> u8 {
        let below = |v: __m256i| {
            _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(floor, v))) as u8
        };
        !(below(counts[0]) | (below(counts[1]) << 4))
    }

    /// The tile scan: the prefix stage into two registers of per-row
    /// counters, the prefix bound as one compare per register, and for a
    /// probe with a surviving row the suffix, kept in the scored lanes
    /// only.
    #[target_feature(enable = "avx2")]
    fn score_tile_avx2_impl(
        tile: &[u64],
        lanes: u8,
        probes: &[BlockProbe<'_>],
        out: &mut [BlockHits],
    ) -> BlockTotals {
        let stride = tile.len() / TILE_ROWS;
        let split = super::prefix_words(stride);
        let bit = _mm256_setr_epi64x(1, 2, 4, 8);
        // Dword order of `lo | hi << 32` is rows 0,4,1,5,2,6,3,7.
        let unzip = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
        let mut totals = BlockTotals::default();
        for (probe, hits) in probes.iter().zip(out.iter_mut()) {
            let mut counts = count8_avx2(tile, probe.words, 0, split);
            let need = _mm256_set1_epi64x(i64::from(probe.prefix_need));
            let scored = reach_mask_avx2(counts, need) & lanes;
            if scored == 0 {
                *hits = BlockHits::default();
                continue;
            }
            let suffix = count8_avx2(tile, probe.words, split, stride);
            for (half, (count, extra)) in counts.iter_mut().zip(suffix).enumerate() {
                // Rejected rows and padding read 0.
                let sel = _mm256_set1_epi64x(i64::from(scored >> (4 * half)));
                let keep = _mm256_cmpeq_epi64(_mm256_and_si256(sel, bit), bit);
                *count = _mm256_and_si256(_mm256_add_epi64(*count, extra), keep);
            }
            let cmin = _mm256_set1_epi64x(i64::from(probe.cmin));
            let admitted = reach_mask_avx2(counts, cmin) & scored;
            let packed = _mm256_permutevar8x32_epi32(
                _mm256_or_si256(counts[0], _mm256_slli_epi64::<32>(counts[1])),
                unzip,
            );
            // SAFETY: `counts` is 32 writable bytes; storeu has no
            // alignment requirement.
            unsafe { _mm256_storeu_si256(hits.counts.as_mut_ptr().cast(), packed) };
            hits.scored = scored;
            hits.admitted = admitted;
            totals.add(hits);
        }
        totals
    }

    pub(super) fn and_count_avx2(a: &[u64], b: &[u64]) -> usize {
        // SAFETY: reachable only via a Kernel built after
        // is_x86_feature_detected!("avx2") succeeded.
        unsafe { and_count_avx2_impl(a, b) }
    }

    pub(super) fn score_tile_avx2(
        tile: &[u64],
        lanes: u8,
        probes: &[BlockProbe<'_>],
        out: &mut [BlockHits],
    ) -> BlockTotals {
        // SAFETY: as above — avx2 was detected at runtime.
        unsafe { score_tile_avx2_impl(tile, lanes, probes, out) }
    }

    // ---- avx512: native 64-bit-lane popcount (VPOPCNTDQ) ----

    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    fn and_count_avx512_impl(a: &[u64], b: &[u64]) -> usize {
        let n = a.len();
        let mut acc = _mm512_setzero_si512();
        let mut i = 0usize;
        while i + 8 <= n {
            // SAFETY: i + 8 <= n keeps both 64-byte loads in bounds;
            // loadu tolerates any alignment.
            let v = unsafe {
                let va = _mm512_loadu_si512(a.as_ptr().add(i).cast());
                let vb = _mm512_loadu_si512(b.as_ptr().add(i).cast());
                _mm512_and_si512(va, vb)
            };
            acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
            i += 8;
        }
        let mut total = _mm512_reduce_add_epi64(acc) as usize;
        while i < n {
            total += (a[i] & b[i]).count_ones() as usize;
            i += 1;
        }
        total
    }

    /// Adds the counts of `probe[from..to]` against the same words of
    /// the tile's eight rows to `acc`, one u64 lane per row: per word
    /// one load, one AND with the broadcast probe word, one `vpopcntq`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    fn count8_avx512(
        mut acc: __m512i,
        tile: &[u64],
        probe: &[u64],
        from: usize,
        to: usize,
    ) -> __m512i {
        // Plain index loops throughout these `target_feature` bodies: an
        // iterator adapter that fails to inline costs a call (and a
        // `vzeroupper`) per word.
        let probe = &probe[..to];
        let mut w = from;
        while w < to {
            // SAFETY: the caller checked tile.len() == 8 * probe.len(),
            // and w < to <= probe.len(), so tile words 8w..8w + 8 are in
            // bounds.
            let rows = unsafe { _mm512_loadu_si512(tile.as_ptr().add(w * TILE_ROWS).cast()) };
            let hit = _mm512_and_si512(rows, _mm512_set1_epi64(probe[w] as i64));
            acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(hit));
            w += 1;
        }
        acc
    }

    /// The tile scan with all eight per-row counters in one register:
    /// the prefix bound is one masked compare against the probe's
    /// prefix need, and the suffix continues the same counters.
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    fn score_tile_avx512_impl(
        tile: &[u64],
        lanes: u8,
        probes: &[BlockProbe<'_>],
        out: &mut [BlockHits],
    ) -> BlockTotals {
        let stride = tile.len() / TILE_ROWS;
        let split = super::prefix_words(stride);
        let zero = _mm512_setzero_si512();
        let mut totals = BlockTotals::default();
        for (probe, hits) in probes.iter().zip(out.iter_mut()) {
            let prefix = count8_avx512(zero, tile, probe.words, 0, split);
            let need = _mm512_set1_epi64(i64::from(probe.prefix_need));
            let scored = _mm512_mask_cmpge_epu64_mask(lanes, prefix, need);
            if scored == 0 {
                *hits = BlockHits::default();
                continue;
            }
            // The suffix continues the prefix sum; lanes outside `scored`
            // are zeroed.
            let full = count8_avx512(prefix, tile, probe.words, split, stride);
            let counts = _mm512_maskz_mov_epi64(scored, full);
            let cmin = _mm512_set1_epi64(i64::from(probe.cmin));
            let admitted = _mm512_mask_cmpge_epu64_mask(scored, counts, cmin);
            // SAFETY: `counts` is 32 writable bytes; storeu has no
            // alignment requirement.
            unsafe {
                _mm256_storeu_si256(
                    hits.counts.as_mut_ptr().cast(),
                    _mm512_cvtepi64_epi32(counts),
                )
            };
            hits.scored = scored;
            hits.admitted = admitted;
            totals.add(hits);
        }
        totals
    }

    pub(super) fn and_count_avx512(a: &[u64], b: &[u64]) -> usize {
        // SAFETY: reachable only via a Kernel built after
        // is_x86_feature_detected! confirmed avx512f + avx512vpopcntdq.
        unsafe { and_count_avx512_impl(a, b) }
    }

    pub(super) fn score_tile_avx512(
        tile: &[u64],
        lanes: u8,
        probes: &[BlockProbe<'_>],
        out: &mut [BlockHits],
    ) -> BlockTotals {
        // SAFETY: as above — avx512f + avx512vpopcntdq were detected.
        unsafe { score_tile_avx512_impl(tile, lanes, probes, out) }
    }
}

// ---------------------------------------------------------------------------
// aarch64 path: `cnt.16b` counts bits per byte, then three widening
// pairwise adds fold bytes → u64 lanes.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
#[allow(unsafe_code)]
mod arm {
    use super::{BlockHits, BlockProbe, BlockTotals, TILE_ROWS};
    use core::arch::aarch64::*;

    /// Popcount of each u64 lane of `v`: bytes, then three widening
    /// pairwise adds that stay inside the lane.
    #[inline]
    #[target_feature(enable = "neon")]
    fn popcnt_lanes(v: uint64x2_t) -> uint64x2_t {
        vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(vcntq_u8(vreinterpretq_u8_u64(v)))))
    }

    #[target_feature(enable = "neon")]
    fn and_count_neon_impl(a: &[u64], b: &[u64]) -> usize {
        let n = a.len();
        let mut acc = vdupq_n_u64(0);
        let mut i = 0usize;
        while i + 2 <= n {
            // SAFETY: i + 2 <= n keeps both 16-byte loads in bounds.
            let v = unsafe {
                let va = vld1q_u64(a.as_ptr().add(i));
                let vb = vld1q_u64(b.as_ptr().add(i));
                vandq_u64(va, vb)
            };
            acc = vaddq_u64(acc, popcnt_lanes(v));
            i += 2;
        }
        let mut total = (vgetq_lane_u64(acc, 0) + vgetq_lane_u64(acc, 1)) as usize;
        while i < n {
            total += (a[i] & b[i]).count_ones() as usize;
            i += 1;
        }
        total
    }

    /// Counts of `probe[from..to]` against the same words of the tile's
    /// eight rows: a tile word is four registers of two rows each, every
    /// u64 lane one row's counter.
    #[inline]
    #[target_feature(enable = "neon")]
    fn count8_neon(tile: &[u64], probe: &[u64], from: usize, to: usize) -> [u32; TILE_ROWS] {
        let mut acc = [vdupq_n_u64(0); 4];
        let probe = &probe[..to];
        let mut w = from;
        while w < to {
            let q = vdupq_n_u64(probe[w]);
            let mut pair = 0;
            while pair < 4 {
                // SAFETY: the caller checked tile.len() == 8 * probe.len(),
                // and w < to <= probe.len(), so tile words 8w + 2·pair ..
                // + 2 are in bounds.
                let rows = unsafe { vld1q_u64(tile.as_ptr().add(w * TILE_ROWS + 2 * pair)) };
                acc[pair] = vaddq_u64(acc[pair], popcnt_lanes(vandq_u64(q, rows)));
                pair += 1;
            }
            w += 1;
        }
        let mut counts = [0u32; TILE_ROWS];
        for (pair, lane) in acc.iter().enumerate() {
            counts[2 * pair] = vgetq_lane_u64(*lane, 0) as u32;
            counts[2 * pair + 1] = vgetq_lane_u64(*lane, 1) as u32;
        }
        counts
    }

    #[target_feature(enable = "neon")]
    fn score_tile_neon_impl(
        tile: &[u64],
        lanes: u8,
        probes: &[BlockProbe<'_>],
        out: &mut [BlockHits],
    ) -> BlockTotals {
        super::score_tile_with(tile, lanes, probes, out, |probe, from, to| {
            count8_neon(tile, probe, from, to)
        })
    }

    pub(super) fn and_count_neon(a: &[u64], b: &[u64]) -> usize {
        // SAFETY: reachable only via a Kernel built after the aarch64
        // runtime detection of "neon" succeeded.
        unsafe { and_count_neon_impl(a, b) }
    }

    pub(super) fn score_tile_neon(
        tile: &[u64],
        lanes: u8,
        probes: &[BlockProbe<'_>],
        out: &mut [BlockHits],
    ) -> BlockTotals {
        // SAFETY: as above — neon was detected at runtime.
        unsafe { score_tile_neon_impl(tile, lanes, probes, out) }
    }
}

// ---------------------------------------------------------------------------
// Dispatch: one-time detection + PPRL_KERNEL override.
// ---------------------------------------------------------------------------

const SCALAR: Kernel = Kernel {
    name: "scalar",
    and_count: scalar::and_count,
    score_tile: scalar::score_tile,
};

/// Detect what this CPU supports, worst path first / best path last.
fn detect_kernels() -> Vec<Kernel> {
    #[allow(unused_mut)]
    let mut v = vec![SCALAR];
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("popcnt") {
            v.push(Kernel {
                name: "portable",
                and_count: x86::and_count_portable,
                score_tile: x86::score_tile_portable,
            });
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            v.push(Kernel {
                name: "avx2",
                and_count: x86::and_count_avx2,
                score_tile: x86::score_tile_avx2,
            });
        }
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
        {
            v.push(Kernel {
                name: "avx512",
                and_count: x86::and_count_avx512,
                score_tile: x86::score_tile_avx512,
            });
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            v.push(Kernel {
                name: "neon",
                and_count: arm::and_count_neon,
                score_tile: arm::score_tile_neon,
            });
        }
    }
    v
}

/// Every kernel path this CPU can execute, worst first, best last.
/// `scalar` is always present. Detection runs once per process.
pub fn available_kernels() -> &'static [Kernel] {
    static KERNELS: OnceLock<Vec<Kernel>> = OnceLock::new();
    KERNELS.get_or_init(detect_kernels)
}

struct Dispatch {
    active: Kernel,
    requested: Option<String>,
}

/// Pure selection rule, factored out so it is testable without touching
/// process-global environment: `None` / `"auto"` pick the best available
/// path; a known name picks that path; an unknown or unsupported name
/// falls back to the best path (the caller can detect this via
/// [`requested_is_supported`]).
fn select_kernel(requested: Option<&str>, kernels: &[Kernel]) -> Kernel {
    let best = *kernels.last().expect("scalar kernel is always available");
    match requested {
        None | Some("auto") => best,
        Some(name) => kernels
            .iter()
            .find(|k| k.name == name)
            .copied()
            .unwrap_or(best),
    }
}

fn dispatch() -> &'static Dispatch {
    static DISPATCH: OnceLock<Dispatch> = OnceLock::new();
    DISPATCH.get_or_init(|| {
        let requested = std::env::var("PPRL_KERNEL")
            .ok()
            .map(|s| s.trim().to_ascii_lowercase())
            .filter(|s| !s.is_empty());
        let active = select_kernel(requested.as_deref(), available_kernels());
        Dispatch { active, requested }
    })
}

/// The kernel every [`and_count`] call and every scan dispatches to.
/// Resolved once per process from CPU detection and `PPRL_KERNEL`.
#[inline]
pub fn active_kernel() -> Kernel {
    dispatch().active
}

/// Name of the active kernel path (`"scalar"`, `"avx512"`, …).
#[inline]
pub fn kernel_name() -> &'static str {
    dispatch().active.name
}

/// The normalised `PPRL_KERNEL` value, if one was set (including
/// `"auto"` and unsupported names that fell back to the best path).
pub fn requested_kernel() -> Option<&'static str> {
    dispatch().requested.as_deref()
}

/// False iff `PPRL_KERNEL` named a path this host cannot run (the
/// dispatcher then fell back to the best supported path). CI uses this
/// to fail fast instead of silently benchmarking the wrong kernel.
pub fn requested_is_supported() -> bool {
    match requested_kernel() {
        None => true,
        Some("auto") => true,
        Some(name) => name == kernel_name(),
    }
}

/// The kernel-relevant CPU features detected on this host, for
/// recording in benchmark output so cross-machine numbers stay
/// interpretable.
pub fn cpu_features() -> Vec<&'static str> {
    #[allow(unused_mut)]
    let mut v = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        for (name, hit) in [
            ("popcnt", std::arch::is_x86_feature_detected!("popcnt")),
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
            (
                "avx512vpopcntdq",
                std::arch::is_x86_feature_detected!("avx512vpopcntdq"),
            ),
        ] {
            if hit {
                v.push(name);
            }
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            v.push("neon");
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitvec_sim::dice_bits;
    use pprl_core::bitvec::BitVec;
    use pprl_core::rng::SplitMix64;

    fn random_filter(len: usize, denom: u64, rng: &mut SplitMix64) -> BitVec {
        let ones: Vec<usize> = (0..len)
            .filter(|_| rng.next_u64().is_multiple_of(denom))
            .collect();
        BitVec::from_positions(len, &ones).unwrap()
    }

    #[test]
    fn and_count_matches_bitvec_over_random_filters() {
        let mut rng = SplitMix64::new(0xA11D);
        for len in [1usize, 7, 63, 64, 65, 256, 1000, 2048] {
            for denom in [1u64, 2, 5, 17] {
                let a = random_filter(len, denom, &mut rng);
                let b = random_filter(len, denom, &mut rng);
                assert_eq!(
                    and_count(a.as_words(), b.as_words()),
                    a.and_count(&b),
                    "len={len} denom={denom}"
                );
            }
            // Edge cases: empty against everything, all-ones pairs.
            let zero = BitVec::zeros(len);
            let ones = BitVec::ones(len);
            assert_eq!(and_count(zero.as_words(), ones.as_words()), 0);
            assert_eq!(and_count(ones.as_words(), ones.as_words()), len);
        }
    }

    /// Full counts of one probe against the rows of a tile, through
    /// `kernel.score_tile` with `cmin = 0` (every row admitted).
    fn tile_counts(kernel: &Kernel, query: &BitVec, rows: &[BitVec]) -> Vec<usize> {
        let stride = query.as_words().len();
        let mut tile = vec![0u64; TILE_ROWS * stride];
        for (j, row) in rows.iter().enumerate() {
            for (w, &word) in row.as_words().iter().enumerate() {
                tile[w * TILE_ROWS + j] = word;
            }
        }
        let mut out = [BlockHits::default()];
        let totals = kernel.score_tile(
            &tile,
            rows.len(),
            &[BlockProbe::new(query.as_words(), 0)],
            &mut out,
        );
        let lanes = ((1u16 << rows.len()) - 1) as u8;
        assert_eq!((out[0].scored, out[0].admitted), (lanes, lanes));
        assert_eq!(totals.scored as usize, rows.len());
        out[0].counts[..rows.len()]
            .iter()
            .map(|&c| c as usize)
            .collect()
    }

    #[test]
    fn score_tile_at_zero_admission_matches_per_row_calls() {
        let mut rng = SplitMix64::new(0xB10C);
        for len in [64usize, 100, 1000] {
            for n in [1usize, 5, 8] {
                let q = random_filter(len, 3, &mut rng);
                let rows: Vec<BitVec> = (0..n).map(|_| random_filter(len, 3, &mut rng)).collect();
                let got = tile_counts(&active_kernel(), &q, &rows);
                for (i, r) in rows.iter().enumerate() {
                    assert_eq!(got[i], q.and_count(r), "len={len} rows={n} row={i}");
                }
            }
        }
    }

    #[test]
    fn every_available_path_matches_the_scalar_oracle() {
        // Lengths chosen so the word count mod the widest vector width
        // (8 words) covers every tail size, including 0.
        let mut rng = SplitMix64::new(0x51D);
        for len in [
            1usize, 63, 64, 65, 127, 128, 129, 191, 192, 193, 255, 256, 257, 320, 321, 448, 449,
            512, 513, 1000, 2048,
        ] {
            for denom in [1u64, 2, 7] {
                let a = random_filter(len, denom, &mut rng);
                let b = random_filter(len, denom, &mut rng);
                let rows: Vec<BitVec> = (0..TILE_ROWS)
                    .map(|_| random_filter(len, denom, &mut rng))
                    .collect();
                let want1 = a.and_count(&b);
                let want8: Vec<usize> = rows.iter().map(|r| a.and_count(r)).collect();
                for k in available_kernels() {
                    assert_eq!(
                        k.and_count(a.as_words(), b.as_words()),
                        want1,
                        "kernel={} len={len} denom={denom}",
                        k.name()
                    );
                    assert_eq!(
                        tile_counts(k, &a, &rows),
                        want8,
                        "kernel={} len={len} denom={denom}",
                        k.name()
                    );
                }
            }
        }
    }

    #[test]
    fn select_kernel_honors_names_and_falls_back() {
        let kernels = available_kernels();
        let best = kernels.last().unwrap();
        // Unset and "auto" pick the best path.
        assert_eq!(select_kernel(None, kernels).name(), best.name());
        assert_eq!(select_kernel(Some("auto"), kernels).name(), best.name());
        // Every supported name picks exactly that path.
        for k in kernels {
            assert_eq!(select_kernel(Some(k.name()), kernels).name(), k.name());
        }
        // Unknown names fall back to the best path instead of panicking.
        assert_eq!(select_kernel(Some("quantum"), kernels).name(), best.name());
    }

    #[test]
    fn scalar_is_always_available_and_first() {
        let kernels = available_kernels();
        assert_eq!(kernels[0].name(), "scalar");
        // The active kernel is always one of the available paths.
        assert!(kernels.iter().any(|k| k.name() == kernel_name()));
    }

    #[test]
    #[should_panic(expected = "score_tile")]
    fn mismatched_stride_panics_in_release_too() {
        let q = [0u64; 4];
        let tile = [0u64; 24]; // 8 rows of 3 words, not of 4
        let mut out = [BlockHits::default()];
        active_kernel().score_tile(&tile, TILE_ROWS, &[BlockProbe::new(&q, 0)], &mut out);
    }

    #[test]
    fn dice_from_counts_is_bit_identical_to_dice_bits() {
        let mut rng = SplitMix64::new(0xD1CE);
        for _ in 0..200 {
            let a = random_filter(512, 1 + rng.next_u64() % 6, &mut rng);
            let b = random_filter(512, 1 + rng.next_u64() % 6, &mut rng);
            let inter = and_count(a.as_words(), b.as_words());
            let got = dice_from_counts(inter, a.count_ones(), b.count_ones());
            let want = dice_bits(&a, &b).unwrap();
            assert!(got == want, "kernel {got} != scalar {want}");
        }
        // Both-empty convention.
        assert_eq!(dice_from_counts(0, 0, 0), 1.0);
    }
}
