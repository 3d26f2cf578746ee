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
//! * [`Kernel::score_block`] — one 4-row arena block against every live
//!   probe of a scan in a single call. It is a two-stage admission test:
//!   each probe carries an integer *admission count* `cmin`, and a row
//!   matters only if its intersection count `c` reaches it. The first
//!   stage counts the row prefix (the first [`prefix_words`] words) and
//!   rejects the row when `c_prefix + popcount(probe suffix) < cmin`,
//!   which is sound because the suffix can add at most the probe
//!   suffix's popcount. Survivors are finished over the suffix in the
//!   same call. The result per probe is a row mask plus exact counts,
//!   the same on every dispatch path.
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
//! and checks [`Kernel::score_block`] against a scalar reference at
//! admission counts set exactly at, and one above, each stage's count.

use std::sync::OnceLock;

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
    score_block: fn(&[u64], &[BlockProbe<'_>], &mut [BlockHits]) -> BlockTotals,
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

    /// Scores one 4-row block (`rows`, the rows laid out back to back)
    /// against every probe in `probes`, writing one [`BlockHits`] per
    /// probe into `out[..probes.len()]`. Bit `j` of `admitted` is set iff
    /// row `j`'s intersection count with the probe is at least the
    /// probe's `cmin`; see the module docs for the two stages. The
    /// returned totals let a caller skip reading `out` when no row was
    /// admitted.
    ///
    /// The shape checks stay on in release builds, as with
    /// [`Kernel::and_count`]: one per probe per block.
    #[inline]
    pub fn score_block(
        &self,
        rows: &[u64],
        probes: &[BlockProbe<'_>],
        out: &mut [BlockHits],
    ) -> BlockTotals {
        assert!(
            rows.len().is_multiple_of(4),
            "score_block: rows must hold exactly 4 rows of one stride"
        );
        let stride = rows.len() / 4;
        assert!(out.len() >= probes.len(), "score_block: output too short");
        for probe in probes {
            assert_eq!(
                probe.words.len(),
                stride,
                "score_block: probe width differs from the row stride"
            );
        }
        (self.score_block)(rows, probes, &mut out[..probes.len()])
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

/// One live probe of a [`Kernel::score_block`] call: the probe's filter
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
            cmin,
        }
    }

    /// The same probe at another admission count.
    #[inline]
    pub fn with_cmin(self, cmin: u32) -> BlockProbe<'a> {
        BlockProbe { cmin, ..self }
    }
}

/// What [`Kernel::score_block`] found for one probe against one block.
/// Bit `j` of each mask stands for row `j` of the block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockHits {
    /// Rows that passed the prefix bound and were counted in full.
    pub scored: u8,
    /// Scored rows whose full count reached `cmin`.
    pub admitted: u8,
    /// The full intersection count of each scored row, and the prefix
    /// count of each row the prefix bound rejected.
    pub counts: [u32; 4],
}

/// Words of a `stride`-word row that [`Kernel::score_block`] counts
/// before it applies the prefix bound: the first half, rounded down.
#[inline]
pub fn prefix_words(stride: usize) -> usize {
    stride / 2
}

/// Totals over every probe of one [`Kernel::score_block`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockTotals {
    /// Rows scored in full, summed over the probes.
    pub scored: u32,
    /// Union of the probes' `admitted` masks.
    pub admitted: u8,
}

/// The prefix bound for four rows: bit `j` is set iff
/// `prefix[j] + probe.suffix_ones >= probe.cmin`.
#[inline(always)]
fn prefix_mask(prefix: [u32; 4], probe: &BlockProbe<'_>) -> u8 {
    let bound = u64::from(probe.suffix_ones);
    let mut mask = 0u8;
    for (j, &count) in prefix.iter().enumerate() {
        mask |= u8::from(u64::from(count) + bound >= u64::from(probe.cmin)) << j;
    }
    mask
}

/// The second stage shared by every path. Each path leaves the prefix
/// counts in `out[p].counts` and the prefix bound's verdict in
/// `out[p].scored`; this finishes the probes with a surviving row over
/// the suffix, with the path's own four-row counter `suffix4`, and sets
/// the admitted masks.
#[inline(always)]
fn finish_block(
    probes: &[BlockProbe<'_>],
    out: &mut [BlockHits],
    suffix4: impl Fn(&[u64]) -> [u32; 4],
) -> BlockTotals {
    let mut totals = BlockTotals::default();
    for (probe, hits) in probes.iter().zip(out.iter_mut()) {
        hits.admitted = 0;
        if hits.scored == 0 {
            continue;
        }
        totals.scored += hits.scored.count_ones();
        let suffix = suffix4(probe.words);
        for (j, (count, extra)) in hits.counts.iter_mut().zip(suffix).enumerate() {
            // Branch-free: rows the prefix bound rejected keep their
            // prefix count and stay unadmitted.
            let scored = (hits.scored >> j) & 1;
            *count += extra * u32::from(scored);
            hits.admitted |= (u8::from(*count >= probe.cmin) & scored) << j;
        }
        totals.admitted |= hits.admitted;
    }
    totals
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

    /// Counts of `probe[from..to]` against the same words of each of
    /// the four `stride`-word rows in `rows`.
    #[inline(always)]
    pub(super) fn count4(
        rows: &[u64],
        stride: usize,
        probe: &[u64],
        from: usize,
        to: usize,
    ) -> [u32; 4] {
        let (r0, rest) = rows.split_at(stride);
        let (r1, rest) = rest.split_at(stride);
        let (r2, r3) = rest.split_at(stride);
        let mut acc = [0u32; 4];
        for w in from..to {
            let q = probe[w];
            acc[0] += (q & r0[w]).count_ones();
            acc[1] += (q & r1[w]).count_ones();
            acc[2] += (q & r2[w]).count_ones();
            acc[3] += (q & r3[w]).count_ones();
        }
        acc
    }

    /// The block scan, probe by probe: four prefix accumulators per
    /// probe, then the shared second stage.
    #[inline]
    pub(super) fn score_block(
        rows: &[u64],
        probes: &[super::BlockProbe<'_>],
        out: &mut [super::BlockHits],
    ) -> super::BlockTotals {
        let stride = rows.len() / 4;
        let split = super::prefix_words(stride);
        for (probe, hits) in probes.iter().zip(out.iter_mut()) {
            hits.counts = count4(rows, stride, probe.words, 0, split);
            hits.scored = super::prefix_mask(hits.counts, probe);
        }
        super::finish_block(probes, out, |probe| {
            count4(rows, stride, probe, split, stride)
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
    use super::{BlockHits, BlockProbe, BlockTotals};
    use core::arch::x86_64::*;

    // ---- shared by the avx2 and avx512 block scans ----

    /// The prefix bound in-register: bit `j` is set iff dword `j` of
    /// `prefix` plus the probe's suffix popcount reaches its admission
    /// count (an unsigned compare).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn prefix_mask_sse(prefix: __m128i, probe: &BlockProbe<'_>) -> u8 {
        let bound = _mm_add_epi32(prefix, _mm_set1_epi32(probe.suffix_ones as i32));
        let cmin = _mm_set1_epi32(probe.cmin as i32);
        let reached = _mm_cmpeq_epi32(_mm_max_epu32(bound, cmin), bound);
        _mm_movemask_ps(_mm_castsi128_ps(reached)) as u8
    }

    /// Adds `sums` to the four counts in `counts`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn add_counts(counts: &mut [u32; 4], sums: __m128i) -> __m128i {
        // SAFETY: `counts` is 16 readable and writable bytes;
        // loadu/storeu have no alignment requirement.
        unsafe {
            let total = _mm_add_epi32(_mm_loadu_si128(counts.as_ptr().cast()), sums);
            _mm_storeu_si128(counts.as_mut_ptr().cast(), total);
            total
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
    fn score_block_popcnt_impl(
        rows: &[u64],
        probes: &[BlockProbe<'_>],
        out: &mut [BlockHits],
    ) -> BlockTotals {
        super::scalar::score_block(rows, probes, out)
    }

    pub(super) fn and_count_portable(a: &[u64], b: &[u64]) -> usize {
        // SAFETY: reachable only via a Kernel built after
        // is_x86_feature_detected!("popcnt") succeeded.
        unsafe { and_count_popcnt_impl(a, b) }
    }

    pub(super) fn score_block_portable(
        rows: &[u64],
        probes: &[BlockProbe<'_>],
        out: &mut [BlockHits],
    ) -> BlockTotals {
        // SAFETY: as above — popcnt was detected at runtime.
        unsafe { score_block_popcnt_impl(rows, probes, out) }
    }

    // ---- avx2: Muła nibble-LUT popcount over 256-bit lanes ----
    //
    // No popcount instruction exists at 256 bits, so each byte is split
    // into nibbles looked up in an in-register table (`vpshufb`), and the
    // byte counts are folded into u64 lanes with `vpsadbw` — the classic
    // Muła/Kurz/Lemire harley-seal building block.

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

    /// Loads words `w..w + 4` of `row`, the lanes at or past `to` as 0.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn load4_avx2(row: &[u64], w: usize, to: usize) -> __m256i {
        let live = _mm256_set1_epi64x(to.saturating_sub(w).min(4) as i64);
        let mask = _mm256_cmpgt_epi64(live, _mm256_setr_epi64x(0, 1, 2, 3));
        // SAFETY: every unmasked lane lies in w..to, and callers keep
        // to <= row.len(); masked lanes are not accessed.
        unsafe { _mm256_maskload_epi64(row.as_ptr().add(w.min(row.len())).cast::<i64>(), mask) }
    }

    /// One probe chunk against the same chunk of four rows, folded into
    /// one register in a single combined reduction: each row's lane sums
    /// go to one dword (rows 0 and 2 in the low dword of a lane, rows 1
    /// and 3 in the high dword), so dword `j` of the result is row `j`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn sums4_avx2(p: __m256i, rows: [__m256i; 4]) -> __m128i {
        let zero = _mm256_setzero_si256();
        let count = |a: __m256i| _mm256_sad_epu8(popcnt_bytes_avx2(_mm256_and_si256(p, a)), zero);
        let t01 = _mm256_or_si256(count(rows[0]), _mm256_slli_epi64::<32>(count(rows[1])));
        let t23 = _mm256_or_si256(count(rows[2]), _mm256_slli_epi64::<32>(count(rows[3])));
        let u = _mm256_add_epi64(
            _mm256_unpacklo_epi64(t01, t23),
            _mm256_unpackhi_epi64(t01, t23),
        );
        _mm_add_epi64(_mm256_castsi256_si128(u), _mm256_extracti128_si256::<1>(u))
    }

    /// Counts of `probe[from..to]` against the same words of the four
    /// `stride`-word rows, as four dwords.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn count4_avx2(rows: &[u64], stride: usize, probe: &[u64], from: usize, to: usize) -> [u32; 4] {
        let (r0, rest) = rows.split_at(stride);
        let (r1, rest) = rest.split_at(stride);
        let (r2, r3) = rest.split_at(stride);
        let mut acc = _mm_setzero_si128();
        let mut w = from;
        while w < to {
            let chunk = |row: &[u64]| load4_avx2(row, w, to);
            let sums = sums4_avx2(chunk(probe), [chunk(r0), chunk(r1), chunk(r2), chunk(r3)]);
            acc = _mm_add_epi32(acc, sums);
            w += 4;
        }
        let mut counts = [0u32; 4];
        add_counts(&mut counts, acc);
        counts
    }

    /// The block scan. The prefix stage goes one 4-word chunk at a time:
    /// the chunk of all four rows is loaded once and held in registers
    /// while every probe is counted against it, and the prefix bound is
    /// applied in-register on the last chunk. Probes with a surviving row
    /// finish over the suffix in the shared second stage.
    #[target_feature(enable = "avx2")]
    fn score_block_avx2_impl(
        rows: &[u64],
        probes: &[BlockProbe<'_>],
        out: &mut [BlockHits],
    ) -> BlockTotals {
        let stride = rows.len() / 4;
        let split = super::prefix_words(stride);
        let mut w = 0usize;
        loop {
            let last = w + 4 >= split;
            let chunk = |j: usize| load4_avx2(&rows[j * stride..(j + 1) * stride], w, split);
            let block = [chunk(0), chunk(1), chunk(2), chunk(3)];
            for (probe, hits) in probes.iter().zip(out.iter_mut()) {
                let sums = sums4_avx2(load4_avx2(probe.words, w, split), block);
                if w == 0 {
                    hits.counts = [0; 4];
                }
                let prefix = add_counts(&mut hits.counts, sums);
                if last {
                    hits.scored = prefix_mask_sse(prefix, probe);
                }
            }
            if last {
                break;
            }
            w += 4;
        }
        super::finish_block(probes, out, |probe| {
            count4_avx2(rows, stride, probe, split, stride)
        })
    }

    pub(super) fn and_count_avx2(a: &[u64], b: &[u64]) -> usize {
        // SAFETY: reachable only via a Kernel built after
        // is_x86_feature_detected!("avx2") succeeded.
        unsafe { and_count_avx2_impl(a, b) }
    }

    pub(super) fn score_block_avx2(
        rows: &[u64],
        probes: &[BlockProbe<'_>],
        out: &mut [BlockHits],
    ) -> BlockTotals {
        // SAFETY: as above — avx2 was detected at runtime.
        unsafe { score_block_avx2_impl(rows, probes, out) }
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

    /// Loads words `w..w + 8` of `row`, the lanes at or past `to` as 0.
    #[inline]
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    fn load8_avx512(row: &[u64], w: usize, to: usize) -> __m512i {
        let live = to.saturating_sub(w);
        let mask: __mmask8 = if live >= 8 { 0xFF } else { (1u8 << live) - 1 };
        // SAFETY: every unmasked lane lies in w..to, and callers keep
        // to <= row.len(); masked lanes are not accessed.
        unsafe { _mm512_maskz_loadu_epi64(mask, row.as_ptr().add(w.min(row.len())).cast()) }
    }

    /// One probe chunk against the same chunk of four rows, folded into
    /// one register in a single combined reduction, as in the avx2 path.
    #[inline]
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    fn sums4_avx512(p: __m512i, rows: [__m512i; 4]) -> __m128i {
        let count = |a: __m512i| _mm512_popcnt_epi64(_mm512_and_si512(p, a));
        let t01 = _mm512_or_si512(count(rows[0]), _mm512_slli_epi64::<32>(count(rows[1])));
        let t23 = _mm512_or_si512(count(rows[2]), _mm512_slli_epi64::<32>(count(rows[3])));
        let u = _mm512_add_epi64(
            _mm512_unpacklo_epi64(t01, t23),
            _mm512_unpackhi_epi64(t01, t23),
        );
        let v = _mm256_add_epi64(_mm512_castsi512_si256(u), _mm512_extracti64x4_epi64::<1>(u));
        _mm_add_epi64(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v))
    }

    /// Counts of `probe[from..to]` against the same words of the four
    /// `stride`-word rows, as four dwords.
    #[inline]
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    fn count4_avx512(
        rows: &[u64],
        stride: usize,
        probe: &[u64],
        from: usize,
        to: usize,
    ) -> [u32; 4] {
        let (r0, rest) = rows.split_at(stride);
        let (r1, rest) = rest.split_at(stride);
        let (r2, r3) = rest.split_at(stride);
        let mut acc = _mm_setzero_si128();
        let mut w = from;
        while w < to {
            let chunk = |row: &[u64]| load8_avx512(row, w, to);
            let sums = sums4_avx512(chunk(probe), [chunk(r0), chunk(r1), chunk(r2), chunk(r3)]);
            acc = _mm_add_epi32(acc, sums);
            w += 8;
        }
        let mut counts = [0u32; 4];
        add_counts(&mut counts, acc);
        counts
    }

    /// The block scan, as in the avx2 path with 8-word chunks: the rows'
    /// prefix chunk stays in registers across all probes, and each probe
    /// costs one combined reduction per chunk (a single chunk for rows
    /// of up to 16 words).
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    fn score_block_avx512_impl(
        rows: &[u64],
        probes: &[BlockProbe<'_>],
        out: &mut [BlockHits],
    ) -> BlockTotals {
        let stride = rows.len() / 4;
        let split = super::prefix_words(stride);
        let mut w = 0usize;
        loop {
            let last = w + 8 >= split;
            let chunk = |j: usize| load8_avx512(&rows[j * stride..(j + 1) * stride], w, split);
            let block = [chunk(0), chunk(1), chunk(2), chunk(3)];
            for (probe, hits) in probes.iter().zip(out.iter_mut()) {
                let sums = sums4_avx512(load8_avx512(probe.words, w, split), block);
                if w == 0 {
                    hits.counts = [0; 4];
                }
                let prefix = add_counts(&mut hits.counts, sums);
                if last {
                    hits.scored = prefix_mask_sse(prefix, probe);
                }
            }
            if last {
                break;
            }
            w += 8;
        }
        super::finish_block(probes, out, |probe| {
            count4_avx512(rows, stride, probe, split, stride)
        })
    }

    pub(super) fn and_count_avx512(a: &[u64], b: &[u64]) -> usize {
        // SAFETY: reachable only via a Kernel built after
        // is_x86_feature_detected! confirmed avx512f + avx512vpopcntdq.
        unsafe { and_count_avx512_impl(a, b) }
    }

    pub(super) fn score_block_avx512(
        rows: &[u64],
        probes: &[BlockProbe<'_>],
        out: &mut [BlockHits],
    ) -> BlockTotals {
        // SAFETY: as above — avx512f + avx512vpopcntdq were detected.
        unsafe { score_block_avx512_impl(rows, probes, out) }
    }
}

// ---------------------------------------------------------------------------
// aarch64 path: `cnt.16b` counts bits per byte, then three widening
// pairwise adds fold bytes → u64 lanes.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
#[allow(unsafe_code)]
mod arm {
    use super::{BlockHits, BlockProbe, BlockTotals};
    use core::arch::aarch64::*;

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
            let cnt = vcntq_u8(vreinterpretq_u8_u64(v));
            acc = vaddq_u64(acc, vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(cnt))));
            i += 2;
        }
        let mut total = (vgetq_lane_u64(acc, 0) + vgetq_lane_u64(acc, 1)) as usize;
        while i < n {
            total += (a[i] & b[i]).count_ones() as usize;
            i += 1;
        }
        total
    }

    /// Counts of `probe[from..to]` against the same words of the four
    /// `stride`-word rows, with one combined reduction: two pairwise adds
    /// fold the four row accumulators into `[row0, row1]` and
    /// `[row2, row3]`.
    #[inline]
    #[target_feature(enable = "neon")]
    fn count4_neon(rows: &[u64], stride: usize, probe: &[u64], from: usize, to: usize) -> [u32; 4] {
        let (r0, rest) = rows.split_at(stride);
        let (r1, rest) = rest.split_at(stride);
        let (r2, r3) = rest.split_at(stride);
        let mut acc = [vdupq_n_u64(0); 4];
        let mut i = from;
        while i + 2 <= to {
            // SAFETY: i + 2 <= to <= stride keeps all five 16-byte loads
            // in bounds of their stride-length slices.
            unsafe {
                let q = vld1q_u64(probe.as_ptr().add(i));
                for (lane, r) in [r0, r1, r2, r3].into_iter().enumerate() {
                    let v = vandq_u64(q, vld1q_u64(r.as_ptr().add(i)));
                    let cnt = vcntq_u8(vreinterpretq_u8_u64(v));
                    acc[lane] = vaddq_u64(acc[lane], vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(cnt))));
                }
            }
            i += 2;
        }
        let s01 = vpaddq_u64(acc[0], acc[1]);
        let s23 = vpaddq_u64(acc[2], acc[3]);
        let mut out = [
            vgetq_lane_u64(s01, 0) as u32,
            vgetq_lane_u64(s01, 1) as u32,
            vgetq_lane_u64(s23, 0) as u32,
            vgetq_lane_u64(s23, 1) as u32,
        ];
        while i < to {
            let q = probe[i];
            out[0] += (q & r0[i]).count_ones();
            out[1] += (q & r1[i]).count_ones();
            out[2] += (q & r2[i]).count_ones();
            out[3] += (q & r3[i]).count_ones();
            i += 1;
        }
        out
    }

    /// The block scan probe by probe (a 2-word chunk is too narrow to be
    /// worth holding across probes), then the shared second stage.
    #[target_feature(enable = "neon")]
    fn score_block_neon_impl(
        rows: &[u64],
        probes: &[BlockProbe<'_>],
        out: &mut [BlockHits],
    ) -> BlockTotals {
        let stride = rows.len() / 4;
        let split = super::prefix_words(stride);
        for (probe, hits) in probes.iter().zip(out.iter_mut()) {
            hits.counts = count4_neon(rows, stride, probe.words, 0, split);
            hits.scored = super::prefix_mask(hits.counts, probe);
        }
        super::finish_block(probes, out, |probe| {
            count4_neon(rows, stride, probe, split, stride)
        })
    }

    pub(super) fn and_count_neon(a: &[u64], b: &[u64]) -> usize {
        // SAFETY: reachable only via a Kernel built after the aarch64
        // runtime detection of "neon" succeeded.
        unsafe { and_count_neon_impl(a, b) }
    }

    pub(super) fn score_block_neon(
        rows: &[u64],
        probes: &[BlockProbe<'_>],
        out: &mut [BlockHits],
    ) -> BlockTotals {
        // SAFETY: as above — neon was detected at runtime.
        unsafe { score_block_neon_impl(rows, probes, out) }
    }
}

// ---------------------------------------------------------------------------
// Dispatch: one-time detection + PPRL_KERNEL override.
// ---------------------------------------------------------------------------

const SCALAR: Kernel = Kernel {
    name: "scalar",
    and_count: scalar::and_count,
    score_block: scalar::score_block,
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
                score_block: x86::score_block_portable,
            });
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            v.push(Kernel {
                name: "avx2",
                and_count: x86::and_count_avx2,
                score_block: x86::score_block_avx2,
            });
        }
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
        {
            v.push(Kernel {
                name: "avx512",
                and_count: x86::and_count_avx512,
                score_block: x86::score_block_avx512,
            });
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            v.push(Kernel {
                name: "neon",
                and_count: arm::and_count_neon,
                score_block: arm::score_block_neon,
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

    /// Full counts of one probe against a 4-row block, through
    /// `kernel.score_block` with `cmin = 0` (every row admitted).
    fn block_counts(kernel: &Kernel, query: &BitVec, flat: &[u64]) -> Vec<usize> {
        let mut out = [BlockHits::default()];
        kernel.score_block(flat, &[BlockProbe::new(query.as_words(), 0)], &mut out);
        assert_eq!((out[0].scored, out[0].admitted), (0xF, 0xF));
        out[0].counts.iter().map(|&c| c as usize).collect()
    }

    #[test]
    fn score_block_at_zero_admission_matches_four_scalar_calls() {
        let mut rng = SplitMix64::new(0xB10C);
        for len in [64usize, 100, 1000] {
            let q = random_filter(len, 3, &mut rng);
            let rows: Vec<BitVec> = (0..4).map(|_| random_filter(len, 3, &mut rng)).collect();
            let mut flat = Vec::new();
            for r in &rows {
                flat.extend_from_slice(r.as_words());
            }
            let got = block_counts(&active_kernel(), &q, &flat);
            for (i, r) in rows.iter().enumerate() {
                assert_eq!(got[i], q.and_count(r), "len={len} row={i}");
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
                let rows: Vec<BitVec> = (0..4)
                    .map(|_| random_filter(len, denom, &mut rng))
                    .collect();
                let mut flat = Vec::new();
                for r in &rows {
                    flat.extend_from_slice(r.as_words());
                }
                let want1 = a.and_count(&b);
                let want4: Vec<usize> = rows.iter().map(|r| a.and_count(r)).collect();
                for k in available_kernels() {
                    assert_eq!(
                        k.and_count(a.as_words(), b.as_words()),
                        want1,
                        "kernel={} len={len} denom={denom}",
                        k.name()
                    );
                    assert_eq!(
                        block_counts(k, &a, &flat),
                        want4,
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
    #[should_panic(expected = "score_block")]
    fn mismatched_stride_panics_in_release_too() {
        let q = [0u64; 4];
        let rows = [0u64; 12]; // 4 rows of 3 words, not of 4
        let mut out = [BlockHits::default()];
        active_kernel().score_block(&rows, &[BlockProbe::new(&q, 0)], &mut out);
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
