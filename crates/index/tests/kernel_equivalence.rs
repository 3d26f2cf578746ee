//! Cross-path equivalence of the columnar scan kernel.
//!
//! The correctness bar for the arena rewrite is *bit-for-bit* agreement
//! with the scalar `BitVec` path at every layer:
//!
//! 1. The flat-slice kernels (`and_count`, the tile scan
//!    `score_tile`, `dice_from_counts`) must reproduce
//!    `BitVec::and_count` / `dice_bits` exactly, including all-zero and
//!    all-one edges and lengths that straddle word boundaries; the tile
//!    scan's two admission stages must match a scalar reference on
//!    partial tiles and at admission counts set exactly at, and one
//!    above, each stage's count.
//! 2. A lazy [`IndexReader`] over segment files, the eager store
//!    reader, and a brute-force scan must return identical `(id,
//!    score)` hit lists for the same queries.
//! 3. Band-key summary pruning is an *optimisation only*: an index
//!    built with summaries enabled must answer every query — at every
//!    `min_score` — identically to one built with summaries disabled.

use pprl_core::bitvec::BitVec;
use pprl_index::arena::FilterArena;
use pprl_index::query::Hit;
use pprl_index::store::{IndexConfig, IndexStore};
use pprl_index::summary::SummaryConfig;
use pprl_similarity::bitvec_sim::dice_bits;
use pprl_similarity::kernel::{
    active_kernel, and_count, available_kernels, dice_from_counts, kernel_name, prefix_words,
    requested_is_supported, requested_kernel, BlockHits, BlockProbe, Kernel, TILE_ROWS,
};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pprl-kernel-eq-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Random filter with roughly `per_mille`/1000 of its bits set.
fn random_filter(len: usize, per_mille: u64, state: &mut u64) -> BitVec {
    let mut f = BitVec::zeros(len);
    for i in 0..len {
        if splitmix(state) % 1000 < per_mille {
            f.set(i);
        }
    }
    f
}

#[test]
fn slice_kernels_match_bitvec_ops_bit_for_bit() {
    let mut state = 0xA11CEu64;
    for len in [1usize, 7, 63, 64, 65, 127, 128, 1000, 1024, 2048] {
        let mut cases = vec![
            (BitVec::zeros(len), BitVec::zeros(len)),
            (BitVec::ones(len), BitVec::ones(len)),
            (BitVec::zeros(len), BitVec::ones(len)),
        ];
        for fill in [50, 300, 900] {
            cases.push((
                random_filter(len, fill, &mut state),
                random_filter(len, fill, &mut state),
            ));
        }
        for (a, b) in &cases {
            let inter = and_count(a.as_words(), b.as_words());
            assert_eq!(inter, a.and_count(b), "and_count at len {len}");
            let fast = dice_from_counts(inter, a.count_ones(), b.count_ones());
            let exact = dice_bits(a, b).expect("dice");
            assert!(
                fast == exact,
                "dice mismatch at len {len}: {fast} vs {exact}"
            );
        }
    }
}

/// Every dispatch path this host can run — not just the active one —
/// must agree with the `BitVec` oracle bit for bit, across filter
/// lengths whose word counts leave 0–3 trailing words after any SIMD
/// block width (1, 2, 3, 5, 7, 8, 9 ... words).
#[test]
fn every_dispatch_path_matches_the_bitvec_oracle() {
    let mut state = 0xD15Au64;
    let lens = [
        1usize, 63, 64, 65, 127, 129, 191, 193, 255, 257, 319, 321, 447, 449, 511, 513, 575, 1000,
        1001,
    ];
    for kernel in available_kernels() {
        for &len in &lens {
            let mut cases = vec![
                (BitVec::zeros(len), BitVec::zeros(len)),
                (BitVec::ones(len), BitVec::ones(len)),
                (BitVec::zeros(len), BitVec::ones(len)),
            ];
            for fill in [30, 250, 700, 970] {
                cases.push((
                    random_filter(len, fill, &mut state),
                    random_filter(len, fill, &mut state),
                ));
            }
            for (a, b) in &cases {
                assert_eq!(
                    kernel.and_count(a.as_words(), b.as_words()),
                    a.and_count(b),
                    "kernel {} at len {len}",
                    kernel.name()
                );
            }
            // Batched lanes over an 8-row tile, against the same oracle.
            let query = random_filter(len, 400, &mut state);
            let rows: Vec<BitVec> = (0..TILE_ROWS as u64)
                .map(|i| random_filter(len, 100 + 110 * i, &mut state))
                .collect();
            let tile = tile_of(query.as_words().len(), &rows);
            let counts = full_counts(kernel, query.as_words(), &tile, TILE_ROWS);
            for (lane, row) in rows.iter().enumerate() {
                assert_eq!(
                    counts[lane] as usize,
                    query.and_count(row),
                    "kernel {} lane {lane} at len {len}",
                    kernel.name()
                );
            }
        }
    }
}

/// The word-major tile of up to eight rows (zero padding after them):
/// word `w` of row `j` at `8w + j`.
fn tile_of(stride: usize, rows: &[BitVec]) -> Vec<u64> {
    let mut tile = vec![0u64; TILE_ROWS * stride];
    for (j, row) in rows.iter().enumerate() {
        for (w, &word) in row.as_words().iter().enumerate() {
            tile[w * TILE_ROWS + j] = word;
        }
    }
    tile
}

/// Full counts of one probe against the first `rows` rows of a tile:
/// `score_tile` with admission count 0 scores and admits every row.
fn full_counts(kernel: &Kernel, probe: &[u64], tile: &[u64], rows: usize) -> [u32; TILE_ROWS] {
    let mut out = [BlockHits::default()];
    kernel.score_tile(tile, rows, &[BlockProbe::new(probe, 0)], &mut out);
    let lanes = ((1u16 << rows) - 1) as u8;
    assert_eq!((out[0].scored, out[0].admitted), (lanes, lanes));
    out[0].counts
}

/// Scalar reference for one probe of `score_tile`, straight from the
/// definition over row-major `rows` (`rows.len() / stride` of them, at
/// most eight): prefix counts over the first `prefix_words(stride)`
/// words, the prefix bound `c_prefix + popcount(probe suffix) >= cmin`,
/// then the full count against `cmin`. Rejected rows and padding lanes
/// read 0 and are never scored.
fn reference_tile(rows: &[u64], probe: &[u64], cmin: u32) -> BlockHits {
    let stride = probe.len();
    let split = prefix_words(stride);
    let suffix: u32 = probe[split..].iter().map(|w| w.count_ones()).sum();
    let mut out = BlockHits::default();
    for (j, row) in rows.chunks_exact(stride.max(1)).enumerate() {
        let count = |range: std::ops::Range<usize>| -> u32 {
            range.map(|w| (probe[w] & row[w]).count_ones()).sum()
        };
        let prefix = count(0..split);
        if u64::from(prefix) + u64::from(suffix) < u64::from(cmin) {
            continue;
        }
        out.scored |= 1 << j;
        out.counts[j] = prefix + count(split..stride);
        if out.counts[j] >= cmin {
            out.admitted |= 1 << j;
        }
    }
    out
}

/// The tile scan on every dispatch path, against the scalar reference,
/// over strides 1–20 and 32 (word counts on both sides of every vector
/// width, and strides whose prefix is empty or shorter than one vector),
/// row counts 0–17 cut into tiles as an arena cuts them (so the last
/// tile is partial and its padding lanes must never be scored or
/// admitted), all-zero and all-one rows and probes, and admission counts
/// set exactly at and one above each row's prefix bound and full count.
#[test]
fn tile_scan_matches_the_scalar_reference_on_every_path() {
    let mut state = 0x5CA7u64;
    let strides: Vec<usize> = (1..=20).chain([32]).collect();
    for &stride in &strides {
        // Trailing bits stay zero, as in any arena row.
        let len = 64 * stride - (stride % 3) * 7;
        let probe_set = [
            BitVec::zeros(len),
            BitVec::ones(len),
            random_filter(len, 300, &mut state),
            random_filter(len, 600, &mut state),
        ];
        for n in 0..=17usize {
            let rows: Vec<BitVec> = (0..n)
                .map(|i| match i % 6 {
                    0 => BitVec::zeros(len),
                    1 => BitVec::ones(len),
                    _ => random_filter(len, 100 + 150 * (i as u64 % 5), &mut state),
                })
                .collect();
            // Zero rows is one all-padding tile.
            let tiles: Vec<&[BitVec]> = if n == 0 {
                vec![&[]]
            } else {
                rows.chunks(TILE_ROWS).collect()
            };
            for chunk in tiles {
                let tile = tile_of(stride, chunk);
                let flat: Vec<u64> = chunk.iter().flat_map(|r| r.as_words().to_vec()).collect();
                for probe in &probe_set {
                    check_tile(stride, &tile, chunk, &flat, probe);
                }
            }
        }
    }
}

/// One tile of [`tile_scan_matches_the_scalar_reference_on_every_path`]:
/// the reference at every interesting admission count, then every path
/// with all counts in one call and one probe per call.
fn check_tile(stride: usize, tile: &[u64], rows: &[BitVec], flat: &[u64], probe: &BitVec) {
    let words = probe.as_words();
    let split = prefix_words(stride);
    let suffix: u32 = words[split..].iter().map(|w| w.count_ones()).sum();
    let at_zero = reference_tile(flat, words, 0);
    // Each row's full count and prefix bound, and one above.
    let mut cmins = vec![0u32, u32::MAX];
    for (j, row) in rows.iter().enumerate() {
        let full = probe.and_count(row) as u32;
        assert_eq!(at_zero.counts[j], full, "reference full count");
        let prefix: u32 = (0..split)
            .map(|w| (words[w] & row.as_words()[w]).count_ones())
            .sum();
        cmins.extend([full, full + 1, prefix + suffix, prefix + suffix + 1]);
    }
    let probes: Vec<BlockProbe> = cmins.iter().map(|&c| BlockProbe::new(words, c)).collect();
    let want: Vec<BlockHits> = cmins
        .iter()
        .map(|&c| reference_tile(flat, words, c))
        .collect();
    for (i, &cmin) in cmins.iter().enumerate().skip(2) {
        // cmins[2 + 4j ..]: row j's full, full+1, bound, bound+1.
        let j = (i - 2) / 4;
        let bit = 1u8 << j;
        match (i - 2) % 4 {
            0 => assert!(want[i].admitted & bit != 0, "at full count {cmin}"),
            1 => assert!(want[i].admitted & bit == 0, "above full count {cmin}"),
            2 => assert!(want[i].scored & bit != 0, "at prefix bound {cmin}"),
            _ => assert!(want[i].scored & bit == 0, "above prefix bound {cmin}"),
        }
    }
    let n = rows.len();
    for kernel in available_kernels() {
        let name = kernel.name();
        // All admission counts in one call, as a batch scan passes its
        // live probes.
        let mut got = vec![BlockHits::default(); probes.len()];
        let totals = kernel.score_tile(tile, n, &probes, &mut got);
        assert_eq!(got, want, "kernel {name} at stride {stride}, {n} rows");
        let scored: u32 = want.iter().map(|h| h.scored.count_ones()).sum();
        let admitted = want.iter().fold(0u8, |m, h| m | h.admitted);
        assert_eq!((totals.scored, totals.admitted), (scored, admitted));
        // And one probe per call.
        for (probe, want) in probes.iter().zip(&want) {
            let mut one = [BlockHits::default()];
            kernel.score_tile(tile, n, std::slice::from_ref(probe), &mut one);
            assert_eq!(one[0], *want, "kernel {name} single probe, {n} rows");
        }
    }
}

/// When CI (or an operator) forces a path with `PPRL_KERNEL`, the
/// dispatcher must actually honour it: the active kernel is the
/// requested one whenever this host can run it, and always one of the
/// advertised paths. Run under each forced value by the CI matrix.
#[test]
fn forced_kernel_env_is_honored() {
    let names: Vec<&str> = available_kernels().iter().map(|k| k.name()).collect();
    assert!(
        names.contains(&kernel_name()),
        "active kernel {} not among available {names:?}",
        kernel_name()
    );
    match requested_kernel() {
        Some(req) if req != "auto" && names.contains(&req) => {
            assert_eq!(
                kernel_name(),
                req,
                "PPRL_KERNEL={req} is runnable here but was not dispatched"
            );
            assert!(requested_is_supported());
        }
        Some(_) | None => {
            // Unset, `auto`, or unsupported: best available wins.
            assert_eq!(
                kernel_name(),
                *names.last().expect("scalar always available"),
                "default dispatch must pick the best available path"
            );
        }
    }
}

#[test]
fn batched_kernel_matches_scalar_over_arena_tiles() {
    let mut state = 0xB10Cu64;
    for len in [64usize, 500, 1000, 2048] {
        let records: Vec<(u64, BitVec)> = (0..37)
            .map(|i| (i, random_filter(len, 100 + 20 * (i % 11), &mut state)))
            .collect();
        let arena = FilterArena::from_records(records, len).expect("arena");
        let query = random_filter(len, 250, &mut state);
        let q = query.as_words();
        let mut row = vec![0u64; arena.stride()];
        for t in 0..arena.tiles() {
            let rows = TILE_ROWS.min(arena.len() - t * TILE_ROWS);
            let counts = full_counts(&active_kernel(), q, arena.tile(t), rows);
            for (lane, &count) in counts.iter().take(rows).enumerate() {
                arena.row_into(t * TILE_ROWS + lane, &mut row);
                assert_eq!(
                    count as usize,
                    and_count(q, &row),
                    "lane {lane} of tile {t}, len {len}"
                );
            }
        }
        // Check every row against the original BitVec too (arena rows
        // round-trip exactly).
        for i in 0..arena.len() {
            let (_, filter) = arena.get(i).expect("row");
            arena.row_into(i, &mut row);
            assert_eq!(
                and_count(q, &row),
                query.and_count(&filter),
                "row {i} at len {len}"
            );
        }
    }
}

/// Builds a store at `dir` from `records`, flushing in two batches so the
/// reader sees multiple segment files per shard.
fn build_store(
    dir: &std::path::Path,
    config: IndexConfig,
    records: &[(u64, BitVec)],
) -> IndexStore {
    let mut store = IndexStore::create(dir, config).expect("create");
    let mid = records.len() / 2;
    store.insert_batch(&records[..mid]).expect("insert");
    store.flush().expect("flush");
    store.insert_batch(&records[mid..]).expect("insert");
    store.flush().expect("flush");
    store
}

fn brute_force(records: &[(u64, BitVec)], query: &BitVec, k: usize, min_score: f64) -> Vec<Hit> {
    let mut hits: Vec<Hit> = records
        .iter()
        .map(|(id, f)| Hit {
            id: *id,
            score: dice_bits(query, f).expect("dice"),
        })
        .collect();
    hits.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.id.cmp(&b.id)));
    hits.truncate(k);
    hits.retain(|h| h.score >= min_score);
    hits
}

#[test]
fn lazy_reader_eager_reader_and_brute_force_agree() {
    let len = 256; // long enough that summaries are enabled by default
    let mut state = 0x5EEDu64;
    let records: Vec<(u64, BitVec)> = (0..180)
        .map(|i| (i, random_filter(len, 60 + 10 * (i % 30), &mut state)))
        .collect();
    let dir = temp_dir("agree");
    let store = build_store(&dir, IndexConfig::new(len, 4), &records);
    let eager = store.reader().expect("eager");
    let lazy = store.lazy_reader().expect("lazy");

    // Queries: members, perturbed members, and foreign filters (likely
    // full summary misses).
    let mut queries: Vec<BitVec> = records.iter().step_by(23).map(|(_, f)| f.clone()).collect();
    for (_, f) in records.iter().step_by(31) {
        let mut p = f.clone();
        for _ in 0..8 {
            p.flip((splitmix(&mut state) % len as u64) as usize);
        }
        queries.push(p);
    }
    for _ in 0..4 {
        queries.push(random_filter(len, 80, &mut state));
    }

    for query in &queries {
        for k in [1usize, 7, 50, 400] {
            let expect = brute_force(&records, query, k, 0.0);
            for threads in [1usize, 3] {
                let e = eager.top_k(query, k, threads).expect("eager top_k");
                let l = lazy.top_k(query, k, threads).expect("lazy top_k");
                assert_eq!(e, expect, "eager k={k} threads={threads}");
                assert_eq!(l, expect, "lazy k={k} threads={threads}");
            }
        }
    }

    // One batched columnar scan over all queries must equal the
    // per-query answers exactly.
    let refs: Vec<&BitVec> = queries.iter().collect();
    let batch = lazy.top_k_batch(&refs, 9, 2, None).expect("batch");
    for (qi, query) in queries.iter().enumerate() {
        assert_eq!(
            batch[qi],
            brute_force(&records, query, 9, 0.0),
            "query {qi}"
        );
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn summary_pruning_never_drops_a_true_hit() {
    let len = 512;
    let mut state = 0xFACEu64;
    let records: Vec<(u64, BitVec)> = (0..150)
        .map(|i| (i, random_filter(len, 50 + 15 * (i % 12), &mut state)))
        .collect();
    let with = IndexConfig::new(len, 3);
    assert!(
        with.summary.enabled(),
        "default config must enable summaries at {len} bits"
    );
    let without = IndexConfig {
        summary: SummaryConfig::DISABLED,
        ..with
    };
    let dir_on = temp_dir("sum-on");
    let dir_off = temp_dir("sum-off");
    let pruned = build_store(&dir_on, with, &records)
        .lazy_reader()
        .expect("pruned reader");
    let plain = build_store(&dir_off, without, &records)
        .lazy_reader()
        .expect("plain reader");

    let mut queries: Vec<BitVec> = records.iter().step_by(17).map(|(_, f)| f.clone()).collect();
    for _ in 0..6 {
        // Foreign probes: most segments are all-tables Bloom misses, the
        // case where content pruning actually fires.
        queries.push(random_filter(len, 70, &mut state));
    }
    let refs: Vec<&BitVec> = queries.iter().collect();
    for min_score in [0.0, 0.5, 0.8, 0.95] {
        let a = pruned
            .top_k_batch(&refs, 12, 2, Some(min_score))
            .expect("pruned batch");
        let b = plain
            .top_k_batch(&refs, 12, 2, Some(min_score))
            .expect("plain batch");
        assert_eq!(a, b, "summary pruning changed results at ms={min_score}");
        for (qi, query) in queries.iter().enumerate() {
            assert_eq!(
                a[qi],
                brute_force(&records, query, 12, min_score),
                "query {qi} at ms={min_score}"
            );
        }
    }
    std::fs::remove_dir_all(&dir_on).expect("cleanup");
    std::fs::remove_dir_all(&dir_off).expect("cleanup");
}
