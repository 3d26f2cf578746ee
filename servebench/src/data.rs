//! Seeded input generation. Everything here is the benchmark's own:
//! raw GeCo-style person records, the `scan-1m` expansion, and probes.
//! The program under test only ever sees the resulting filters and
//! records. Encoding raw records into CLKs is the program's work and
//! lives in [`encode`], which callers time as set-up (or as part of an
//! ingest job), never as generation.

use pprl_core::bitvec::BitVec;
use pprl_core::record::{Dataset, Record};
use pprl_core::rng::SplitMix64;
use pprl_core::schema::Schema;
use pprl_datagen::generator::{Generator, GeneratorConfig};
use pprl_encoding::encoder::{RecordEncoder, RecordEncoderConfig};
use std::time::Instant;

/// Bloom-filter length of the person CLK.
pub const FILTER_BITS: usize = 1000;
/// 64-bit words per filter.
pub const WORDS: usize = FILTER_BITS.div_ceil(64);

/// Derives an independent stream for one purpose from the run seed.
pub fn stream(seed: u64, purpose: u64) -> SplitMix64 {
    SplitMix64::new(seed).fork(purpose)
}

/// `n` raw person records with ids `first_id..`. With `duplicates`,
/// every third record is a corrupted copy of an earlier entity, so the
/// corpus holds realistic near-matches.
pub fn person_records(n: usize, first_id: u64, duplicates: bool, seed: u64) -> Dataset {
    let mut g = Generator::new(GeneratorConfig {
        seed,
        corruption_rate: 0.3,
        ..GeneratorConfig::default()
    })
    .expect("the generator accepts its fixed rates");
    let records: Vec<Record> = (0..n as u64)
        .map(|j| {
            let id = first_id + j;
            if duplicates && j % 3 == 2 {
                let base = g.entity(first_id + j / 3);
                let mut dup = g.corrupt_record(&base);
                dup.entity_id = id;
                dup
            } else {
                g.entity(id)
            }
        })
        .collect();
    Dataset::from_records(Schema::person(), records)
        .expect("generated records follow the person schema")
}

/// The program's record encoder for the person schema.
pub fn encoder() -> RecordEncoder {
    RecordEncoder::new(
        RecordEncoderConfig::person_clk(b"servebench".to_vec()),
        &Schema::person(),
    )
    .expect("the person CLK configuration matches the person schema")
}

/// Encodes records into CLKs with the program's encoder; returns the
/// filters and the seconds `encode_dataset` took.
pub fn encode(encoder: &RecordEncoder, records: &Dataset) -> (Vec<BitVec>, f64) {
    let started = Instant::now();
    let encoded = encoder
        .encode_dataset(records)
        .expect("encoding generated records");
    let secs = started.elapsed().as_secs_f64();
    let filters = encoded
        .records
        .iter()
        .map(|r| r.try_clk().expect("CLK mode yields one filter").clone())
        .collect();
    (filters, secs)
}

/// Filters stored flat, row `i` being record id `i`: the benchmark's
/// own copy for the oracle, without a heap allocation per row.
#[derive(Debug, Default, Clone)]
pub struct FlatFilters {
    words: Vec<u64>,
}

impl FlatFilters {
    /// An empty store with room for `rows` filters.
    pub fn with_capacity(rows: usize) -> Self {
        FlatFilters {
            words: Vec::with_capacity(rows * WORDS),
        }
    }

    /// Appends one filter as the next row.
    pub fn push(&mut self, filter: &BitVec) {
        assert_eq!(filter.len(), FILTER_BITS, "person CLKs are 1000 bits");
        self.words.extend_from_slice(filter.as_words());
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.words.len() / WORDS
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Row `i` as words.
    pub fn row(&self, i: usize) -> &[u64] {
        &self.words[i * WORDS..(i + 1) * WORDS]
    }

    /// Row `i` as a filter.
    pub fn filter(&self, i: usize) -> BitVec {
        BitVec::from_words(self.row(i).to_vec(), FILTER_BITS).expect("rows hold 1000-bit filters")
    }

    /// Rows `range` as `(id, filter)` pairs, ready to insert.
    pub fn records(&self, range: std::ops::Range<usize>) -> Vec<(u64, BitVec)> {
        range.map(|i| (i as u64, self.filter(i))).collect()
    }
}

/// The `scan-1m` expansion: each base filter becomes `variants` rows
/// (`base * variants + v`), each made by moving between 1/8 and 1/3 of
/// the base's set bits to unset positions. A move keeps the popcount,
/// so the corpus keeps the encoder's real popcount spread, which the
/// scan's pruning depends on, while variants stay distinct records
/// (Dice 0.67 to 0.88 against their base).
pub fn expand(bases: &[BitVec], variants: usize, seed: u64) -> FlatFilters {
    let mut rng = stream(seed, 0x5ca1);
    let mut out = FlatFilters::with_capacity(bases.len() * variants);
    let mut ones = Vec::new();
    let mut zeros = Vec::new();
    for base in bases {
        ones.clear();
        zeros.clear();
        for i in 0..FILTER_BITS {
            if base.get(i) {
                ones.push(i);
            } else {
                zeros.push(i);
            }
        }
        for _ in 0..variants {
            let p = ones.len().max(3);
            let moves = p / 8 + rng.next_below((p / 3 - p / 8 + 1) as u64) as usize;
            let moves = moves.min(ones.len()).min(zeros.len());
            // A partial Fisher-Yates shuffle picks the moved bits: the
            // first `moves` entries of each list become a fresh uniform
            // sample, whatever order earlier variants left them in.
            choose_prefix(&mut ones, moves, &mut rng);
            choose_prefix(&mut zeros, moves, &mut rng);
            out.words.extend_from_slice(base.as_words());
            let row = out.words.len() - WORDS;
            for (&off, &on) in ones[..moves].iter().zip(&zeros[..moves]) {
                out.words[row + off / 64] &= !(1u64 << (off % 64));
                out.words[row + on / 64] |= 1u64 << (on % 64);
            }
        }
    }
    out
}

/// Moves a uniform random sample of `k` entries to the front of `items`.
fn choose_prefix(items: &mut [usize], k: usize, rng: &mut SplitMix64) {
    for i in 0..k {
        let j = i + rng.next_below((items.len() - i) as u64) as usize;
        items.swap(i, j);
    }
}

/// A near-duplicate probe: `filter` with `flips` distinct random bits
/// flipped.
pub fn perturb(filter: &BitVec, flips: usize, rng: &mut SplitMix64) -> BitVec {
    let mut out = filter.clone();
    for pos in rng.sample_indices(filter.len(), flips) {
        out.flip(pos);
    }
    out
}
