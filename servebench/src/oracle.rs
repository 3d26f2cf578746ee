//! The correctness oracle: brute-force exact Dice top-k over the
//! benchmark's own copy of the filters, and the checker that compares
//! the program's hit lists with it.
//!
//! The oracle shares no code with the scan under test. It scores every
//! row against every probe with plain word-wise AND + popcount, using
//! the same order the program promises: score descending, ties by
//! ascending record id, scores computed as `2·|a∧b| / (|a| + |b|)`.

use crate::data::{FlatFilters, WORDS};
use pprl_core::bitvec::BitVec;
use pprl_index::query::Hit;

/// Probes scored together per pass over the rows, so each row is read
/// from memory once per group instead of once per probe.
const GROUP: usize = 8;

/// Exact top-`k` for every probe over `rows` (row `i` has id `i`),
/// keeping only hits scoring at least `min_score` when given. Splits
/// the probes over `threads` threads.
pub fn top_k(
    rows: &FlatFilters,
    probes: &[BitVec],
    k: usize,
    min_score: Option<f64>,
    threads: usize,
) -> Vec<Vec<Hit>> {
    let threads = threads.clamp(1, probes.len().max(1));
    let per = probes.len().div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = probes
            .chunks(per)
            .map(|chunk| scope.spawn(move || top_k_dispatch(rows, chunk, k, min_score)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    })
}

/// [`top_k_serial`] compiled for the CPU's `popcnt` instruction when it
/// has one. The instruction only speeds the oracle up; the arithmetic
/// is the same on both paths.
fn top_k_dispatch(
    rows: &FlatFilters,
    probes: &[BitVec],
    k: usize,
    min_score: Option<f64>,
) -> Vec<Vec<Hit>> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("popcnt") {
        // SAFETY: the CPU supports `popcnt`, checked just above, which
        // is the only requirement of the target-feature function.
        return unsafe { top_k_popcnt(rows, probes, k, min_score) };
    }
    top_k_serial(rows, probes, k, min_score)
}

/// # Safety
/// The CPU must support the `popcnt` instruction.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
unsafe fn top_k_popcnt(
    rows: &FlatFilters,
    probes: &[BitVec],
    k: usize,
    min_score: Option<f64>,
) -> Vec<Vec<Hit>> {
    top_k_serial(rows, probes, k, min_score)
}

#[inline(always)]
fn top_k_serial(
    rows: &FlatFilters,
    probes: &[BitVec],
    k: usize,
    min_score: Option<f64>,
) -> Vec<Vec<Hit>> {
    let mut out = Vec::with_capacity(probes.len());
    for group in probes.chunks(GROUP) {
        let words: Vec<&[u64]> = group.iter().map(|p| p.as_words()).collect();
        let pops: Vec<u32> = words.iter().map(|w| popcount(w)).collect();
        let mut best: Vec<Vec<Hit>> = vec![Vec::with_capacity(k + 1); group.len()];
        for id in 0..rows.len() {
            let row = rows.row(id);
            let row_pop = popcount(row);
            for (g, probe) in words.iter().enumerate() {
                let inter = and_count(probe, row);
                // Rows arrive in id order, so a row can only enter a full
                // list by scoring strictly above its last hit. Skip the
                // division when it clearly cannot; near-ties are scored
                // exactly.
                if let Some(last) = best[g].get(k.wrapping_sub(1)) {
                    let den = f64::from(pops[g] + row_pop);
                    if 2.0 * f64::from(inter) * (1.0 + 1e-9) < last.score * den {
                        continue;
                    }
                }
                let score = dice(inter, pops[g], row_pop);
                if min_score.is_some_and(|m| score < m) {
                    continue;
                }
                offer(
                    &mut best[g],
                    k,
                    Hit {
                        id: id as u64,
                        score,
                    },
                );
            }
        }
        out.extend(best);
    }
    out
}

/// Dice from counts, exactly as the program defines it.
pub fn dice(inter: u32, a: u32, b: u32) -> f64 {
    if a + b == 0 {
        return 1.0;
    }
    2.0 * f64::from(inter) / f64::from(a + b)
}

/// True when `a` ranks before `b`: higher score, then lower id.
fn ranks_before(a: &Hit, b: &Hit) -> bool {
    a.score > b.score || (a.score == b.score && a.id < b.id)
}

/// Inserts `hit` into the sorted list `best` if it makes the top `k`.
fn offer(best: &mut Vec<Hit>, k: usize, hit: Hit) {
    if k == 0 {
        return;
    }
    if best.len() == k && !ranks_before(&hit, &best[k - 1]) {
        return;
    }
    let at = best.partition_point(|h| ranks_before(h, &hit));
    best.insert(at, hit);
    best.truncate(k);
}

#[inline(always)]
fn popcount(words: &[u64]) -> u32 {
    words.iter().map(|w| w.count_ones()).sum()
}

#[inline(always)]
fn and_count(a: &[u64], b: &[u64]) -> u32 {
    debug_assert_eq!(a.len(), WORDS);
    a.iter().zip(b).map(|(x, y)| (x & y).count_ones()).sum()
}

/// Compares the program's answers with the oracle's, probe by probe,
/// and returns the indices of the wrong ones. Ids and score bits must
/// match exactly.
pub fn check(expected: &[Vec<Hit>], got: &[Vec<Hit>]) -> Vec<usize> {
    assert_eq!(expected.len(), got.len(), "one answer per probe");
    (0..expected.len())
        .filter(|&i| !same_hits(&expected[i], &got[i]))
        .collect()
}

/// Exact equality of two hit lists, comparing score bit patterns.
pub fn same_hits(a: &[Hit], b: &[Hit]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.id == y.id && x.score.to_bits() == y.score.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{encode, encoder, person_records, perturb, stream};

    fn corpus() -> (FlatFilters, Vec<BitVec>) {
        let (filters, _) = encode(&encoder(), &person_records(300, 0, true, 7));
        let mut flat = FlatFilters::default();
        for f in &filters {
            flat.push(f);
        }
        (flat, filters)
    }

    #[test]
    fn a_stored_filter_finds_itself_first() {
        let (flat, filters) = corpus();
        let hits = top_k(&flat, &filters[..20], 5, None, 2);
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.len(), 5);
            assert_eq!(h[0].score, 1.0);
            // An identical earlier filter may tie; it must then win on id.
            assert!(h[0].id <= i as u64);
            assert!(h.windows(2).all(|w| ranks_before(&w[0], &w[1])));
        }
    }

    #[test]
    fn min_score_drops_weak_hits() {
        let (flat, filters) = corpus();
        let mut rng = stream(3, 1);
        let probes: Vec<BitVec> = (0..10)
            .map(|i| perturb(&filters[i], 40, &mut rng))
            .collect();
        for hits in top_k(&flat, &probes, 10, Some(0.8), 1) {
            assert!(hits.iter().all(|h| h.score >= 0.8));
        }
    }

    #[test]
    fn threads_do_not_change_answers() {
        let (flat, filters) = corpus();
        let one = top_k(&flat, &filters[..17], 7, None, 1);
        let two = top_k(&flat, &filters[..17], 7, None, 2);
        assert!(check(&one, &two).is_empty());
    }

    #[test]
    fn the_checker_flags_a_doctored_hit_list() {
        let (flat, filters) = corpus();
        let expected = top_k(&flat, &filters[..8], 10, None, 2);
        assert!(check(&expected, &expected).is_empty());

        // Three doctored answers: a swapped order, a wrong id, and a
        // score off by one unit in the last place.
        let mut doctored = expected.clone();
        doctored[1].swap(2, 3);
        doctored[4][0].id += 1;
        doctored[6][9].score = f64::from_bits(doctored[6][9].score.to_bits() + 1);
        assert_eq!(check(&expected, &doctored), vec![1, 4, 6]);
        // A truncated list is wrong too.
        let mut short = expected.clone();
        short[0].pop();
        assert_eq!(check(&expected, &short).len(), 1);
    }
}
