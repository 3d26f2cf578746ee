//! Server metrics: lock-free counters and a fixed-bucket latency
//! histogram.
//!
//! The histogram is log-linear: every power-of-two octave of
//! microseconds is split into [`SUB_BUCKETS`] equal-width sub-buckets
//! (values below `SUB_BUCKETS` µs get one bucket each), so recording is
//! one atomic increment and a reported quantile — a sub-bucket's upper
//! bound — is within 12.5% of the true value. Estimation walks a few
//! hundred counters — no allocation, no sorting.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Sub-buckets per octave; a bucket's width is at most 1/8 of its lower
/// bound, which is the histogram's relative error.
const SUB_BUCKETS: usize = 8;

/// `log2(SUB_BUCKETS)`.
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();

/// Highest octave with its own sub-buckets: `2^43` µs ≈ 100 days caps
/// the top bucket, far beyond any sane request latency.
const MAX_OCTAVE: u32 = 42;

/// Buckets: the exact values below `SUB_BUCKETS`, then `SUB_BUCKETS` per
/// octave from `2^SUB_BITS` up to `MAX_OCTAVE`.
const BUCKETS: usize = SUB_BUCKETS * (MAX_OCTAVE - SUB_BITS + 2) as usize;

/// The bucket holding `us`: the octave `e = floor(log2 us)` and the
/// next `SUB_BITS` bits below its leading one pick the sub-bucket.
fn bucket_of(us: u64) -> usize {
    if us < SUB_BUCKETS as u64 {
        return us as usize;
    }
    let octave = (u64::BITS - 1 - us.leading_zeros()).min(MAX_OCTAVE);
    if octave == MAX_OCTAVE && us >> MAX_OCTAVE > 1 {
        return BUCKETS - 1;
    }
    let sub = (us >> (octave - SUB_BITS)) as usize & (SUB_BUCKETS - 1);
    SUB_BUCKETS * (octave - SUB_BITS + 1) as usize + sub
}

/// The largest value in bucket `i` (the top bucket is open-ended).
fn bucket_upper(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        return i as u64;
    }
    if i == BUCKETS - 1 {
        return u64::MAX;
    }
    let shift = (i / SUB_BUCKETS - 1) as u32;
    let sub = (i % SUB_BUCKETS) as u64;
    ((SUB_BUCKETS as u64 + sub + 1) << shift) - 1
}

/// A fixed-bucket latency histogram with lock-free recording.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
        }
    }
}

impl LatencyHistogram {
    /// Records one observation, in microseconds: one atomic increment.
    pub fn record_us(&self, us: u64) {
        self.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The upper bound (in µs) of the bucket holding the `q`-quantile
    /// observation, or 0 when nothing was recorded. `q` is clamped to
    /// `[0, 1]`. Below 8 µs this is exact; above, it is at most 12.5%
    /// over the observation's true value.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= target {
                return bucket_upper(i);
            }
        }
        u64::MAX
    }
}

/// Aggregate server counters; every field is updated with relaxed
/// atomics from worker and maintenance threads.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Query requests answered.
    pub queries: AtomicU64,
    /// Link requests answered.
    pub links: AtomicU64,
    /// Insert requests applied.
    pub inserts: AtomicU64,
    /// Query answers served from the result cache.
    pub cache_hits: AtomicU64,
    /// Query answers computed against a snapshot.
    pub cache_misses: AtomicU64,
    /// Cache-missing queries that reused a cached popcount scan plan.
    pub plan_hits: AtomicU64,
    /// Cache-missing queries that computed (and cached) a fresh plan.
    pub plan_misses: AtomicU64,
    /// Connections rejected with a `Busy` frame.
    pub busy_rejected: AtomicU64,
    /// Background compaction steps that merged at least one tier.
    pub compactions: AtomicU64,
    /// Segments merged away by background compaction.
    pub segments_merged: AtomicU64,
    /// Rows rewritten by arena-native segment merges during compaction.
    pub merge_rows: AtomicU64,
    /// Bytes read from storage while building snapshots.
    pub bytes_read: AtomicU64,
    /// Request latency histogram (query + link).
    pub latency: LatencyHistogram,
}

impl Metrics {
    /// Adds `n` to a counter.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Reads a counter.
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// Records a request latency measured from `started`.
    pub fn observe_latency(&self, started: Instant) {
        self.latency.record_us(started.elapsed().as_micros() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile_us(0.5), 0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn quantiles_land_in_the_right_octave() {
        let h = LatencyHistogram::default();
        // 90 fast observations around 100 µs, 10 slow around 50 ms.
        for _ in 0..90 {
            h.record_us(100);
        }
        for _ in 0..10 {
            h.record_us(50_000);
        }
        let p50 = h.quantile_us(0.50);
        let p99 = h.quantile_us(0.99);
        assert!((64..256).contains(&p50), "p50 = {p50}");
        assert!((32_768..131_072).contains(&p99), "p99 = {p99}");
        assert!(p50 < p99);
    }

    #[test]
    fn quantiles_are_within_an_eighth_of_the_true_value() {
        // Every bucket's upper bound is at most 12.5% above every value
        // it holds, and buckets tile the values without gaps.
        for us in (0..5_000u64).chain((1..60).map(|e| (1u64 << e) + 3)) {
            let i = bucket_of(us);
            assert!(bucket_upper(i) >= us, "us={us} bucket {i}");
            assert!(i == 0 || bucket_upper(i - 1) < us, "us={us} bucket {i}");
            if i < BUCKETS - 1 {
                assert!(bucket_upper(i) as f64 <= us as f64 * 1.125, "us={us}");
            }
        }
        // The reported p50 of a spread of latencies against the true p50.
        let h = LatencyHistogram::default();
        let mut values: Vec<u64> = (0..1001u64).map(|i| 6_000 + 7 * i).collect();
        values.extend([15, 30_000, 2_000_000]);
        for &v in &values {
            h.record_us(v);
        }
        values.sort_unstable();
        let truth = values[values.len().div_ceil(2) - 1];
        let p50 = h.quantile_us(0.5);
        assert!(p50 >= truth, "p50 {p50} below true {truth}");
        assert!(
            p50 as f64 <= truth as f64 * 1.125,
            "p50 {p50} vs true {truth}"
        );
        assert_eq!(h.count(), values.len() as u64);
    }

    #[test]
    fn zero_and_huge_values_stay_in_bounds() {
        let h = LatencyHistogram::default();
        h.record_us(0);
        assert_eq!(h.quantile_us(0.5), 0);
        h.record_us(u64::MAX);
        assert_eq!(h.count(), 2);
        assert!(h.quantile_us(1.0) >= 1);
    }
}
