//! Exact top-k Dice queries over the sharded store, on a columnar scan
//! kernel.
//!
//! The reader is a list of *slots*, each one popcount-sorted
//! [`FilterArena`] (flat `Vec<u64>` of 8-row word-major tiles, fixed
//! stride, parallel id/popcount arrays). A slot is either
//! memory-resident from construction or backed by a segment file that
//! is materialised lazily, on first scan, under a per-reader load lock
//! — so segments pruned for every query of a batch are never read at
//! all.
//!
//! Four pruning layers keep the scan lossless (results are bit-identical
//! to brute force over the same `dice_bits` arithmetic). Each query
//! carries a threshold θ: its local k-th score once its accumulator is
//! full, floored by `min_score`.
//!
//! 1. **Slot popcount bound** — for query popcount `q` and a slot whose
//!    popcounts span `[pc_min, pc_max]`, no record can beat
//!    `ub = 2·min(q,x)/(q+x)` at `x = clamp(q, pc_min, pc_max)` (the
//!    bound is unimodal in `x`, peaked at `x = q`).
//! 2. **Band-key summary bound** — if the query's band keys miss the
//!    slot's Bloom summary in every table, the Hamming distance to every
//!    record is at least `tables`, capping Dice at
//!    [`no_match_dice_bound`] (see [`crate::summary`]).
//! 3. **Popcount window** — each query keeps the integer window
//!    `[x_lo, x_hi]` of popcounts whose bound `ub` reaches θ. An 8-row
//!    tile wholly outside it is skipped before its words are touched,
//!    and once a tile's first popcount passes `x_hi` the query is done
//!    with the rest of the (popcount-ascending) range.
//! 4. **Prefix bound** — each query also keeps the admission count
//!    `cmin(θ, q, x)`, the least intersection count `c` whose exact Dice
//!    `2c/(q+x)` reaches θ. `cmin` is non-decreasing in `x` (a larger
//!    denominator needs a larger count), so `cmin` at a tile's first
//!    popcount holds for the whole tile. The kernel
//!    ([`pprl_similarity::kernel::Kernel::score_tile`]) counts the first
//!    half of the words of all eight rows of the tile at once, into one
//!    vector of per-row counters, and drops a row when
//!    `c_prefix + q_suffix < cmin` — one vector compare per tile. This
//!    is sound because the rest of the row can add at most the popcount
//!    of the query's own suffix: `c ≤ c_prefix + q_suffix`. Survivors
//!    are counted in full, and only rows with `c ≥ cmin` reach the f64
//!    Dice and the accumulator.
//!
//! The window and `cmin` are recomputed in O(1) — a closed form plus an
//! exact ±1 fix against the same f64 expressions the scores use — only
//! when θ changes (and `cmin` also when a tile's first popcount does),
//! so this bookkeeping runs at most once per eight rows.
//! A skip needs `bound < θ` *strictly*, and admission is `c ≥ cmin` —
//! candidates tying the k-th score must still be scored because ties
//! break by ascending id.
//!
//! Work fans out across `std::thread::scope` workers claiming
//! `(slot, range)` tasks from a shared atomic counter; each worker keeps
//! one local top-k per query (sound: a candidate below a worker's own
//! k-th score cannot be in the global top k either) and partial results
//! merge at the end. Single queries ([`IndexReader::top_k`]) and batches
//! ([`IndexReader::top_k_batch`], which `pprl link --backend index`, the
//! server's `Link`, and index-backed dedup call) run the same loop: each
//! arena tile is loaded once and scored against every live query of
//! the batch in one dispatched kernel call (the CPU-feature path is
//! resolved once per process; see the kernel module docs). Tasks start
//! on tile boundaries.

use crate::arena::{FilterArena, TILE_ROWS};
use crate::format::storage_err;
use crate::segment::read_segment_arena_with;
use crate::store::ReadStats;
use crate::summary::{band_keys, no_match_dice_bound, BandKeySummary};
use crate::vfs::{std_vfs, Vfs};
use pprl_core::bitvec::BitVec;
use pprl_core::error::{PprlError, Result};
use pprl_similarity::kernel::{active_kernel, dice_from_counts, prefetch, BlockHits, BlockProbe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// One query result: a stored record id and its Dice similarity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// Record id as supplied at insert time.
    pub id: u64,
    /// Dice similarity in `[0, 1]`.
    pub score: f64,
}

/// Where a slot's rows come from.
#[derive(Debug)]
enum SlotSource {
    /// Arena resident since construction.
    Memory,
    /// Backed by a segment file, materialised on first scan.
    File {
        path: PathBuf,
        shard: u32,
        seg_id: u64,
        bytes: u64,
    },
}

/// One scannable unit: a (possibly not yet materialised) filter arena
/// plus everything needed to prune it without reading it.
#[derive(Debug)]
struct Slot {
    /// Row count (known up front, from the file size for lazy slots).
    rows: usize,
    /// Smallest filter popcount in the slot.
    pc_min: usize,
    /// Largest filter popcount in the slot.
    pc_max: usize,
    /// Band-key Bloom summary (file slots of summary-enabled indexes).
    summary: Option<BandKeySummary>,
    source: SlotSource,
    arena: OnceLock<FilterArena>,
}

/// Constructor input for [`IndexReader::from_specs`].
#[derive(Debug)]
pub(crate) enum SlotSpec {
    /// An in-memory arena (pending records, or an eager build).
    Memory(FilterArena),
    /// A segment file to materialise on demand.
    File {
        /// Segment file path.
        path: PathBuf,
        /// Shard the segment must declare.
        shard: u32,
        /// Segment id (for error messages).
        seg_id: u64,
        /// File size in bytes (for read accounting).
        bytes: u64,
        /// Record count derived from the file size.
        rows: usize,
        /// Manifest popcount lower bound.
        pc_min: usize,
        /// Manifest popcount upper bound.
        pc_max: usize,
        /// Manifest band-key summary, if the index stores them.
        summary: Option<BandKeySummary>,
    },
}

/// An immutable snapshot of an index, ready for queries. Memory-resident
/// slots are scanned directly; file-backed slots (from
/// [`crate::store::IndexStore::lazy_reader`]) are read only when some
/// query's pruning bounds fail to exclude them.
#[derive(Debug)]
pub struct IndexReader {
    slots: Vec<Slot>,
    filter_len: usize,
    num_shards: usize,
    len: usize,
    /// Disjoint band-key position tables (empty = summaries disabled).
    summary_positions: Vec<Vec<usize>>,
    /// Cumulative bytes read materialising file slots.
    bytes_read: AtomicU64,
    /// File slots materialised so far.
    segments_loaded: AtomicUsize,
    /// Row counters of [`ReadStats`], folded in once per scan task.
    rows: RowCounters,
    /// Serialises lazy materialisation so each file is read exactly once.
    load_lock: Mutex<()>,
    /// IO layer file-backed slots are materialised through.
    vfs: std::sync::Arc<dyn Vfs>,
    /// Segments the store quarantined at open; > 0 means this reader
    /// serves a degraded view of the index.
    quarantined_segments: usize,
}

impl IndexReader {
    /// Builds an eager, memory-resident reader from per-shard record
    /// lists. Every filter must have length `filter_len`.
    pub fn new(shard_records: Vec<Vec<(u64, BitVec)>>, filter_len: usize) -> Result<IndexReader> {
        let num_shards = shard_records.len();
        let specs = shard_records
            .into_iter()
            .map(|records| {
                Ok(SlotSpec::Memory(FilterArena::from_records(
                    records, filter_len,
                )?))
            })
            .collect::<Result<Vec<_>>>()?;
        Self::from_specs(specs, filter_len, num_shards, Vec::new(), std_vfs())
    }

    /// Builds a reader from slot specs (crate-internal; the public
    /// constructors are [`IndexReader::new`] and the store's reader
    /// methods).
    pub(crate) fn from_specs(
        specs: Vec<SlotSpec>,
        filter_len: usize,
        num_shards: usize,
        summary_positions: Vec<Vec<usize>>,
        vfs: std::sync::Arc<dyn Vfs>,
    ) -> Result<IndexReader> {
        let mut slots = Vec::with_capacity(specs.len());
        let mut len = 0usize;
        for spec in specs {
            let slot = match spec {
                SlotSpec::Memory(arena) => {
                    let slot = Slot {
                        rows: arena.len(),
                        pc_min: arena.pc_min().unwrap_or(0) as usize,
                        pc_max: arena.pc_max().unwrap_or(0) as usize,
                        summary: None,
                        source: SlotSource::Memory,
                        arena: OnceLock::new(),
                    };
                    slot.arena.set(arena).expect("fresh OnceLock");
                    slot
                }
                SlotSpec::File {
                    path,
                    shard,
                    seg_id,
                    bytes,
                    rows,
                    pc_min,
                    pc_max,
                    summary,
                } => Slot {
                    rows,
                    pc_min,
                    pc_max,
                    summary,
                    source: SlotSource::File {
                        path,
                        shard,
                        seg_id,
                        bytes,
                    },
                    arena: OnceLock::new(),
                },
            };
            len += slot.rows;
            slots.push(slot);
        }
        Ok(IndexReader {
            slots,
            filter_len,
            num_shards,
            len,
            summary_positions,
            bytes_read: AtomicU64::new(0),
            segments_loaded: AtomicUsize::new(0),
            rows: RowCounters::default(),
            load_lock: Mutex::new(()),
            vfs,
            quarantined_segments: 0,
        })
    }

    /// Records how many segments the store quarantined at open, so the
    /// degraded flag propagates through every stats surface.
    pub(crate) fn set_quarantined(&mut self, n: usize) {
        self.quarantined_segments = n;
    }

    /// Segments quarantined by the store this reader was built from.
    pub fn quarantined_segments(&self) -> usize {
        self.quarantined_segments
    }

    /// True when quarantined segments mean reads cover only the
    /// surviving part of the index.
    pub fn is_degraded(&self) -> bool {
        self.quarantined_segments > 0
    }

    /// Total records across all slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the reader holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of shards the underlying index routes across.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Filter length in bits.
    pub fn filter_len(&self) -> usize {
        self.filter_len
    }

    /// What this reader has read (and avoided reading) so far: lazy
    /// file-backed slots count as skipped until some scan materialises
    /// them. Counters are cumulative over the reader's lifetime.
    pub fn read_stats(&self) -> ReadStats {
        let segments_skipped = self
            .slots
            .iter()
            .filter(|s| matches!(s.source, SlotSource::File { .. }) && s.arena.get().is_none())
            .count();
        ReadStats {
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            segments_read: self.segments_loaded.load(Ordering::Relaxed),
            segments_skipped,
            kernel: pprl_similarity::kernel::kernel_name(),
            rows_window_pruned: self.rows.window_pruned.load(Ordering::Relaxed),
            rows_prefix_rejected: self.rows.prefix_rejected.load(Ordering::Relaxed),
            rows_scored: self.rows.scored.load(Ordering::Relaxed),
        }
    }

    /// Materialises every file-backed slot (corruption surfaces here).
    pub fn materialise_all(&self) -> Result<()> {
        for slot in &self.slots {
            self.arena(slot)?;
        }
        Ok(())
    }

    /// The slot's arena, loading it from its segment file on first use.
    fn arena<'a>(&self, slot: &'a Slot) -> Result<&'a FilterArena> {
        if let Some(arena) = slot.arena.get() {
            return Ok(arena);
        }
        let _guard = self.load_lock.lock().expect("load lock");
        if let Some(arena) = slot.arena.get() {
            return Ok(arena);
        }
        let SlotSource::File {
            path,
            shard,
            seg_id,
            bytes,
        } = &slot.source
        else {
            return Err(storage_err("memory slot lost its arena".to_string()));
        };
        // Decode straight into the columnar arena — no per-record BitVec.
        let (seg_shard, arena) = read_segment_arena_with(&*self.vfs, path)?;
        if seg_shard != *shard {
            return Err(storage_err(format!(
                "segment {seg_id} claims shard {}, manifest says {shard}",
                seg_shard
            )));
        }
        if arena.filter_len() != self.filter_len {
            return Err(storage_err(format!(
                "segment {seg_id} has {}-bit filters, index expects {}",
                arena.filter_len(),
                self.filter_len
            )));
        }
        if arena.len() != slot.rows {
            return Err(storage_err(format!(
                "segment {seg_id} decoded {} records, manifest size implies {}",
                arena.len(),
                slot.rows
            )));
        }
        self.bytes_read.fetch_add(*bytes, Ordering::Relaxed);
        self.segments_loaded.fetch_add(1, Ordering::Relaxed);
        let _ = slot.arena.set(arena);
        Ok(slot.arena.get().expect("arena just set"))
    }

    /// The exact `k` most Dice-similar records to `query`, fanned out
    /// over up to `threads` worker threads. Results are sorted by score
    /// descending, ties broken by ascending record id, and are
    /// bit-identical to a brute-force scan.
    pub fn top_k(&self, query: &BitVec, k: usize, threads: usize) -> Result<Vec<Hit>> {
        let mut results = self.top_k_batch(&[query], k, threads, None)?;
        Ok(results.pop().expect("one result per query"))
    }

    /// The slot visiting order that serves a query of popcount `q`
    /// best: indices of non-empty slots sorted by their popcount-only
    /// Dice ceiling `2·min(q, clamp(q, pc_min, pc_max)) / (q + ·)`
    /// descending, ties by index ascending. Scanning the
    /// highest-ceiling slots first makes the running k-th score rise as
    /// early as possible, so later low-ceiling slots are pruned without
    /// ever being materialised. The order depends only on this reader's
    /// slot geometry and `q` — never on filter *content* — which is
    /// what makes it cacheable per `(generation, popcount)`.
    pub fn popcount_scan_order(&self, q: usize) -> Vec<u32> {
        let mut order: Vec<u32> = (0..self.slots.len() as u32)
            .filter(|&si| self.slots[si as usize].rows > 0)
            .collect();
        order.sort_by(|&a, &b| {
            let sa = &self.slots[a as usize];
            let sb = &self.slots[b as usize];
            let ba = dice_upper_bound(q, q.clamp(sa.pc_min, sa.pc_max));
            let bb = dice_upper_bound(q, q.clamp(sb.pc_min, sb.pc_max));
            bb.total_cmp(&ba).then(a.cmp(&b))
        });
        order
    }

    /// [`IndexReader::top_k`] visiting slots in the given order (as
    /// produced by [`IndexReader::popcount_scan_order`], possibly served
    /// from a cache). The order is a *hint*: invalid or duplicate
    /// indices are ignored and unmentioned slots are appended, so the
    /// scan always covers the whole index and results stay bit-identical
    /// to the default order — only the amount of pruning changes.
    pub fn top_k_planned(
        &self,
        query: &BitVec,
        k: usize,
        threads: usize,
        order: &[u32],
    ) -> Result<Vec<Hit>> {
        let mut results = self.top_k_batch_inner(&[query], k, threads, None, Some(order))?;
        Ok(results.pop().expect("one result per query"))
    }

    /// Exact top-k for a whole batch of queries in one pass: every arena
    /// tile is loaded once and scored against all still-live queries in
    /// one [`pprl_similarity::kernel::Kernel::score_tile`] call. With
    /// `min_score`, hits below it are dropped from the results —
    /// equivalently (and bit-for-bit identically), the top k among hits
    /// scoring at least `min_score` — which lets slots whose upper bound
    /// cannot reach `min_score` be skipped without ever materialising
    /// them.
    pub fn top_k_batch(
        &self,
        queries: &[&BitVec],
        k: usize,
        threads: usize,
        min_score: Option<f64>,
    ) -> Result<Vec<Vec<Hit>>> {
        self.top_k_batch_inner(queries, k, threads, min_score, None)
    }

    fn top_k_batch_inner(
        &self,
        queries: &[&BitVec],
        k: usize,
        threads: usize,
        min_score: Option<f64>,
        order: Option<&[u32]>,
    ) -> Result<Vec<Vec<Hit>>> {
        for query in queries {
            if query.len() != self.filter_len {
                return Err(PprlError::shape(
                    format!("{} bits", self.filter_len),
                    format!("{} bits", query.len()),
                ));
            }
        }
        if let Some(ms) = min_score {
            if !(0.0..=1.0).contains(&ms) {
                return Err(PprlError::invalid("min_score", "must be in [0, 1]"));
            }
        }
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        if k == 0 {
            return Ok(vec![Vec::new(); queries.len()]);
        }
        let ctxs: Vec<QueryCtx> = queries
            .iter()
            .map(|q| QueryCtx {
                probe: BlockProbe::new(q.as_words(), 0),
                q: q.count_ones(),
                keys: band_keys(q, &self.summary_positions),
            })
            .collect();
        let tasks = self.split_tasks(threads.max(1), order);
        let workers = threads.max(1).min(tasks.len().max(1));
        let mut merged: Vec<TopK> = (0..queries.len()).map(|_| TopK::new(k)).collect();
        if workers <= 1 {
            let mut scratch = Scratch::new(&ctxs, min_score, self.filter_len);
            for &(si, start, end) in &tasks {
                self.scan_task(si, start, end, &ctxs, &mut merged, &mut scratch)?;
            }
        } else {
            let next = AtomicUsize::new(0);
            let partials: Vec<Result<Vec<TopK>>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        let next = &next;
                        let tasks = &tasks;
                        let ctxs = &ctxs;
                        scope.spawn(move || {
                            let mut locals: Vec<TopK> =
                                (0..ctxs.len()).map(|_| TopK::new(k)).collect();
                            let mut scratch = Scratch::new(ctxs, min_score, self.filter_len);
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                let Some(&(si, start, end)) = tasks.get(i) else {
                                    return Ok(locals);
                                };
                                self.scan_task(si, start, end, ctxs, &mut locals, &mut scratch)?;
                            }
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("query worker panicked"))
                    .collect()
            });
            for partial in partials {
                for (qi, local) in partial?.into_iter().enumerate() {
                    for hit in local.heap {
                        merged[qi].push(hit.0);
                    }
                }
            }
        }
        Ok(merged
            .into_iter()
            .map(|top| {
                let mut hits = top.into_sorted();
                if let Some(ms) = min_score {
                    hits.retain(|h| h.score >= ms);
                }
                hits
            })
            .collect())
    }

    /// Best Dice score any record in `slot` could reach against `ctx`:
    /// the popcount bound at `clamp(q, pc_min, pc_max)`, tightened by the
    /// band-key summary bound when the query misses every summary table.
    fn slot_upper_bound(&self, slot: &Slot, ctx: &QueryCtx) -> f64 {
        let mut ub = dice_upper_bound(ctx.q, ctx.q.clamp(slot.pc_min, slot.pc_max));
        if !ctx.keys.is_empty() {
            if let Some(summary) = &slot.summary {
                if !summary.contains_any(&ctx.keys) {
                    ub = ub.min(no_match_dice_bound(
                        ctx.q,
                        slot.pc_max,
                        self.summary_positions.len(),
                    ));
                }
            }
        }
        ub
    }

    /// Scans rows `[start, end)` of slot `si` for every query whose
    /// bounds cannot exclude the slot, pushing admitted rows into the
    /// caller's per-query accumulators (and keeping `scratch`'s
    /// admission state in step with them). Pruned-for-all tasks return
    /// without materialising the slot.
    fn scan_task<'q>(
        &self,
        si: usize,
        start: usize,
        end: usize,
        ctxs: &[QueryCtx<'q>],
        locals: &mut [TopK],
        scratch: &mut Scratch<'q>,
    ) -> Result<()> {
        let slot = &self.slots[si];
        // Slot-level pruning, before the segment file is touched.
        scratch.active.clear();
        for (qi, ctx) in ctxs.iter().enumerate() {
            let ub = self.slot_upper_bound(slot, ctx);
            if !scratch.admission[qi].theta.is_some_and(|theta| ub < theta) {
                scratch.active.push(qi);
            }
        }
        if scratch.active.is_empty() {
            return Ok(());
        }
        let arena = self.arena(slot)?;
        // One dispatch-table fetch per task.
        let kernel = active_kernel();
        let mut tally = RowTally::default();
        // The live list depends only on the tile's popcounts and the
        // queries' thresholds, so it is rebuilt only when one changes.
        let mut live_for = None;
        debug_assert!(start.is_multiple_of(TILE_ROWS), "tasks start on a tile");
        let mut i = start;
        while i < end && !scratch.active.is_empty() {
            let tile_end = end.min(i + TILE_ROWS);
            let n = tile_end - i;
            let xs = (
                arena.popcount(i) as usize,
                arena.popcount(tile_end - 1) as usize,
            );
            if live_for != Some(xs) {
                live_for = Some(xs);
                scratch.select_live(ctxs, xs, end - i, &mut tally);
            }
            tally.window_pruned += ((scratch.active.len() - scratch.live.len()) * n) as u64;
            if scratch.live.is_empty() {
                i = tile_end;
                continue;
            }
            // Start the memory stream a few tiles ahead of the kernel.
            let ahead = i + PREFETCH_TILES * TILE_ROWS;
            if ahead < end {
                prefetch(arena.tile(ahead / TILE_ROWS));
            }
            // Lanes past `n` (the last tile's zero padding) are never
            // scored or admitted.
            let tile = arena.tile(i / TILE_ROWS);
            let totals = kernel.score_tile(tile, n, &scratch.probes, &mut scratch.hits);
            tally.scored += u64::from(totals.scored);
            tally.prefix_rejected += (n * scratch.live.len()) as u64 - u64::from(totals.scored);
            if totals.admitted == 0 {
                i = tile_end;
                continue;
            }
            for (li, &qi) in scratch.live.iter().enumerate() {
                let hits = scratch.hits[li];
                let mut admitted = hits.admitted;
                if admitted == 0 {
                    continue;
                }
                let ctx = &ctxs[qi];
                while admitted != 0 {
                    let j = admitted.trailing_zeros() as usize;
                    admitted &= admitted - 1;
                    let row = i + j;
                    locals[qi].push(Hit {
                        id: arena.id(row),
                        score: dice_from_counts(
                            hits.counts[j] as usize,
                            ctx.q,
                            arena.popcount(row) as usize,
                        ),
                    });
                }
                let theta = effective_theta(&locals[qi], scratch.min_score);
                if theta != scratch.admission[qi].theta {
                    scratch.admission[qi] = Admission::new(theta, ctx.q, self.filter_len);
                    live_for = None;
                }
            }
            i = tile_end;
        }
        self.rows.fold(&tally);
        Ok(())
    }

    /// Splits slots into `(slot, start, end)` scan tasks. Chunk length
    /// scales with the total record count (oversubscribed 4× so workers
    /// stay busy despite uneven pruning) but never drops below
    /// [`MIN_SPLIT`], so tiny slots are not shredded into per-record
    /// tasks, and is a whole number of tiles, so every task starts on a
    /// tile. With one worker this degenerates to one task per slot.
    ///
    /// `order` is the optional slot-visiting hint from
    /// [`IndexReader::popcount_scan_order`]: tasks are emitted (and thus
    /// claimed by workers) in that order, with out-of-range or repeated
    /// indices dropped and unmentioned slots appended so coverage is
    /// identical either way.
    fn split_tasks(&self, workers: usize, order: Option<&[u32]>) -> Vec<(usize, usize, usize)> {
        let visit: Vec<usize> = match order {
            None => (0..self.slots.len()).collect(),
            Some(hint) => {
                let mut seen = vec![false; self.slots.len()];
                let mut visit = Vec::with_capacity(self.slots.len());
                for &si in hint {
                    let si = si as usize;
                    if si < self.slots.len() && !seen[si] {
                        seen[si] = true;
                        visit.push(si);
                    }
                }
                visit.extend((0..self.slots.len()).filter(|&si| !seen[si]));
                visit
            }
        };
        let total: usize = self.slots.iter().map(|s| s.rows).sum();
        let chunk = if workers <= 1 {
            usize::MAX
        } else {
            MIN_SPLIT
                .max(total.div_ceil(workers * 4))
                .next_multiple_of(TILE_ROWS)
        };
        let mut tasks = Vec::new();
        for si in visit {
            let n = self.slots[si].rows;
            if n == 0 {
                continue;
            }
            let mut start = 0;
            while start < n {
                let end = n.min(start.saturating_add(chunk));
                tasks.push((si, start, end));
                start = end;
            }
        }
        tasks
    }
}

/// Per-query scan state: the query as a kernel probe, its popcount and
/// its band keys.
struct QueryCtx<'a> {
    probe: BlockProbe<'a>,
    q: usize,
    keys: Vec<u64>,
}

/// One worker's scan buffers, allocated once per call and reused by
/// every task the worker claims.
struct Scratch<'q> {
    /// The call's score floor, part of every query's threshold.
    min_score: Option<f64>,
    /// Admission state per query, kept in step with the worker's
    /// accumulators.
    admission: Vec<Admission>,
    /// Queries still scanning the current task.
    active: Vec<usize>,
    /// Queries live on the current tile, with their kernel inputs.
    live: Vec<usize>,
    probes: Vec<BlockProbe<'q>>,
    /// Kernel output, one entry per live query.
    hits: Vec<BlockHits>,
}

impl<'q> Scratch<'q> {
    /// Rebuilds the live list for a tile whose first and last popcounts
    /// are `xs`, with `rest` rows left in the task: a query past its
    /// window's upper end is done with the task (its remaining pairs
    /// count as window-pruned); one below its window's lower end sits
    /// this tile out; the rest are live, at their admission count for
    /// the tile's first popcount.
    fn select_live(
        &mut self,
        ctxs: &[QueryCtx<'q>],
        (x_first, x_last): (usize, usize),
        rest: usize,
        tally: &mut RowTally,
    ) {
        self.live.clear();
        self.probes.clear();
        let mut ai = 0;
        while ai < self.active.len() {
            let qi = self.active[ai];
            let adm = &mut self.admission[qi];
            if x_first > adm.x_hi {
                tally.window_pruned += rest as u64;
                self.active.swap_remove(ai);
                continue;
            }
            ai += 1;
            if x_last < adm.x_lo {
                continue;
            }
            let ctx = &ctxs[qi];
            let cmin = adm.cmin(ctx.q, x_first);
            self.live.push(qi);
            self.probes.push(ctx.probe.with_cmin(cmin));
        }
    }

    fn new(ctxs: &[QueryCtx<'q>], min_score: Option<f64>, filter_len: usize) -> Scratch<'q> {
        Scratch {
            min_score,
            admission: ctxs
                .iter()
                .map(|ctx| Admission::new(min_score, ctx.q, filter_len))
                .collect(),
            active: Vec::with_capacity(ctxs.len()),
            live: Vec::with_capacity(ctxs.len()),
            probes: Vec::with_capacity(ctxs.len()),
            hits: vec![BlockHits::default(); ctxs.len()],
        }
    }
}

/// A query's admission state at threshold `theta` (`None` admits every
/// row): its popcount window and its admission count, cached at the
/// popcount it was last computed for.
#[derive(Debug, Clone, Copy)]
struct Admission {
    theta: Option<f64>,
    x_lo: usize,
    x_hi: usize,
    cmin_at: usize,
    cmin: u32,
}

impl Admission {
    /// The window of a query of popcount `q` at `theta`, over filters of
    /// at most `max_x` set bits.
    fn new(theta: Option<f64>, q: usize, max_x: usize) -> Admission {
        let (x_lo, x_hi) = match theta {
            Some(theta) => popcount_window(theta, q, max_x),
            None => (0, usize::MAX),
        };
        Admission {
            theta,
            x_lo,
            x_hi,
            cmin_at: usize::MAX,
            cmin: 0,
        }
    }

    /// The admission count for rows of popcount at least `x`.
    #[inline]
    fn cmin(&mut self, q: usize, x: usize) -> u32 {
        if x != self.cmin_at {
            self.cmin_at = x;
            self.cmin = self.theta.map_or(0, |theta| {
                u32::try_from(admission_count(theta, q, x)).unwrap_or(u32::MAX)
            });
        }
        self.cmin
    }
}

/// Row counts of one scan task, folded into [`RowCounters`] once.
#[derive(Debug, Default)]
struct RowTally {
    window_pruned: u64,
    prefix_rejected: u64,
    scored: u64,
}

/// A reader's cumulative row counters (see [`ReadStats`]).
#[derive(Debug, Default)]
struct RowCounters {
    window_pruned: AtomicU64,
    prefix_rejected: AtomicU64,
    scored: AtomicU64,
}

impl RowCounters {
    fn fold(&self, tally: &RowTally) {
        self.window_pruned
            .fetch_add(tally.window_pruned, Ordering::Relaxed);
        self.prefix_rejected
            .fetch_add(tally.prefix_rejected, Ordering::Relaxed);
        self.scored.fetch_add(tally.scored, Ordering::Relaxed);
    }
}

/// The least intersection count `c` with
/// `dice_from_counts(c, q, x) >= theta`, for `theta <= 1`: a closed form,
/// then an exact fix against the f64 expression the scores use (which is
/// non-decreasing in `c`, so the fix moves at most a step or two).
fn admission_count(theta: f64, q: usize, x: usize) -> usize {
    let n = q + x;
    if n == 0 || theta <= 0.0 {
        return 0;
    }
    let admits = |c: usize| dice_from_counts(c, q, x) >= theta;
    let mut c = ((theta * n as f64 / 2.0).ceil() as usize).min(n);
    while c > 0 && admits(c - 1) {
        c -= 1;
    }
    while c < n && !admits(c) {
        c += 1;
    }
    c
}

/// `[x_lo, x_hi]`: the popcounts `x <= max_x` whose bound
/// [`dice_upper_bound`]`(q, x)` reaches `theta`, for `theta <= 1` and
/// `q <= max_x`. The bound rises as `2x/(q+x)` up to `x = q` and falls
/// as `2q/(q+x)` after it, so the set is an interval around `q`; each
/// end is a closed form plus an exact fix, as in [`admission_count`].
fn popcount_window(theta: f64, q: usize, max_x: usize) -> (usize, usize) {
    if theta <= 0.0 {
        return (0, max_x);
    }
    let admits = |x: usize| dice_upper_bound(q, x) >= theta;
    let mut lo = ((theta * q as f64 / (2.0 - theta)).ceil() as usize).min(q);
    while lo > 0 && admits(lo - 1) {
        lo -= 1;
    }
    while lo < q && !admits(lo) {
        lo += 1;
    }
    let mut hi = ((q as f64 * (2.0 - theta) / theta).floor() as usize).clamp(q, max_x.max(q));
    while hi < max_x && admits(hi + 1) {
        hi += 1;
    }
    while hi > q && !admits(hi) {
        hi -= 1;
    }
    (lo, hi)
}

/// The score a candidate must beat (or tie) to matter for this query:
/// the local k-th score once the accumulator is full, floored by
/// `min_score` (sub-threshold hits are dropped from the final result, so
/// skipping them early is lossless).
fn effective_theta(top: &TopK, min_score: Option<f64>) -> Option<f64> {
    match (top.threshold(), min_score) {
        (Some(t), Some(ms)) => Some(t.max(ms)),
        (Some(t), None) => Some(t),
        (None, ms) => ms,
    }
}

/// How many tiles ahead of the one being scored a scan prefetches.
const PREFETCH_TILES: usize = 4;

/// Smallest sub-slot scan task (a whole number of tiles); see
/// [`IndexReader::split_tasks`].
const MIN_SPLIT: usize = 4 * TILE_ROWS;

/// `2·min(q, x)/(q + x)`, the best Dice score any filter with popcount
/// `x` can reach against a query with popcount `q`. Two empty filters
/// have Dice 1.0 by convention, matching `dice_bits`.
fn dice_upper_bound(q: usize, x: usize) -> f64 {
    if q + x == 0 {
        return 1.0;
    }
    2.0 * q.min(x) as f64 / (q + x) as f64
}

/// Worst-at-top ordering so a max-`BinaryHeap` evicts the weakest hit:
/// lower score is "greater"; on ties the larger id is "greater" (ids
/// break ties ascending in the final ranking).
#[derive(Debug)]
struct WorstFirst(Hit);

impl PartialEq for WorstFirst {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for WorstFirst {}
impl PartialOrd for WorstFirst {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for WorstFirst {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .0
            .score
            .total_cmp(&self.0.score)
            .then(self.0.id.cmp(&other.0.id))
    }
}

/// Bounded top-k accumulator.
struct TopK {
    k: usize,
    heap: std::collections::BinaryHeap<WorstFirst>,
}

impl TopK {
    fn new(k: usize) -> Self {
        TopK {
            k,
            heap: std::collections::BinaryHeap::with_capacity(k + 1),
        }
    }

    /// The score a candidate must reach to possibly place, once full.
    fn threshold(&self) -> Option<f64> {
        if self.heap.len() == self.k {
            self.heap.peek().map(|w| w.0.score)
        } else {
            None
        }
    }

    fn push(&mut self, hit: Hit) {
        if self.heap.len() < self.k {
            self.heap.push(WorstFirst(hit));
            return;
        }
        let worst = self.heap.peek().expect("heap full").0;
        let better = hit.score > worst.score || (hit.score == worst.score && hit.id < worst.id);
        if better {
            self.heap.pop();
            self.heap.push(WorstFirst(hit));
        }
    }

    /// Drains into the final ranking: score descending, id ascending.
    fn into_sorted(self) -> Vec<Hit> {
        let mut hits: Vec<Hit> = self.heap.into_iter().map(|w| w.0).collect();
        hits.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.id.cmp(&b.id)));
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pprl_core::rng::SplitMix64;
    use pprl_similarity::bitvec_sim::dice_bits;

    fn random_filters(n: usize, len: usize, seed: u64) -> Vec<(u64, BitVec)> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|i| {
                let ones: Vec<usize> = (0..len)
                    .filter(|_| rng.next_u64().is_multiple_of(4))
                    .collect();
                (i as u64, BitVec::from_positions(len, &ones).unwrap())
            })
            .collect()
    }

    /// Reference implementation: score everything, sort, truncate.
    fn brute_force(records: &[(u64, BitVec)], query: &BitVec, k: usize) -> Vec<Hit> {
        let mut hits: Vec<Hit> = records
            .iter()
            .map(|(id, f)| Hit {
                id: *id,
                score: dice_bits(query, f).unwrap(),
            })
            .collect();
        hits.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.id.cmp(&b.id)));
        hits.truncate(k);
        hits
    }

    fn shard_split(records: &[(u64, BitVec)], shards: usize) -> Vec<Vec<(u64, BitVec)>> {
        let mut out = vec![Vec::new(); shards];
        for (i, r) in records.iter().enumerate() {
            out[i % shards].push(r.clone());
        }
        out
    }

    #[test]
    fn matches_brute_force_across_k_and_threads() {
        let records = random_filters(300, 128, 7);
        let reader = IndexReader::new(shard_split(&records, 4), 128).unwrap();
        let queries = random_filters(20, 128, 99);
        for (_, query) in &queries {
            for k in [1, 3, 10, 300, 500] {
                let expected = brute_force(&records, query, k);
                for threads in [1, 2, 4] {
                    let got = reader.top_k(query, k, threads).unwrap();
                    assert_eq!(got, expected, "k={k} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn planned_scan_is_bit_identical_to_default_order() {
        let records = random_filters(260, 128, 23);
        let reader = IndexReader::new(shard_split(&records, 5), 128).unwrap();
        let queries = random_filters(12, 128, 71);
        for (_, query) in &queries {
            let plan = reader.popcount_scan_order(query.count_ones());
            for k in [1, 4, 50] {
                for threads in [1, 3] {
                    let default = reader.top_k(query, k, threads).unwrap();
                    let planned = reader.top_k_planned(query, k, threads, &plan).unwrap();
                    assert_eq!(planned, default, "k={k} threads={threads}");
                }
            }
            // A garbage hint (wrong indices, duplicates, empty) must not
            // change results either — it is only a visiting order.
            let garbage: Vec<u32> = vec![99, 99, 3, 3, 1_000_000];
            assert_eq!(
                reader.top_k_planned(query, 10, 2, &garbage).unwrap(),
                reader.top_k(query, 10, 1).unwrap()
            );
            assert_eq!(
                reader.top_k_planned(query, 10, 1, &[]).unwrap(),
                reader.top_k(query, 10, 1).unwrap()
            );
        }
    }

    #[test]
    fn scan_order_sorts_slots_by_popcount_ceiling() {
        // Three shards with forced popcount bands: sparse, medium, dense.
        let len = 128;
        let mk = |ones: std::ops::Range<usize>, base: u64| -> Vec<(u64, BitVec)> {
            ones.clone()
                .map(|n| {
                    let pos: Vec<usize> = (0..n.max(1)).collect();
                    (base + n as u64, BitVec::from_positions(len, &pos).unwrap())
                })
                .collect()
        };
        let shards = vec![mk(2..6, 0), mk(40..48, 100), mk(100..110, 200)];
        let reader = IndexReader::new(shards, len).unwrap();
        // A dense query should visit the dense slot first, sparse last.
        let dense_query = BitVec::from_positions(len, &(0..104).collect::<Vec<_>>()).unwrap();
        assert_eq!(
            reader.popcount_scan_order(dense_query.count_ones()),
            [2, 1, 0]
        );
        // A sparse query reverses the preference.
        let sparse_query = BitVec::from_positions(len, &[0, 1, 2, 3]).unwrap();
        assert_eq!(
            reader.popcount_scan_order(sparse_query.count_ones()),
            [0, 1, 2]
        );
    }

    #[test]
    fn batch_matches_per_query_top_k() {
        let records = random_filters(250, 128, 13);
        let reader = IndexReader::new(shard_split(&records, 3), 128).unwrap();
        let queries = random_filters(17, 128, 31);
        let probes: Vec<&BitVec> = queries.iter().map(|(_, q)| q).collect();
        for k in [1, 5, 40] {
            for threads in [1, 3, 8] {
                let batched = reader.top_k_batch(&probes, k, threads, None).unwrap();
                assert_eq!(batched.len(), probes.len());
                for (qi, probe) in probes.iter().enumerate() {
                    assert_eq!(
                        batched[qi],
                        reader.top_k(probe, k, 1).unwrap(),
                        "k={k} threads={threads} query={qi}"
                    );
                }
            }
        }
    }

    #[test]
    fn min_score_equals_top_k_then_filter() {
        // Hits at or above min_score always outrank hits below it, so
        // "top-k then filter" and "filter then top-k" coincide — the
        // batched path with min_score must be bit-identical to the
        // unbounded scan with a retain() after it.
        let records = random_filters(200, 128, 41);
        let reader = IndexReader::new(shard_split(&records, 2), 128).unwrap();
        let queries = random_filters(10, 128, 5);
        let probes: Vec<&BitVec> = queries.iter().map(|(_, q)| q).collect();
        for ms in [0.0, 0.4, 0.7, 1.0] {
            for k in [1, 6, 300] {
                let bounded = reader.top_k_batch(&probes, k, 2, Some(ms)).unwrap();
                for (qi, probe) in probes.iter().enumerate() {
                    let mut expected = reader.top_k(probe, k, 1).unwrap();
                    expected.retain(|h| h.score >= ms);
                    assert_eq!(bounded[qi], expected, "ms={ms} k={k} query={qi}");
                }
            }
        }
        let err = reader.top_k_batch(&probes, 3, 1, Some(1.5)).unwrap_err();
        assert!(matches!(err, PprlError::InvalidParameter { .. }), "{err}");
    }

    #[test]
    fn exact_match_ranks_first() {
        let records = random_filters(100, 96, 3);
        let reader = IndexReader::new(shard_split(&records, 2), 96).unwrap();
        let (id, query) = records[37].clone();
        let hits = reader.top_k(&query, 5, 2).unwrap();
        assert_eq!(hits[0].id, id);
        assert_eq!(hits[0].score, 1.0);
    }

    #[test]
    fn ties_break_by_ascending_id() {
        // Three identical filters: scores tie at 1.0, ids decide.
        let f = BitVec::from_positions(64, &[1, 5, 9]).unwrap();
        let records = vec![(30, f.clone()), (10, f.clone()), (20, f.clone())];
        let reader = IndexReader::new(vec![records], 64).unwrap();
        let hits = reader.top_k(&f, 2, 1).unwrap();
        assert_eq!(hits.iter().map(|h| h.id).collect::<Vec<_>>(), vec![10, 20]);
    }

    #[test]
    fn empty_query_and_empty_records() {
        let empty = BitVec::zeros(64);
        let records = vec![(0, empty.clone()), (1, BitVec::ones(64))];
        let reader = IndexReader::new(vec![records.clone()], 64).unwrap();
        // dice(empty, empty) = 1.0 by convention; dice(empty, ones) = 0.
        let hits = reader.top_k(&empty, 2, 1).unwrap();
        assert_eq!(hits, brute_force(&records, &empty, 2));
        assert_eq!(hits[0], Hit { id: 0, score: 1.0 });
    }

    #[test]
    fn k_zero_empty_batch_and_wrong_length() {
        let records = random_filters(10, 64, 1);
        let reader = IndexReader::new(vec![records], 64).unwrap();
        assert!(reader.top_k(&BitVec::zeros(64), 0, 1).unwrap().is_empty());
        assert!(reader.top_k_batch(&[], 3, 1, None).unwrap().is_empty());
        let err = reader.top_k(&BitVec::zeros(32), 1, 1).unwrap_err();
        assert!(matches!(err, PprlError::ShapeMismatch { .. }), "{err}");
    }

    #[test]
    fn reader_rejects_mismatched_record_length() {
        let err = IndexReader::new(vec![vec![(0, BitVec::zeros(32))]], 64).unwrap_err();
        assert!(matches!(err, PprlError::Storage(_)), "{err}");
    }

    #[test]
    fn more_threads_than_shards_is_fine() {
        let records = random_filters(50, 64, 5);
        let reader = IndexReader::new(shard_split(&records, 2), 64).unwrap();
        let (_, q) = &records[0];
        assert_eq!(reader.top_k(q, 5, 16).unwrap(), brute_force(&records, q, 5));
    }

    #[test]
    fn single_shard_splits_into_sub_ranges() {
        // One big slot, many threads: split_tasks must produce more tasks
        // than slots so the scan actually parallelises.
        let records = random_filters(400, 128, 11);
        let reader = IndexReader::new(vec![records.clone()], 128).unwrap();
        let tasks = reader.split_tasks(8, None);
        assert!(
            tasks.len() > 1,
            "expected sub-slot splitting, got {tasks:?}"
        );
        assert!(tasks.iter().all(|&(si, s, e)| si == 0 && s < e && e <= 400));
        let covered: usize = tasks.iter().map(|&(_, s, e)| e - s).sum();
        assert_eq!(covered, 400, "tasks must tile the slot exactly");
    }

    #[test]
    fn sub_shard_split_matches_single_thread_scan() {
        // Regression: per-range pruning must stay lossless — the
        // multi-threaded, sub-slot-split result is bit-identical to the
        // one-task-per-slot single-thread scan and to brute force.
        let records = random_filters(500, 128, 23);
        let reader = IndexReader::new(shard_split(&records, 3), 128).unwrap();
        let queries = random_filters(10, 128, 77);
        for (_, query) in &queries {
            for k in [1, 7, 25] {
                let single = reader.top_k(query, k, 1).unwrap();
                assert_eq!(single, brute_force(&records, query, k));
                for threads in [2, 5, 8, 32] {
                    assert_eq!(
                        reader.top_k(query, k, threads).unwrap(),
                        single,
                        "k={k} threads={threads}"
                    );
                }
            }
        }
    }

    /// (a) The admission math, exhaustively for every `q, x <= 1024`:
    /// `admission_count` is the *least* count whose exact Dice reaches
    /// θ, and `popcount_window` is exactly the set where
    /// `dice_upper_bound` reaches θ (equivalently, where the admission
    /// count fits under `min(q, x)`). θ comes from the score lattice
    /// `2c/(q+x)`, so every boundary is an exact tie, plus 0.0 and 1.0.
    #[test]
    fn admission_count_and_window_are_exact_on_the_score_lattice() {
        const MAX: usize = 1024;
        let least = |theta: f64, q: usize, x: usize| {
            let c = admission_count(theta, q, x);
            assert!(
                dice_from_counts(c, q, x) >= theta,
                "cmin {c} does not admit at θ={theta} q={q} x={x}"
            );
            assert!(
                c == 0 || dice_from_counts(c - 1, q, x) < theta,
                "cmin {c} is not the least at θ={theta} q={q} x={x}"
            );
            c
        };
        for q in 0..=MAX {
            for x in 0..=MAX {
                let m = q.min(x);
                let mut thetas = vec![0.0, 1.0];
                for c in [0, 1, m / 3, m / 2, m.saturating_sub(1), m, m + 1] {
                    thetas.push(dice_from_counts(c, q, x));
                }
                // Ties against neighbouring denominators too.
                thetas.push(dice_from_counts(m, q, x + 1));
                thetas.push(dice_from_counts(m / 2, q + 1, x));
                for theta in thetas.into_iter().filter(|t| *t <= 1.0) {
                    least(theta, q, x);
                }
            }
            // Window ends at every exact upper-bound tie for this q.
            let ub_lattice = (0..=MAX).map(|x| dice_upper_bound(q, x));
            for theta in [0.0, 1.0].into_iter().chain(ub_lattice) {
                let (lo, hi) = popcount_window(theta, q, MAX);
                assert!(lo <= q && q <= hi && hi <= MAX, "θ={theta} q={q}");
                assert!(dice_upper_bound(q, lo) >= theta, "lo θ={theta} q={q}");
                assert!(lo == 0 || dice_upper_bound(q, lo - 1) < theta);
                assert!(dice_upper_bound(q, hi) >= theta, "hi θ={theta} q={q}");
                assert!(hi == MAX || dice_upper_bound(q, hi + 1) < theta);
            }
            // Full membership, for every x, at a few thresholds.
            let probe_thetas = [
                0.0,
                0.5,
                0.8,
                1.0,
                dice_upper_bound(q, q / 2),
                dice_upper_bound(q, 2 * q),
            ];
            for theta in probe_thetas {
                let (lo, hi) = popcount_window(theta, q, MAX);
                for x in 0..=MAX {
                    let inside = (lo..=hi).contains(&x);
                    assert_eq!(
                        inside,
                        dice_upper_bound(q, x) >= theta,
                        "window θ={theta} q={q} x={x}"
                    );
                    assert_eq!(
                        inside,
                        least(theta, q, x) <= q.min(x),
                        "window vs cmin θ={theta} q={q} x={x}"
                    );
                }
            }
        }
    }

    /// A clustered corpus: a few bases, popcount-preserving variants of
    /// each (so many rows share a popcount and sit near a probe), and
    /// exact duplicates under fresh ids (so the k-th score ties).
    fn clustered_corpus(len: usize, seed: u64) -> Vec<(u64, BitVec)> {
        let mut rng = SplitMix64::new(seed);
        let mut records = Vec::new();
        for (b, per_mille) in [120u64, 250, 330, 400, 480, 600].into_iter().enumerate() {
            let base: Vec<usize> = (0..len)
                .filter(|_| rng.next_u64() % 1000 < per_mille)
                .collect();
            let zeros: Vec<usize> = (0..len).filter(|i| !base.contains(i)).collect();
            for v in 0..30u64 {
                // Move `moves` set bits to unset positions.
                let moves = (v as usize % 9).min(base.len()).min(zeros.len());
                let mut ones = base.clone();
                let off = rng.sample_indices(base.len(), moves);
                let on = rng.sample_indices(zeros.len(), moves);
                for (&o, &n) in off.iter().zip(&on) {
                    ones[o] = zeros[n];
                }
                let id = 1000 * b as u64 + v;
                records.push((id, BitVec::from_positions(len, &ones).unwrap()));
            }
        }
        // Exact duplicates under fresh (interleaved) ids.
        for i in (0..records.len()).step_by(7) {
            let (id, f) = records[i].clone();
            records.push((id + 500, f));
        }
        records
    }

    fn brute_force_min(
        records: &[(u64, BitVec)],
        query: &BitVec,
        k: usize,
        min_score: Option<f64>,
    ) -> Vec<Hit> {
        let mut hits = brute_force(records, query, records.len());
        hits.retain(|h| min_score.is_none_or(|ms| h.score >= ms));
        hits.truncate(k);
        hits
    }

    /// (b) Every entry point is bit-identical to brute force on the
    /// clustered corpus, for every `min_score`, `k` and thread count, on
    /// an eager reader and on a lazy, summary-enabled store reader.
    #[test]
    fn clustered_corpus_matches_brute_force_on_every_entry_point() {
        use crate::store::{IndexConfig, IndexStore};
        let len = 320; // 5 words: an odd stride, and summaries enabled
        let records = clustered_corpus(len, 0xC1u64);
        let n = records.len();
        let eager = IndexReader::new(shard_split(&records, 3), len).unwrap();
        let dir = std::env::temp_dir().join(format!("pprl-query-exact-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = IndexConfig::new(len, 3);
        assert!(config.summary.enabled(), "summaries on at {len} bits");
        let mut store = IndexStore::create(&dir, config).unwrap();
        store.insert_batch(&records[..n / 2]).unwrap();
        store.flush().unwrap();
        store.insert_batch(&records[n / 2..]).unwrap();
        store.flush().unwrap();
        let lazy = store.lazy_reader().unwrap();

        let mut rng = SplitMix64::new(0xFEED);
        let mut queries: Vec<BitVec> = records.iter().step_by(17).map(|(_, f)| f.clone()).collect();
        for (_, f) in records.iter().step_by(23) {
            let mut p = f.clone();
            for pos in rng.sample_indices(len, 6) {
                p.flip(pos);
            }
            queries.push(p);
        }
        queries.push(BitVec::zeros(len));
        queries.push(BitVec::ones(len));
        let refs: Vec<&BitVec> = queries.iter().collect();

        for (name, reader) in [("eager", &eager), ("lazy", &lazy)] {
            for k in [1, 10, n + 5] {
                for threads in [1, 2, 4] {
                    for min_score in [None, Some(0.0), Some(0.5), Some(0.8), Some(1.0)] {
                        let batch = reader.top_k_batch(&refs, k, threads, min_score).unwrap();
                        for (qi, query) in queries.iter().enumerate() {
                            assert_eq!(
                                batch[qi],
                                brute_force_min(&records, query, k, min_score),
                                "{name} batch k={k} threads={threads} ms={min_score:?} q={qi}"
                            );
                        }
                    }
                    for (qi, query) in queries.iter().enumerate() {
                        let want = brute_force_min(&records, query, k, None);
                        let plan = reader.popcount_scan_order(query.count_ones());
                        assert_eq!(
                            reader.top_k(query, k, threads).unwrap(),
                            want,
                            "{name} top_k k={k} threads={threads} q={qi}"
                        );
                        assert_eq!(
                            reader.top_k_planned(query, k, threads, &plan).unwrap(),
                            want,
                            "{name} planned k={k} threads={threads} q={qi}"
                        );
                    }
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn row_counters_add_up_to_the_pairs_visited() {
        // One slot scanned by one worker as one task: nothing is pruned
        // at slot level, so the scan visits every (probe, row) pair.
        let len = 320;
        let records = clustered_corpus(len, 0xC2u64);
        let reader = IndexReader::new(vec![records.clone()], len).unwrap();
        let probes: Vec<BitVec> = records.iter().step_by(11).map(|(_, f)| f.clone()).collect();
        let refs: Vec<&BitVec> = probes.iter().collect();
        let mut visited = 0u64;
        for min_score in [None, Some(0.8)] {
            reader.top_k_batch(&refs, 5, 1, min_score).unwrap();
            visited += (records.len() * probes.len()) as u64;
            let s = reader.read_stats();
            assert_eq!(
                s.rows_window_pruned + s.rows_prefix_rejected + s.rows_scored,
                visited,
                "{s:?}"
            );
        }
        let s = reader.read_stats();
        // The clustered corpus exercises all three groups.
        assert!(s.rows_window_pruned > 0, "{s:?}");
        assert!(s.rows_prefix_rejected > 0, "{s:?}");
        assert!(s.rows_scored > 0, "{s:?}");
    }

    #[test]
    fn memory_reader_read_stats_are_zero() {
        let records = random_filters(20, 64, 3);
        let reader = IndexReader::new(vec![records], 64).unwrap();
        let stats = reader.read_stats();
        assert_eq!(stats.bytes_read, 0);
        assert_eq!(stats.segments_read, 0);
        assert_eq!(stats.segments_skipped, 0);
    }
}
