//! `servebench`: the serving benchmark of the pprl workspace.
//!
//! Three seeded, closed-loop workloads drive the real TCP serving stack
//! in process, over authenticated, encrypted sessions, and check every
//! answer against a brute-force oracle:
//!
//! - [`serve_hot`]: a small hot index where the front end, session and
//!   result cache dominate;
//! - [`scan_1m`]: a 1M-record index where the memory-bound scan is
//!   nearly all of each request;
//! - [`ingest_cluster`]: custodian jobs encoding, inserting and reading
//!   back through a two-shard cluster while compaction runs.
//!
//! A plain run reports end-to-end metrics; a traced run (`--trace 1`)
//! adds an outside-in layer trace. `NOTES.md` explains each workload,
//! the metric map and the limits of the trace.

pub mod config;
pub mod data;
pub mod ingest_cluster;
pub mod measure;
pub mod node;
pub mod oracle;
pub mod report;
pub mod scan_1m;
pub mod serve_hot;
pub mod trace;

use pprl_core::bitvec::BitVec;
use pprl_index::store::{IndexConfig, IndexStore};
use report::Report;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Top-k every query and link asks for.
pub const TOP_K: usize = 10;
/// Shards inside each index (the store's own LSH routing).
pub const INDEX_SHARDS: u32 = 4;
/// Workload names, as the command line takes them.
pub const WORKLOADS: [&str; 3] = ["serve-hot", "scan-1m", "ingest-cluster"];
/// A seed never used while the benchmark or a change was tuned; a
/// claimed gain must also hold on it.
pub const HELD_OUT_SEED: u64 = 20_261_017;

/// How one run is set up.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Add the traced window and the layer replays.
    pub trace: bool,
    /// Shrink every size for a quick pass (self-tests, smoke checks).
    pub smoke: bool,
    /// Scratch directory for index files; removed by the caller.
    pub dir: PathBuf,
}

impl Options {
    /// The measured window.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// The traced window: a third of the measured one, at least a second.
    pub fn traced_window(&self) -> Duration {
        Duration::from_secs_f64((self.seconds / 3.0).max(1.0))
    }
}

/// Runs one workload by name.
pub fn run(workload: &str, opts: &Options) -> Option<Report> {
    match workload {
        "serve-hot" => Some(serve_hot::run(opts)),
        "scan-1m" => Some(scan_1m::run(opts)),
        "ingest-cluster" => Some(ingest_cluster::run(opts)),
        _ => None,
    }
}

/// What building an index from scratch cost, through the store's own
/// public write path.
#[derive(Debug, Default, Clone)]
pub struct Build {
    /// Records inserted.
    pub records: usize,
    /// Seconds in `insert_batch`.
    pub insert_s: f64,
    /// Seconds of each `flush`.
    pub flushes_s: Vec<f64>,
    /// Seconds in the final `compact`.
    pub compact_s: f64,
}

impl Build {
    /// Fills the store-layer metrics measured during set-up.
    pub fn report(&self, report: &mut Report) {
        report.set(
            "index.insert_us_per_record",
            self.insert_s * 1e6 / self.records.max(1) as f64,
        );
        report.set("index.flush_ms", measure::median(&self.flushes_s) * 1e3);
        report.set("index.compact_s", self.compact_s);
    }
}

/// Builds a fresh index in `dir` from `chunks`: each chunk is one
/// `insert_batch` followed by a `flush`, then one `compact` merges the
/// flushed segments, as an operator's bulk load would.
pub fn build_index(dir: &Path, chunks: impl Iterator<Item = Vec<(u64, BitVec)>>) -> Build {
    let mut store = IndexStore::create(dir, IndexConfig::new(data::FILTER_BITS, INDEX_SHARDS))
        .expect("creating the index");
    let mut build = Build::default();
    for chunk in chunks {
        let t = Instant::now();
        store.insert_batch(&chunk).expect("inserting a chunk");
        build.insert_s += t.elapsed().as_secs_f64();
        build.records += chunk.len();
        let t = Instant::now();
        store.flush().expect("flushing a chunk");
        build.flushes_s.push(t.elapsed().as_secs_f64());
    }
    let t = Instant::now();
    store.compact().expect("compacting the bulk load");
    build.compact_s = t.elapsed().as_secs_f64();
    build
}

/// Removes a directory tree if it exists.
pub fn remove_dir(dir: &Path) {
    if dir.exists() {
        std::fs::remove_dir_all(dir).expect("removing a scratch index directory");
    }
}
