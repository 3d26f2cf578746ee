//! What the two single-node workloads share: serving an index to held-
//! open authenticated connections, tearing it down, and reading the
//! layers an operator can see from outside once the load has stopped.

use crate::measure;
use crate::report::Report;
use crate::trace::{self, Layers};
use crate::{config, remove_dir};
use pprl_server::server::{serve_auth, ServerHandle};
use pprl_server::Client;
use std::path::Path;

/// Held-open client connections, one per load thread; the node runs
/// one worker per connection.
pub const CONNECTIONS: usize = 2;
/// Handshakes replayed by a traced run.
pub const HANDSHAKE_REPLAYS: usize = 32;

/// Serves the index in `dir` with the benchmark's node configuration
/// (compaction off) and opens the load connections.
pub fn serve(dir: &Path) -> (ServerHandle, Vec<Client>) {
    let handle = serve_auth(
        dir,
        "127.0.0.1:0",
        config::server_config(CONNECTIONS, None),
        config::registry(),
    )
    .expect("serving the index");
    let addr = handle.addr().to_string();
    let clients = (0..CONNECTIONS)
        .map(|_| Client::connect_with(&addr, Some(config::client_auth())).expect("connecting"))
        .collect();
    (handle, clients)
}

/// Closes the connections, stops the node and removes its index.
pub fn tear_down(handle: ServerHandle, clients: Vec<Client>, dir: &Path) {
    drop(clients);
    handle.shutdown_now();
    remove_dir(dir);
}

/// The post-load part of a traced run: replays handshakes against the
/// node (its workers must be free, so call this after closing the load
/// connections), then reads `STATS` and the live snapshot's read stats.
/// Returns the handshakes made.
pub fn trace_after_load(
    handle: &ServerHandle,
    dir: &Path,
    layers: &mut Layers,
    client_p50_ms: f64,
    report: &mut Report,
) -> usize {
    let addr = handle.addr().to_string();
    for _ in 0..HANDSHAKE_REPLAYS {
        layers.handshakes.push(trace::handshake(&addr));
    }
    let read = handle.service().snapshot().reader.read_stats();
    report.set(
        "index.segments_skipped_ratio",
        ratio(
            read.segments_skipped as u64,
            (read.segments_read + read.segments_skipped) as u64,
        ),
    );
    let stats = Client::connect_with(&addr, Some(config::client_auth()))
        .and_then(|mut c| c.stats())
        .expect("reading STATS");
    report.set("service.p50_us", stats.latency_p50_us as f64);
    report.set("service.p99_us", stats.latency_p99_us as f64);
    report.set(
        "service.cache_hit_ratio",
        ratio(stats.cache_hits, stats.cache_hits + stats.cache_misses),
    );
    report.set(
        "service.plan_hit_ratio",
        ratio(stats.plan_hits, stats.plan_hits + stats.plan_misses),
    );
    report.set("service.generations", stats.generation as f64);
    report.set(
        "frontend.residual_p50_us",
        client_p50_ms * 1e3 - stats.latency_p50_us as f64,
    );
    report.set("frontend.busy_rejected", stats.busy_rejected as f64);
    report.set("index.bytes_read", stats.bytes_read as f64);
    report.set("index.compactions", stats.compactions as f64);
    report.set("index.segments_live", measure::segment_files(dir) as f64);
    // Nothing is inserted while a single node serves, so nothing is
    // rewritten either.
    report.absent(&["index.write_amp"]);
    HANDSHAKE_REPLAYS + 1
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-layer metrics no single-node workload exercises.
pub const CLUSTER_ONLY: &[&str] = &[
    "ingest_records_per_s",
    "insert_p50_ms",
    "insert_p99_ms",
    "connect_p50_ms",
    "cluster.coord_p50_ms",
    "cluster.shard_rtt_p50_ms",
    "cluster.shard_rtt_p99_ms",
    "cluster.slowest_shard_p50_ms",
    "cluster.merge_us",
    "cluster.shard_failures",
    "cluster.degraded_replies",
];
