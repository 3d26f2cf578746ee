//! `ingest-cluster`: two shard nodes behind the coordinator front end,
//! every hop authenticated and encrypted, the WAL fsynced on every
//! insert (the default) and compaction every 200 ms. Each load thread
//! loops a custodian job: encode 64 raw person records, open a fresh
//! connection, insert them, read four back (the inserted record must
//! come back first) and close. Writes run beside reads, with
//! connection churn, while the scan stays tiny.

use crate::data;
use crate::measure::{self, Samples};
use crate::node::ratio;
use crate::oracle;
use crate::report::Report;
use crate::trace::{self, ChannelPair, Layers};
use crate::{build_index, config, remove_dir, Build, Options, INDEX_SHARDS, TOP_K};
use pprl_cluster::{
    merge_top_k, route_id, serve_cluster_auth, ClusterConfig, ClusterHandle, Coordinator,
};
use pprl_core::bitvec::BitVec;
use pprl_core::record::Dataset;
use pprl_index::query::Hit;
use pprl_index::store::{reclaim, IndexConfig, IndexStore, TieredPolicy};
use pprl_server::server::{serve_auth, ServerHandle};
use pprl_server::wire::{Request, Response};
use pprl_server::Client;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Shard nodes.
const SHARDS: usize = 2;
/// Workers per shard node: one more than the front end's, so the
/// coordinator's pooled connections never starve an admin connection.
const SHARD_WORKERS: usize = 3;
/// Workers of the coordinator front end, one per load thread.
const FRONT_WORKERS: usize = 2;
/// Load threads, each holding at most one connection.
const THREADS: usize = 2;
/// Records per custodian job.
const JOB_RECORDS: usize = 64;
/// Records read back per job.
const READ_BACKS: usize = 4;
/// Background compaction interval on the shards.
const COMPACT_EVERY: Duration = Duration::from_millis(200);
/// Records per `insert_batch` + `flush` while building the shards.
const CHUNK: usize = 5_000;
/// Read-back probes replayed directly against the cluster's parts.
const DIRECT_PROBES: usize = 600;
/// Handshakes replayed by a traced run.
const HANDSHAKE_REPLAYS: usize = 32;
/// Bits flipped to make a direct-call probe from an inserted record.
const PROBE_FLIPS: usize = 50;
/// How often the disk footprint is sampled during the window.
const DISK_SAMPLE_EVERY: Duration = Duration::from_millis(250);

struct Sizes {
    corpus: usize,
    jobs: usize,
    setups: usize,
}

fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes {
            corpus: 1_000,
            jobs: 200,
            setups: 2,
        }
    } else {
        // Several times the jobs today's program completes in a
        // minute; an exhausted pool wraps around with fresh ids.
        Sizes {
            corpus: 10_000,
            jobs: 2_500,
            setups: 3,
        }
    }
}

/// One custodian job's input: raw records, and which of them to read
/// back.
struct Job {
    records: Dataset,
    read_back: [usize; READ_BACKS],
}

/// The running cluster.
struct Cluster {
    shards: Vec<ServerHandle>,
    dirs: Vec<PathBuf>,
    front: ClusterHandle,
    builds: Vec<Build>,
}

impl Cluster {
    fn addr(&self) -> String {
        self.front.addr().to_string()
    }

    fn tear_down(self) {
        drop(self.front.shutdown_now());
        for shard in self.shards {
            shard.shutdown_now();
        }
        for dir in &self.dirs {
            remove_dir(dir);
        }
    }
}

/// One set-up: encode the corpus, build one index per shard (records
/// placed by the coordinator's own routing), start the shard nodes and
/// the front end, and warm a connection per load thread.
fn set_up(corpus: &Dataset, root: &Path) -> (Cluster, Vec<BitVec>, f64, f64) {
    let started = Instant::now();
    let (filters, encode_s) = data::encode(&data::encoder(), corpus);
    let mut parts: Vec<Vec<(u64, BitVec)>> = vec![Vec::new(); SHARDS];
    for (id, f) in filters.iter().enumerate() {
        parts[route_id(id as u64, SHARDS)].push((id as u64, f.clone()));
    }
    let dirs: Vec<PathBuf> = (0..SHARDS)
        .map(|i| root.join(format!("shard{i}")))
        .collect();
    let builds: Vec<Build> = parts
        .iter()
        .zip(&dirs)
        .map(|(part, dir)| build_index(dir, part.chunks(CHUNK).map(<[_]>::to_vec)))
        .collect();
    let shards: Vec<ServerHandle> = dirs
        .iter()
        .map(|dir| {
            serve_auth(
                dir,
                "127.0.0.1:0",
                config::server_config(SHARD_WORKERS, Some(COMPACT_EVERY)),
                config::registry(),
            )
            .expect("serving a shard")
        })
        .collect();
    let addrs: Vec<String> = shards.iter().map(|s| s.addr().to_string()).collect();
    let coordinator = Coordinator::connect(ClusterConfig {
        shard_auth: Some(config::client_auth()),
        ..ClusterConfig::new(addrs)
    })
    .expect("connecting the coordinator");
    let front = serve_cluster_auth(
        Arc::new(coordinator),
        "127.0.0.1:0",
        config::front_config(FRONT_WORKERS),
        config::registry(),
    )
    .expect("serving the front end");
    let cluster = Cluster {
        shards,
        dirs,
        front,
        builds,
    };
    for warm in filters.iter().take(THREADS) {
        let mut c = Client::connect_with(&cluster.addr(), Some(config::client_auth()))
            .expect("warm-up connection");
        c.query(warm, TOP_K).expect("warm-up query");
    }
    (cluster, filters, started.elapsed().as_secs_f64(), encode_s)
}

/// One read-back as answered, for the oracle.
struct ReadBack {
    id: u64,
    filter: BitVec,
    hits: Vec<Hit>,
}

/// What one load thread saw.
#[derive(Default)]
struct Tally {
    connects: Samples,
    inserts: Samples,
    queries: Samples,
    jobs: u64,
    errors: u64,
    acked: Vec<(u64, BitVec)>,
    read_backs: Vec<ReadBack>,
    encoded: usize,
    encode_s: f64,
    layers: Layers,
}

/// The bench-owned store the traced run replays each shard's write
/// path on.
struct ReplayStore {
    store: IndexStore,
    flushes: usize,
}

impl ReplayStore {
    fn create(dir: &Path) -> ReplayStore {
        ReplayStore {
            store: IndexStore::create(dir, IndexConfig::new(data::FILTER_BITS, INDEX_SHARDS))
                .expect("creating the replay store"),
            flushes: 0,
        }
    }

    /// `insert_batch` + `flush`, as a shard applies an insert; every
    /// few flushes an untimed tiered compaction keeps the segment count
    /// where the shards' maintenance keeps theirs.
    fn apply(&mut self, records: &[(u64, BitVec)]) -> Duration {
        let started = Instant::now();
        self.store.insert_batch(records).expect("replayed insert");
        self.store.flush().expect("replayed flush");
        let took = started.elapsed();
        self.flushes += 1;
        if self.flushes.is_multiple_of(8) {
            let outcome = self
                .store
                .compact_tiered(&TieredPolicy::default())
                .expect("replay store compaction");
            reclaim(&outcome.obsolete).expect("reclaiming replay segments");
        }
        took
    }
}

/// Shared state of one window.
struct Load<'a> {
    jobs: &'a [Job],
    next_job: &'a AtomicUsize,
    acked: &'a AtomicU64,
    first_id: u64,
    addr: String,
    cluster: &'a Cluster,
    replay_dir: Option<&'a Path>,
}

fn job_thread(load: &Load<'_>, thread: usize, until: Instant) -> Tally {
    let encoder = data::encoder();
    let mut t = Tally::default();
    let mut pair = load.replay_dir.map(|_| ChannelPair::establish());
    let mut replay = load
        .replay_dir
        .map(|d| ReplayStore::create(&d.join(format!("replay{thread}"))));
    while Instant::now() < until {
        let seq = load.next_job.fetch_add(1, Ordering::Relaxed);
        let job = &load.jobs[seq % load.jobs.len()];
        let (filters, encode_s) = data::encode(&encoder, &job.records);
        t.encoded += filters.len();
        t.encode_s += encode_s;
        let records: Vec<(u64, BitVec)> = filters
            .into_iter()
            .enumerate()
            .map(|(j, f)| (load.first_id + (seq * JOB_RECORDS + j) as u64, f))
            .collect();

        let started = Instant::now();
        let connected = Client::connect_with(&load.addr, Some(config::client_auth()));
        t.connects.since(started);
        let Ok(mut client) = connected else {
            t.errors += 1;
            continue;
        };
        let started = Instant::now();
        let inserted = client.insert(&records);
        let insert_took = t.inserts.since(started);
        let Ok((count, generation)) = inserted else {
            t.errors += 1;
            continue;
        };
        load.acked
            .fetch_add(records.len() as u64, Ordering::Relaxed);
        if let (Some(pair), Some(replay)) = (pair.as_mut(), replay.as_mut()) {
            let l = &mut t.layers;
            let front = l.wire_and_session(
                pair,
                &Request::Insert {
                    records: records.clone(),
                },
                &Response::Inserted { count, generation },
            );
            let mut slowest = Duration::ZERO;
            for shard in 0..SHARDS {
                let part: Vec<(u64, BitVec)> = records
                    .iter()
                    .filter(|(id, _)| route_id(*id, SHARDS) == shard)
                    .cloned()
                    .collect();
                if part.is_empty() {
                    continue;
                }
                let hop = l.wire_and_session(
                    pair,
                    &Request::Insert {
                        records: part.clone(),
                    },
                    &Response::Inserted {
                        count: part.len() as u32,
                        generation,
                    },
                );
                let store = replay.apply(&part);
                l.store_records += part.len() as u64;
                l.store += store;
                slowest = slowest.max(hop + store);
            }
            l.client += insert_took;
            l.attributed += front + slowest;
        }

        for &r in &job.read_back {
            let (id, filter) = &records[r];
            let started = Instant::now();
            let answer = client.query(filter, TOP_K);
            let took = t.queries.since(started);
            let Ok(hits) = answer else {
                t.errors += 1;
                continue;
            };
            if let Some(pair) = pair.as_mut() {
                let l = &mut t.layers;
                let request = Request::Query {
                    filter: filter.clone(),
                    k: TOP_K as u32,
                };
                let response = Response::Hits(hits.clone());
                let front = l.wire_and_session(pair, &request, &response);
                let mut slowest = Duration::ZERO;
                for shard in &load.cluster.shards {
                    let hop = l.wire_and_session(pair, &request, &response);
                    let snap = shard.service().snapshot();
                    let scan = trace::scan(&snap.reader, filter, TOP_K);
                    l.scans += 1;
                    l.scan += scan;
                    l.scan_rows += snap.reader.len() as u64;
                    slowest = slowest.max(hop + scan);
                }
                l.client += took;
                l.attributed += front + slowest;
            }
            t.read_backs.push(ReadBack {
                id: *id,
                filter: filter.clone(),
                hits,
            });
        }
        t.jobs += 1;
        t.acked.extend(records);
    }
    t
}

/// Runs every load thread for `window`; samples the disk footprint per
/// live record meanwhile. Returns the tallies, the wall time and the
/// disk samples.
fn drive(load: &Load<'_>, window: Duration) -> (Vec<Tally>, f64, Vec<f64>) {
    let barrier = Barrier::new(THREADS + 1);
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|thread| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    job_thread(load, thread, Instant::now() + window)
                })
            })
            .collect();
        let sampler = scope.spawn(|| {
            let mut samples = Vec::new();
            while !done.load(Ordering::Relaxed) {
                std::thread::sleep(DISK_SAMPLE_EVERY);
                let bytes: u64 = load
                    .cluster
                    .dirs
                    .iter()
                    .map(|d| measure::dir_bytes(d))
                    .sum();
                let live = load.first_id + load.acked.load(Ordering::Relaxed);
                samples.push(bytes as f64 / live as f64);
            }
            samples
        });
        barrier.wait();
        let started = Instant::now();
        let tallies: Vec<Tally> = handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect();
        let wall = started.elapsed().as_secs_f64();
        done.store(true, Ordering::Relaxed);
        let disk = sampler.join().expect("disk sampler panicked");
        (tallies, wall, disk)
    })
}

/// Runs `ingest-cluster`.
pub fn run(opts: &Options) -> Report {
    let sz = sizes(opts.smoke);
    let mut report = Report::default();

    let gen_started = Instant::now();
    let corpus = data::person_records(sz.corpus, 0, true, opts.seed);
    let mut rng = data::stream(opts.seed, 0x10b);
    let jobs: Vec<Job> = (0..sz.jobs)
        .map(|j| {
            let records = data::person_records(
                JOB_RECORDS,
                (sz.corpus + j * JOB_RECORDS) as u64,
                false,
                rng.next_u64(),
            );
            let picked = rng.sample_indices(JOB_RECORDS, READ_BACKS);
            Job {
                records,
                read_back: picked.try_into().expect("READ_BACKS indices"),
            }
        })
        .collect();
    let gen_s = gen_started.elapsed().as_secs_f64();

    // The first set-up stays up for the load; the others run after it
    // is torn down, so their leftovers do not count in `peak_rss_mb`.
    let phase = Instant::now();
    let (cluster, corpus_filters, setup_s, mut encode_s) = set_up(&corpus, &opts.dir);
    let mut setups = vec![setup_s];
    let mut encoded = corpus_filters.len();
    report.phase("setup", phase);
    // Store metrics of the bulk load: the larger shard's build. A traced
    // run replaces the insert cost with the live write path's.
    cluster
        .builds
        .iter()
        .max_by_key(|b| b.records)
        .expect("one build per shard")
        .report(&mut report);
    let mut handshakes = SHARDS + THREADS;

    let next_job = AtomicUsize::new(0);
    let acked = AtomicU64::new(0);
    let mut load = Load {
        jobs: &jobs,
        next_job: &next_job,
        acked: &acked,
        first_id: sz.corpus as u64,
        addr: cluster.addr(),
        cluster: &cluster,
        replay_dir: None,
    };
    let phase = Instant::now();
    let (tallies, wall, disk) = drive(&load, opts.window());
    report.phase("window", phase);
    let mut connects = Samples::default();
    let mut inserts = Samples::default();
    let mut queries = Samples::default();
    let mut all_acked: Vec<(u64, BitVec)> = Vec::new();
    let mut read_backs = Vec::new();
    let mut jobs_done = 0u64;
    for t in tallies {
        report.errors += t.errors;
        jobs_done += t.jobs;
        encoded += t.encoded;
        encode_s += t.encode_s;
        connects.merge(t.connects);
        inserts.merge(t.inserts);
        queries.merge(t.queries);
        all_acked.extend(t.acked);
        read_backs.extend(t.read_backs);
    }
    handshakes += connects.len();
    report.attempted += (connects.len() + inserts.len() + queries.len()) as u64;
    let ingested = jobs_done as f64 * JOB_RECORDS as f64;

    report.set("query_qps", queries.len() as f64 / wall);
    report.set("query_mean_ms", queries.mean_ms());
    report.quantiles(
        &queries,
        &[
            ("query_p50_ms", 0.5),
            ("query_p90_ms", 0.9),
            ("query_p99_ms", 0.99),
        ],
    );
    report.set("ingest_records_per_s", ingested / wall);
    report.quantiles(&inserts, &[("insert_p50_ms", 0.5), ("insert_p99_ms", 0.99)]);
    report.quantiles(&connects, &[("connect_p50_ms", 0.5)]);
    report.set("disk_bytes_per_record", measure::median(&disk));
    report.count("disk_bytes_per_record", disk.len());
    let qps = queries.len() as f64 / wall;

    if opts.trace {
        let phase = Instant::now();
        let replay_root = opts.dir.join("replay");
        load.replay_dir = Some(&replay_root);
        let (tallies, traced_wall, _) = drive(&load, opts.traced_window());
        let mut layers = Layers::default();
        let mut traced_queries = 0usize;
        for t in tallies {
            report.errors += t.errors;
            traced_queries += t.queries.len();
            encoded += t.encoded;
            encode_s += t.encode_s;
            handshakes += t.connects.len() + 1;
            report.attempted += (t.connects.len() + t.inserts.len() + t.queries.len()) as u64;
            all_acked.extend(t.acked);
            read_backs.extend(t.read_backs);
            layers.merge(t.layers);
        }
        report.set(
            "bench.trace_overhead_ratio",
            (traced_queries as f64 / traced_wall) / qps,
        );
        remove_dir(&replay_root);
        let addr = cluster.addr();
        for _ in 0..HANDSHAKE_REPLAYS {
            layers.handshakes.push(trace::handshake(&addr));
        }
        handshakes += HANDSHAKE_REPLAYS;
        handshakes += direct_calls(&cluster, &all_acked, opts.seed, &mut report);
        report.set(
            "frontend.residual_p50_us",
            (queries.quantile_ms(0.5) - report.get("cluster.coord_p50_ms").unwrap_or(0.0)) * 1e3,
        );
        report.set(
            "index.insert_us_per_record",
            layers.store.as_secs_f64() * 1e6 / layers.store_records.max(1) as f64,
        );
        // Batch scans: not issued by this workload's clients, replayed
        // on one shard's snapshot so the layer is still measured.
        let batch: Vec<BitVec> = all_acked.iter().take(128).map(|(_, f)| f.clone()).collect();
        layers.link_batches(
            &cluster.shards[0].service().snapshot().reader,
            &batch,
            TOP_K,
            0.8,
        );
        layers.report(&mut report);
        report.phase("traced", phase);
    }

    // The cluster must hold exactly the corpus plus every acked record.
    let phase = Instant::now();
    let stats = Client::connect_with(&cluster.addr(), Some(config::client_auth()))
        .and_then(|mut c| c.stats())
        .expect("reading cluster STATS");
    handshakes += 1;
    let expected = sz.corpus as u64 + all_acked.len() as u64;
    if stats.records != expected {
        report.broken.push(format!(
            "cluster holds {} records, expected {} (corpus {} + acked {})",
            stats.records,
            expected,
            sz.corpus,
            all_acked.len()
        ));
    }
    report.attempted += 1;
    report.wrong += check_read_backs(&read_backs, &corpus_filters, &all_acked, sz.corpus);
    report.count("check.read_backs", read_backs.len());
    report.phase("check", phase);

    if opts.trace {
        report.set("frontend.busy_rejected", stats.busy_rejected as f64);
        report.set("index.compactions", stats.compactions as f64);
        report.set(
            "index.write_amp",
            stats.merge_rows as f64 / all_acked.len().max(1) as f64,
        );
        report.set("index.bytes_read", stats.bytes_read as f64);
        report.set(
            "index.segments_live",
            cluster
                .dirs
                .iter()
                .map(|d| measure::segment_files(d))
                .sum::<usize>() as f64,
        );
        report.set("service.generations", stats.generation as f64);
        report.set(
            "service.cache_hit_ratio",
            ratio(stats.cache_hits, stats.cache_hits + stats.cache_misses),
        );
        report.set(
            "service.plan_hit_ratio",
            ratio(stats.plan_hits, stats.plan_hits + stats.plan_misses),
        );
        let shard_stats: Vec<_> = cluster
            .shards
            .iter()
            .map(|s| s.service().stats_report(0, 0))
            .collect();
        report.set(
            "service.p50_us",
            shard_stats
                .iter()
                .map(|s| s.latency_p50_us)
                .max()
                .unwrap_or(0) as f64,
        );
        report.set(
            "service.p99_us",
            shard_stats
                .iter()
                .map(|s| s.latency_p99_us)
                .max()
                .unwrap_or(0) as f64,
        );
        let read: Vec<_> = cluster
            .shards
            .iter()
            .map(|s| s.service().snapshot().reader.read_stats())
            .collect();
        let skipped: usize = read.iter().map(|r| r.segments_skipped).sum();
        let touched: usize = read
            .iter()
            .map(|r| r.segments_read + r.segments_skipped)
            .sum();
        report.set(
            "index.segments_skipped_ratio",
            ratio(skipped as u64, touched as u64),
        );
        let metrics = &cluster.front.coordinator().metrics;
        report.set(
            "cluster.shard_failures",
            metrics.shard_failures.load(Ordering::Relaxed) as f64,
        );
        report.set(
            "cluster.degraded_replies",
            metrics.degraded_replies.load(Ordering::Relaxed) as f64,
        );
        report.set("session.handshakes", handshakes as f64);
    }

    report.set("bench.gen_s", gen_s);
    report.set("check.wrong_answers", report.wrong as f64);
    report.set(
        "failed_ratio",
        report.failed() as f64 / report.attempted.max(1) as f64,
    );
    report.absent(&["link_probes_per_s", "link_p50_ms", "link_p90_ms"]);
    cluster.tear_down();
    report.set("peak_rss_mb", measure::peak_rss_mb());

    let phase = Instant::now();
    for _ in 1..sz.setups {
        let (cluster, filters, setup_s, enc_s) = set_up(&corpus, &opts.dir);
        setups.push(setup_s);
        encoded += filters.len();
        encode_s += enc_s;
        cluster.tear_down();
    }
    report.phase("more setups", phase);
    report.set("setup_s", measure::median(&setups));
    report.count("setup_s", setups.len());
    report.set("encoding.records", encoded as f64);
    report.set("encoding.us_per_record", encode_s * 1e6 / encoded as f64);
    report
}

/// Direct calls into the cluster's parts after the load: the shared
/// coordinator's own `query`, each shard's round trip on a connection
/// of the benchmark's, and `merge_top_k` over the shard answers, which
/// must equal the coordinator's. Returns the handshakes made.
fn direct_calls(
    cluster: &Cluster,
    acked: &[(u64, BitVec)],
    seed: u64,
    report: &mut Report,
) -> usize {
    let coordinator: &Coordinator = cluster.front.coordinator();
    let mut shard_clients: Vec<Client> = cluster
        .shards
        .iter()
        .map(|s| {
            Client::connect_with(&s.addr().to_string(), Some(config::client_auth()))
                .expect("direct shard connection")
        })
        .collect();
    let mut rng = data::stream(seed, 0xd1c);
    let mut coord = Samples::default();
    let mut rtt = Samples::default();
    let mut slowest = Samples::default();
    let mut merge = Samples::default();
    let n = DIRECT_PROBES.min(acked.len());
    for i in rng.sample_indices(acked.len(), n) {
        // Two fresh probes near the record, so neither the timed
        // coordinator call nor the timed shard calls hit a result cache.
        let timed = data::perturb(&acked[i].1, PROBE_FLIPS, &mut rng);
        let probe = data::perturb(&acked[i].1, PROBE_FLIPS, &mut rng);
        let started = Instant::now();
        let answer = coordinator.query(&timed, TOP_K);
        coord.since(started);
        report.attempted += 1;
        if answer.is_err() {
            report.errors += 1;
            continue;
        }
        let mut lists = Vec::with_capacity(SHARDS);
        let mut worst = Duration::ZERO;
        for c in &mut shard_clients {
            let started = Instant::now();
            let hits = c.query(&probe, TOP_K);
            worst = worst.max(rtt.since(started));
            report.attempted += 1;
            match hits {
                Ok(h) => lists.push(h),
                Err(_) => report.errors += 1,
            }
        }
        slowest.push(worst);
        let started = Instant::now();
        let merged = merge_top_k(&lists, TOP_K);
        merge.since(started);
        // The coordinator must answer what the shards' merge gives.
        report.attempted += 1;
        match coordinator.query(&probe, TOP_K) {
            Ok(answer) if oracle::same_hits(&merged, &answer) => {}
            Ok(_) => report.wrong += 1,
            Err(_) => report.errors += 1,
        }
    }
    report.set("cluster.coord_p50_ms", coord.quantile_ms(0.5));
    report.quantiles(
        &rtt,
        &[
            ("cluster.shard_rtt_p50_ms", 0.5),
            ("cluster.shard_rtt_p99_ms", 0.99),
        ],
    );
    report.set("cluster.slowest_shard_p50_ms", slowest.quantile_ms(0.5));
    report.set("cluster.merge_us", merge.quantile_ms(0.5) * 1e3);
    shard_clients.len()
}

/// Checks every read-back: the top hit must score 1.0 and be the
/// inserted record, or a record whose filter is bit-identical to it
/// and wins the tie on id; and the inserted record must be among the
/// hits. Returns the number of wrong answers.
fn check_read_backs(
    read_backs: &[ReadBack],
    corpus: &[BitVec],
    acked: &[(u64, BitVec)],
    corpus_len: usize,
) -> u64 {
    let acked_by_id: std::collections::HashMap<u64, &BitVec> =
        acked.iter().map(|(id, f)| (*id, f)).collect();
    let filter_of = |id: u64| -> Option<&BitVec> {
        if (id as usize) < corpus_len {
            corpus.get(id as usize)
        } else {
            acked_by_id.get(&id).copied()
        }
    };
    read_backs
        .iter()
        .filter(|rb| {
            let Some(top) = rb.hits.first() else {
                return true;
            };
            let top_ok =
                top.score == 1.0 && (top.id == rb.id || filter_of(top.id) == Some(&rb.filter));
            let present = rb.hits.iter().any(|h| h.id == rb.id)
                || rb.hits.iter().all(|h| filter_of(h.id) == Some(&rb.filter));
            !(top_ok && present)
        })
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filter(seed: u64) -> BitVec {
        let mut rng = data::stream(seed, 1);
        let ones = rng.sample_indices(data::FILTER_BITS, 400);
        BitVec::from_positions(data::FILTER_BITS, &ones).expect("positions in range")
    }

    #[test]
    fn read_back_checker_flags_doctored_answers() {
        let corpus = vec![filter(1), filter(2)];
        let acked = vec![(2u64, filter(3)), (3, filter(3)), (4, filter(4))];
        let hit = |id: u64, score: f64| Hit { id, score };
        let rb = |id: u64, f: BitVec, hits: Vec<Hit>| ReadBack {
            id,
            filter: f,
            hits,
        };
        let good = vec![
            rb(4, filter(4), vec![hit(4, 1.0), hit(0, 0.4)]),
            // An identical earlier filter wins the tie on id: still right.
            rb(3, filter(3), vec![hit(2, 1.0), hit(3, 1.0)]),
        ];
        assert_eq!(check_read_backs(&good, &corpus, &acked, 2), 0);
        let doctored = vec![
            // Top hit is another record with a different filter.
            rb(4, filter(4), vec![hit(0, 1.0), hit(4, 1.0)]),
            // The inserted record scores below 1.0.
            rb(4, filter(4), vec![hit(4, 0.99)]),
            // Nothing came back.
            rb(4, filter(4), vec![]),
            // The tie winner is right but the record itself is missing.
            rb(3, filter(3), vec![hit(2, 1.0), hit(1, 0.5)]),
        ];
        assert_eq!(check_read_backs(&doctored, &corpus, &acked, 2), 4);
    }
}
