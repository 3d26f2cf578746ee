//! `serve-hot`: one node serving 20k person CLKs to two held-open,
//! authenticated connections issuing single-probe top-10 queries. Half
//! the probes come from a hot set of 64 stored filters that fits the
//! result cache; the other half are uniform over the corpus. Requests
//! are short, so session, wire, front end and cache dominate.

use crate::data::{self, FlatFilters};
use crate::measure::{self, Samples};
use crate::node::{self, CONNECTIONS};
use crate::oracle;
use crate::report::Report;
use crate::trace::{self, ChannelPair, Layers};
use crate::{build_index, config, Build, Options, TOP_K};
use pprl_core::bitvec::BitVec;
use pprl_core::record::Dataset;
use pprl_index::query::Hit;
use pprl_server::metrics::Metrics;
use pprl_server::server::ServerHandle;
use pprl_server::wire::{Request, Response};
use pprl_server::{Client, LinkageService};
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Records per `insert_batch` + `flush` while building the index.
const CHUNK: usize = 5_000;

struct Sizes {
    records: usize,
    hot: usize,
    setups: usize,
    sequence: usize,
}

fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes {
            records: 2_000,
            hot: 64,
            setups: 2,
            sequence: 1 << 16,
        }
    } else {
        Sizes {
            records: 20_000,
            hot: 64,
            setups: 2,
            sequence: 1 << 20,
        }
    }
}

/// A served index with its connections open and warm.
struct Node {
    handle: ServerHandle,
    clients: Vec<Client>,
    filters: Vec<BitVec>,
    encode_s: f64,
    build: Build,
    setup_s: f64,
}

fn set_up(raw: &Dataset, hot: &[u32], dir: &Path) -> Node {
    let started = Instant::now();
    let (filters, encode_s) = data::encode(&data::encoder(), raw);
    let build = build_index(
        dir,
        filters.chunks(CHUNK).enumerate().map(|(c, chunk)| {
            chunk
                .iter()
                .enumerate()
                .map(|(j, f)| ((c * CHUNK + j) as u64, f.clone()))
                .collect()
        }),
    );
    let (handle, mut clients) = node::serve(dir);
    // Warm-up: load the lazily read segments and fill the result cache
    // with the hot set, split over the connections.
    for (i, &h) in hot.iter().enumerate() {
        clients[i % CONNECTIONS]
            .query(&filters[h as usize], TOP_K)
            .expect("warm-up query");
    }
    Node {
        handle,
        clients,
        filters,
        encode_s,
        build,
        setup_s: started.elapsed().as_secs_f64(),
    }
}

/// What one load thread saw.
#[derive(Default)]
struct Tally {
    latency: Samples,
    errors: u64,
    /// Probes answered differently on a repeat.
    inconsistent: u64,
    /// First answer per probe index.
    first: Vec<Option<Vec<Hit>>>,
    layers: Layers,
}

/// Runs the closed loop on every connection until `until`. With
/// `replay`, every request is followed by the layer replays.
fn drive(
    node: &mut Node,
    sequences: &[Vec<u32>],
    cursor: &mut [usize],
    window: Duration,
    replay: bool,
) -> (Vec<Tally>, f64) {
    let service: &Arc<LinkageService> = node.handle.service();
    let filters = &node.filters;
    let addr = node.handle.addr().to_string();
    let barrier = Barrier::new(CONNECTIONS + 1);
    let (tallies, wall) = std::thread::scope(|scope| {
        let handles: Vec<_> = node
            .clients
            .iter_mut()
            .zip(sequences)
            .zip(cursor.iter_mut())
            .map(|((client, seq), pos)| {
                let barrier = &barrier;
                let addr = &addr;
                scope.spawn(move || {
                    let mut pair = replay.then(ChannelPair::establish);
                    let mut t = Tally {
                        first: vec![None; filters.len()],
                        ..Tally::default()
                    };
                    barrier.wait();
                    let until = Instant::now() + window;
                    while Instant::now() < until {
                        let idx = seq[*pos % seq.len()] as usize;
                        *pos += 1;
                        let probe = &filters[idx];
                        let started = Instant::now();
                        let answer = client.query(probe, TOP_K);
                        let took = t.latency.since(started);
                        let hits = match answer {
                            Ok(hits) => hits,
                            Err(_) => {
                                t.errors += 1;
                                if let Ok(c) =
                                    Client::connect_with(addr, Some(config::client_auth()))
                                {
                                    *client = c;
                                }
                                continue;
                            }
                        };
                        if let Some(pair) = pair.as_mut() {
                            let l = &mut t.layers;
                            let spent = l.wire_and_session(
                                pair,
                                &Request::Query {
                                    filter: probe.clone(),
                                    k: TOP_K as u32,
                                },
                                &Response::Hits(hits.clone()),
                            );
                            let snap = service.snapshot();
                            let scan = trace::scan(&snap.reader, probe, TOP_K);
                            l.scans += 1;
                            l.scan += scan;
                            l.scan_rows += snap.reader.len() as u64;
                            l.client += took;
                            l.attributed += spent;
                        }
                        match &t.first[idx] {
                            None => t.first[idx] = Some(hits),
                            Some(prev) if !oracle::same_hits(prev, &hits) => t.inconsistent += 1,
                            Some(_) => {}
                        }
                    }
                    t
                })
            })
            .collect();
        barrier.wait();
        let started = Instant::now();
        let tallies: Vec<Tally> = handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect();
        (tallies, started.elapsed().as_secs_f64())
    });
    (tallies, wall)
}

/// Runs `serve-hot`.
pub fn run(opts: &Options) -> Report {
    let sz = sizes(opts.smoke);
    let mut report = Report::default();

    // Inputs, generated before anything is timed.
    let gen_started = Instant::now();
    let raw = data::person_records(sz.records, 0, true, opts.seed);
    let mut rng = data::stream(opts.seed, 0x407);
    let hot: Vec<u32> = rng
        .sample_indices(sz.records, sz.hot)
        .into_iter()
        .map(|i| i as u32)
        .collect();
    let sequences: Vec<Vec<u32>> = (0..CONNECTIONS)
        .map(|_| {
            (0..sz.sequence)
                .map(|_| {
                    if rng.next_bool(0.5) {
                        hot[rng.next_below(hot.len() as u64) as usize]
                    } else {
                        rng.next_below(sz.records as u64) as u32
                    }
                })
                .collect()
        })
        .collect();
    let gen_s = gen_started.elapsed().as_secs_f64();

    // The first set-up stays up for the load; the others run after it
    // is torn down, so their leftovers do not count in `peak_rss_mb`.
    let phase = Instant::now();
    let mut node = set_up(&raw, &hot, &opts.dir);
    let mut setups = vec![node.setup_s];
    let mut encoded = node.filters.len();
    let mut encode_s = node.encode_s;
    report.phase("setup", phase);
    let mut handshakes = CONNECTIONS;

    // The measured window.
    let mut cursor = vec![0usize; CONNECTIONS];
    let phase = Instant::now();
    let (tallies, wall) = drive(&mut node, &sequences, &mut cursor, opts.window(), false);
    report.phase("window", phase);
    let mut latency = Samples::default();
    let mut first: Vec<Option<Vec<Hit>>> = vec![None; node.filters.len()];
    let mut ops = 0u64;
    for t in tallies {
        ops += t.latency.len() as u64;
        report.errors += t.errors;
        report.wrong += t.inconsistent;
        latency.merge(t.latency);
        merge_first(&mut first, t.first, &mut report.wrong);
    }
    report.attempted += ops;
    let qps = ops as f64 / wall;

    report.set("query_qps", qps);
    report.set("query_mean_ms", latency.mean_ms());
    report.quantiles(
        &latency,
        &[
            ("query_p50_ms", 0.5),
            ("query_p90_ms", 0.9),
            ("query_p99_ms", 0.99),
        ],
    );
    report.set(
        "disk_bytes_per_record",
        measure::dir_bytes(&opts.dir) as f64 / node.filters.len() as f64,
    );

    if opts.trace {
        let phase = Instant::now();
        let before = cache_counts(node.handle.service());
        let (tallies, traced_wall) = drive(
            &mut node,
            &sequences,
            &mut cursor,
            opts.traced_window(),
            true,
        );
        let after = cache_counts(node.handle.service());
        let mut layers = Layers::default();
        let mut traced_ops = 0u64;
        for t in tallies {
            traced_ops += t.latency.len() as u64;
            report.errors += t.errors;
            report.wrong += t.inconsistent;
            merge_first(&mut first, t.first, &mut report.wrong);
            layers.merge(t.layers);
        }
        handshakes += CONNECTIONS;
        report.attempted += traced_ops;
        // The scan runs only on a cache miss; charge the replayed scan
        // time by the miss share the service counted in this window.
        let misses = after.1 - before.1;
        let lookups = (after.0 - before.0) + misses;
        if lookups > 0 {
            layers.attributed += layers.scan.mul_f64(misses as f64 / lookups as f64);
        }
        report.set(
            "bench.trace_overhead_ratio",
            (traced_ops as f64 / traced_wall) / qps,
        );

        // Free both workers, then replay handshakes and link batches.
        node.clients.clear();
        handshakes += node::trace_after_load(
            &node.handle,
            &opts.dir,
            &mut layers,
            latency.quantile_ms(0.5),
            &mut report,
        );
        let mut prng = data::stream(opts.seed, 0x11c);
        let link_probes: Vec<BitVec> = (0..128)
            .map(|_| {
                let i = prng.next_below(node.filters.len() as u64) as usize;
                data::perturb(&node.filters[i], 50, &mut prng)
            })
            .collect();
        let snap = node.handle.service().snapshot();
        layers.link_batches(&snap.reader, &link_probes, TOP_K, 0.8);
        layers.report(&mut report);
        report.set("session.handshakes", handshakes as f64);
        report.phase("traced", phase);
    }

    // Every distinct probe answered, against the oracle.
    let phase = Instant::now();
    let mut flat = FlatFilters::with_capacity(node.filters.len());
    for f in &node.filters {
        flat.push(f);
    }
    let asked: Vec<usize> = (0..first.len()).filter(|&i| first[i].is_some()).collect();
    let probes: Vec<BitVec> = asked.iter().map(|&i| node.filters[i].clone()).collect();
    let got: Vec<Vec<Hit>> = asked
        .iter()
        .map(|&i| first[i].take().expect("asked"))
        .collect();
    let expected = oracle::top_k(&flat, &probes, TOP_K, None, 2);
    let wrong = oracle::check(&expected, &got).len() as u64;
    report.wrong += wrong;
    report.count("check.distinct_probes", probes.len());
    report.phase("check", phase);

    node.build.report(&mut report);
    report.set("bench.gen_s", gen_s);
    report.set("check.wrong_answers", report.wrong as f64);
    report.set(
        "failed_ratio",
        report.failed() as f64 / report.attempted.max(1) as f64,
    );
    report.absent(&["link_probes_per_s", "link_p50_ms", "link_p90_ms"]);
    report.absent(node::CLUSTER_ONLY);
    node::tear_down(node.handle, node.clients, &opts.dir);
    report.set("peak_rss_mb", measure::peak_rss_mb());

    let phase = Instant::now();
    for _ in 1..sz.setups {
        let n = set_up(&raw, &hot, &opts.dir);
        setups.push(n.setup_s);
        encoded += n.filters.len();
        encode_s += n.encode_s;
        node::tear_down(n.handle, n.clients, &opts.dir);
    }
    report.phase("more setups", phase);
    report.set("setup_s", measure::median(&setups));
    report.count("setup_s", setups.len());
    report.set("encoding.records", encoded as f64);
    report.set("encoding.us_per_record", encode_s * 1e6 / encoded as f64);
    report
}

/// Folds one thread's first answers into the run's, counting a probe
/// the two threads saw answered differently as wrong.
fn merge_first(into: &mut [Option<Vec<Hit>>], from: Vec<Option<Vec<Hit>>>, wrong: &mut u64) {
    for (slot, answer) in into.iter_mut().zip(from) {
        match (slot.as_ref(), answer) {
            (_, None) => {}
            (None, Some(a)) => *slot = Some(a),
            (Some(prev), Some(a)) => {
                if !oracle::same_hits(prev, &a) {
                    *wrong += 1;
                }
            }
        }
    }
}

/// The service's (cache hits, cache misses) so far.
fn cache_counts(service: &LinkageService) -> (u64, u64) {
    (
        Metrics::get(&service.metrics.cache_hits),
        Metrics::get(&service.metrics.cache_misses),
    )
}
