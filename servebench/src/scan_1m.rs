//! `scan-1m`: one node serving 1M records (a 128 MB arena, far larger
//! than any core's cache) to two held-open, authenticated connections.
//! Each connection loops seven single queries with fresh probes, which
//! never hit the result cache, then one 32-probe `Link` at
//! `min_score 0.8`. The memory-bound scan is nearly all of each request.
//!
//! To keep set-up short, 20k encoded person CLKs are each expanded into
//! 50 variants by popcount-preserving bit moves (see [`data::expand`]).

use crate::data::{self, FlatFilters};
use crate::measure::{self, Samples};
use crate::node::{self, CONNECTIONS};
use crate::oracle;
use crate::report::Report;
use crate::trace::{self, ChannelPair, Layers};
use crate::{build_index, Build, Options, TOP_K};
use pprl_core::bitvec::BitVec;
use pprl_index::query::Hit;
use pprl_server::server::ServerHandle;
use pprl_server::wire::{Request, Response};
use pprl_server::{Client, LinkageService};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Single queries per connection between two links.
const QUERIES_PER_LINK: usize = 7;
/// Probes per `Link`.
const LINK_PROBES: usize = 32;
/// `Link` score threshold.
const MIN_SCORE: f64 = 0.8;
/// Bits flipped to make a probe from a stored record.
const PROBE_FLIPS: usize = 50;
/// Records per `insert_batch` + `flush` while building the index.
const CHUNK: usize = 100_000;
/// Queries and link batches the oracle checks after the window.
const CHECK_QUERIES: usize = 64;
const CHECK_LINKS: usize = 4;

struct Sizes {
    bases: usize,
    variants: usize,
    setups: usize,
    query_pool: usize,
    link_pool: usize,
}

fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes {
            bases: 1_000,
            variants: 5,
            setups: 2,
            query_pool: 20_000,
            link_pool: 2_000,
        }
    } else {
        // The pools hold several times what today's program answers in
        // a minute; a pool that runs out wraps around.
        Sizes {
            bases: 20_000,
            variants: 50,
            setups: 2,
            query_pool: 40_000,
            link_pool: 2_000,
        }
    }
}

/// Probes for one run: fresh single-query probes and link batches.
struct Probes {
    queries: Vec<BitVec>,
    links: Vec<Vec<BitVec>>,
}

fn probes(rows: &FlatFilters, sz: &Sizes, seed: u64, purpose: u64) -> Probes {
    let mut rng = data::stream(seed, purpose);
    let probe = |rng: &mut pprl_core::rng::SplitMix64| {
        let i = rng.next_below(rows.len() as u64) as usize;
        data::perturb(&rows.filter(i), PROBE_FLIPS, rng)
    };
    Probes {
        queries: (0..sz.query_pool).map(|_| probe(&mut rng)).collect(),
        links: (0..sz.link_pool)
            .map(|_| (0..LINK_PROBES).map(|_| probe(&mut rng)).collect())
            .collect(),
    }
}

/// A served node with warm connections.
struct Node {
    handle: ServerHandle,
    clients: Vec<Client>,
    build: Build,
}

/// What one load thread saw.
#[derive(Default)]
struct Tally {
    queries: Samples,
    links: Samples,
    errors: u64,
    /// `(query probe index, hits)`, every query answered.
    query_answers: Vec<(usize, Vec<Hit>)>,
    /// `(link batch index, hits per probe)`, every link answered.
    link_answers: Vec<(usize, Vec<Vec<Hit>>)>,
    layers: Layers,
}

/// Shared cursors into the probe pools.
#[derive(Default)]
struct Cursors {
    query: AtomicUsize,
    link: AtomicUsize,
}

/// Runs the closed loop on both connections for `window`.
fn drive(
    node: &mut Node,
    probes: &Probes,
    cursors: &Cursors,
    window: Duration,
    replay: bool,
) -> (Vec<Tally>, f64) {
    let service: &Arc<LinkageService> = node.handle.service();
    let barrier = Barrier::new(CONNECTIONS + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = node
            .clients
            .iter_mut()
            .map(|client| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut pair = replay.then(ChannelPair::establish);
                    let mut t = Tally::default();
                    barrier.wait();
                    let until = Instant::now() + window;
                    'cycle: loop {
                        for _ in 0..QUERIES_PER_LINK {
                            if Instant::now() >= until {
                                break 'cycle;
                            }
                            let qi = cursors.query.fetch_add(1, Ordering::Relaxed)
                                % probes.queries.len();
                            let probe = &probes.queries[qi];
                            let started = Instant::now();
                            let answer = client.query(probe, TOP_K);
                            let took = t.queries.since(started);
                            let Ok(hits) = answer else {
                                t.errors += 1;
                                continue;
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
                                l.attributed += spent + scan;
                            }
                            t.query_answers.push((qi, hits));
                        }
                        if Instant::now() >= until {
                            break;
                        }
                        let li = cursors.link.fetch_add(1, Ordering::Relaxed) % probes.links.len();
                        let batch = &probes.links[li];
                        let started = Instant::now();
                        let answer = client.link(batch, TOP_K, MIN_SCORE);
                        let took = t.links.since(started);
                        let Ok(hits) = answer else {
                            t.errors += 1;
                            continue;
                        };
                        if let Some(pair) = pair.as_mut() {
                            let l = &mut t.layers;
                            let spent = l.wire_and_session(
                                pair,
                                &Request::Link {
                                    probes: batch.clone(),
                                    k: TOP_K as u32,
                                    min_score: MIN_SCORE,
                                },
                                &Response::LinkHits(hits.clone()),
                            );
                            let snap = service.snapshot();
                            let scan = trace::scan_batch(&snap.reader, batch, TOP_K, MIN_SCORE);
                            l.link_probes += batch.len() as u64;
                            l.link_scan += scan;
                            l.link_rows += (snap.reader.len() * batch.len()) as u64;
                            l.client += took;
                            l.attributed += spent + scan;
                        }
                        t.link_answers.push((li, hits));
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
    })
}

/// One set-up: encode the bases, build the 1M-row index from the
/// expansion, serve it and warm both connections. The expansion and
/// the warm-up probes are the benchmark's own generation: the
/// expansion is made once, on the first set-up, and both are excluded
/// from the set-up time. Returns the node, its set-up seconds, the
/// encoding seconds and the generation seconds.
fn set_up(
    raw: &pprl_core::record::Dataset,
    rows: &mut Option<FlatFilters>,
    sz: &Sizes,
    seed: u64,
    dir: &Path,
) -> (Node, f64, f64, f64) {
    let started = Instant::now();
    let (bases, encode_s) = data::encode(&data::encoder(), raw);
    let generating = Instant::now();
    let flat = rows.get_or_insert_with(|| data::expand(&bases, sz.variants, seed));
    let mut wrng = data::stream(seed, 0x3a3);
    let warm: Vec<BitVec> = (0..CONNECTIONS)
        .map(|_| {
            let i = wrng.next_below(flat.len() as u64) as usize;
            data::perturb(&flat.filter(i), PROBE_FLIPS, &mut wrng)
        })
        .collect();
    let gen_s = generating.elapsed().as_secs_f64();
    let build = build_index(
        dir,
        (0..flat.len())
            .step_by(CHUNK)
            .map(|at| flat.records(at..(at + CHUNK).min(flat.len()))),
    );
    let (handle, mut clients) = node::serve(dir);
    // Warm-up: the first scans read every segment in from disk.
    for (client, probe) in clients.iter_mut().zip(&warm) {
        client.query(probe, TOP_K).expect("warm-up query");
    }
    let setup_s = started.elapsed().as_secs_f64() - gen_s;
    (
        Node {
            handle,
            clients,
            build,
        },
        setup_s,
        encode_s,
        gen_s,
    )
}

/// Runs `scan-1m`.
pub fn run(opts: &Options) -> Report {
    let sz = sizes(opts.smoke);
    let mut report = Report::default();

    let gen_started = Instant::now();
    let raw = data::person_records(sz.bases, 0, true, opts.seed);
    let mut gen_s = gen_started.elapsed().as_secs_f64();

    // The first set-up stays up for the load; the others run after it
    // is torn down, so their leftovers do not count in `peak_rss_mb`.
    let phase = Instant::now();
    let mut rows: Option<FlatFilters> = None;
    let (mut node, setup_s, mut encode_s, g_s) = set_up(&raw, &mut rows, &sz, opts.seed, &opts.dir);
    let mut setups = vec![setup_s];
    gen_s += g_s;
    report.phase("setup", phase);
    let flat = rows.expect("expanded during set-up");
    let records = flat.len();

    let t = Instant::now();
    let probes = probes(&flat, &sz, opts.seed, 0x9e0);
    gen_s += t.elapsed().as_secs_f64();

    let cursors = Cursors::default();
    let phase = Instant::now();
    let (tallies, wall) = drive(&mut node, &probes, &cursors, opts.window(), false);
    report.phase("window", phase);
    let mut queries = Samples::default();
    let mut links = Samples::default();
    let mut query_answers = Vec::new();
    let mut link_answers = Vec::new();
    for t in tallies {
        report.errors += t.errors;
        queries.merge(t.queries);
        links.merge(t.links);
        query_answers.extend(t.query_answers);
        link_answers.extend(t.link_answers);
    }
    report.attempted += (queries.len() + links.len()) as u64;

    let qps = queries.len() as f64 / wall;
    report.set("query_qps", qps);
    report.set("query_mean_ms", queries.mean_ms());
    report.quantiles(
        &queries,
        &[
            ("query_p50_ms", 0.5),
            ("query_p90_ms", 0.9),
            ("query_p99_ms", 0.99),
        ],
    );
    report.set(
        "link_probes_per_s",
        (links.len() * LINK_PROBES) as f64 / wall,
    );
    report.quantiles(&links, &[("link_p50_ms", 0.5), ("link_p90_ms", 0.9)]);
    report.set(
        "disk_bytes_per_record",
        measure::dir_bytes(&opts.dir) as f64 / records as f64,
    );

    let mut handshakes = CONNECTIONS;
    if opts.trace {
        let phase = Instant::now();
        let (tallies, traced_wall) =
            drive(&mut node, &probes, &cursors, opts.traced_window(), true);
        let mut layers = Layers::default();
        let mut traced_queries = 0usize;
        for t in tallies {
            report.errors += t.errors;
            traced_queries += t.queries.len();
            report.attempted += (t.queries.len() + t.links.len()) as u64;
            layers.merge(t.layers);
        }
        handshakes += CONNECTIONS;
        report.set(
            "bench.trace_overhead_ratio",
            (traced_queries as f64 / traced_wall) / qps,
        );
        node.clients.clear();
        handshakes += node::trace_after_load(
            &node.handle,
            &opts.dir,
            &mut layers,
            queries.quantile_ms(0.5),
            &mut report,
        );
        layers.report(&mut report);
        report.set("session.handshakes", handshakes as f64);
        report.phase("traced", phase);
    }

    // The oracle, after the window: a seeded sample of the queries and
    // every probe of a few link batches.
    let phase = Instant::now();
    let mut crng = data::stream(opts.seed, 0xc4e);
    let picked_q = crng.sample_indices(query_answers.len(), CHECK_QUERIES.min(query_answers.len()));
    let picked_l = crng.sample_indices(link_answers.len(), CHECK_LINKS.min(link_answers.len()));
    let q_probes: Vec<BitVec> = picked_q
        .iter()
        .map(|&i| probes.queries[query_answers[i].0].clone())
        .collect();
    let q_got: Vec<Vec<Hit>> = picked_q
        .iter()
        .map(|&i| query_answers[i].1.clone())
        .collect();
    let l_probes: Vec<BitVec> = picked_l
        .iter()
        .flat_map(|&i| probes.links[link_answers[i].0].clone())
        .collect();
    let l_got: Vec<Vec<Hit>> = picked_l
        .iter()
        .flat_map(|&i| link_answers[i].1.clone())
        .collect();
    report.wrong +=
        oracle::check(&oracle::top_k(&flat, &q_probes, TOP_K, None, 2), &q_got).len() as u64;
    report.wrong += oracle::check(
        &oracle::top_k(&flat, &l_probes, TOP_K, Some(MIN_SCORE), 2),
        &l_got,
    )
    .len() as u64;
    report.count("check.queries", q_probes.len());
    report.count("check.link_probes", l_probes.len());
    report.phase("check", phase);

    node.build.report(&mut report);
    report.set("bench.gen_s", gen_s);
    report.set("check.wrong_answers", report.wrong as f64);
    report.set(
        "failed_ratio",
        report.failed() as f64 / report.attempted.max(1) as f64,
    );
    report.absent(node::CLUSTER_ONLY);
    node::tear_down(node.handle, node.clients, &opts.dir);
    report.set("peak_rss_mb", measure::peak_rss_mb());

    let phase = Instant::now();
    let mut rows = Some(flat);
    for _ in 1..sz.setups {
        let (n, setup_s, enc_s, _) = set_up(&raw, &mut rows, &sz, opts.seed, &opts.dir);
        setups.push(setup_s);
        encode_s += enc_s;
        node::tear_down(n.handle, n.clients, &opts.dir);
    }
    report.phase("more setups", phase);
    report.set("setup_s", measure::median(&setups));
    report.count("setup_s", setups.len());
    report.set("encoding.records", (sz.bases * sz.setups) as f64);
    report.set(
        "encoding.us_per_record",
        encode_s * 1e6 / (sz.bases * sz.setups) as f64,
    );
    report
}
