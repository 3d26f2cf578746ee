//! The outside-in layer trace: the benchmark replays, from its own
//! code, the public calls each layer makes for a request, and times
//! them. Nothing here runs inside the program; see `NOTES.md` for what
//! this cannot see.

use crate::config;
use crate::measure::Samples;
use pprl_core::bitvec::BitVec;
use pprl_index::query::IndexReader;
use pprl_server::wire::{read_payload, Incoming, Request, Response};
use pprl_session::handshake::{client_handshake, server_handshake, HandshakeOutcome};
use pprl_session::keys::entropy_rng;
use pprl_session::SecureChannel;
use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Bytes a frame adds around its payload: length prefix and checksum.
const FRAME_OVERHEAD: usize = 4 + 8;

/// A bench-owned pair of established session channels, client end and
/// server end, made by running the real handshake over loopback.
pub struct ChannelPair {
    client: SecureChannel,
    server: SecureChannel,
}

impl ChannelPair {
    /// Runs `client_handshake` against `server_handshake` with the
    /// benchmark's credentials and the server's default suite policy.
    pub fn establish() -> ChannelPair {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binding a loopback listener");
        let addr = listener.local_addr().expect("listener address");
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accepting the bench client");
            let Incoming::Payload(hello) = read_payload(&mut stream).expect("reading HELLO") else {
                panic!("the bench client sends HELLO first");
            };
            let session = server_handshake(
                &mut stream,
                &hello,
                &config::registry(),
                &mut entropy_rng(),
                config::server_config(1, None).suites,
            )
            .expect("server side of the bench handshake");
            session.channel
        });
        let mut stream = TcpStream::connect(addr).expect("connecting to the bench listener");
        let outcome = client_handshake(&mut stream, &config::client_auth(), &mut entropy_rng())
            .expect("client side of the bench handshake");
        let HandshakeOutcome::Established(client) = outcome else {
            panic!("the bench listener never answers Busy");
        };
        let server = server.join().expect("bench handshake thread");
        ChannelPair {
            client: *client,
            server,
        }
    }

    /// Seals and opens one request frame and one response frame, as a
    /// round trip does. Returns the time taken and the bytes of both
    /// frames on the wire.
    pub fn round_trip(&mut self, request: &[u8], response: &[u8]) -> (Duration, usize) {
        let started = Instant::now();
        let up = self.client.seal(request).expect("sealing a request");
        let opened = self.server.open(&up).expect("opening a request");
        black_box(&opened);
        let down = self.server.seal(response).expect("sealing a response");
        let opened = self.client.open(&down).expect("opening a response");
        black_box(&opened);
        (
            started.elapsed(),
            up.len() + down.len() + 2 * FRAME_OVERHEAD,
        )
    }
}

/// Times one full handshake (TCP connect included) against a live front
/// end, then closes the connection.
pub fn handshake(addr: &str) -> Duration {
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr).expect("connecting for a handshake replay");
    stream.set_nodelay(true).expect("configuring socket");
    match client_handshake(&mut stream, &config::client_auth(), &mut entropy_rng())
        .expect("handshake replay")
    {
        HandshakeOutcome::Established(_) => started.elapsed(),
        HandshakeOutcome::Busy { .. } => panic!("front end busy during handshake replay"),
    }
}

/// Encodes and decodes a request and its response. Returns the time
/// taken and the two payload sizes.
pub fn codec(request: &Request, response: &Response) -> (Duration, Vec<u8>, Vec<u8>) {
    let started = Instant::now();
    let req = request.encode();
    black_box(Request::decode(&req).expect("decoding an encoded request"));
    let resp = response.encode();
    black_box(Response::decode(&resp).expect("decoding an encoded response"));
    (started.elapsed(), req, resp)
}

/// One scan as the service runs it on a cache miss: the popcount plan,
/// then `top_k_planned`. Only the scan is timed.
pub fn scan(reader: &IndexReader, probe: &BitVec, k: usize) -> Duration {
    let plan = reader.popcount_scan_order(probe.count_ones());
    let started = Instant::now();
    black_box(
        reader
            .top_k_planned(probe, k, 1, &plan)
            .expect("replayed scan"),
    );
    started.elapsed()
}

/// One batch scan as the service runs a `Link`.
pub fn scan_batch(reader: &IndexReader, probes: &[BitVec], k: usize, min_score: f64) -> Duration {
    let refs: Vec<&BitVec> = probes.iter().collect();
    let started = Instant::now();
    black_box(
        reader
            .top_k_batch(&refs, k, 1, Some(min_score))
            .expect("replayed batch scan"),
    );
    started.elapsed()
}

/// Running totals of the replayed layer work of one client thread.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// Requests replayed.
    pub requests: u64,
    /// Time in request/response encode + decode.
    pub codec: Duration,
    /// Request and response payload bytes.
    pub request_bytes: u64,
    /// Response payload bytes.
    pub response_bytes: u64,
    /// Frames sealed and opened.
    pub frames: u64,
    /// Time sealing and opening them.
    pub seal_open: Duration,
    /// Bytes of those frames on the wire.
    pub frame_bytes: u64,
    /// Single-probe scans replayed and their time.
    pub scans: u64,
    /// Time in single-probe scans.
    pub scan: Duration,
    /// Rows those scans covered.
    pub scan_rows: u64,
    /// Link probes replayed in batch scans and their time.
    pub link_probes: u64,
    /// Time in batch scans.
    pub link_scan: Duration,
    /// Rows the batch scans covered, per probe.
    pub link_rows: u64,
    /// Store write-path replays: records, and time in insert + flush.
    pub store_records: u64,
    /// Time in replayed store writes.
    pub store: Duration,
    /// Client-observed time of the replayed requests.
    pub client: Duration,
    /// Replayed layer time on each request's blocking path.
    pub attributed: Duration,
    /// Handshake replays.
    pub handshakes: Samples,
}

impl Layers {
    /// Replays the wire and session layers for one request/response
    /// pair; returns the time spent.
    pub fn wire_and_session(
        &mut self,
        pair: &mut ChannelPair,
        request: &Request,
        response: &Response,
    ) -> Duration {
        let (codec, req, resp) = codec(request, response);
        let (sealed, bytes) = pair.round_trip(&req, &resp);
        self.codec += codec;
        self.request_bytes += req.len() as u64;
        self.response_bytes += resp.len() as u64;
        self.frames += 2;
        self.seal_open += sealed;
        self.frame_bytes += bytes as u64;
        self.requests += 1;
        codec + sealed
    }

    /// Replays `Link` batch scans of `probes`, 32 at a time, on `reader`
    /// (for workloads whose clients send no `Link`).
    pub fn link_batches(
        &mut self,
        reader: &IndexReader,
        probes: &[BitVec],
        k: usize,
        min_score: f64,
    ) {
        for batch in probes.chunks(32) {
            self.link_scan += scan_batch(reader, batch, k, min_score);
            self.link_probes += batch.len() as u64;
            self.link_rows += (reader.len() * batch.len()) as u64;
        }
    }

    /// Adds another thread's totals.
    pub fn merge(&mut self, o: Layers) {
        self.requests += o.requests;
        self.codec += o.codec;
        self.request_bytes += o.request_bytes;
        self.response_bytes += o.response_bytes;
        self.frames += o.frames;
        self.seal_open += o.seal_open;
        self.frame_bytes += o.frame_bytes;
        self.scans += o.scans;
        self.scan += o.scan;
        self.scan_rows += o.scan_rows;
        self.link_probes += o.link_probes;
        self.link_scan += o.link_scan;
        self.link_rows += o.link_rows;
        self.store_records += o.store_records;
        self.store += o.store;
        self.client += o.client;
        self.attributed += o.attributed;
        self.handshakes.merge(o.handshakes);
    }

    /// Fills the wire, session and scan metrics of `report`.
    pub fn report(&self, report: &mut crate::report::Report) {
        let per = |d: Duration, n: u64| {
            if n == 0 {
                0.0
            } else {
                d.as_secs_f64() * 1e6 / n as f64
            }
        };
        let mean = |total: u64, n: u64| if n == 0 { 0.0 } else { total as f64 / n as f64 };
        report.set(
            "wire.request_bytes",
            mean(self.request_bytes, self.requests),
        );
        report.set(
            "wire.response_bytes",
            mean(self.response_bytes, self.requests),
        );
        report.set("wire.codec_us_per_request", per(self.codec, self.requests));
        report.set(
            "session.seal_open_us_per_frame",
            per(self.seal_open, self.frames),
        );
        report.set("session.frame_bytes", mean(self.frame_bytes, self.frames));
        report.set("index.scan_us_per_query", per(self.scan, self.scans));
        report.set(
            "index.scan_us_per_link_probe",
            per(self.link_scan, self.link_probes),
        );
        let scan_s = (self.scan + self.link_scan).as_secs_f64();
        let rows = self.scan_rows + self.link_rows;
        report.set(
            "index.rows_per_s",
            if scan_s > 0.0 {
                rows as f64 / scan_s
            } else {
                0.0
            },
        );
        let client = self.client.as_secs_f64();
        report.set(
            "trace.unattributed_ratio",
            if client > 0.0 {
                1.0 - self.attributed.as_secs_f64() / client
            } else {
                0.0
            },
        );
        if !self.handshakes.is_empty() {
            report.set("session.handshake_p50_ms", self.handshakes.quantile_ms(0.5));
            report.count("session.handshake_p50_ms", self.handshakes.len());
        }
    }
}
