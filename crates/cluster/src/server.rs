//! The cluster TCP front end: the coordinator served over the same
//! wire protocol as a single `pprl-server` node.
//!
//! This mirrors `pprl_server::server` deliberately — non-blocking
//! acceptor, bounded connection queue with `Busy` overflow rejection,
//! polling workers, idle-timeout sessions — so every existing client
//! (the [`pprl_server::client::Client`] struct, the `pprl client` CLI,
//! the bench drivers) talks to a cluster exactly as it talks to one
//! node. The only behavioural differences are behind the dispatch:
//! requests scatter to shards and gather through the coordinator, and
//! `Shutdown` stops *only the coordinator* — shard nodes are separate
//! processes with their own lifecycles (use
//! [`Coordinator::shutdown_shards`] for orderly full-cluster teardown).
//!
//! [`Coordinator::shutdown_shards`]: crate::coordinator::Coordinator::shutdown_shards

use crate::coordinator::Coordinator;
use pprl_core::error::{PprlError, Result};
use pprl_server::pool::BoundedQueue;
use pprl_server::wire::{read_payload, write_payload, Incoming, Request, Response, MAX_PAYLOAD};
use pprl_session::channel::{IncomingRef, SESSION_WIRE_VERSION};
use pprl_session::frame::{read_payload_capped, MAX_HANDSHAKE_PAYLOAD};
use pprl_session::handshake::{server_handshake, ServerSession};
use pprl_session::keys::entropy_rng;
use pprl_session::registry::AuthRegistry;
use pprl_session::suite::SuiteOffer;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long blocked reads/pops wait before re-checking the shutdown
/// flag (same cadence as the single-node server).
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Tunables for [`serve_cluster`].
#[derive(Debug, Clone, Copy)]
pub struct ClusterServerConfig {
    /// Worker threads serving client sessions (each scatter fans out to
    /// every shard from its worker, so a handful go a long way).
    pub workers: usize,
    /// Bounded connection-queue capacity; overflow is rejected with
    /// `Busy` rather than buffered.
    pub queue_capacity: usize,
    /// Back-off hint sent with `Busy` rejections, in milliseconds.
    pub retry_after_ms: u32,
    /// Write timeout on accepted sockets.
    pub write_timeout: Duration,
    /// Sessions idle past this are closed.
    pub idle_timeout: Duration,
    /// Record-layer cipher suites the front end will negotiate with
    /// clients. Defaults to all; shard hops negotiate independently via
    /// `ClusterConfig::shard_auth` (default offer → the fast suite).
    pub suites: SuiteOffer,
}

impl Default for ClusterServerConfig {
    fn default() -> Self {
        ClusterServerConfig {
            workers: 2,
            queue_capacity: 32,
            retry_after_ms: 50,
            write_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(30),
            suites: SuiteOffer::all(),
        }
    }
}

impl ClusterServerConfig {
    fn validate(&self) -> Result<()> {
        if self.workers == 0 {
            return Err(PprlError::invalid("workers", "must be at least 1"));
        }
        if self.queue_capacity == 0 {
            return Err(PprlError::invalid("queue_capacity", "must be at least 1"));
        }
        if self.write_timeout.is_zero() {
            return Err(PprlError::invalid("write_timeout", "must be non-zero"));
        }
        if self.idle_timeout.is_zero() {
            return Err(PprlError::invalid("idle_timeout", "must be non-zero"));
        }
        if self.suites.is_empty() {
            return Err(PprlError::invalid(
                "suites",
                "must allow at least one cipher suite",
            ));
        }
        Ok(())
    }
}

/// Everything a session needs, shared across threads.
struct ClusterContext {
    coordinator: Arc<Coordinator>,
    registry: Option<AuthRegistry>,
    shutdown: Arc<AtomicBool>,
    workers: u32,
    queue_capacity: u32,
    retry_after_ms: u32,
    write_timeout: Duration,
    idle_timeout: Duration,
    suites: SuiteOffer,
    started: Instant,
}

/// A running cluster front end; dropping the handle does **not** stop
/// it — call [`ClusterHandle::shutdown_now`] or send `Shutdown`.
pub struct ClusterHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    coordinator: Arc<Coordinator>,
    threads: Vec<JoinHandle<()>>,
}

impl ClusterHandle {
    /// The address actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared coordinator (for in-process inspection and tests).
    pub fn coordinator(&self) -> &Arc<Coordinator> {
        &self.coordinator
    }

    /// True once a shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Requests an orderly shutdown without waiting for it.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Waits for every front-end thread to exit. Returns the
    /// coordinator so callers can read final metrics.
    pub fn join(self) -> Arc<Coordinator> {
        for t in self.threads {
            let _ = t.join();
        }
        self.coordinator
    }

    /// Requests shutdown and waits for it to complete. Shard nodes
    /// keep running.
    pub fn shutdown_now(self) -> Arc<Coordinator> {
        self.request_shutdown();
        self.join()
    }
}

/// Serves `coordinator` on `addr` (e.g. `"127.0.0.1:0"` for an
/// ephemeral port). Returns immediately; the handle owns the acceptor
/// and worker threads.
pub fn serve_cluster(
    coordinator: Arc<Coordinator>,
    addr: &str,
    config: ClusterServerConfig,
) -> Result<ClusterHandle> {
    serve_cluster_backend(coordinator, addr, config, None)
}

/// [`serve_cluster`] with client authentication: every front-end
/// connection must complete the wire v4 handshake against `registry`
/// before any request is dispatched to the shards. The cluster fronts a
/// single logical corpus, so the only tenant namespace it serves is
/// `default` — identities need a `default` (or `*`) grant, and only
/// privileged identities may send `Shutdown`. Shard-facing credentials
/// are configured separately via
/// [`ClusterConfig::shard_auth`](crate::coordinator::ClusterConfig).
pub fn serve_cluster_auth(
    coordinator: Arc<Coordinator>,
    addr: &str,
    config: ClusterServerConfig,
    registry: AuthRegistry,
) -> Result<ClusterHandle> {
    if registry.is_empty() {
        return Err(PprlError::Auth(
            "refusing to serve with an empty auth registry: every client \
             would be rejected"
                .into(),
        ));
    }
    serve_cluster_backend(coordinator, addr, config, Some(registry))
}

fn serve_cluster_backend(
    coordinator: Arc<Coordinator>,
    addr: &str,
    config: ClusterServerConfig,
    registry: Option<AuthRegistry>,
) -> Result<ClusterHandle> {
    config.validate()?;
    let listener = TcpListener::bind(addr)
        .map_err(|e| PprlError::Transport(format!("binding {addr}: {e}")))?;
    let local_addr = listener
        .local_addr()
        .map_err(|e| PprlError::Transport(format!("resolving bound address: {e}")))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| PprlError::Transport(format!("setting listener non-blocking: {e}")))?;

    let shutdown = Arc::new(AtomicBool::new(false));
    let queue: Arc<BoundedQueue<TcpStream>> = Arc::new(BoundedQueue::new(config.queue_capacity));
    let context = Arc::new(ClusterContext {
        coordinator: Arc::clone(&coordinator),
        registry,
        shutdown: Arc::clone(&shutdown),
        workers: config.workers as u32,
        queue_capacity: config.queue_capacity as u32,
        retry_after_ms: config.retry_after_ms,
        write_timeout: config.write_timeout,
        idle_timeout: config.idle_timeout,
        suites: config.suites,
        started: Instant::now(),
    });

    let mut threads = Vec::with_capacity(config.workers + 1);
    for _ in 0..config.workers {
        let queue = Arc::clone(&queue);
        let context = Arc::clone(&context);
        threads.push(std::thread::spawn(move || worker_loop(&queue, &context)));
    }
    {
        let queue = Arc::clone(&queue);
        let context = Arc::clone(&context);
        threads.push(std::thread::spawn(move || {
            accept_loop(&listener, &queue, &context);
        }));
    }

    Ok(ClusterHandle {
        addr: local_addr,
        shutdown,
        coordinator,
        threads,
    })
}

fn add(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

fn accept_loop(listener: &TcpListener, queue: &BoundedQueue<TcpStream>, context: &ClusterContext) {
    while !context.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
                let _ = stream.set_write_timeout(Some(context.write_timeout));
                if let Err(mut rejected) = queue.try_push(stream) {
                    add(&context.coordinator.metrics.busy_rejected, 1);
                    let busy = Response::Busy {
                        retry_after_ms: context.retry_after_ms,
                    };
                    let _ = write_payload(&mut rejected, &busy.encode());
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::Interrupted =>
            {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    queue.close();
}

fn worker_loop(queue: &BoundedQueue<TcpStream>, context: &ClusterContext) {
    loop {
        match queue.pop_timeout(POLL_INTERVAL) {
            Some(stream) => handle_session(stream, context),
            None => {
                if context.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

/// Serves one connection until EOF, shutdown, or a framing error —
/// same first-frame routing as a single node: a payload leading with
/// the session version byte enters the wire v4 handshake (when the
/// front end has a registry), anything else is a plaintext wire v3
/// request (only accepted when it does not).
fn handle_session(mut stream: TcpStream, context: &ClusterContext) {
    let mut idle = Duration::ZERO;
    // Before the handshake only a HELLO-sized frame is accepted.
    let cap = match context.registry {
        Some(_) => MAX_HANDSHAKE_PAYLOAD,
        None => MAX_PAYLOAD,
    };
    let first = loop {
        if context.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match read_payload_capped(&mut stream, cap) {
            Ok(Incoming::TimedOut) => {
                idle += POLL_INTERVAL;
                if idle >= context.idle_timeout {
                    return;
                }
            }
            Ok(Incoming::Eof) => return,
            Ok(Incoming::Payload(payload)) => break payload,
            Err(e) => {
                let err = Response::ServerError {
                    message: e.to_string(),
                };
                let _ = write_payload(&mut stream, &err.encode());
                return;
            }
        }
    };

    match (context.registry.as_ref(), first.first()) {
        (Some(registry), Some(&SESSION_WIRE_VERSION)) => {
            let mut rng = entropy_rng();
            // On failure the handshake has already sent the typed
            // AUTH_ERROR where one is safe to send; just close.
            if let Ok(session) =
                server_handshake(&mut stream, &first, registry, &mut rng, context.suites)
            {
                serve_authenticated(stream, session, context);
            }
        }
        (Some(_), _) => {
            let err = Response::ServerError {
                message: "authentication required: this cluster front end only \
                          accepts wire v4 sessions (connect with an identity \
                          and key)"
                    .into(),
            };
            let _ = write_payload(&mut stream, &err.encode());
        }
        (None, Some(&SESSION_WIRE_VERSION)) => {
            let err = Response::ServerError {
                message: "this cluster front end is not configured for \
                          authenticated sessions (start it with an auth \
                          directory)"
                    .into(),
            };
            let _ = write_payload(&mut stream, &err.encode());
        }
        (None, _) => serve_plain(stream, first, context, idle),
    }
}

/// The plaintext wire v3 session loop, starting from an already-read
/// first payload.
fn serve_plain(
    mut stream: TcpStream,
    first: Vec<u8>,
    context: &ClusterContext,
    mut idle: Duration,
) {
    let mut pending = Some(first);
    loop {
        if context.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let payload = match pending.take() {
            Some(p) => p,
            None => match read_payload(&mut stream) {
                Ok(Incoming::TimedOut) => {
                    idle += POLL_INTERVAL;
                    if idle >= context.idle_timeout {
                        return;
                    }
                    continue;
                }
                Ok(Incoming::Eof) => return,
                Ok(Incoming::Payload(p)) => p,
                Err(e) => {
                    let err = Response::ServerError {
                        message: e.to_string(),
                    };
                    let _ = write_payload(&mut stream, &err.encode());
                    return;
                }
            },
        };
        idle = Duration::ZERO;
        let response = match Request::decode(&payload) {
            Ok(Request::Shutdown) => {
                let _ = write_payload(&mut stream, &Response::Bye.encode());
                context.shutdown.store(true, Ordering::SeqCst);
                return;
            }
            Err(e) => Response::ServerError {
                message: e.to_string(),
            },
            Ok(request) => dispatch(request, context),
        };
        if write_payload(&mut stream, &response.encode()).is_err() {
            return;
        }
    }
}

/// The authenticated session loop: every frame must open under the
/// session's keys before its inner opcode is even looked at, and a
/// frame that fails its MAC or sequence check closes the connection
/// without a reply. The cluster serves exactly one tenant namespace
/// (`default`); `Shutdown` — which stops only the coordinator front
/// end — additionally requires a privileged identity.
fn serve_authenticated(
    mut stream: TcpStream,
    mut session: ServerSession,
    context: &ClusterContext,
) {
    let mut idle = Duration::ZERO;
    loop {
        if context.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Decode while the frame is still borrowed from the channel's
        // receive buffer; `Request` owns its fields, so the borrow ends
        // here and the channel is free to send the response.
        let decoded = match session.channel.recv_ref(&mut stream) {
            Ok(IncomingRef::TimedOut) => {
                idle += POLL_INTERVAL;
                if idle >= context.idle_timeout {
                    return;
                }
                continue;
            }
            Ok(IncomingRef::Eof) => return,
            Ok(IncomingRef::Payload(inner)) => Request::decode(inner),
            Err(_) => return,
        };
        idle = Duration::ZERO;
        if session.tenant != "default" {
            // A privileged identity may name any tenant at handshake,
            // but the cluster fronts one logical corpus.
            let err = Response::ServerError {
                message: format!(
                    "tenant `{}` has no index namespace on this cluster \
                     front end (only `default`)",
                    session.tenant
                ),
            };
            let _ = session.channel.send(&mut stream, &err.encode());
            return;
        }
        let response = match decoded {
            Ok(Request::Shutdown) => {
                if session.privileged {
                    let _ = session.channel.send(&mut stream, &Response::Bye.encode());
                    context.shutdown.store(true, Ordering::SeqCst);
                    return;
                }
                Response::ServerError {
                    message: PprlError::Auth(format!(
                        "identity `{}` is not privileged to shut down the \
                         cluster front end",
                        session.identity
                    ))
                    .to_string(),
                }
            }
            Err(e) => Response::ServerError {
                message: e.to_string(),
            },
            Ok(request) => dispatch(request, context),
        };
        if session
            .channel
            .send(&mut stream, &response.encode())
            .is_err()
        {
            return;
        }
    }
}

fn dispatch(request: Request, context: &ClusterContext) -> Response {
    let coordinator = &context.coordinator;
    let result = match request {
        Request::Query { filter, k } => coordinator.query(&filter, k as usize).map(Response::Hits),
        Request::Link {
            probes,
            k,
            min_score,
        } => coordinator
            .link(&probes, k as usize, min_score)
            .map(Response::LinkHits),
        Request::Insert { records } => coordinator
            .insert(&records)
            .map(|(count, generation)| Response::Inserted { count, generation }),
        Request::Stats => {
            let mut report = coordinator.stats(context.started.elapsed().as_millis() as u64);
            report.workers = context.workers;
            report.queue_capacity = context.queue_capacity;
            Ok(Response::Stats(report))
        }
        Request::Shutdown => unreachable!("handled by the session loop"),
    };
    result.unwrap_or_else(|e| Response::ServerError {
        message: e.to_string(),
    })
}
