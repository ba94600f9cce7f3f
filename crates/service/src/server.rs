//! The long-lived coloring server: localhost TCP listener, per-connection
//! reader/writer threads, and one FIFO worker thread per shard shared by
//! every connection.
//!
//! # Threading model
//!
//! ```text
//! accept loop ──spawns──▶ connection threads ──admit──▶ shard FIFOs (mpsc,
//!                         (one reader + one              one per worker,
//!                          writer per socket)            request.id % workers)
//!                               ▲                                │
//!                               │                                ▼
//!                               └──── mpsc ◀───── one worker thread per shard
//! ```
//!
//! Requests are admitted under an exact max-inflight limit — over the limit
//! they are shed immediately with a typed [`Reject::Busy`] (never queued,
//! so the accept loop and readers never stall behind slow work). Admitted
//! jobs go straight to shard `request.id % workers`, whose worker runs its
//! FIFO in arrival order: equal ids never race, and a request on an idle
//! shard starts at once, whatever the other shards are running. The run
//! goes through [`dcl_runner::run_protected`], so scenario panics and
//! budget violations come back as typed rejects instead of killing a
//! worker; before it, the configured [`RequestLimits`] bound what a
//! request may declare (nodes, edges, threads) so remote input can never
//! size an allocation or a thread pool.
//!
//! # Determinism
//!
//! A request's outcome depends only on the request (scenario registry +
//! `run_protected` are deterministic); concurrency exists only *across*
//! requests. The service determinism suite pins this: the same request
//! yields byte-identical response payloads, alone or under concurrent load.
//!
//! # Shutdown
//!
//! [`ServerHandle::shutdown`] (also run on drop) stops the accept loop,
//! lets every connection finish its drain — each connection waits for its
//! outstanding admitted jobs, answers them, then sends its goodbye frame —
//! and only then drops the shard senders; each worker empties its FIFO and
//! exits. Clients see every admitted request answered before the goodbye.

use crate::execute_request;
use crate::proto::{
    check_hello, decode_request, encode_goodbye, encode_hello, encode_response, read_tick,
    ReadEvent, Reject, Request, RequestLimits, Response, ServiceError,
};
use dcl_runner::{RunErrorKind, WireRunError};
use dcl_sim::deadline::{park_tick, Deadline};
use dcl_sim::transport::{FrameKind, FrameReader};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// How long a socket read blocks before the loop re-checks its deadline
/// and the shutdown flag.
const READ_TICK: Duration = Duration::from_millis(10);

/// Liveness bound on the handshake and on waiting for a response to start
/// arriving.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// Liveness bound on a connection's shutdown drain — how long it waits for
/// its outstanding jobs before giving up and saying goodbye anyway.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// Server tuning knobs.
///
/// `#[non_exhaustive]` — build with [`Default`] plus the `with_*` setters,
/// so future knobs are not semver breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct ServiceConfig {
    /// Listen address (default `127.0.0.1:0` — loopback, OS-chosen port).
    pub addr: SocketAddr,
    /// Worker shard count: one FIFO worker thread each (clamped to ≥ 1).
    pub workers: usize,
    /// Admission limit: requests beyond this many in flight are shed with
    /// [`Reject::Busy`]. `0` sheds everything (the deterministic
    /// always-busy configuration the tests use).
    pub max_inflight: usize,
    /// Per-request deadline, measured from admission to a worker picking
    /// the job up. `Duration::ZERO` times everything out (the
    /// deterministic always-late configuration the tests use).
    pub request_timeout: Duration,
    /// Admission bounds on each request's declared sizes (nodes, edges,
    /// threads), checked before any allocation or spawn — see
    /// [`RequestLimits`]. Violations come back as [`Reject::BadInput`].
    pub limits: RequestLimits,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            workers: 2,
            max_inflight: 64,
            request_timeout: Duration::from_secs(10),
            limits: RequestLimits::default(),
        }
    }
}

impl ServiceConfig {
    /// Sets the listen address (builder style).
    #[must_use]
    pub fn with_addr(mut self, addr: SocketAddr) -> Self {
        self.addr = addr;
        self
    }

    /// Sets the worker shard count (builder style).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the admission limit (builder style).
    #[must_use]
    pub fn with_max_inflight(mut self, max_inflight: usize) -> Self {
        self.max_inflight = max_inflight;
        self
    }

    /// Sets the per-request deadline (builder style).
    #[must_use]
    pub fn with_request_timeout(mut self, request_timeout: Duration) -> Self {
        self.request_timeout = request_timeout;
        self
    }

    /// Sets the per-request admission bounds (builder style).
    #[must_use]
    pub fn with_limits(mut self, limits: RequestLimits) -> Self {
        self.limits = limits;
        self
    }
}

/// What a connection's writer thread ships next.
enum Outbound {
    /// One response frame.
    Response(Response),
    /// Drain is complete: write the goodbye frame and exit.
    End,
}

/// One admitted request waiting for a worker.
struct Job {
    request: Request,
    deadline: Deadline,
    reply: ReplyHandle,
}

/// The job's way back to its connection: the writer channel plus the
/// connection's outstanding-job counter (drained before goodbye).
struct ReplyHandle {
    tx: mpsc::Sender<Outbound>,
    outstanding: Arc<AtomicUsize>,
}

impl ReplyHandle {
    fn respond(&self, response: Response) {
        // The send completes before the decrement, so a connection that
        // observes `outstanding == 0` knows every response is already in
        // the channel ahead of its goodbye. A send error just means the
        // connection died first; the decrement must still happen.
        let _ = self.tx.send(Outbound::Response(response));
        self.outstanding.fetch_sub(1, Ordering::SeqCst);
    }
}

/// State shared by the accept loop, connection threads and workers.
///
/// The shard senders live outside it: the workers hold an `Arc<Shared>`,
/// so senders stored here would keep every FIFO open forever.
#[derive(Debug)]
struct Shared {
    config: ServiceConfig,
    /// Set once by [`ServerHandle::shutdown`]; everything winds down.
    shutdown: AtomicBool,
    /// Exact count of admitted, unanswered requests across all
    /// connections.
    inflight: AtomicUsize,
}

impl Shared {
    /// Admission control: either reserves an inflight slot (exactly, via
    /// compare-exchange — two racing requests cannot both take the last
    /// slot) and sends the job to the FIFO of shard `request.id %
    /// shards.len()`, or sheds the request with a typed busy response.
    fn admit(
        &self,
        request: Request,
        shards: &[mpsc::Sender<Job>],
        tx: &mpsc::Sender<Outbound>,
        outstanding: &Arc<AtomicUsize>,
    ) {
        let max = self.config.max_inflight;
        let slot = self
            .inflight
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| {
                (v < max).then_some(v + 1)
            });
        if let Err(inflight) = slot {
            let _ = tx.send(Outbound::Response(Response {
                id: request.id,
                outcome: Err(Reject::Busy {
                    inflight: inflight as u64,
                    max_inflight: max as u64,
                }),
            }));
            return;
        }
        outstanding.fetch_add(1, Ordering::SeqCst);
        let shard = (request.id % shards.len() as u64) as usize;
        let job = Job {
            request,
            deadline: Deadline::after(self.config.request_timeout),
            reply: ReplyHandle {
                tx: tx.clone(),
                outstanding: outstanding.clone(),
            },
        };
        // The caller holds a sender, so this shard's worker has not exited.
        shards[shard]
            .send(job)
            .expect("shard worker outlives its senders");
    }

    /// Runs one job to a response and ships it back.
    ///
    /// The execution is double-shielded: [`execute_request`] checks the
    /// configured [`RequestLimits`] before allocating anything on the
    /// request's behalf, and the whole call sits under a `catch_unwind` —
    /// this runs on a shard worker *outside* `run_protected`'s shield
    /// (which only covers the scenario run), so a stray panic in graph
    /// reconstruction or knob validation must become a typed reject here
    /// instead of killing the worker and stranding its FIFO.
    fn process(&self, job: Job) {
        let Job {
            request,
            deadline,
            reply,
        } = job;
        let outcome = if deadline.expired() {
            Err(Reject::TimedOut {
                limit_ms: self.config.request_timeout.as_millis() as u64,
            })
        } else {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                execute_request(&request, &self.config.limits)
            }))
            .unwrap_or_else(|payload| {
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| String::from("<non-string panic payload>"));
                Err(Reject::Run(WireRunError {
                    kind: RunErrorKind::Panic,
                    message,
                }))
            })
        };
        let response = Response {
            id: request.id,
            outcome,
        };
        self.inflight.fetch_sub(1, Ordering::SeqCst);
        reply.respond(response);
    }
}

/// Spawns one worker thread per shard. Each owns the receiving end of its
/// shard's FIFO and runs the jobs in arrival order; it exits once every
/// sender is dropped and the FIFO is empty.
fn spawn_workers(shared: &Arc<Shared>) -> (Vec<mpsc::Sender<Job>>, Vec<JoinHandle<()>>) {
    (0..shared.config.workers.max(1))
        .map(|_| {
            let (tx, rx) = mpsc::channel::<Job>();
            let shared = Arc::clone(shared);
            let worker = thread::spawn(move || {
                for job in rx {
                    shared.process(job);
                }
            });
            (tx, worker)
        })
        .unzip()
}

/// Reads whole frames until one arrives, bounded by `deadline`.
fn read_frame_deadline(
    stream: &mut TcpStream,
    reader: &mut FrameReader,
    deadline: Deadline,
) -> Result<dcl_sim::transport::RawFrame, ServiceError> {
    loop {
        if let Some(frame) = reader.next_frame().map_err(|e| ServiceError::Protocol {
            detail: e.to_string(),
        })? {
            return Ok(frame);
        }
        if deadline.expired() {
            return Err(ServiceError::Disconnected {
                detail: "peer sent no frame before the deadline".to_string(),
            });
        }
        match read_tick(stream, reader)? {
            ReadEvent::Eof => {
                return Err(ServiceError::Disconnected {
                    detail: "peer closed the stream mid-frame".to_string(),
                })
            }
            ReadEvent::Bytes(_) | ReadEvent::Idle => {}
        }
    }
}

/// The read half of one connection: decode requests and admit them until
/// the client says goodbye, closes the stream, or the server shuts down.
fn read_requests(
    shared: &Shared,
    shards: &[mpsc::Sender<Job>],
    stream: &mut TcpStream,
    reader: &mut FrameReader,
    tx: &mpsc::Sender<Outbound>,
    outstanding: &Arc<AtomicUsize>,
) -> Result<(), ServiceError> {
    loop {
        while let Some(frame) = reader.next_frame().map_err(|e| ServiceError::Protocol {
            detail: e.to_string(),
        })? {
            match frame.kind {
                FrameKind::Data => {
                    shared.admit(decode_request(&frame)?, shards, tx, outstanding);
                }
                FrameKind::EndRound => return Ok(()),
                FrameKind::Hello => {
                    return Err(ServiceError::Protocol {
                        detail: "unexpected hello after the handshake".to_string(),
                    })
                }
            }
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        match read_tick(stream, reader)? {
            ReadEvent::Eof => return Ok(()),
            ReadEvent::Bytes(_) | ReadEvent::Idle => {}
        }
    }
}

/// The write half: serializes outbound frames onto the socket; on
/// [`Outbound::End`] writes the goodbye frame and exits.
fn writer_loop(mut stream: TcpStream, rx: &mpsc::Receiver<Outbound>) {
    let mut out = Vec::new();
    for message in rx {
        out.clear();
        match message {
            Outbound::Response(response) => encode_response(&response, &mut out),
            Outbound::End => {
                encode_goodbye(&mut out);
                let _ = stream.write_all(&out);
                let _ = stream.flush();
                return;
            }
        }
        if stream.write_all(&out).is_err() {
            return; // connection died; readers/jobs notice independently
        }
    }
}

/// One accepted connection, start to finish: handshake, request loop,
/// drain, goodbye. Errors tear the connection down without touching the
/// rest of the server.
fn serve_connection(
    shared: &Shared,
    shards: &[mpsc::Sender<Job>],
    mut stream: TcpStream,
) -> Result<(), ServiceError> {
    let fail = |what: &'static str| {
        move |e: io::Error| ServiceError::Disconnected {
            detail: format!("{what}: {e}"),
        }
    };
    stream.set_nodelay(true).map_err(fail("set_nodelay"))?;
    stream
        .set_read_timeout(Some(READ_TICK))
        .map_err(fail("set_read_timeout"))?;

    let mut reader = FrameReader::new();
    let hello = read_frame_deadline(&mut stream, &mut reader, Deadline::after(HANDSHAKE_TIMEOUT))?;
    check_hello(&hello)?;
    let mut out = Vec::new();
    encode_hello(&mut out);
    stream.write_all(&out).map_err(fail("hello write"))?;

    let (tx, rx) = mpsc::channel();
    let outstanding = Arc::new(AtomicUsize::new(0));
    let writer_stream = stream.try_clone().map_err(fail("stream clone"))?;
    let writer = thread::spawn(move || writer_loop(writer_stream, &rx));

    let result = read_requests(shared, shards, &mut stream, &mut reader, &tx, &outstanding);

    // Graceful drain: every admitted job must be answered (the workers keep
    // running until after all connections finish) before the goodbye frame
    // goes out.
    let drain = Deadline::after(DRAIN_TIMEOUT);
    while outstanding.load(Ordering::SeqCst) > 0 && !drain.expired() {
        park_tick();
    }
    let _ = tx.send(Outbound::End);
    drop(tx);
    let _ = writer.join();
    result
}

/// The accept loop: hands each connection to its own thread (with a clone
/// of the shard senders), reaps finished ones, and on shutdown joins the
/// rest before dropping `shards`, which lets the workers drain and exit.
fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener, shards: Vec<mpsc::Sender<Job>>) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let shared = Arc::clone(shared);
                let shards = shards.clone();
                connections.push(thread::spawn(move || {
                    // A failed connection affects only itself.
                    let _ = serve_connection(&shared, &shards, stream);
                }));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => park_tick(),
            Err(_) => park_tick(), // transient accept failure; keep listening
        }
        connections.retain(|handle| !handle.is_finished());
    }
    for handle in connections {
        let _ = handle.join();
    }
}

/// A bound-but-not-yet-serving server. Splitting bind from serve lets
/// callers learn the OS-chosen port before any client dials.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener (nonblocking accepts; the loop parks through
    /// [`dcl_sim::deadline::park_tick`]).
    ///
    /// # Errors
    ///
    /// The underlying socket error if binding fails.
    pub fn bind(config: ServiceConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(config.addr)?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                config,
                shutdown: AtomicBool::new(false),
                inflight: AtomicUsize::new(0),
            }),
        })
    }

    /// The bound address (port resolved if the config asked for `:0`).
    ///
    /// # Errors
    ///
    /// The underlying socket error if the address cannot be read back.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Starts serving on background threads and returns the controlling
    /// handle.
    #[must_use]
    pub fn start(self) -> ServerHandle {
        let addr = self
            .listener
            .local_addr()
            .expect("bound listener has an address");
        let (shards, workers) = spawn_workers(&self.shared);
        let accept = {
            let shared = Arc::clone(&self.shared);
            let listener = self.listener;
            thread::spawn(move || accept_loop(&shared, &listener, shards))
        };
        ServerHandle {
            addr,
            shared: self.shared,
            accept: Some(accept),
            workers,
        }
    }

    /// Serves on the calling thread (the `dcl_serve` binary's mode); only
    /// the shard workers run in the background. Returns when another thread
    /// flips the shutdown flag — for the binary, effectively never.
    pub fn run(self) {
        let (shards, workers) = spawn_workers(&self.shared);
        accept_loop(&self.shared, &self.listener, shards);
        for worker in workers {
            let _ = worker.join();
        }
    }
}

/// A running server. Dropping the handle shuts the server down gracefully
/// (drain, then stop).
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address clients dial.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop accepting, let every connection drain its
    /// admitted requests and say goodbye, join the drained workers.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_builders_set_each_knob() {
        let config = ServiceConfig::default()
            .with_workers(5)
            .with_max_inflight(9)
            .with_request_timeout(Duration::from_millis(250))
            .with_addr(SocketAddr::from(([127, 0, 0, 1], 4000)))
            .with_limits(RequestLimits::default().with_max_nodes(100));
        assert_eq!(config.workers, 5);
        assert_eq!(config.max_inflight, 9);
        assert_eq!(config.request_timeout, Duration::from_millis(250));
        assert_eq!(config.addr.port(), 4000);
        assert_eq!(config.limits.max_nodes, 100);
        let defaults = ServiceConfig::default();
        assert!(defaults.max_inflight > 0);
        assert!(defaults.request_timeout > Duration::ZERO);
        assert_eq!(defaults.addr.ip().to_string(), "127.0.0.1");
        assert!(defaults.limits.max_nodes > 0);
        assert!(defaults.limits.max_threads > 0);
    }

    #[test]
    fn bind_resolves_an_os_chosen_port() {
        let server = Server::bind(ServiceConfig::default()).expect("bind loopback");
        let addr = server.local_addr().expect("addr");
        assert_ne!(addr.port(), 0);
        let mut handle = server.start();
        assert_eq!(handle.addr(), addr);
        handle.shutdown();
        handle.shutdown(); // idempotent
    }
}
