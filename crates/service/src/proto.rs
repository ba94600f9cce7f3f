//! The service wire protocol: versioned frames carrying [`Request`] and
//! [`Response`] values over the shared [`Wire`] codec.
//!
//! # Frame layout
//!
//! The service reuses the transport tier's framing verbatim
//! (`[len: u32 LE][kind: u8][sender: u32 LE][declared_bits: u32 LE]
//! [payload]`, [`dcl_sim::transport::encode_frame`]), repurposing the three
//! frame kinds:
//!
//! | kind       | direction | meaning                                        |
//! |------------|-----------|------------------------------------------------|
//! | `Hello`    | both      | handshake: `sender` carries [`PROTOCOL_VERSION`], payload is [`PROTOCOL_MAGIC`]; the server echoes it back |
//! | `Data`     | both      | one [`Wire`]-encoded [`Request`] (client → server) or [`Response`] (server → client); `declared_bits` is the payload's `wire_bits` |
//! | `EndRound` | both      | goodbye: the sender will ship no more frames; the server answers one after draining in-flight work |
//!
//! Every decode path is total: truncated, corrupt or oversized inputs come
//! back as typed [`ServiceError`]s, never panics (fuzzed by
//! `tests/proptest_proto.rs`, mirroring the transport tier's
//! `proptest_wire.rs`).

use dcl_graphs::Graph;
use dcl_runner::{WireReport, WireRunError};
use dcl_sim::transport::{encode_frame, FrameKind, FrameReader, RawFrame};
use dcl_sim::{Backend, BandwidthCap, ExecConfig, Wire};
use std::error::Error;
use std::fmt;
use std::io::{self, Read};
use std::net::TcpStream;

/// Magic bytes opening every connection ("DCL Service").
pub const PROTOCOL_MAGIC: [u8; 4] = *b"DCLS";

/// Protocol revision. Bumped on any wire-incompatible change; the handshake
/// carries it in the hello frame's `sender` field so both sides can reject
/// a mismatch before any payload crosses.
pub const PROTOCOL_VERSION: u32 = 1;

/// The serializable subset of [`ExecConfig`] a request carries: backend
/// thread count and bandwidth-cap override. The transport knob is *not*
/// carried — the service always executes on the in-memory tier (the
/// socket hop is the service connection itself).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecSpec {
    /// `None` = sequential backend; `Some(t)` = `Backend::Parallel(t)`
    /// (`0` = one thread per core on the *server*).
    pub threads: Option<u64>,
    /// Per-message bandwidth-cap override in bits; `None` = model default.
    pub cap_bits: Option<u32>,
}

impl ExecSpec {
    /// Captures the serializable knobs of `exec`.
    #[must_use]
    pub fn from_exec(exec: &ExecConfig) -> Self {
        ExecSpec {
            threads: match exec.backend {
                Backend::Sequential => None,
                Backend::Parallel(t) => Some(t as u64),
            },
            cap_bits: exec.cap.map(BandwidthCap::bits),
        }
    }

    /// Reconstructs the [`ExecConfig`] on the server side (transport pinned
    /// to the in-memory tier).
    ///
    /// # Errors
    ///
    /// A human-readable message when the knobs are invalid (zero cap,
    /// oversized thread count) — remote input must reject, not panic.
    pub fn to_exec(&self) -> Result<ExecConfig, String> {
        let backend = match self.threads {
            None => Backend::Sequential,
            Some(t) => Backend::Parallel(
                usize::try_from(t).map_err(|_| format!("thread count {t} does not fit usize"))?,
            ),
        };
        let cap = match self.cap_bits {
            None => None,
            Some(0) => return Err("bandwidth cap must be positive".to_string()),
            Some(bits) => Some(BandwidthCap::new(bits)),
        };
        Ok(ExecConfig::default()
            .with_backend(backend)
            .with_cap_opt(cap))
    }
}

impl Wire for ExecSpec {
    fn wire_bits(&self) -> u32 {
        self.threads.wire_bits() + self.cap_bits.wire_bits()
    }
    fn wire_encode(&self, out: &mut Vec<u8>) {
        self.threads.wire_encode(out);
        self.cap_bits.wire_encode(out);
    }
    fn wire_decode(buf: &mut &[u8]) -> Option<Self> {
        Some(ExecSpec {
            threads: Option::wire_decode(buf)?,
            cap_bits: Option::wire_decode(buf)?,
        })
    }
}

/// One coloring request: which scenario to run, on which graph, under which
/// execution knobs. The graph crosses as its sorted edge list (`u < v`,
/// exactly [`Graph::edges`]' order), so [`Request::graph`] rebuilds it with
/// the same validation every local caller goes through.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the [`Response`]. Also the
    /// server's shard key: equal ids land on the same worker shard, so a
    /// repeated request cannot race itself.
    pub id: u64,
    /// Registered scenario name (`"congest"`, `"clique"`, …).
    pub scenario: String,
    /// Number of nodes.
    pub n: u64,
    /// Sorted `u < v` edge list.
    pub edges: Vec<(u64, u64)>,
    /// Execution knobs.
    pub exec: ExecSpec,
}

impl Request {
    /// Builds a request from a live [`Graph`] and [`ExecConfig`].
    #[must_use]
    pub fn for_graph(id: u64, scenario: &str, graph: &Graph, exec: &ExecConfig) -> Self {
        Request {
            id,
            scenario: scenario.to_string(),
            n: graph.n() as u64,
            edges: graph.edges().map(|(u, v)| (u as u64, v as u64)).collect(),
            exec: ExecSpec::from_exec(exec),
        }
    }

    /// Rebuilds the graph, running the same construction validation as any
    /// local caller (rejects self loops, duplicate or unsorted edges,
    /// out-of-range endpoints).
    ///
    /// Construction allocates `O(n + edges)` up front, so callers holding
    /// remote input must pass the request through
    /// [`RequestLimits::check`] *first* (as [`crate::execute_request`]
    /// does) — a declared `n` in the 2^50 range would otherwise abort the
    /// process on allocation failure before any validation runs.
    ///
    /// # Errors
    ///
    /// A human-readable message when the payload does not describe a valid
    /// graph — remote input must reject, not panic.
    pub fn graph(&self) -> Result<Graph, String> {
        let n = usize::try_from(self.n)
            .map_err(|_| format!("node count {} does not fit usize", self.n))?;
        let mut edges = Vec::with_capacity(self.edges.len());
        for &(u, v) in &self.edges {
            let u = usize::try_from(u).map_err(|_| format!("endpoint {u} does not fit usize"))?;
            let v = usize::try_from(v).map_err(|_| format!("endpoint {v} does not fit usize"))?;
            edges.push((u, v));
        }
        Graph::from_sorted_edges(n, &edges).map_err(|e| e.to_string())
    }
}

impl Wire for Request {
    fn wire_bits(&self) -> u32 {
        self.id.wire_bits()
            + self.scenario.wire_bits()
            + self.n.wire_bits()
            + self.edges.wire_bits()
            + self.exec.wire_bits()
    }
    fn wire_encode(&self, out: &mut Vec<u8>) {
        self.id.wire_encode(out);
        self.scenario.wire_encode(out);
        self.n.wire_encode(out);
        self.edges.wire_encode(out);
        self.exec.wire_encode(out);
    }
    fn wire_decode(buf: &mut &[u8]) -> Option<Self> {
        Some(Request {
            id: u64::wire_decode(buf)?,
            scenario: String::wire_decode(buf)?,
            n: u64::wire_decode(buf)?,
            edges: Vec::wire_decode(buf)?,
            exec: ExecSpec::wire_decode(buf)?,
        })
    }
}

/// Server-side admission bounds on what a [`Request`] may ask for,
/// checked *before* anything is allocated or spawned on its behalf.
///
/// The declared node count is the protocol's one allocation amplifier: a
/// few wire bytes claiming `n = 2^50` would otherwise reach
/// `Graph::from_sorted_edges`' `vec![0; n]` and abort the process (an
/// allocation failure does not unwind). Thread counts are the spawn
/// amplifier: `Backend::Parallel(t)` takes the remote `t` at face value.
/// [`RequestLimits::check`] rejects both with a typed message — remote
/// input must reject, not panic — and the server applies its configured
/// limits ([`crate::ServiceConfig::limits`]) on every worker.
///
/// `#[non_exhaustive]` — build with [`Default`] plus the `with_*`
/// setters, so future bounds are not semver breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct RequestLimits {
    /// Largest accepted [`Request::n`].
    pub max_nodes: u64,
    /// Largest accepted [`Request::edges`] length.
    pub max_edges: u64,
    /// Largest accepted [`ExecSpec::threads`] value (`Some(0)` = one
    /// thread per server core is always accepted).
    pub max_threads: u64,
}

impl Default for RequestLimits {
    /// Generous for every workload the experiments run (≤ 2^20 nodes,
    /// ≤ 2^22 edges, ≤ 512 threads) while keeping the worst-case
    /// per-request allocation a few tens of MiB.
    fn default() -> Self {
        RequestLimits {
            max_nodes: 1 << 20,
            max_edges: 1 << 22,
            max_threads: 512,
        }
    }
}

impl RequestLimits {
    /// Sets the node bound (builder style).
    #[must_use]
    pub fn with_max_nodes(mut self, max_nodes: u64) -> Self {
        self.max_nodes = max_nodes;
        self
    }

    /// Sets the edge bound (builder style).
    #[must_use]
    pub fn with_max_edges(mut self, max_edges: u64) -> Self {
        self.max_edges = max_edges;
        self
    }

    /// Sets the thread bound (builder style).
    #[must_use]
    pub fn with_max_threads(mut self, max_threads: u64) -> Self {
        self.max_threads = max_threads;
        self
    }

    /// Validates `request` against these bounds without allocating.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the violated bound (the server
    /// wraps it in [`Reject::BadInput`]).
    pub fn check(&self, request: &Request) -> Result<(), String> {
        if request.n > self.max_nodes {
            return Err(format!(
                "request declares {} nodes, over this server's limit of {}",
                request.n, self.max_nodes
            ));
        }
        if request.edges.len() as u64 > self.max_edges {
            return Err(format!(
                "request carries {} edges, over this server's limit of {}",
                request.edges.len(),
                self.max_edges
            ));
        }
        if let Some(threads) = request.exec.threads {
            if threads > self.max_threads {
                return Err(format!(
                    "request asks for {threads} threads, over this server's limit of {}",
                    self.max_threads
                ));
            }
        }
        Ok(())
    }
}

/// Why the server declined to produce a [`WireReport`] for a request.
#[derive(Debug, Clone, PartialEq)]
pub enum Reject {
    /// The max-inflight backpressure limit was hit; the request was shed
    /// *without* being queued (the accept loop never stalls). Retry later.
    Busy {
        /// In-flight requests observed at admission.
        inflight: u64,
        /// The server's configured admission limit.
        max_inflight: u64,
    },
    /// The request sat past the server's per-request deadline before a
    /// worker picked it up.
    TimedOut {
        /// The server's configured per-request limit in milliseconds.
        limit_ms: u64,
    },
    /// No scenario is registered under the requested name.
    UnknownScenario {
        /// The name the request carried.
        name: String,
    },
    /// The request payload was structurally valid but semantically not
    /// runnable: a malformed graph or invalid execution knobs.
    BadInput {
        /// Human-readable reason.
        detail: String,
    },
    /// The scenario ran and failed; the wrapped [`WireRunError`] carries
    /// the variant kind and full rendering of the server-side
    /// [`dcl_runner::RunError`].
    Run(WireRunError),
}

impl fmt::Display for Reject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reject::Busy {
                inflight,
                max_inflight,
            } => write!(
                f,
                "server busy: {inflight} requests in flight (limit {max_inflight})"
            ),
            Reject::TimedOut { limit_ms } => {
                write!(
                    f,
                    "request timed out after the server's {limit_ms} ms limit"
                )
            }
            Reject::UnknownScenario { name } => write!(f, "unknown scenario '{name}'"),
            Reject::BadInput { detail } => write!(f, "bad request input: {detail}"),
            Reject::Run(e) => write!(f, "{e}"),
        }
    }
}

impl Wire for Reject {
    fn wire_bits(&self) -> u32 {
        8 + match self {
            Reject::Busy {
                inflight,
                max_inflight,
            } => inflight.wire_bits() + max_inflight.wire_bits(),
            Reject::TimedOut { limit_ms } => limit_ms.wire_bits(),
            Reject::UnknownScenario { name } => name.wire_bits(),
            Reject::BadInput { detail } => detail.wire_bits(),
            Reject::Run(e) => e.wire_bits(),
        }
    }
    fn wire_encode(&self, out: &mut Vec<u8>) {
        match self {
            Reject::Busy {
                inflight,
                max_inflight,
            } => {
                0u8.wire_encode(out);
                inflight.wire_encode(out);
                max_inflight.wire_encode(out);
            }
            Reject::TimedOut { limit_ms } => {
                1u8.wire_encode(out);
                limit_ms.wire_encode(out);
            }
            Reject::UnknownScenario { name } => {
                2u8.wire_encode(out);
                name.wire_encode(out);
            }
            Reject::BadInput { detail } => {
                3u8.wire_encode(out);
                detail.wire_encode(out);
            }
            Reject::Run(e) => {
                4u8.wire_encode(out);
                e.wire_encode(out);
            }
        }
    }
    fn wire_decode(buf: &mut &[u8]) -> Option<Self> {
        match u8::wire_decode(buf)? {
            0 => Some(Reject::Busy {
                inflight: u64::wire_decode(buf)?,
                max_inflight: u64::wire_decode(buf)?,
            }),
            1 => Some(Reject::TimedOut {
                limit_ms: u64::wire_decode(buf)?,
            }),
            2 => Some(Reject::UnknownScenario {
                name: String::wire_decode(buf)?,
            }),
            3 => Some(Reject::BadInput {
                detail: String::wire_decode(buf)?,
            }),
            4 => Some(Reject::Run(WireRunError::wire_decode(buf)?)),
            _ => None,
        }
    }
}

/// The server's answer to one [`Request`], matched up by `id`.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The [`Request::id`] this answers.
    pub id: u64,
    /// The run result (tag 0 = report, 1 = reject on the wire).
    pub outcome: Result<WireReport, Reject>,
}

impl Wire for Response {
    fn wire_bits(&self) -> u32 {
        self.id.wire_bits()
            + 8
            + match &self.outcome {
                Ok(report) => report.wire_bits(),
                Err(reject) => reject.wire_bits(),
            }
    }
    fn wire_encode(&self, out: &mut Vec<u8>) {
        self.id.wire_encode(out);
        match &self.outcome {
            Ok(report) => {
                0u8.wire_encode(out);
                report.wire_encode(out);
            }
            Err(reject) => {
                1u8.wire_encode(out);
                reject.wire_encode(out);
            }
        }
    }
    fn wire_decode(buf: &mut &[u8]) -> Option<Self> {
        let id = u64::wire_decode(buf)?;
        let outcome = match u8::wire_decode(buf)? {
            0 => Ok(WireReport::wire_decode(buf)?),
            1 => Err(Reject::wire_decode(buf)?),
            _ => return None,
        };
        Some(Response { id, outcome })
    }
}

/// Everything that can go wrong between [`crate::ServiceClient`] and the
/// server, as one typed error.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The server answered, declining the request.
    Rejected(Reject),
    /// The connection failed or the peer went away (dial failure, EOF
    /// mid-stream, liveness deadline expired).
    Disconnected {
        /// Human-readable cause.
        detail: String,
    },
    /// The peer violated the protocol (bad magic, version mismatch,
    /// malformed frame or payload).
    Protocol {
        /// Human-readable cause.
        detail: String,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Rejected(reject) => write!(f, "request rejected: {reject}"),
            ServiceError::Disconnected { detail } => write!(f, "service disconnected: {detail}"),
            ServiceError::Protocol { detail } => write!(f, "protocol violation: {detail}"),
        }
    }
}

impl Error for ServiceError {}

/// Appends a handshake frame (`sender` = [`PROTOCOL_VERSION`], payload =
/// [`PROTOCOL_MAGIC`]).
pub fn encode_hello(out: &mut Vec<u8>) {
    encode_frame(
        FrameKind::Hello,
        PROTOCOL_VERSION as usize,
        0,
        &PROTOCOL_MAGIC,
        out,
    );
}

/// Validates a received handshake frame, returning the peer's protocol
/// version.
///
/// # Errors
///
/// [`ServiceError::Protocol`] on a non-hello kind, wrong magic, or a
/// version this implementation does not speak.
pub fn check_hello(frame: &RawFrame) -> Result<u32, ServiceError> {
    if frame.kind != FrameKind::Hello {
        return Err(ServiceError::Protocol {
            detail: format!("expected hello frame, got {:?}", frame.kind),
        });
    }
    if frame.payload != PROTOCOL_MAGIC {
        return Err(ServiceError::Protocol {
            detail: format!("bad protocol magic {:?}", frame.payload),
        });
    }
    let version = frame.sender as u32;
    if version != PROTOCOL_VERSION {
        return Err(ServiceError::Protocol {
            detail: format!(
                "peer speaks protocol version {version}, this build speaks {PROTOCOL_VERSION}"
            ),
        });
    }
    Ok(version)
}

/// Appends a goodbye frame (no more frames from this sender).
pub fn encode_goodbye(out: &mut Vec<u8>) {
    encode_frame(FrameKind::EndRound, 0, 0, &[], out);
}

/// Appends a data frame carrying one [`Wire`]-encoded [`Request`].
pub fn encode_request(request: &Request, out: &mut Vec<u8>) {
    let mut payload = Vec::new();
    request.wire_encode(&mut payload);
    encode_frame(FrameKind::Data, 0, request.wire_bits(), &payload, out);
}

/// Appends a data frame carrying one [`Wire`]-encoded [`Response`].
pub fn encode_response(response: &Response, out: &mut Vec<u8>) {
    let mut payload = Vec::new();
    response.wire_encode(&mut payload);
    encode_frame(FrameKind::Data, 0, response.wire_bits(), &payload, out);
}

/// Decodes a data frame's payload as a [`Request`].
///
/// # Errors
///
/// [`ServiceError::Protocol`] on a non-data kind, a malformed or
/// partially-consumed payload, or a `declared_bits` header that disagrees
/// with the decoded value's [`Wire::wire_bits`].
pub fn decode_request(frame: &RawFrame) -> Result<Request, ServiceError> {
    decode_data(frame, "request")
}

/// Decodes a data frame's payload as a [`Response`]; same contract as
/// [`decode_request`].
///
/// # Errors
///
/// [`ServiceError::Protocol`], as for [`decode_request`].
pub fn decode_response(frame: &RawFrame) -> Result<Response, ServiceError> {
    decode_data(frame, "response")
}

fn decode_data<T: Wire>(frame: &RawFrame, what: &str) -> Result<T, ServiceError> {
    if frame.kind != FrameKind::Data {
        return Err(ServiceError::Protocol {
            detail: format!(
                "expected data frame carrying a {what}, got {:?}",
                frame.kind
            ),
        });
    }
    let mut view = frame.payload.as_slice();
    let value = T::wire_decode(&mut view).ok_or_else(|| ServiceError::Protocol {
        detail: format!("malformed {what} payload"),
    })?;
    if !view.is_empty() {
        return Err(ServiceError::Protocol {
            detail: format!("{what} payload carries {} trailing bytes", view.len()),
        });
    }
    if frame.declared_bits != value.wire_bits() {
        return Err(ServiceError::Protocol {
            detail: format!(
                "{what} declares {} bits but decodes to {} bits",
                frame.declared_bits,
                value.wire_bits()
            ),
        });
    }
    Ok(value)
}

/// One bounded socket read's outcome (see [`read_tick`]).
pub(crate) enum ReadEvent {
    /// This many bytes arrived and were pushed into the frame reader.
    Bytes(usize),
    /// The read timed out; check deadlines/flags and try again.
    Idle,
    /// The peer closed the stream.
    Eof,
}

/// Reads once from `stream` (bounded by its read timeout) into `reader` —
/// the one socket read the server and the client both use.
pub(crate) fn read_tick(
    stream: &mut TcpStream,
    reader: &mut FrameReader,
) -> Result<ReadEvent, ServiceError> {
    let mut buf = [0u8; 4096];
    match stream.read(&mut buf) {
        Ok(0) => Ok(ReadEvent::Eof),
        Ok(n) => {
            reader.push(&buf[..n]);
            Ok(ReadEvent::Bytes(n))
        }
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
            ) =>
        {
            Ok(ReadEvent::Idle)
        }
        Err(e) => Err(ServiceError::Disconnected {
            detail: format!("read failed: {e}"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcl_graphs::generators;
    use dcl_sim::transport::FrameReader;

    fn frame_of(bytes: &[u8]) -> RawFrame {
        let mut reader = FrameReader::new();
        reader.push(bytes);
        let frame = reader
            .next_frame()
            .expect("encoder output parses")
            .expect("one whole frame");
        assert_eq!(reader.pending_bytes(), 0, "exactly one frame encoded");
        frame
    }

    #[test]
    fn request_round_trips_through_its_frame() {
        let g = generators::gnp(12, 0.4, 3);
        let exec = ExecConfig::default()
            .with_backend(Backend::Parallel(2))
            .with_cap(BandwidthCap::new(96));
        let request = Request::for_graph(17, "congest", &g, &exec);
        let mut bytes = Vec::new();
        encode_request(&request, &mut bytes);
        let decoded = decode_request(&frame_of(&bytes)).expect("round trip");
        assert_eq!(decoded, request);
        let rebuilt = decoded.graph().expect("valid edge list");
        assert_eq!(rebuilt.n(), g.n());
        assert_eq!(rebuilt.m(), g.m());
        let back = decoded.exec.to_exec().expect("valid knobs");
        assert_eq!(back.backend, Backend::Parallel(2));
        assert_eq!(back.cap, Some(BandwidthCap::new(96)));
    }

    #[test]
    fn exec_spec_rejects_invalid_knobs_without_panicking() {
        let spec = ExecSpec {
            threads: None,
            cap_bits: Some(0),
        };
        assert!(spec.to_exec().is_err(), "zero cap must reject, not panic");
        assert_eq!(ExecSpec::default().to_exec(), Ok(ExecConfig::default()));
    }

    #[test]
    fn request_limits_reject_each_oversized_dimension_without_allocating() {
        let limits = RequestLimits::default();
        let ok = Request {
            id: 1,
            scenario: "congest".to_string(),
            n: 4,
            edges: vec![(0, 1), (1, 2)],
            exec: ExecSpec::default(),
        };
        assert_eq!(limits.check(&ok), Ok(()));

        // The allocation-amplifier case from the wire: a tiny payload
        // declaring an astronomical node count must bounce here, before
        // `Request::graph` can reach `vec![0; n]`.
        let mut huge_n = ok.clone();
        huge_n.n = 1 << 50;
        let err = limits.check(&huge_n).expect_err("oversized n rejects");
        assert!(err.contains("nodes"), "got: {err}");

        let tight = RequestLimits::default().with_max_edges(1);
        let err = tight.check(&ok).expect_err("oversized edge list rejects");
        assert!(err.contains("edges"), "got: {err}");

        let mut greedy = ok.clone();
        greedy.exec.threads = Some(u64::MAX);
        let err = limits.check(&greedy).expect_err("oversized threads reject");
        assert!(err.contains("threads"), "got: {err}");
        // `Some(0)` = one thread per server core — always in bounds.
        greedy.exec.threads = Some(0);
        assert_eq!(limits.check(&greedy), Ok(()));

        let loose = RequestLimits::default()
            .with_max_nodes(1 << 50)
            .with_max_threads(u64::MAX);
        assert_eq!(loose.check(&huge_n), Ok(()));
    }

    #[test]
    fn bad_graphs_reject_with_the_construction_error() {
        let request = Request {
            id: 1,
            scenario: "congest".to_string(),
            n: 2,
            edges: vec![(0, 0)],
            exec: ExecSpec::default(),
        };
        let err = request.graph().expect_err("self loop rejects");
        assert!(err.contains("self loop"), "got: {err}");
    }

    #[test]
    fn hello_handshake_validates_magic_and_version() {
        let mut bytes = Vec::new();
        encode_hello(&mut bytes);
        let frame = frame_of(&bytes);
        assert_eq!(check_hello(&frame), Ok(PROTOCOL_VERSION));

        let mut wrong_magic = frame.clone();
        wrong_magic.payload = b"XXXX".to_vec();
        assert!(matches!(
            check_hello(&wrong_magic),
            Err(ServiceError::Protocol { .. })
        ));

        let mut wrong_version = frame.clone();
        wrong_version.sender = PROTOCOL_VERSION as usize + 1;
        assert!(matches!(
            check_hello(&wrong_version),
            Err(ServiceError::Protocol { .. })
        ));

        let mut goodbye = Vec::new();
        encode_goodbye(&mut goodbye);
        assert!(matches!(
            check_hello(&frame_of(&goodbye)),
            Err(ServiceError::Protocol { .. })
        ));
    }

    #[test]
    fn response_decoder_rejects_lying_headers_and_trailing_bytes() {
        let response = Response {
            id: 4,
            outcome: Err(Reject::UnknownScenario {
                name: "nope".to_string(),
            }),
        };
        let mut bytes = Vec::new();
        encode_response(&response, &mut bytes);
        assert_eq!(decode_response(&frame_of(&bytes)).as_ref(), Ok(&response));

        let mut lying = frame_of(&bytes);
        lying.declared_bits += 1;
        assert!(matches!(
            decode_response(&lying),
            Err(ServiceError::Protocol { .. })
        ));

        let mut trailing = frame_of(&bytes);
        trailing.payload.push(0);
        assert!(matches!(
            decode_response(&trailing),
            Err(ServiceError::Protocol { .. })
        ));

        let mut hello = Vec::new();
        encode_hello(&mut hello);
        assert!(matches!(
            decode_response(&frame_of(&hello)),
            Err(ServiceError::Protocol { .. })
        ));
    }
}
