//! The byte transport under [`RoundEngine`](crate::RoundEngine).
//!
//! Two tiers carry a round's messages (`DESIGN.md` §7):
//!
//! - [`TransportSpec::Local`] — the reference: the engine's zero-copy
//!   sender-order inbox merge, with no transport object and no
//!   serialization at all;
//! - [`TransportSpec::Tcp`] — a [`TcpTransport`] moving length-prefixed
//!   [`Frame`]s between the `n` endpoints over real localhost sockets, with
//!   lazy dialing and end-of-round markers.
//!
//! The determinism contract: after a round of `send` calls in sender order,
//! [`TcpTransport::finish_round`] returns per-recipient frame lists *sorted
//! by sender with per-link FIFO order* — exactly the order of the engine's
//! sequential inbox merge — and under [`SendPolicy::Strict`] it enforces the
//! [`BandwidthCap`] on the frame's *declared model bits* with the simulated
//! tier's exact assertion wording, so an oversend classifies as the same
//! typed budget error on either tier. Actual bytes on the wire are
//! *metered* (in [`TransportStats`]) rather than gated: any self-delimiting
//! codec pays `O(1)` bits of overhead per value over the
//! information-theoretic widths the cost model charges, so gating physical
//! bytes would panic where the simulated tier does not and break the
//! oracle.

use crate::cap::BandwidthCap;
use crate::deadline::{park_tick, Deadline};
use crate::engine::SendPolicy;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

/// Which transport tier a round engine ships frames over.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum TransportSpec {
    /// In-memory inboxes — the reference tier and the default.
    #[default]
    Local,
    /// Real localhost TCP sockets with length-prefixed framing.
    Tcp,
}

impl TransportSpec {
    /// Stable lower-case name ("local" / "tcp") used in sweep tables and CI
    /// artifacts.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TransportSpec::Local => "local",
            TransportSpec::Tcp => "tcp",
        }
    }

    /// Both tiers, Local first (the reference).
    #[must_use]
    pub fn all() -> [TransportSpec; 2] {
        [TransportSpec::Local, TransportSpec::Tcp]
    }
}

impl std::fmt::Display for TransportSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A typed transport failure. Raised out of the engine's infallible round
/// APIs via `std::panic::panic_any` and re-caught losslessly by
/// `dcl_runner::run_protected` as `RunError::Transport`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// A peer is gone: dialing failed, a stream broke mid-round, or a read
    /// deadline expired. When the far peer's identity is unknown (an accept
    /// that never arrived), `from` and `to` both name the local endpoint.
    Disconnected {
        /// Sending endpoint of the broken link.
        from: usize,
        /// Receiving endpoint of the broken link.
        to: usize,
        /// Human-readable cause (OS error, timeout, …).
        detail: String,
    },
    /// The byte stream violated the framing protocol (bad frame kind,
    /// oversized length prefix, undecodable payload).
    Protocol {
        /// Human-readable description of the violation.
        detail: String,
    },
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Disconnected { from, to, detail } => {
                write!(f, "transport link {from} -> {to} disconnected: {detail}")
            }
            TransportError::Protocol { detail } => {
                write!(f, "transport protocol violation: {detail}")
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// The per-round limits a transport enforces and meters against.
#[derive(Debug, Clone, Copy)]
pub struct RoundLimits {
    /// Per-message bandwidth cap, if the model has one this round.
    pub cap: Option<BandwidthCap>,
    /// Whether oversized payloads are violations ([`SendPolicy::Strict`])
    /// or fragment logically ([`SendPolicy::Fragment`]).
    pub policy: SendPolicy,
    /// Model name used in the budget assertion ("CONGEST", "clique", …).
    pub model: &'static str,
}

impl Default for RoundLimits {
    fn default() -> Self {
        RoundLimits {
            cap: None,
            policy: SendPolicy::Strict,
            model: "transport",
        }
    }
}

/// One transported message: the payload's byte encoding plus the model
/// bit-width the cost tier charged for it (the quantity the cap gates).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// `Wire::wire_bits` of the payload — what the bandwidth cap meters.
    pub declared_bits: u32,
    /// The payload's `Wire::wire_encode` bytes.
    pub payload: Vec<u8>,
}

/// Physical-layer counters a transport accumulates across its lifetime.
///
/// `frames`, `payload_bytes` and `packets` are functions of the delivered
/// messages alone (the equivalence suites recompute them from the inboxes);
/// `wire_bytes` additionally counts the framing overhead — a frame header
/// per data frame plus the hello and end-of-round marker frames.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Data frames sent.
    pub frames: u64,
    /// Payload bytes sent (codec output, excluding frame headers).
    pub payload_bytes: u64,
    /// Total bytes handed to the wire, including framing overhead.
    pub wire_bytes: u64,
    /// MTU-sized packets the payloads occupy, where the MTU is the cap
    /// rounded up to whole bytes (one packet per frame when uncapped) —
    /// the physical analogue of the cost model's fragment count.
    pub packets: u64,
}

/// Byte length of a frame header: `[len: u32][kind: u8][sender: u32]
/// [declared_bits: u32]` (the length prefix counts the bytes after itself).
pub const FRAME_HEADER_BYTES: usize = 4 + 1 + 4 + 4;

/// Frames larger than this are a protocol violation — a corrupt length
/// prefix must not trigger an unbounded allocation.
const MAX_FRAME_BYTES: usize = 1 << 26;

/// Frame discriminator on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// An application payload.
    Data,
    /// End-of-round marker: the sender has no more frames this round.
    EndRound,
    /// Link handshake: announces the dialing endpoint's index.
    Hello,
}

impl FrameKind {
    fn as_u8(self) -> u8 {
        match self {
            FrameKind::Data => 0,
            FrameKind::EndRound => 1,
            FrameKind::Hello => 2,
        }
    }

    fn from_u8(byte: u8) -> Option<FrameKind> {
        match byte {
            0 => Some(FrameKind::Data),
            1 => Some(FrameKind::EndRound),
            2 => Some(FrameKind::Hello),
            _ => None,
        }
    }
}

/// A decoded wire frame, header fields included.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawFrame {
    /// Frame discriminator.
    pub kind: FrameKind,
    /// Index of the sending endpoint.
    pub sender: usize,
    /// Declared model bit-width of the payload.
    pub declared_bits: u32,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

/// Appends the wire encoding of one frame to `out`:
/// `[len: u32 LE][kind: u8][sender: u32 LE][declared_bits: u32 LE][payload]`.
pub fn encode_frame(
    kind: FrameKind,
    sender: usize,
    declared_bits: u32,
    payload: &[u8],
    out: &mut Vec<u8>,
) {
    let len = (1 + 4 + 4 + payload.len()) as u32;
    out.extend_from_slice(&len.to_le_bytes());
    out.push(kind.as_u8());
    out.extend_from_slice(&(sender as u32).to_le_bytes());
    out.extend_from_slice(&declared_bits.to_le_bytes());
    out.extend_from_slice(payload);
}

/// Incremental frame parser: bytes go in at arbitrary split boundaries
/// (partial reads, coalesced TCP segments), whole frames come out. The
/// reassembly identity — `encode → split anywhere → push → next_frame` is
/// lossless — is property-tested in `crates/sim/tests/proptest_wire.rs`.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameReader {
    /// A reader with an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Appends raw bytes received from the wire.
    pub fn push(&mut self, bytes: &[u8]) {
        // Drop the consumed prefix before it grows unboundedly.
        if self.pos > 4096 && self.pos * 2 > self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Number of buffered, not-yet-parsed bytes.
    #[must_use]
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Extracts the next complete frame, or `Ok(None)` if more bytes are
    /// needed. A malformed header (unknown kind, oversized or undersized
    /// length prefix) is a [`TransportError::Protocol`].
    pub fn next_frame(&mut self) -> Result<Option<RawFrame>, TransportError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().expect("4 bytes checked")) as usize;
        if !(9..=MAX_FRAME_BYTES).contains(&len) {
            return Err(TransportError::Protocol {
                detail: format!("frame length prefix {len} outside [9, {MAX_FRAME_BYTES}]"),
            });
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let body = &avail[4..4 + len];
        let kind = FrameKind::from_u8(body[0]).ok_or_else(|| TransportError::Protocol {
            detail: format!("unknown frame kind {}", body[0]),
        })?;
        let sender = u32::from_le_bytes(body[1..5].try_into().expect("4 bytes")) as usize;
        let declared_bits = u32::from_le_bytes(body[5..9].try_into().expect("4 bytes"));
        let payload = body[9..].to_vec();
        self.pos += 4 + len;
        Ok(Some(RawFrame {
            kind,
            sender,
            declared_bits,
            payload,
        }))
    }
}

/// Enforces the round's cap on declared bits (Strict only, identical
/// wording to `SimMetrics::account`) and meters the frame.
fn meter_send(stats: &mut TransportStats, limits: &RoundLimits, frame: &Frame) {
    if limits.policy == SendPolicy::Strict {
        if let Some(cap) = limits.cap {
            let bits = frame.declared_bits;
            assert!(
                cap.fits(bits),
                "message of {bits} bits exceeds {} cap of {} bits",
                limits.model,
                cap.bits()
            );
        }
    }
    let mtu = limits
        .cap
        .map(|cap| (cap.bits() as usize).div_ceil(8).max(1));
    let packets = match mtu {
        Some(mtu) => frame.payload.len().div_ceil(mtu).max(1),
        None => 1,
    };
    stats.frames += 1;
    stats.payload_bytes += frame.payload.len() as u64;
    stats.wire_bytes += (FRAME_HEADER_BYTES + frame.payload.len()) as u64;
    stats.packets += packets as u64;
}

/// How long socket accepts and reads may block before the transport gives
/// up and reports [`TransportError::Disconnected`] — the "never a hang"
/// half of the fault contract.
const TCP_DEADLINE: Duration = Duration::from_secs(10);

/// The socket tier: one localhost listener per endpoint, links dialed
/// lazily on first use (announced by a [`FrameKind::Hello`] frame), and a
/// [`FrameKind::EndRound`] marker on every established link each round so
/// receivers know when a link is drained without global knowledge.
///
/// Contract (pinned by `crates/sim/tests/transport_equivalence.rs`):
///
/// 1. A round is [`begin_round`](Self::begin_round), then any number of
///    [`send`](Self::send) calls, then one
///    [`finish_round`](Self::finish_round).
/// 2. `finish_round` returns one frame list per recipient, **sorted by
///    sender with per-link FIFO order** — the order of the engine's
///    sequential inbox merge, making delivery bit-identical to
///    [`TransportSpec::Local`].
/// 3. Under [`SendPolicy::Strict`] with a cap, `send` enforces the cap on
///    the frame's `declared_bits` with the simulated tier's exact
///    assertion wording (so the failure classifies as the same typed
///    budget error); physical bytes are metered in [`TransportStats`],
///    never gated.
/// 4. A broken or closed peer surfaces as `Err(TransportError)` — never a
///    hang (socket reads and accepts carry deadlines).
#[derive(Debug)]
pub struct TcpTransport {
    n: usize,
    limits: RoundLimits,
    addrs: Vec<SocketAddr>,
    listeners: Vec<Option<TcpListener>>,
    /// `outgoing[from]` maps recipient -> established stream.
    outgoing: Vec<BTreeMap<usize, TcpStream>>,
    /// `incoming[to]` maps sender -> (stream, reassembler); `BTreeMap`
    /// iteration gives the sorted-by-sender delivery order for free.
    incoming: Vec<BTreeMap<usize, (TcpStream, FrameReader)>>,
    /// Dials issued but not yet accepted, per dialed endpoint.
    pending_accepts: Vec<usize>,
    dead: Vec<bool>,
    stats: TransportStats,
}

impl TcpTransport {
    /// Binds `n` localhost listeners (ephemeral ports).
    ///
    /// # Panics
    ///
    /// Panics if a listener cannot bind — the loopback interface is a
    /// precondition of the socket tier.
    #[must_use]
    pub fn new(n: usize) -> Self {
        let mut addrs = Vec::with_capacity(n);
        let mut listeners = Vec::with_capacity(n);
        for v in 0..n {
            let listener = TcpListener::bind("127.0.0.1:0")
                .unwrap_or_else(|e| panic!("binding listener for endpoint {v}: {e}"));
            listener
                .set_nonblocking(true)
                .expect("nonblocking accept mode");
            addrs.push(
                listener
                    .local_addr()
                    .expect("bound listener has an address"),
            );
            listeners.push(Some(listener));
        }
        TcpTransport {
            n,
            limits: RoundLimits::default(),
            addrs,
            listeners,
            outgoing: (0..n).map(|_| BTreeMap::new()).collect(),
            incoming: (0..n).map(|_| BTreeMap::new()).collect(),
            pending_accepts: vec![0; n],
            dead: vec![false; n],
            stats: TransportStats::default(),
        }
    }

    /// Number of endpoints.
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// Starts a round under the given limits.
    pub fn begin_round(&mut self, limits: &RoundLimits) {
        self.limits = *limits;
    }

    /// Ships one frame from endpoint `from` to endpoint `to`, dialing the
    /// link on its first frame. A closed endpoint or a failed dial or
    /// write is [`TransportError::Disconnected`].
    ///
    /// # Panics
    ///
    /// Panics with the model's budget assertion if the frame's declared
    /// bits exceed the round's cap under [`SendPolicy::Strict`].
    pub fn send(&mut self, from: usize, to: usize, frame: Frame) -> Result<(), TransportError> {
        assert!(to < self.n, "recipient {to} out of range");
        if self.dead[from] || self.dead[to] {
            let closed = if self.dead[from] { from } else { to };
            return Err(TransportError::Disconnected {
                from,
                to,
                detail: format!("endpoint {closed} is closed"),
            });
        }
        self.ensure_link(from, to)?;
        meter_send(&mut self.stats, &self.limits, &frame);
        let mut bytes = Vec::with_capacity(FRAME_HEADER_BYTES + frame.payload.len());
        encode_frame(
            FrameKind::Data,
            from,
            frame.declared_bits,
            &frame.payload,
            &mut bytes,
        );
        let stream = self.outgoing[from]
            .get_mut(&to)
            .expect("link established above");
        stream
            .write_all(&bytes)
            .map_err(|e| TransportError::Disconnected {
                from,
                to,
                detail: format!("write failed: {e}"),
            })
    }

    /// Completes the round and returns the per-recipient `(sender, frame)`
    /// lists, sorted by sender with per-link FIFO order.
    pub fn finish_round(&mut self) -> Result<Vec<Vec<(usize, Frame)>>, TransportError> {
        // End-of-round markers on every established link, after all data
        // writes — receivers drain each link up to its marker.
        for from in 0..self.n {
            if self.dead[from] {
                continue;
            }
            let mut marker = Vec::with_capacity(FRAME_HEADER_BYTES);
            encode_frame(FrameKind::EndRound, from, 0, &[], &mut marker);
            for (&to, stream) in &mut self.outgoing[from] {
                stream
                    .write_all(&marker)
                    .map_err(|e| TransportError::Disconnected {
                        from,
                        to,
                        detail: format!("end-of-round write failed: {e}"),
                    })?;
                self.stats.wire_bytes += marker.len() as u64;
            }
        }
        self.accept_pending()?;
        let mut out: Vec<Vec<(usize, Frame)>> = (0..self.n).map(|_| Vec::new()).collect();
        for (to, inbox) in out.iter_mut().enumerate() {
            // BTreeMap iteration is sender-ascending: the contract's order.
            for (&from, (stream, reader)) in &mut self.incoming[to] {
                loop {
                    let raw = read_one_frame(stream, reader, from, to)?;
                    match raw.kind {
                        FrameKind::EndRound => break,
                        FrameKind::Data => {
                            if raw.sender != from {
                                return Err(TransportError::Protocol {
                                    detail: format!(
                                        "frame from sender {} on the {from} -> {to} link",
                                        raw.sender
                                    ),
                                });
                            }
                            inbox.push((
                                from,
                                Frame {
                                    declared_bits: raw.declared_bits,
                                    payload: raw.payload,
                                },
                            ));
                        }
                        FrameKind::Hello => {
                            return Err(TransportError::Protocol {
                                detail: "hello frame on an established link".to_string(),
                            });
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// Lifetime physical-layer counters.
    #[must_use]
    pub fn stats(&self) -> &TransportStats {
        &self.stats
    }

    /// Fault injection: tears down endpoint `v` (drops its listener and
    /// every link touching it), so subsequent traffic involving `v` fails
    /// with [`TransportError::Disconnected`].
    pub fn close_endpoint(&mut self, v: usize) {
        self.dead[v] = true;
        self.listeners[v] = None;
        self.outgoing[v].clear();
        self.incoming[v].clear();
        self.pending_accepts[v] = 0;
        for links in &mut self.outgoing {
            links.remove(&v);
        }
        for links in &mut self.incoming {
            links.remove(&v);
        }
    }

    /// Establishes the `from -> to` stream if it does not exist yet,
    /// sending the hello handshake and registering the pending accept.
    fn ensure_link(&mut self, from: usize, to: usize) -> Result<(), TransportError> {
        if self.outgoing[from].contains_key(&to) {
            return Ok(());
        }
        let stream =
            TcpStream::connect(self.addrs[to]).map_err(|e| TransportError::Disconnected {
                from,
                to,
                detail: format!("dial failed: {e}"),
            })?;
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(Some(TCP_DEADLINE))
            .expect("read timeout is supported on TCP streams");
        let mut hello = Vec::with_capacity(FRAME_HEADER_BYTES);
        encode_frame(FrameKind::Hello, from, 0, &[], &mut hello);
        let mut stream = stream;
        stream
            .write_all(&hello)
            .map_err(|e| TransportError::Disconnected {
                from,
                to,
                detail: format!("hello write failed: {e}"),
            })?;
        self.stats.wire_bytes += hello.len() as u64;
        self.outgoing[from].insert(to, stream);
        self.pending_accepts[to] += 1;
        Ok(())
    }

    /// Accepts every pending dial, learning each link's sender from its
    /// hello frame. Bounded by [`TCP_DEADLINE`] per endpoint.
    fn accept_pending(&mut self) -> Result<(), TransportError> {
        for to in 0..self.n {
            while self.pending_accepts[to] > 0 {
                let listener =
                    self.listeners[to]
                        .as_ref()
                        .ok_or_else(|| TransportError::Disconnected {
                            from: to,
                            to,
                            detail: "listener closed with dials pending".to_string(),
                        })?;
                let deadline = Deadline::after(TCP_DEADLINE);
                let stream = loop {
                    match listener.accept() {
                        Ok((stream, _)) => break stream,
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            if deadline.expired() {
                                return Err(TransportError::Disconnected {
                                    from: to,
                                    to,
                                    detail: "accept deadline expired".to_string(),
                                });
                            }
                            park_tick();
                        }
                        Err(e) => {
                            return Err(TransportError::Disconnected {
                                from: to,
                                to,
                                detail: format!("accept failed: {e}"),
                            });
                        }
                    }
                };
                stream
                    .set_nonblocking(false)
                    .expect("accepted stream supports blocking mode");
                stream
                    .set_read_timeout(Some(TCP_DEADLINE))
                    .expect("read timeout is supported on TCP streams");
                let mut reader = FrameReader::new();
                let mut stream = stream;
                let hello = read_one_frame(&mut stream, &mut reader, to, to)?;
                if hello.kind != FrameKind::Hello {
                    return Err(TransportError::Protocol {
                        detail: format!("expected hello on new link, got {:?}", hello.kind),
                    });
                }
                let from = hello.sender;
                if from >= self.n {
                    return Err(TransportError::Protocol {
                        detail: format!("hello announces out-of-range sender {from}"),
                    });
                }
                self.incoming[to].insert(from, (stream, reader));
                self.pending_accepts[to] -= 1;
            }
        }
        Ok(())
    }
}

/// Blocks (up to the stream's read timeout) until one complete frame is
/// available on `stream`, reassembling across partial reads.
fn read_one_frame(
    stream: &mut TcpStream,
    reader: &mut FrameReader,
    from: usize,
    to: usize,
) -> Result<RawFrame, TransportError> {
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(frame) = reader.next_frame()? {
            return Ok(frame);
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(TransportError::Disconnected {
                    from,
                    to,
                    detail: "peer closed the stream".to_string(),
                });
            }
            Ok(k) => reader.push(&chunk[..k]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Err(TransportError::Disconnected {
                    from,
                    to,
                    detail: "read deadline expired".to_string(),
                });
            }
            Err(e) => {
                return Err(TransportError::Disconnected {
                    from,
                    to,
                    detail: format!("read failed: {e}"),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(bits: u32, payload: &[u8]) -> Frame {
        Frame {
            declared_bits: bits,
            payload: payload.to_vec(),
        }
    }

    fn drive_round(transport: &mut TcpTransport) -> Vec<Vec<(usize, Frame)>> {
        transport.begin_round(&RoundLimits {
            cap: Some(BandwidthCap::new(16)),
            policy: SendPolicy::Strict,
            model: "test",
        });
        // Deliberately out of sender order: 2 before 0.
        transport.send(2, 1, frame(8, &[0xAA])).unwrap();
        transport.send(0, 1, frame(4, &[0x01])).unwrap();
        transport.send(0, 1, frame(5, &[0x02])).unwrap();
        transport.send(1, 0, frame(16, &[0x10, 0x20])).unwrap();
        transport.finish_round().unwrap()
    }

    fn expected_inboxes() -> Vec<Vec<(usize, Frame)>> {
        vec![
            vec![(1, frame(16, &[0x10, 0x20]))],
            vec![
                (0, frame(4, &[0x01])),
                (0, frame(5, &[0x02])),
                (2, frame(8, &[0xAA])),
            ],
            vec![],
        ]
    }

    #[test]
    fn tcp_delivers_sorted_by_sender_with_link_fifo() {
        let mut transport = TcpTransport::new(3);
        assert_eq!(drive_round(&mut transport), expected_inboxes());
        let stats = transport.stats();
        assert_eq!(stats.frames, 4);
        assert_eq!(stats.payload_bytes, 5);
        assert_eq!(stats.packets, 4);
    }

    #[test]
    fn empty_rounds_and_multiple_rounds_work() {
        let mut transport = TcpTransport::new(2);
        for round in 0..3 {
            transport.begin_round(&RoundLimits::default());
            if round == 1 {
                transport.send(0, 1, frame(3, &[round])).unwrap();
            }
            let inboxes = transport.finish_round().unwrap();
            if round == 1 {
                assert_eq!(inboxes[1], vec![(0, frame(3, &[1]))]);
            } else {
                assert!(inboxes.iter().all(Vec::is_empty));
            }
        }
    }

    #[test]
    fn strict_cap_violation_uses_the_budget_wording() {
        let mut transport = TcpTransport::new(2);
        transport.begin_round(&RoundLimits {
            cap: Some(BandwidthCap::new(8)),
            policy: SendPolicy::Strict,
            model: "CONGEST",
        });
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = transport.send(0, 1, frame(9, &[0xFF, 0x01]));
        }))
        .unwrap_err();
        let message = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert_eq!(message, "message of 9 bits exceeds CONGEST cap of 8 bits");
    }

    #[test]
    fn fragment_policy_ships_oversized_frames_and_meters_packets() {
        let mut transport = TcpTransport::new(2);
        transport.begin_round(&RoundLimits {
            cap: Some(BandwidthCap::new(8)),
            policy: SendPolicy::Fragment,
            model: "CONGEST",
        });
        // 24 declared bits at an 8-bit cap: 3 logical fragments; the
        // 3-byte payload at a 1-byte MTU: 3 physical packets.
        transport.send(0, 1, frame(24, &[1, 2, 3])).unwrap();
        let inboxes = transport.finish_round().unwrap();
        assert_eq!(inboxes[1], vec![(0, frame(24, &[1, 2, 3]))]);
        assert_eq!(transport.stats().packets, 3);
    }

    #[test]
    fn tcp_closed_endpoint_errors_instead_of_hanging() {
        let mut transport = TcpTransport::new(3);
        transport.begin_round(&RoundLimits::default());
        transport.send(0, 1, frame(1, &[0])).unwrap();
        let _ = transport.finish_round().unwrap();
        transport.close_endpoint(1);
        transport.begin_round(&RoundLimits::default());
        // Sending to the closed endpoint fails fast and typed.
        let err = transport.send(0, 1, frame(1, &[0])).unwrap_err();
        assert!(matches!(
            err,
            TransportError::Disconnected { from: 0, to: 1, .. }
        ));
        // Sending from the closed endpoint fails too.
        let err = transport.send(1, 2, frame(1, &[0])).unwrap_err();
        assert!(matches!(err, TransportError::Disconnected { .. }));
        // A fresh dial to the dropped listener is refused, not hung.
        let mut other = TcpTransport::new(2);
        other.begin_round(&RoundLimits::default());
        other.addrs[1] = transport.addrs[1];
        let err = other.send(0, 1, frame(1, &[0])).unwrap_err();
        assert!(matches!(err, TransportError::Disconnected { .. }), "{err}");
    }

    #[test]
    fn frame_reader_handles_arbitrary_split_boundaries() {
        let mut bytes = Vec::new();
        encode_frame(FrameKind::Data, 7, 12, &[1, 2, 3, 4], &mut bytes);
        encode_frame(FrameKind::EndRound, 7, 0, &[], &mut bytes);
        for split in 0..=bytes.len() {
            let mut reader = FrameReader::new();
            reader.push(&bytes[..split]);
            let mut frames = Vec::new();
            while let Some(f) = reader.next_frame().unwrap() {
                frames.push(f);
            }
            reader.push(&bytes[split..]);
            while let Some(f) = reader.next_frame().unwrap() {
                frames.push(f);
            }
            assert_eq!(frames.len(), 2, "split at {split}");
            assert_eq!(frames[0].kind, FrameKind::Data);
            assert_eq!(frames[0].sender, 7);
            assert_eq!(frames[0].declared_bits, 12);
            assert_eq!(frames[0].payload, vec![1, 2, 3, 4]);
            assert_eq!(frames[1].kind, FrameKind::EndRound);
            assert_eq!(reader.pending_bytes(), 0);
        }
    }

    #[test]
    fn frame_reader_rejects_corrupt_headers() {
        // Undersized length prefix.
        let mut reader = FrameReader::new();
        reader.push(&3u32.to_le_bytes());
        assert!(matches!(
            reader.next_frame(),
            Err(TransportError::Protocol { .. })
        ));
        // Unknown frame kind.
        let mut reader = FrameReader::new();
        let mut bytes = Vec::new();
        encode_frame(FrameKind::Data, 0, 0, &[], &mut bytes);
        bytes[4] = 99;
        reader.push(&bytes);
        assert!(matches!(
            reader.next_frame(),
            Err(TransportError::Protocol { .. })
        ));
        // Oversized length prefix.
        let mut reader = FrameReader::new();
        reader.push(&u32::MAX.to_le_bytes());
        assert!(matches!(
            reader.next_frame(),
            Err(TransportError::Protocol { .. })
        ));
    }

    #[test]
    fn spec_round_trips_names_and_default() {
        assert_eq!(TransportSpec::default(), TransportSpec::Local);
        for spec in TransportSpec::all() {
            assert_eq!(spec.to_string(), spec.name());
        }
        assert_eq!(
            TransportSpec::all().map(TransportSpec::name),
            ["local", "tcp"]
        );
    }

    #[test]
    fn transport_error_displays_and_sources() {
        let err = TransportError::Disconnected {
            from: 1,
            to: 2,
            detail: "gone".to_string(),
        };
        assert_eq!(err.to_string(), "transport link 1 -> 2 disconnected: gone");
        let err: Box<dyn std::error::Error> = Box::new(TransportError::Protocol {
            detail: "bad".to_string(),
        });
        assert_eq!(err.to_string(), "transport protocol violation: bad");
    }
}
