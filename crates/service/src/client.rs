//! The service client: one TCP connection, pipelined request ids, typed
//! errors.
//!
//! [`ServiceClient::color`] is the one-call path (submit + wait); the
//! [`ServiceClient::submit`] / [`ServiceClient::wait`] pair pipelines many
//! requests onto the same connection — the server answers them as its
//! worker shards finish, in any order, and the client files responses by
//! id until asked for them. [`ServiceClient::close`] says goodbye and waits
//! for the server's drain-complete goodbye, so a clean close proves every
//! admitted request was answered.

use crate::proto::{
    check_hello, decode_response, encode_goodbye, encode_hello, encode_request, read_tick,
    ReadEvent, Reject, Request, Response, ServiceError,
};
use dcl_graphs::Graph;
use dcl_runner::WireReport;
use dcl_sim::deadline::Deadline;
use dcl_sim::transport::{FrameKind, FrameReader};
use dcl_sim::ExecConfig;
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// How long a socket read blocks before the wait loop re-checks its
/// deadline.
const READ_TICK: Duration = Duration::from_millis(10);

/// Liveness bound on the handshake.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// Liveness bound on waiting for one response (covers the server's queue
/// time plus the run itself).
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(120);

/// Byte and message counters for one client connection. Totals are
/// deterministic for a fixed request sequence (both sides' encoders are) —
/// the E15 service-overhead table is built from them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Requests submitted.
    pub requests: u64,
    /// Responses received (and parsed).
    pub responses: u64,
    /// Bytes written to the socket, framing included (handshake +
    /// requests).
    pub bytes_sent: u64,
    /// Bytes read from the socket, framing included (handshake +
    /// responses).
    pub bytes_received: u64,
}

/// A connected service client.
#[derive(Debug)]
pub struct ServiceClient {
    stream: TcpStream,
    reader: FrameReader,
    next_id: u64,
    /// Responses that arrived while waiting for a different id, filed by
    /// id until their `wait` call (sorted map — no hash-order iteration in
    /// determinism-tier code). Each id holds a queue in arrival order:
    /// [`ServiceClient::submit_request`] supports reusing an id, so two
    /// responses to the same id must both survive until their `wait`s.
    ready: BTreeMap<u64, VecDeque<Result<WireReport, Reject>>>,
    stats: ClientStats,
    server_version: u32,
    /// Set once the server's goodbye frame arrives; no more responses will
    /// come.
    server_done: bool,
}

impl ServiceClient {
    /// Dials the server and runs the version handshake.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Disconnected`] if the dial or socket setup fails,
    /// [`ServiceError::Protocol`] if the server speaks a different
    /// protocol.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<ServiceClient, ServiceError> {
        let fail = |what: &'static str| {
            move |e: io::Error| ServiceError::Disconnected {
                detail: format!("{what}: {e}"),
            }
        };
        let stream = TcpStream::connect(addr).map_err(fail("connect"))?;
        stream.set_nodelay(true).map_err(fail("set_nodelay"))?;
        stream
            .set_read_timeout(Some(READ_TICK))
            .map_err(fail("set_read_timeout"))?;
        let mut client = ServiceClient {
            stream,
            reader: FrameReader::new(),
            next_id: 0,
            ready: BTreeMap::new(),
            stats: ClientStats::default(),
            server_version: 0,
            server_done: false,
        };
        let mut out = Vec::new();
        encode_hello(&mut out);
        client.write_bytes(&out)?;
        let deadline = Deadline::after(HANDSHAKE_TIMEOUT);
        let frame = loop {
            if let Some(frame) = client.parse_frame()? {
                break frame;
            }
            client.read_tick(&deadline, "server sent no hello")?;
        };
        client.server_version = check_hello(&frame)?;
        Ok(client)
    }

    /// The protocol version the server announced in its handshake.
    #[must_use]
    pub fn server_version(&self) -> u32 {
        self.server_version
    }

    /// Connection counters so far.
    #[must_use]
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Submits one request with a fresh pipelined id; returns the id to
    /// [`wait`](ServiceClient::wait) on.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Disconnected`] if the write fails.
    pub fn submit(
        &mut self,
        scenario: &str,
        graph: &Graph,
        exec: &ExecConfig,
    ) -> Result<u64, ServiceError> {
        let id = self.next_id;
        self.next_id += 1;
        self.submit_request(&Request::for_graph(id, scenario, graph, exec))?;
        Ok(id)
    }

    /// Submits a caller-built [`Request`] verbatim (id included) — the
    /// determinism tests use this to send the *same* request twice.
    /// Reused ids are fully supported: their responses are filed in
    /// arrival order, one per [`wait`](ServiceClient::wait) call.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Disconnected`] if the write fails.
    pub fn submit_request(&mut self, request: &Request) -> Result<(), ServiceError> {
        let mut out = Vec::new();
        encode_request(request, &mut out);
        self.write_bytes(&out)?;
        self.stats.requests += 1;
        self.next_id = self.next_id.max(request.id + 1);
        Ok(())
    }

    /// Waits for the response to `id`, filing any other responses that
    /// arrive first.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Rejected`] when the server declined the request,
    /// [`ServiceError::Disconnected`] /[`ServiceError::Protocol`] on
    /// connection or protocol failures.
    pub fn wait(&mut self, id: u64) -> Result<WireReport, ServiceError> {
        let deadline = Deadline::after(RESPONSE_TIMEOUT);
        loop {
            if let Some(outcome) = self.take_ready(id) {
                return outcome.map_err(ServiceError::Rejected);
            }
            if self.server_done {
                return Err(ServiceError::Disconnected {
                    detail: format!("server said goodbye before answering request {id}"),
                });
            }
            self.pump(&deadline, "no response before the client deadline")?;
        }
    }

    /// Submit + wait in one call.
    ///
    /// # Errors
    ///
    /// As for [`submit`](ServiceClient::submit) and
    /// [`wait`](ServiceClient::wait).
    pub fn color(
        &mut self,
        graph: &Graph,
        scenario: &str,
        exec: &ExecConfig,
    ) -> Result<WireReport, ServiceError> {
        let id = self.submit(scenario, graph, exec)?;
        self.wait(id)
    }

    /// Says goodbye and waits for the server's drain-complete goodbye,
    /// returning the final counters. Consumes the client; a clean return
    /// proves the server answered everything it admitted on this
    /// connection.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Disconnected`] /[`ServiceError::Protocol`] if the
    /// connection or protocol fails before the server's goodbye.
    pub fn close(mut self) -> Result<ClientStats, ServiceError> {
        let mut out = Vec::new();
        encode_goodbye(&mut out);
        self.write_bytes(&out)?;
        let deadline = Deadline::after(RESPONSE_TIMEOUT);
        // Responses to requests nobody waited on are counted and filed like
        // any other.
        while !self.server_done {
            self.pump(&deadline, "server never said goodbye")?;
        }
        Ok(self.stats)
    }

    /// Handles the next buffered frame — files a response or notes the
    /// server's goodbye — or, with none buffered, reads once more.
    fn pump(&mut self, deadline: &Deadline, context: &str) -> Result<(), ServiceError> {
        let Some(frame) = self.parse_frame()? else {
            return self.read_tick(deadline, context);
        };
        match frame.kind {
            FrameKind::Data => self.file_response(decode_response(&frame)?),
            FrameKind::EndRound => self.server_done = true,
            FrameKind::Hello => {
                return Err(ServiceError::Protocol {
                    detail: "unexpected hello after the handshake".to_string(),
                })
            }
        }
        Ok(())
    }

    /// Counts and files one received response under its id, behind any
    /// earlier unclaimed response to the same id.
    fn file_response(&mut self, response: Response) {
        self.stats.responses += 1;
        self.ready
            .entry(response.id)
            .or_default()
            .push_back(response.outcome);
    }

    /// Pops the oldest filed response for `id`, dropping the id's queue
    /// once empty.
    fn take_ready(&mut self, id: u64) -> Option<Result<WireReport, Reject>> {
        let queue = self.ready.get_mut(&id)?;
        let outcome = queue.pop_front();
        if queue.is_empty() {
            self.ready.remove(&id);
        }
        outcome
    }

    fn write_bytes(&mut self, bytes: &[u8]) -> Result<(), ServiceError> {
        self.stream
            .write_all(bytes)
            .map_err(|e| ServiceError::Disconnected {
                detail: format!("write failed: {e}"),
            })?;
        self.stats.bytes_sent += bytes.len() as u64;
        Ok(())
    }

    /// Pulls the next whole frame out of the reassembly buffer, if one is
    /// already there.
    fn parse_frame(&mut self) -> Result<Option<dcl_sim::transport::RawFrame>, ServiceError> {
        self.reader
            .next_frame()
            .map_err(|e| ServiceError::Protocol {
                detail: e.to_string(),
            })
    }

    /// One bounded read into the reassembly buffer; `context` names what
    /// we were waiting for if the deadline expires.
    fn read_tick(&mut self, deadline: &Deadline, context: &str) -> Result<(), ServiceError> {
        if deadline.expired() {
            return Err(ServiceError::Disconnected {
                detail: context.to_string(),
            });
        }
        match read_tick(&mut self.stream, &mut self.reader)? {
            ReadEvent::Eof => Err(ServiceError::Disconnected {
                detail: "server closed the stream".to_string(),
            }),
            ReadEvent::Bytes(n) => {
                self.stats.bytes_received += n as u64;
                Ok(())
            }
            ReadEvent::Idle => Ok(()),
        }
    }
}
