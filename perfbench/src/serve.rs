//! `serve-mix`: live `dcl_serve` traffic over one connection, driven by
//! one sender thread and one receiver thread.
//!
//! Phase 1 is an open loop: request `i` is due at `i / RATE_RPS` seconds
//! and is timed from that due time to its response, so a stall also
//! charges the wait it imposes on later requests. Phase 2 is a closed loop
//! with [`IN_FLIGHT`] requests outstanding, which gives the throughput.
//! Every served report is then checked against a direct `run_protected`
//! run of the same request.

use crate::inputs;
use crate::report::{Gate, Metrics};
use crate::solve::{self, timed_setup};
use crate::stats::{self, mean, median};
use crate::trace::Recorder;
use dcl_graphs::Graph;
use dcl_runner::{run_protected, Report, RunError, WireReport};
use dcl_service::proto::{
    check_hello, decode_response, encode_goodbye, encode_hello, encode_request,
};
use dcl_service::{
    execute_request, outcome_matches_direct, Reject, Request, RequestLimits, Server, ServerHandle,
    ServiceConfig, ServiceError,
};
use dcl_sim::deadline::Deadline;
use dcl_sim::transport::{FrameKind, FrameReader, RawFrame, FRAME_HEADER_BYTES};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// Open-loop send rate: about a quarter of the closed-loop capacity the
/// default 2-worker server reached on this mix at the commit that defined
/// the benchmark. Higher rates put the batch-to-completion dispatcher near
/// half load, where the median latency swings with the host (see
/// `perfbench/README.md`).
pub const RATE_RPS: f64 = 24.0;
/// Requests kept outstanding in the closed loop (below the server's default
/// `max_inflight` of 64, so admission never sheds).
pub const IN_FLIGHT: usize = 8;
/// Requests sent in the closed loop.
pub const CLOSED_REQUESTS: usize = 300;
/// Threads of the direct `run_protected` pass.
const DIRECT_THREADS: usize = 2;
/// Liveness bound on any wait for the server.
const PATIENCE: Duration = Duration::from_secs(20);
const READ_TICK: Duration = Duration::from_millis(5);

/// The seed's request list and its encoded frames: `open` distinct
/// requests, then `closed` requests that repeat them under new ids.
pub struct Prepared {
    pub requests: Vec<Request>,
    pub frames: Vec<Vec<u8>>,
    /// Mean `encode_request` time per request, in microseconds.
    pub encode_us: f64,
}

pub fn prepare(seed: u64, open: usize, closed: usize) -> Prepared {
    let requests = inputs::serve_mix(seed, open);
    let mut frames = Vec::with_capacity(open + closed);
    let mut encode_s = 0.0;
    for id in 0..open + closed {
        let request = Request {
            id: id as u64,
            ..requests[id % open].clone()
        };
        let mut frame = Vec::new();
        let start = Instant::now();
        encode_request(&request, &mut frame);
        encode_s += start.elapsed().as_secs_f64();
        frames.push(frame);
    }
    Prepared {
        requests,
        encode_us: encode_s * 1e6 / frames.len() as f64,
        frames,
    }
}

/// A running server and one connection to it that has passed the
/// handshake.
pub struct Session {
    handle: ServerHandle,
    stream: TcpStream,
    reader: FrameReader,
}

fn io_error(what: &str) -> impl Fn(io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

impl Session {
    pub fn open() -> Result<Session, String> {
        let server = Server::bind(ServiceConfig::default()).map_err(io_error("bind"))?;
        let addr = server.local_addr().map_err(io_error("local_addr"))?;
        let handle = server.start();
        let mut stream = TcpStream::connect(addr).map_err(io_error("connect"))?;
        stream.set_nodelay(true).map_err(io_error("set_nodelay"))?;
        stream
            .set_read_timeout(Some(READ_TICK))
            .map_err(io_error("set_read_timeout"))?;
        let mut hello = Vec::new();
        encode_hello(&mut hello);
        stream.write_all(&hello).map_err(io_error("hello"))?;
        let mut reader = FrameReader::new();
        let frame = next_frame(&mut stream, &mut reader, &Deadline::after(PATIENCE))?
            .ok_or("server closed the stream during the handshake")?;
        check_hello(&frame).map_err(|e| e.to_string())?;
        Ok(Session {
            handle,
            stream,
            reader,
        })
    }

    /// Says goodbye, waits for the server's drain-complete goodbye, and
    /// shuts the server down. Any response still arriving is an error.
    pub fn close(mut self) -> Result<(), String> {
        let mut bye = Vec::new();
        encode_goodbye(&mut bye);
        self.stream.write_all(&bye).map_err(io_error("goodbye"))?;
        let deadline = Deadline::after(PATIENCE);
        let result = match next_frame(&mut self.stream, &mut self.reader, &deadline) {
            Ok(Some(frame)) if frame.kind == FrameKind::EndRound => Ok(()),
            Ok(Some(frame)) => Err(format!("unexpected {:?} frame at close", frame.kind)),
            Ok(None) => Err("server closed the stream before its goodbye".into()),
            Err(e) => Err(e),
        };
        self.handle.shutdown();
        result
    }
}

/// Reads until one whole frame is buffered; `None` on a clean EOF.
fn next_frame(
    stream: &mut TcpStream,
    reader: &mut FrameReader,
    deadline: &Deadline,
) -> Result<Option<RawFrame>, String> {
    let mut buf = [0u8; 16 * 1024];
    loop {
        if let Some(frame) = reader.next_frame().map_err(|e| e.to_string())? {
            return Ok(Some(frame));
        }
        if deadline.expired() {
            return Err("no frame from the server before the deadline".into());
        }
        match stream.read(&mut buf) {
            Ok(0) => return Ok(None),
            Ok(n) => reader.push(&buf[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(format!("read failed: {e}")),
        }
    }
}

/// One response as the receiver saw it.
pub struct Arrival {
    pub at: Instant,
    pub decode_s: f64,
    pub bytes: usize,
    pub outcome: Result<WireReport, Reject>,
}

/// Everything the two load threads recorded.
pub struct Served {
    pub open: usize,
    pub due: Vec<Instant>,
    pub sent: Vec<Option<Instant>>,
    pub arrivals: Vec<Option<Arrival>>,
    pub errors: Vec<String>,
    /// Process CPU seconds used while the traffic ran.
    pub cpu_s: f64,
}

/// Sends the open loop, then the closed loop, over `session`'s connection
/// and collects every response.
pub fn drive(session: &mut Session, frames: &[Vec<u8>], open: usize) -> Served {
    let total = frames.len();
    let period = Duration::from_secs_f64(1.0 / RATE_RPS);
    let mut write = session.stream.try_clone().expect("clone the client stream");
    let (read, reader) = (&mut session.stream, &mut session.reader);
    let (done_tx, done_rx) = mpsc::channel::<usize>();
    let received = AtomicUsize::new(0);
    let cpu_start = stats::process_cpu_s();
    let start = Instant::now() + Duration::from_millis(20);
    let due: Vec<Instant> = (0..open).map(|i| start + period * i as u32).collect();

    let (sent, (arrivals, mut errors)) = thread::scope(|scope| {
        let receiver = scope.spawn(|| {
            let mut arrivals: Vec<Option<Arrival>> = (0..total).map(|_| None).collect();
            let mut errors = Vec::new();
            let mut count = 0;
            while count < total {
                let frame = match next_frame(read, reader, &Deadline::after(PATIENCE)) {
                    Ok(Some(frame)) => frame,
                    Ok(None) => {
                        errors.push("server closed the stream mid-run".to_string());
                        break;
                    }
                    Err(e) => {
                        errors.push(e);
                        break;
                    }
                };
                let at = Instant::now();
                let decoded = decode_response(&frame);
                let decode_s = at.elapsed().as_secs_f64();
                let response = match decoded {
                    Ok(r) => r,
                    Err(e) => {
                        errors.push(format!("undecodable response: {e}"));
                        break;
                    }
                };
                let id = response.id as usize;
                if id >= total || arrivals[id].is_some() {
                    errors.push(format!("unexpected response id {id}"));
                    continue;
                }
                arrivals[id] = Some(Arrival {
                    at,
                    decode_s,
                    bytes: frame.payload.len() + FRAME_HEADER_BYTES,
                    outcome: response.outcome,
                });
                count += 1;
                received.store(count, Ordering::SeqCst);
                // Wakes the sender: the open loop's last response starts the
                // closed loop, and every closed-loop response frees a slot.
                let _ = done_tx.send(id);
            }
            drop(done_tx);
            (arrivals, errors)
        });

        let mut sent: Vec<Option<Instant>> = vec![None; total];
        let mut send = |id: usize, sent: &mut Vec<Option<Instant>>| -> bool {
            let ok = write.write_all(&frames[id]).is_ok();
            sent[id] = Some(Instant::now());
            ok
        };
        'load: {
            for (id, &at) in due.iter().enumerate() {
                if let Some(wait) = at.checked_duration_since(Instant::now()) {
                    thread::sleep(wait);
                }
                if !send(id, &mut sent) {
                    break 'load;
                }
            }
            // Closed loop: once the open loop has drained, keep IN_FLIGHT
            // requests outstanding until every frame is sent.
            while received.load(Ordering::SeqCst) < open {
                if done_rx.recv_timeout(PATIENCE).is_err() {
                    break 'load;
                }
            }
            let mut next = open;
            while next < total.min(open + IN_FLIGHT) {
                if !send(next, &mut sent) {
                    break 'load;
                }
                next += 1;
            }
            while next < total {
                match done_rx.recv_timeout(PATIENCE) {
                    Ok(id) if id >= open => {
                        if !send(next, &mut sent) {
                            break 'load;
                        }
                        next += 1;
                    }
                    Ok(_) => {}
                    Err(_) => break 'load,
                }
            }
        }
        (sent, receiver.join().expect("receiver thread"))
    });
    if sent.iter().any(Option::is_none) {
        errors.push("the sender stopped before sending every request".to_string());
    }
    Served {
        open,
        due,
        sent,
        arrivals,
        errors,
        cpu_s: stats::process_cpu_s() - cpu_start,
    }
}

/// Runs `job(i)` for every `i < count` on [`DIRECT_THREADS`] threads that
/// take indices in turn. Returns the results and each call's (start, end),
/// both in index order.
fn on_threads<T: Send>(
    count: usize,
    job: impl Fn(usize) -> T + Sync,
) -> (Vec<T>, Vec<(Instant, Instant)>) {
    let next = AtomicUsize::new(0);
    let mut results: Vec<(usize, T, (Instant, Instant))> = thread::scope(|scope| {
        let workers: Vec<_> = (0..DIRECT_THREADS)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= count {
                            break out;
                        }
                        let t0 = Instant::now();
                        let result = job(i);
                        out.push((i, result, (t0, Instant::now())));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("pass worker"))
            .collect()
    });
    results.sort_by_key(|r| r.0);
    results.into_iter().map(|(_, r, s)| (r, s)).unzip()
}

/// Direct runs of `requests` through `run_protected`. Returns the outcomes,
/// each run's (start, end) and the pass's wall-clock seconds.
#[allow(clippy::type_complexity)]
pub fn direct_pass(
    requests: &[Request],
    graphs: &[Graph],
) -> (Vec<Result<Report, RunError>>, Vec<(Instant, Instant)>, f64) {
    let start = Instant::now();
    let (outcomes, spans) = on_threads(requests.len(), |i| {
        let exec = requests[i].exec.to_exec().expect("benchmark exec spec");
        run_protected(
            solve::scenario(&requests[i].scenario).as_ref(),
            &graphs[i],
            &exec,
        )
    });
    (outcomes, spans, start.elapsed().as_secs_f64())
}

/// The correctness gate over one served run: every direct run must be a
/// valid report, and every request must come back `Ok` and match the
/// direct run of its content.
fn gate_served(
    gate: &mut Gate,
    served: &Served,
    requests: &[Request],
    direct: &[Result<Report, RunError>],
) {
    for (i, outcome) in direct.iter().enumerate() {
        gate.check(matches!(outcome, Ok(r) if r.valid()), || {
            format!(
                "direct run of request {i} ({}): not a valid report",
                requests[i].scenario
            )
        });
    }
    for (id, arrival) in served.arrivals.iter().enumerate() {
        let k = id % served.open;
        let name = &requests[k].scenario;
        match arrival {
            None => gate.check(false, || format!("request {id} ({name}): no response")),
            Some(a) => {
                let outcome = a.outcome.clone().map_err(ServiceError::Rejected);
                let ok = a.outcome.is_ok() && outcome_matches_direct(&outcome, &direct[k]);
                gate.check(ok, || match &a.outcome {
                    Err(reject) => format!("request {id} ({name}): {reject}"),
                    Ok(_) => {
                        format!("request {id} ({name}): served report differs from the direct run")
                    }
                });
            }
        }
    }
    for e in &served.errors {
        gate.check(false, || e.clone());
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Open-loop latencies (due → response) of the `Ok` responses, in ms.
fn open_latencies(served: &Served) -> Vec<f64> {
    (0..served.open)
        .filter_map(|i| {
            let a = served.arrivals[i].as_ref()?;
            a.outcome.as_ref().ok()?;
            Some(ms(a.at.saturating_duration_since(served.due[i])))
        })
        .collect()
}

/// Requests per throughput window of the closed loop.
const WINDOW: usize = 40;

/// Closed-loop completions per second: the median over consecutive windows
/// of [`WINDOW`] completions, the first window starting at the first
/// closed-loop send. The median keeps a host stall inside one window from
/// setting the figure.
fn closed_throughput(served: &Served) -> f64 {
    let ids = served.open..served.arrivals.len();
    let Some(first) = ids.clone().filter_map(|i| served.sent[i]).min() else {
        return 0.0;
    };
    let mut done: Vec<Instant> = ids
        .filter_map(|i| served.arrivals[i].as_ref().map(|a| a.at))
        .collect();
    done.sort();
    let mut edges = vec![first];
    edges.extend(done.iter().skip(WINDOW - 1).step_by(WINDOW).copied());
    let rates: Vec<f64> = edges
        .windows(2)
        .map(|w| WINDOW as f64 / w[1].duration_since(w[0]).as_secs_f64().max(1e-9))
        .collect();
    median(&rates).unwrap_or(0.0)
}

/// A served run: set-ups (request generation and encoding, server bind and
/// handshake), the traffic, the direct pass and the gate.
pub struct ServeRun {
    pub prepared: Prepared,
    pub graphs: Vec<Graph>,
    pub served: Served,
    pub direct: Vec<Result<Report, RunError>>,
    pub direct_s: f64,
    /// Wall-clock of the faster direct pass.
    pub direct_wall_s: f64,
    pub setup_s: f64,
}

pub fn serve_run(
    seed: u64,
    open: usize,
    closed: usize,
    gate: &mut Gate,
) -> Result<ServeRun, String> {
    let ((prepared, session), setup_s) =
        timed_setup(|| (prepare(seed, open, closed), Session::open()));
    let mut session = session?;
    let served = drive(&mut session, &prepared.frames, open);
    session.close()?;
    let graphs: Vec<Graph> = prepared
        .requests
        .iter()
        .map(|r| r.graph().expect("generated graphs are valid"))
        .collect();
    // Two direct passes; each request counts at its faster run, so a host
    // stall during one pass does not reach `solve_s`.
    let (direct, direct_spans, wall_a) = direct_pass(&prepared.requests, &graphs);
    let (again, again_spans, wall_b) = direct_pass(&prepared.requests, &graphs);
    let busy_s: f64 = direct_spans
        .iter()
        .zip(&again_spans)
        .map(|(&(a0, a1), &(b0, b1))| (a1 - a0).min(b1 - b0).as_secs_f64())
        .sum();
    let direct_s = busy_s / DIRECT_THREADS as f64;
    for (i, (a, b)) in direct.iter().zip(&again).enumerate() {
        gate.check(matches!((a, b), (Ok(x), Ok(y)) if x == y), || {
            format!("request {i}: repeated direct run differs")
        });
    }
    gate_served(gate, &served, &prepared.requests, &direct);
    Ok(ServeRun {
        prepared,
        graphs,
        served,
        direct,
        direct_s,
        direct_wall_s: wall_a.min(wall_b),
        setup_s,
    })
}

/// Requests the open loop sends in `seconds` at [`RATE_RPS`].
pub fn open_requests(seconds: f64) -> usize {
    ((seconds * RATE_RPS).round() as usize).max(1)
}

/// `serve-mix`, tracing off: the open loop lasts `seconds`.
pub fn serve_untraced(seed: u64, seconds: f64, gate: &mut Gate) -> Result<Metrics, String> {
    let run = serve_run(seed, open_requests(seconds), CLOSED_REQUESTS, gate)?;
    let latencies = open_latencies(&run.served);
    let (rounds, bits) = run
        .direct
        .iter()
        .flatten()
        .fold((0u64, 0u64), |(r, b), rep| {
            (r + rep.metrics.rounds, b + rep.metrics.bits)
        });
    let mut m = Metrics::default();
    m.put("setup_s", run.setup_s, "s");
    m.put("solve_s", run.direct_s, "s");
    m.put("cpu_s", run.served.cpu_s, "s");
    m.put("peak_rss_mb", stats::peak_rss_mb(), "MB");
    m.put("rounds", rounds as f64, "count");
    m.put("bits", bits as f64, "count");
    m.put("latency_p50_ms", median(&latencies).unwrap_or(0.0), "ms");
    m.put(
        "latency_p99_ms",
        stats::tail(&latencies).unwrap_or(0.0),
        "ms",
    );
    m.put("throughput_rps", closed_throughput(&run.served), "1/s");
    Ok(m)
}

/// Per-layer metrics of the service path: the served run, a traced copy of
/// the direct pass (one span per run, named after its scenario) for the
/// tracing overhead, and an `execute_request` pass whose per-request times
/// split served latency into execution and service overhead. Spans of one
/// request share its id. Returns the metrics and the traced over untraced
/// direct-pass ratio.
pub fn serve_traced(
    seed: u64,
    open: usize,
    closed: usize,
    rec: &mut Recorder,
    gate: &mut Gate,
) -> Result<(Metrics, f64), String> {
    let run = serve_run(seed, open, closed, gate)?;
    let requests = &run.prepared.requests;

    // Traced direct pass: the same runs, now each recorded as a span.
    let pass_start = Instant::now();
    let (traced, traced_spans, _) = direct_pass(requests, &run.graphs);
    let pass = rec.push(
        "serve.direct_pass",
        None,
        None,
        rec.ns(pass_start),
        rec.ns(Instant::now()),
    );
    for (i, &(t0, t1)) in traced_spans.iter().enumerate() {
        let name = format!("dcl_runner.{}", requests[i].scenario);
        rec.push(&name, Some(pass), Some(i as u64), rec.ns(t0), rec.ns(t1));
    }
    let traced_s = rec.spans()[pass].duration_ns() as f64 * 1e-9;
    for (i, (a, b)) in traced.iter().zip(&run.direct).enumerate() {
        let same = matches!((a, b), (Ok(x), Ok(y)) if x == y);
        gate.check(same, || {
            format!("traced direct run of request {i} differs from the untraced one")
        });
    }

    let exec_start = Instant::now();
    let limits = RequestLimits::default();
    let (executed, exec_spans) =
        on_threads(requests.len(), |i| execute_request(&requests[i], &limits));
    let exec_pass = rec.push(
        "serve.execute_pass",
        None,
        None,
        rec.ns(exec_start),
        rec.ns(Instant::now()),
    );
    let mut exec_ms = Vec::new();
    for (i, &(t0, t1)) in exec_spans.iter().enumerate() {
        rec.push(
            "dcl_service.execute_request",
            Some(exec_pass),
            Some(i as u64),
            rec.ns(t0),
            rec.ns(t1),
        );
        exec_ms.push(ms(t1 - t0));
        let outcome = executed[i].clone().map_err(ServiceError::Rejected);
        gate.check(outcome_matches_direct(&outcome, &run.direct[i]), || {
            format!("execute_request of request {i} differs from the direct run")
        });
    }

    // The served requests: due → response, with the sender's lag and the
    // client-side decode as children.
    let served = &run.served;
    let mut overhead_ms = Vec::new();
    let mut lag_ms = Vec::new();
    for (id, arrival) in served.arrivals.iter().enumerate() {
        let (Some(a), Some(sent)) = (arrival, served.sent[id]) else {
            continue;
        };
        let due = served.due.get(id).copied().unwrap_or(sent);
        let root = rec.push(
            "serve.request",
            None,
            Some(id as u64),
            rec.ns(due),
            rec.ns(a.at),
        );
        rec.push(
            "loadgen.send",
            Some(root),
            Some(id as u64),
            rec.ns(due),
            rec.ns(sent),
        );
        let decoded = a.at + Duration::from_secs_f64(a.decode_s);
        rec.push(
            "dcl_service.decode",
            Some(root),
            Some(id as u64),
            rec.ns(a.at),
            rec.ns(decoded),
        );
        if id < served.open {
            lag_ms.push(ms(sent.saturating_duration_since(due)));
            overhead_ms.push(ms(a.at.saturating_duration_since(due)) - exec_ms[id]);
        }
    }

    let mut m = Metrics::default();
    m.put(
        "dcl_service.execute_ms_p50",
        median(&exec_ms).unwrap_or(0.0),
        "ms",
    );
    m.put(
        "dcl_service.execute_ms_p99",
        stats::tail(&exec_ms).unwrap_or(0.0),
        "ms",
    );
    for name in dcl_service::scenario_names() {
        let times: Vec<f64> = traced_spans
            .iter()
            .zip(requests)
            .filter(|(_, r)| r.scenario == name)
            .map(|(&(t0, t1), _)| ms(t1 - t0))
            .collect();
        m.put(
            format!("dcl_runner.{name}_ms_p50"),
            median(&times).unwrap_or(0.0),
            "ms",
        );
    }
    m.put(
        "dcl_service.overhead_ms_p50",
        median(&overhead_ms).unwrap_or(0.0),
        "ms",
    );
    m.put(
        "dcl_service.overhead_ms_p99",
        stats::tail(&overhead_ms).unwrap_or(0.0),
        "ms",
    );
    m.put("dcl_service.encode_us", run.prepared.encode_us, "us");
    let arrivals: Vec<&Arrival> = served.arrivals.iter().flatten().collect();
    let decode_us: Vec<f64> = arrivals.iter().map(|a| a.decode_s * 1e6).collect();
    m.put(
        "dcl_service.decode_us",
        mean(&decode_us).unwrap_or(0.0),
        "us",
    );
    let req_bytes: Vec<f64> = run.prepared.frames.iter().map(|f| f.len() as f64).collect();
    m.put(
        "dcl_service.req_bytes",
        mean(&req_bytes).unwrap_or(0.0),
        "bytes",
    );
    let resp_bytes: Vec<f64> = arrivals.iter().map(|a| a.bytes as f64).collect();
    m.put(
        "dcl_service.resp_bytes",
        mean(&resp_bytes).unwrap_or(0.0),
        "bytes",
    );
    let count = |f: fn(&Reject) -> bool| {
        arrivals
            .iter()
            .filter(|a| matches!(&a.outcome, Err(r) if f(r)))
            .count() as f64
    };
    m.put(
        "dcl_service.busy",
        count(|r| matches!(r, Reject::Busy { .. })),
        "count",
    );
    m.put(
        "dcl_service.timed_out",
        count(|r| matches!(r, Reject::TimedOut { .. })),
        "count",
    );
    m.put(
        "dcl_service.rejected",
        count(|r| !matches!(r, Reject::Busy { .. } | Reject::TimedOut { .. })),
        "count",
    );
    m.put(
        "loadgen.lag_p99_ms",
        stats::tail(&lag_ms).unwrap_or(0.0),
        "ms",
    );
    Ok((m, traced_s / run.direct_wall_s))
}
