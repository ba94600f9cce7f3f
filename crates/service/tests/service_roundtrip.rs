//! End-to-end service determinism (the PR's acceptance contract):
//!
//! - every registered scenario, run over real TCP through the
//!   server + client, produces a result bit-identical to a direct
//!   `run_protected` call — reports and typed run errors alike;
//! - the same request sent twice on one connection, pipelined among other
//!   requests, yields *byte-identical* response frames;
//! - concurrent connections all see the solo-connection results;
//! - backpressure sheds with a typed `Busy` (and keeps accepting), the
//!   per-request deadline surfaces as a typed `TimedOut`, and a closing
//!   client drains every admitted request before the server's goodbye;
//! - a request on an idle shard is answered while another shard is still
//!   busy, and equal ids come back in submission order.
//!
//! Sockets are real; CI serializes these with `--test-threads=1` alongside
//! the transport suite.

use dcl_graphs::{generators, Graph};
use dcl_runner::run_protected;
use dcl_service::proto::{
    check_hello, decode_response, encode_goodbye, encode_hello, encode_request, Reject, Request,
    ServiceError,
};
use dcl_service::{
    build_scenario, outcome_matches_direct, scenario_names, ExecSpec, Server, ServiceClient,
    ServiceConfig,
};
use dcl_sim::transport::{encode_frame, FrameReader, RawFrame};
use dcl_sim::{Backend, ExecConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

fn start_server(config: ServiceConfig) -> (SocketAddr, dcl_service::ServerHandle) {
    let server = Server::bind(config).expect("bind loopback");
    let addr = server.local_addr().expect("bound address");
    (addr, server.start())
}

/// The default server config with a deadline generous enough for debug
/// builds on loaded CI machines — these tests assert *determinism*, so a
/// request timing out under CPU starvation must not fail them. The
/// operational 10 s default gets its own dedicated test below.
fn lenient() -> ServiceConfig {
    ServiceConfig::default().with_request_timeout(Duration::from_secs(600))
}

/// A graph every scenario solves (the transport oracle's choice).
fn solvable_graph() -> Graph {
    generators::gnp(28, 0.25, 11)
}

/// Every registered scenario over real TCP: the served outcome matches the
/// direct `run_protected` outcome bit for bit. An odd ring is included so
/// the Δ-coloring scenario exercises the typed-rejection path through the
/// service too.
#[test]
fn every_scenario_round_trips_bit_identical_to_direct() {
    let (addr, mut handle) = start_server(lenient());
    let mut client = ServiceClient::connect(addr).expect("connect");
    let exec = ExecConfig::default();
    for (label, graph) in [("gnp", solvable_graph()), ("odd-ring", generators::ring(9))] {
        // Pipelined: submit everything, then wait for everything.
        let ids: Vec<(u64, &str)> = scenario_names()
            .into_iter()
            .map(|name| (client.submit(name, &graph, &exec).expect("submit"), name))
            .collect();
        for (id, name) in ids {
            let served = client.wait(id);
            let scenario = build_scenario(name).expect("registered");
            let direct = run_protected(scenario.as_ref(), &graph, &exec);
            assert!(
                outcome_matches_direct(&served, &direct),
                "{name} on {label}: served {served:?} != direct {direct:?}"
            );
        }
    }
    let stats = client.stats();
    assert_eq!(stats.requests, 12);
    assert_eq!(stats.responses, 12);
    client.close().expect("clean close");
    handle.shutdown();
}

/// The parallel-backend and cap knobs survive the wire: a served parallel
/// run matches the direct parallel run (which itself is bit-identical to
/// sequential by the backend contract).
#[test]
fn exec_knobs_cross_the_wire() {
    let (addr, mut handle) = start_server(lenient());
    let mut client = ServiceClient::connect(addr).expect("connect");
    let graph = solvable_graph();
    let exec = ExecConfig::default().with_backend(Backend::Parallel(3));
    for name in ["congest", "clique"] {
        let served = client.color(&graph, name, &exec);
        let scenario = build_scenario(name).expect("registered");
        let direct = run_protected(scenario.as_ref(), &graph, &exec);
        assert!(
            outcome_matches_direct(&served, &direct),
            "{name}: parallel served {served:?} != direct {direct:?}"
        );
    }
    client.close().expect("clean close");
    handle.shutdown();
}

/// Reads raw frames off a hand-driven socket until `count` data frames
/// arrived, re-encoding each to its exact wire bytes.
fn read_data_frames(stream: &mut TcpStream, count: usize) -> Vec<(RawFrame, Vec<u8>)> {
    let mut reader = FrameReader::new();
    let mut frames = Vec::new();
    let mut buf = [0u8; 4096];
    while frames.len() < count {
        match reader.next_frame().expect("well-formed server stream") {
            Some(frame) => {
                assert_eq!(frame.kind, dcl_sim::transport::FrameKind::Data);
                let mut bytes = Vec::new();
                encode_frame(
                    frame.kind,
                    frame.sender,
                    frame.declared_bits,
                    &frame.payload,
                    &mut bytes,
                );
                frames.push((frame, bytes));
            }
            None => {
                let n = stream.read(&mut buf).expect("read");
                assert_ne!(n, 0, "server closed before answering everything");
                reader.push(&buf[..n]);
            }
        }
    }
    frames
}

/// The determinism pin, stated on bytes: the *same* request (same id) sent
/// twice, pipelined among other work, comes back as two byte-identical
/// response frames.
#[test]
fn same_request_twice_yields_byte_identical_responses() {
    let (addr, mut handle) = start_server(lenient());
    let mut stream = TcpStream::connect(addr).expect("dial");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");

    let mut out = Vec::new();
    encode_hello(&mut out);
    let graph = solvable_graph();
    let repeated = Request::for_graph(7, "congest", &graph, &ExecConfig::default());
    let other = Request::for_graph(3, "delta", &graph, &ExecConfig::default());
    encode_request(&repeated, &mut out);
    encode_request(&other, &mut out);
    encode_request(&repeated, &mut out);
    stream.write_all(&out).expect("write pipeline");

    // Hello echo first, then three data frames in any order.
    let mut reader = FrameReader::new();
    let mut buf = [0u8; 4096];
    let hello = loop {
        if let Some(frame) = reader.next_frame().expect("well-formed") {
            break frame;
        }
        let n = stream.read(&mut buf).expect("read");
        assert_ne!(n, 0);
        reader.push(&buf[..n]);
    };
    check_hello(&hello).expect("server hello");
    let mut pending = Vec::new();
    while let Some(frame) = reader.next_frame().expect("well-formed") {
        let mut bytes = Vec::new();
        encode_frame(
            frame.kind,
            frame.sender,
            frame.declared_bits,
            &frame.payload,
            &mut bytes,
        );
        pending.push((frame, bytes));
    }
    pending.extend(read_data_frames(&mut stream, 3 - pending.len()));

    let sevens: Vec<&Vec<u8>> = pending
        .iter()
        .filter(|(frame, _)| decode_response(frame).expect("decodes").id == 7)
        .map(|(_, bytes)| bytes)
        .collect();
    assert_eq!(sevens.len(), 2, "both id-7 responses arrived");
    assert_eq!(
        sevens[0], sevens[1],
        "the same request must yield byte-identical response frames"
    );

    let mut goodbye = Vec::new();
    encode_goodbye(&mut goodbye);
    stream.write_all(&goodbye).expect("goodbye");
    handle.shutdown();
}

/// Concurrent connections hammering the same request set all get the
/// solo-connection (= direct) results — concurrency exists only across
/// requests, never inside one.
#[test]
fn concurrent_connections_match_the_direct_results() {
    let (addr, mut handle) = start_server(lenient().with_workers(4));
    let graph = solvable_graph();
    let exec = ExecConfig::default();
    let workers: Vec<_> = (0..4)
        .map(|_| {
            let graph = graph.clone();
            std::thread::spawn(move || {
                let mut client = ServiceClient::connect(addr).expect("connect");
                let ids: Vec<(u64, &str)> = scenario_names()
                    .into_iter()
                    .map(|name| (client.submit(name, &graph, &exec).expect("submit"), name))
                    .collect();
                let results: Vec<_> = ids
                    .into_iter()
                    .map(|(id, name)| (name, client.wait(id)))
                    .collect();
                client.close().expect("clean close");
                results
            })
        })
        .collect();
    for worker in workers {
        for (name, served) in worker.join().expect("client thread") {
            let scenario = build_scenario(name).expect("registered");
            let direct = run_protected(scenario.as_ref(), &graph, &exec);
            assert!(
                outcome_matches_direct(&served, &direct),
                "{name} under concurrency: {served:?} != {direct:?}"
            );
        }
    }
    handle.shutdown();
}

/// `max_inflight = 0` sheds every request with a typed `Busy` — and the
/// accept loop keeps accepting (a second connection gets the same typed
/// answer, not a stall).
#[test]
fn backpressure_sheds_with_typed_busy_and_keeps_accepting() {
    let (addr, mut handle) = start_server(lenient().with_max_inflight(0));
    let graph = generators::ring(6);
    for _ in 0..2 {
        let mut client = ServiceClient::connect(addr).expect("connect");
        match client.color(&graph, "congest", &ExecConfig::default()) {
            Err(ServiceError::Rejected(Reject::Busy { max_inflight, .. })) => {
                assert_eq!(max_inflight, 0)
            }
            other => panic!("expected a typed Busy, got {other:?}"),
        }
        client.close().expect("shed requests still drain cleanly");
    }
    handle.shutdown();
}

/// A zero per-request deadline times every admitted request out with a
/// typed `TimedOut` carrying the configured limit.
#[test]
fn per_request_deadline_surfaces_as_typed_timeout() {
    let (addr, mut handle) =
        start_server(ServiceConfig::default().with_request_timeout(Duration::ZERO));
    let mut client = ServiceClient::connect(addr).expect("connect");
    match client.color(&generators::ring(6), "congest", &ExecConfig::default()) {
        Err(ServiceError::Rejected(Reject::TimedOut { limit_ms })) => {
            assert_eq!(limit_ms, 0);
        }
        other => panic!("expected a typed TimedOut, got {other:?}"),
    }
    client.close().expect("clean close");
    handle.shutdown();
}

/// Graceful drain: a client that submits a burst and immediately says
/// goodbye still gets every admitted response before the server's goodbye
/// frame (a clean `close` proves it).
#[test]
fn close_drains_every_admitted_request() {
    let (addr, mut handle) = start_server(lenient());
    let mut client = ServiceClient::connect(addr).expect("connect");
    let graph = solvable_graph();
    for _ in 0..3 {
        for name in ["congest", "clique"] {
            client
                .submit(name, &graph, &ExecConfig::default())
                .expect("submit");
        }
    }
    let stats = client.close().expect("drain completes before goodbye");
    assert_eq!(stats.requests, 6);
    assert_eq!(stats.responses, 6, "every admitted request was answered");
    handle.shutdown();
}

/// Unknown scenarios and malformed graphs come back as typed rejects, not
/// dropped connections.
#[test]
fn unknown_scenarios_and_bad_graphs_reject_typed() {
    let (addr, mut handle) = start_server(lenient());
    let mut client = ServiceClient::connect(addr).expect("connect");
    match client.color(
        &generators::ring(6),
        "no-such-scenario",
        &ExecConfig::default(),
    ) {
        Err(ServiceError::Rejected(Reject::UnknownScenario { name })) => {
            assert_eq!(name, "no-such-scenario");
        }
        other => panic!("expected UnknownScenario, got {other:?}"),
    }

    client
        .submit_request(&Request {
            id: 900,
            scenario: "congest".to_string(),
            n: 3,
            edges: vec![(2, 1)],
            exec: ExecSpec::default(),
        })
        .expect("submit");
    match client.wait(900) {
        Err(ServiceError::Rejected(Reject::BadInput { detail })) => {
            assert!(detail.contains("sorted"), "got: {detail}");
        }
        other => panic!("expected BadInput, got {other:?}"),
    }
    client.close().expect("clean close");
    handle.shutdown();
}

/// A tiny request declaring an astronomical node count (or a
/// remote-controlled thread count) bounces off the server's admission
/// limits as a typed `BadInput` — the `O(n)` graph allocation and the
/// thread spawns never happen, and the server keeps serving.
#[test]
fn oversized_requests_reject_typed_and_leave_the_server_up() {
    let (addr, mut handle) = start_server(lenient());
    let mut client = ServiceClient::connect(addr).expect("connect");
    client
        .submit_request(&Request {
            id: 50,
            scenario: "congest".to_string(),
            n: 1 << 50,
            edges: vec![],
            exec: ExecSpec::default(),
        })
        .expect("submit");
    match client.wait(50) {
        Err(ServiceError::Rejected(Reject::BadInput { detail })) => {
            assert!(detail.contains("nodes"), "got: {detail}");
        }
        other => panic!("expected BadInput, got {other:?}"),
    }

    client
        .submit_request(&Request {
            id: 51,
            scenario: "congest".to_string(),
            n: 3,
            edges: vec![(0, 1), (1, 2)],
            exec: ExecSpec {
                threads: Some(1 << 40),
                cap_bits: None,
            },
        })
        .expect("submit");
    match client.wait(51) {
        Err(ServiceError::Rejected(Reject::BadInput { detail })) => {
            assert!(detail.contains("threads"), "got: {detail}");
        }
        other => panic!("expected BadInput, got {other:?}"),
    }

    let report = client
        .color(&generators::ring(8), "congest", &ExecConfig::default())
        .expect("the server is still fully alive");
    assert!(report.proper);
    client.close().expect("clean close");
    handle.shutdown();
}

/// A reused id through the `ServiceClient`: both responses are filed in
/// arrival order and each `wait` claims exactly one — the second response
/// is not lost to an overwrite.
#[test]
fn a_reused_id_keeps_both_responses() {
    let (addr, mut handle) = start_server(lenient());
    let mut client = ServiceClient::connect(addr).expect("connect");
    let request = Request::for_graph(7, "congest", &solvable_graph(), &ExecConfig::default());
    client.submit_request(&request).expect("first submit");
    client.submit_request(&request).expect("second submit");
    let first = client.wait(7).expect("first response");
    let second = client.wait(7).expect("second response");
    assert_eq!(first, second, "identical requests, identical reports");
    let stats = client.close().expect("clean close");
    assert_eq!(stats.requests, 2);
    assert_eq!(stats.responses, 2);
    handle.shutdown();
}

/// A peer that opens with garbage instead of a hello is dropped without
/// taking the server down: the socket closes, and a well-behaved client
/// still gets full service afterwards.
#[test]
fn a_bad_handshake_drops_only_that_connection() {
    let (addr, mut handle) = start_server(lenient());
    let mut bad = TcpStream::connect(addr).expect("dial");
    bad.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut out = Vec::new();
    encode_goodbye(&mut out); // a valid frame, but not a hello
    bad.write_all(&out).expect("write");
    let mut buf = [0u8; 64];
    let n = bad.read(&mut buf).expect("server hangs up");
    assert_eq!(n, 0, "connection closed without a hello echo");

    let mut good = ServiceClient::connect(addr).expect("the server still accepts");
    let report = good
        .color(&generators::ring(8), "congest", &ExecConfig::default())
        .expect("service still works");
    assert!(report.proper);
    good.close().expect("clean close");
    handle.shutdown();
}

/// Wall-clock cost of one direct `congest` run on `graph` — the work a
/// shard worker does for the request.
fn direct_cost(graph: &Graph) -> Duration {
    let scenario = build_scenario("congest").expect("registered");
    let start = Instant::now();
    let _ = run_protected(scenario.as_ref(), graph, &ExecConfig::default());
    start.elapsed()
}

fn send_congest(stream: &mut TcpStream, id: u64, graph: &Graph) {
    let mut out = Vec::new();
    encode_request(
        &Request::for_graph(id, "congest", graph, &ExecConfig::default()),
        &mut out,
    );
    stream.write_all(&out).expect("write request");
}

/// Two workers: a light request (id 1) sent 100 ms after a slow one (id 0)
/// runs on the idle shard and comes back first; a light id 0 queues behind
/// the slow one in its shard's FIFO. The slow graph costs at least 20× the
/// light one and 500 ms, calibrated so debug and release builds both keep
/// the margin.
#[test]
fn an_idle_shard_answers_while_another_is_busy() {
    let light = generators::ring(6);
    let floor = (direct_cost(&light) * 20).max(Duration::from_millis(500));
    let slow = std::iter::successors(Some(64), |n| Some(n * 3 / 2))
        .map(|n| generators::gnp(n, 0.1, 3))
        .find(|graph| direct_cost(graph) >= floor)
        .expect("some size is slow enough");

    let (addr, mut handle) = start_server(lenient().with_workers(2));
    let mut stream = TcpStream::connect(addr).expect("dial");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    let mut out = Vec::new();
    encode_hello(&mut out);
    stream.write_all(&out).expect("hello");
    let mut reader = FrameReader::new();
    let mut buf = [0u8; 64];
    let hello = loop {
        if let Some(frame) = reader.next_frame().expect("well-formed") {
            break frame;
        }
        let n = stream.read(&mut buf).expect("hello echo");
        assert_ne!(n, 0, "server closed during the handshake");
        reader.push(&buf[..n]);
    };
    check_hello(&hello).expect("server hello");

    send_congest(&mut stream, 0, &slow);
    thread::sleep(Duration::from_millis(100));
    send_congest(&mut stream, 1, &light);
    send_congest(&mut stream, 0, &light);
    let order: Vec<(u64, usize)> = read_data_frames(&mut stream, 3)
        .iter()
        .map(|(frame, _)| {
            let response = decode_response(frame).expect("decodes");
            (
                response.id,
                response.outcome.expect("congest colors both").colors.len(),
            )
        })
        .collect();
    assert_eq!(
        order,
        [(1, light.n()), (0, slow.n()), (0, light.n())],
        "(id, n) in arrival order: the idle shard must not wait for the busy one, \
         and equal ids must keep submission order"
    );
    handle.shutdown();
}
