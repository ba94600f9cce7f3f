//! Coloring as a service: the long-lived request/response tier on top of
//! the socket transport (`DESIGN.md` §10).
//!
//! PR 6 made the *physical* layer pluggable (the same rounds over
//! in-memory inboxes, channels, or TCP sockets); this crate adds the
//! *service* layer above it — a protocol, a server, and a client:
//!
//! - [`proto`] — versioned [`Request`]/[`Response`] frames over the shared
//!   [`dcl_sim::Wire`] codec and the transport tier's framing, with total
//!   (never-panicking) decoders and the typed [`Reject`]/[`ServiceError`]
//!   surfaces;
//! - [`server`] — [`Server`]/[`ServerHandle`] and the `dcl_serve` binary:
//!   a localhost TCP listener with concurrent connections, one FIFO
//!   worker thread per shard (`request.id % workers`), exact max-inflight
//!   admission (shed with [`Reject::Busy`], never a stalled accept loop),
//!   per-request deadlines, and graceful drain on shutdown;
//! - [`client`] — [`ServiceClient`]: pipelined request ids over one
//!   connection, [`ClientStats`] byte counters (the E15 overhead table's
//!   input), and a draining close.
//!
//! The scenario registry ([`scenario_names`]/[`build_scenario`]) mirrors
//! the facade's `scenarios::all()`: every registered pipeline is servable,
//! and [`execute_request`] — the exact function the server's workers run —
//! is deterministic, so the same request always yields the bit-identical
//! response payload (pinned by `tests/service_roundtrip.rs`).
//!
//! # Example
//!
//! ```
//! use dcl_service::{Server, ServiceClient, ServiceConfig};
//! use dcl_graphs::generators;
//! use dcl_sim::ExecConfig;
//!
//! let server = Server::bind(ServiceConfig::default()).unwrap();
//! let addr = server.local_addr().unwrap();
//! let mut handle = server.start();
//! let mut client = ServiceClient::connect(addr).unwrap();
//! let g = generators::ring(8);
//! let report = client.color(&g, "congest", &ExecConfig::default()).unwrap();
//! assert!(report.proper);
//! client.close().unwrap();
//! handle.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod server;

pub use client::{ClientStats, ServiceClient};
pub use proto::{
    ExecSpec, Reject, Request, RequestLimits, Response, ServiceError, PROTOCOL_MAGIC,
    PROTOCOL_VERSION,
};
pub use server::{Server, ServerHandle, ServiceConfig};

use dcl_runner::{run_protected, RunError, Scenario, WireReport, WireRunError};

/// Names of every servable scenario, in registry order — the same set the
/// facade's `scenarios::all()` gathers.
#[must_use]
pub fn scenario_names() -> [&'static str; 6] {
    [
        "congest",
        "decomp",
        "clique",
        "mpc-linear",
        "mpc-sublinear",
        "delta",
    ]
}

/// Builds the scenario registered under `name`, or `None` for an unknown
/// name (the server answers those with [`Reject::UnknownScenario`]).
#[must_use]
pub fn build_scenario(name: &str) -> Option<Box<dyn Scenario>> {
    match name {
        "congest" => Some(Box::new(dcl_coloring::scenario::CongestScenario::default())),
        "decomp" => Some(Box::new(dcl_decomp::scenario::DecompScenario::default())),
        "clique" => Some(Box::new(dcl_clique::scenario::CliqueScenario::default())),
        "mpc-linear" => Some(Box::new(dcl_mpc::scenario::MpcLinearScenario)),
        "mpc-sublinear" => Some(Box::new(dcl_mpc::scenario::MpcSublinearScenario::default())),
        "delta" => Some(Box::new(dcl_delta::scenario::DeltaScenario::default())),
        _ => None,
    }
}

/// Runs one request to its outcome — the exact function the server's
/// worker shards execute (minus admission and deadline checks, which need
/// server state). Deterministic: the outcome depends only on `request`
/// and `limits`.
///
/// `limits` is checked before anything is allocated or spawned for the
/// request — an oversized declared node count, edge list, or thread count
/// comes back as [`Reject::BadInput`] instead of reaching
/// [`Request::graph`]'s `O(n)` allocation or `Backend::Parallel`'s thread
/// spawns with remote-controlled sizes. The server passes its configured
/// [`ServiceConfig::limits`]; local callers usually pass
/// `&RequestLimits::default()`.
pub fn execute_request(request: &Request, limits: &RequestLimits) -> Result<WireReport, Reject> {
    let Some(scenario) = build_scenario(&request.scenario) else {
        return Err(Reject::UnknownScenario {
            name: request.scenario.clone(),
        });
    };
    limits
        .check(request)
        .map_err(|detail| Reject::BadInput { detail })?;
    let exec = request
        .exec
        .to_exec()
        .map_err(|detail| Reject::BadInput { detail })?;
    let graph = request
        .graph()
        .map_err(|detail| Reject::BadInput { detail })?;
    match run_protected(scenario.as_ref(), &graph, &exec) {
        Ok(report) => Ok(WireReport::from(&report)),
        Err(e) => Err(Reject::Run(WireRunError::from(&e))),
    }
}

/// Whether a served outcome agrees with a direct [`Scenario::run`] (via
/// [`run_protected`]) outcome: reports must match field for field, errors
/// must agree on kind and rendering. The determinism suite and the E15
/// table both use this as their "service path ≡ direct path" check.
#[must_use]
pub fn outcome_matches_direct(
    served: &Result<WireReport, ServiceError>,
    direct: &Result<dcl_runner::Report, RunError>,
) -> bool {
    match (served, direct) {
        (Ok(wire), Ok(report)) => wire.matches(report),
        (Err(ServiceError::Rejected(Reject::Run(wire))), Err(e)) => *wire == WireRunError::from(e),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_the_facade_scenario_set() {
        for name in scenario_names() {
            let scenario = build_scenario(name).expect("every registered name builds");
            assert_eq!(scenario.name(), name, "registry key = Scenario::name");
        }
        assert!(build_scenario("no-such-scenario").is_none());
    }

    #[test]
    fn execute_request_types_every_failure() {
        let limits = RequestLimits::default();
        let unknown = Request {
            id: 1,
            scenario: "no-such-scenario".to_string(),
            n: 2,
            edges: vec![(0, 1)],
            exec: ExecSpec::default(),
        };
        assert!(matches!(
            execute_request(&unknown, &limits),
            Err(Reject::UnknownScenario { .. })
        ));

        let bad_graph = Request {
            id: 2,
            scenario: "congest".to_string(),
            n: 2,
            edges: vec![(1, 0)],
            exec: ExecSpec::default(),
        };
        assert!(matches!(
            execute_request(&bad_graph, &limits),
            Err(Reject::BadInput { .. })
        ));

        let bad_exec = Request {
            id: 3,
            scenario: "congest".to_string(),
            n: 2,
            edges: vec![(0, 1)],
            exec: ExecSpec {
                threads: None,
                cap_bits: Some(0),
            },
        };
        assert!(matches!(
            execute_request(&bad_exec, &limits),
            Err(Reject::BadInput { .. })
        ));
    }

    #[test]
    fn execute_request_bounces_oversized_requests_before_allocating() {
        // A 20-byte request declaring 2^50 nodes must reject via the
        // limits check, not abort in `Graph::from_sorted_edges`'s
        // `vec![0; n]`, and must not spawn remote-controlled threads.
        let huge = Request {
            id: 1,
            scenario: "congest".to_string(),
            n: 1 << 50,
            edges: vec![],
            exec: ExecSpec::default(),
        };
        let limits = RequestLimits::default();
        match execute_request(&huge, &limits) {
            Err(Reject::BadInput { detail }) => assert!(detail.contains("nodes"), "got: {detail}"),
            other => panic!("expected BadInput, got {other:?}"),
        }

        let greedy = Request {
            id: 2,
            scenario: "congest".to_string(),
            n: 2,
            edges: vec![(0, 1)],
            exec: ExecSpec {
                threads: Some(1 << 40),
                cap_bits: None,
            },
        };
        match execute_request(&greedy, &limits) {
            Err(Reject::BadInput { detail }) => {
                assert!(detail.contains("threads"), "got: {detail}")
            }
            other => panic!("expected BadInput, got {other:?}"),
        }
    }
}
