//! The cross-transport oracle: every scenario in the workspace, driven
//! through the `Runner` front door with the transport axis swept, produces
//! a `Report` bit-identical to the in-memory `Local` reference on real
//! localhost sockets — colors, metrics, extras, and typed rejections
//! alike. The transport layer is physical plumbing;
//! if any model-visible observable shifted with the tier, the determinism
//! contract (`DESIGN.md` §7) would be broken.

use distributed_coloring::delta::DeltaError;
use distributed_coloring::graphs::generators;
use distributed_coloring::runner::{CapSpec, Cell, GraphSpec, RunError, Runner};
use distributed_coloring::scenarios::{self, DeltaScenario};
use distributed_coloring::{Backend, TransportSpec};

/// Splits a transport-swept grid into (local reference, socket) pairs:
/// with transports innermost, cells come in consecutive pairs that differ
/// only in the tier.
fn tier_pairs(cells: &[Cell]) -> impl Iterator<Item = (&Cell, &Cell)> {
    cells.chunks_exact(TransportSpec::all().len()).map(|pair| {
        assert_eq!(pair[0].transport, TransportSpec::Local);
        assert_eq!(pair[1].transport, TransportSpec::Tcp);
        (&pair[0], &pair[1])
    })
}

/// Asserts that a socket cell's outcome matches the local reference in
/// every model-visible observable.
fn assert_cell_matches(reference: &Cell, cell: &Cell, context: &str) {
    match (&reference.outcome, &cell.outcome) {
        (Ok(expected), Ok(report)) => {
            assert_eq!(report.colors, expected.colors, "{context}: colors diverged");
            assert_eq!(
                report.metrics, expected.metrics,
                "{context}: metrics diverged"
            );
            assert_eq!(report.extras, expected.extras, "{context}: extras diverged");
            assert_eq!(report.palette, expected.palette);
            assert_eq!(report.colors_used, expected.colors_used);
            assert_eq!(report.proper, expected.proper);
        }
        (Err(expected), Err(err)) => {
            assert_eq!(
                err.to_string(),
                expected.to_string(),
                "{context}: errors diverged"
            );
        }
        (expected, got) => panic!(
            "{context}: outcome kind diverged from the local reference: \
             expected {expected:?}, got {got:?}"
        ),
    }
}

/// All five pipelines, on a graph every scenario solves, over the full
/// transport axis and both cap regimes: every cell matches the local
/// reference bit for bit.
#[test]
fn all_scenarios_are_transport_identical() {
    for scenario in scenarios::all() {
        let sweep = Runner::new(scenario.as_ref())
            .graph(GraphSpec::gnp(28, 0.25, 11))
            .caps([CapSpec::ModelDefault, CapSpec::LogN(2)])
            .transports(TransportSpec::all())
            .catch_panics(true)
            .run();
        assert_eq!(sweep.cells.len(), 2 * 2, "caps x transports");
        for (reference, cell) in tier_pairs(&sweep.cells) {
            assert!(
                reference.outcome.is_ok(),
                "{}: the reference cell must solve this input, got {:?}",
                sweep.scenario,
                reference.outcome
            );
            let context = format!("{} on {}/{}", sweep.scenario, cell.transport, cell.cap);
            assert_cell_matches(reference, cell, &context);
        }
    }
}

/// The parallel backend composes with the socket tier: backend × transport
/// cells all match the sequential-local reference.
#[test]
fn backends_and_transports_compose() {
    for scenario in scenarios::all() {
        let sweep = Runner::new(scenario.as_ref())
            .graph(GraphSpec::regular(24, 4, 7))
            .backends([Backend::Sequential, Backend::Parallel(3)])
            .transports(TransportSpec::all())
            .run();
        assert_eq!(sweep.cells.len(), 2 * 2, "backends x transports");
        let reference = &sweep.cells[0];
        assert_eq!(
            (reference.backend, reference.transport),
            (Backend::Sequential, TransportSpec::Local)
        );
        for cell in &sweep.cells[1..] {
            let context = format!(
                "{} on {:?}/{}",
                sweep.scenario, cell.backend, cell.transport
            );
            assert_cell_matches(reference, cell, &context);
        }
    }
}

/// Typed rejections are tier-independent: the Δ-coloring scenario rejects a
/// Brooks obstruction (an odd cycle) with the same lossless `DeltaError` on
/// both transports.
#[test]
fn typed_rejections_are_transport_identical() {
    let sweep = Runner::new(&DeltaScenario::default())
        .graph(GraphSpec::new("odd-ring", generators::ring(9)))
        .transports(TransportSpec::all())
        .catch_panics(true)
        .run();
    assert_eq!(sweep.cells.len(), 2);
    let mut rejections = Vec::new();
    for cell in &sweep.cells {
        match &cell.outcome {
            Err(e @ RunError::Rejected { .. }) => {
                let delta = e
                    .rejection::<DeltaError>()
                    .expect("the concrete DeltaError survives the runner");
                rejections.push((cell.transport, delta.clone(), e.to_string()));
            }
            other => panic!(
                "{}: an odd ring must be rejected as a Brooks obstruction, got {other:?}",
                cell.transport
            ),
        }
    }
    assert!(
        rejections
            .windows(2)
            .all(|w| w[0].1 == w[1].1 && w[0].2 == w[1].2),
        "tiers disagreed on the rejection: {rejections:?}"
    );
}
