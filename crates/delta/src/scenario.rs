//! The Δ-coloring pipeline as a [`dcl_runner::Scenario`].
//!
//! Thin adapter over [`delta_color`] (which stays public). Brooks
//! obstructions come back as [`dcl_runner::RunError::Rejected`] with the
//! original [`DeltaError`](crate::DeltaError) preserved —
//! `err.rejection::<DeltaError>()` recovers it losslessly.
//!
//! The full `ExecConfig` is honored, transport tier included: the same
//! cell re-run on `TransportSpec::Tcp` ships its rounds through real
//! localhost sockets and still produces a bit-identical
//! outcome — typed rejections included (pinned by
//! `tests/transport_oracle.rs` at the workspace root).

use crate::coloring::{delta_color, DeltaColoringConfig};

use dcl_graphs::Graph;
use dcl_runner::{Model, Report, RunError, Scenario};
use dcl_sim::ExecConfig;

/// The Brooks-bound Δ-coloring of Halldórsson–Maus 2024 as a runnable
/// scenario (name `"delta"`). Unlike the `(Δ+1)` scenarios this one is
/// fallible: `K_{Δ+1}` components and odd cycles are rejected by theorem.
///
/// # Examples
///
/// ```
/// use dcl_delta::{scenario::DeltaScenario, DeltaError};
/// use dcl_graphs::generators;
/// use dcl_runner::Scenario;
/// use dcl_sim::ExecConfig;
///
/// let g = generators::random_regular(48, 5, 7);
/// let report = DeltaScenario::default().run(&g, &ExecConfig::default()).unwrap();
/// assert!(report.valid());
/// assert_eq!(report.palette, 5, "Δ colors, not Δ+1");
///
/// let k4 = generators::complete(4);
/// let err = DeltaScenario::default().run(&k4, &ExecConfig::default()).unwrap_err();
/// assert!(matches!(
///     err.rejection::<DeltaError>(),
///     Some(DeltaError::CliqueObstruction { size: 4, .. })
/// ));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct DeltaScenario {
    /// Driver knobs; the runner's `ExecConfig` replaces `config.exec` per
    /// cell.
    pub config: DeltaColoringConfig,
}

impl DeltaScenario {
    /// A scenario with explicit driver knobs.
    pub fn with_config(config: DeltaColoringConfig) -> Self {
        DeltaScenario { config }
    }
}

impl Scenario for DeltaScenario {
    fn name(&self) -> &str {
        "delta"
    }

    fn model(&self) -> Model {
        Model::Congest
    }

    fn run(&self, graph: &Graph, exec: &ExecConfig) -> Result<Report, RunError> {
        match delta_color(graph, &self.config.with_exec(*exec)) {
            Ok(result) => Ok(Report::build(
                self.name(),
                self.model(),
                graph,
                result.palette,
                result.colors,
                result.metrics,
            )
            .with_extra("phase1_iterations", result.phase1_iterations as u64)
            .with_extra("overflow_nodes", result.overflow_nodes as u64)
            .with_extra("greedy_recolored", result.greedy_recolored as u64)
            .with_extra("kempe_probes", result.kempe_probes as u64)
            .with_extra("kempe_flips", result.kempe_flips as u64)
            .with_extra("collect_fallbacks", result.collect_fallbacks as u64)),
            Err(obstruction) => Err(RunError::rejected(self.name(), obstruction)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeltaError;
    use dcl_graphs::generators;

    #[test]
    fn scenario_matches_the_direct_entry_point() {
        let g = generators::random_regular(40, 5, 3);
        let report = DeltaScenario::default()
            .run(&g, &ExecConfig::default())
            .unwrap();
        let direct = delta_color(&g, &DeltaColoringConfig::default()).unwrap();
        assert_eq!(report.colors, direct.colors);
        assert_eq!(report.metrics, direct.metrics);
        assert_eq!(report.palette, direct.palette);
        assert_eq!(
            report.extra("overflow_nodes"),
            Some(direct.overflow_nodes as u64)
        );
        assert_eq!(report.extra("kempe_flips"), Some(direct.kempe_flips as u64));
        assert!(report.valid());
    }

    #[test]
    fn obstructions_reject_losslessly() {
        let k5 = generators::complete(5);
        let err = DeltaScenario::default()
            .run(&k5, &ExecConfig::default())
            .unwrap_err();
        match err.rejection::<DeltaError>() {
            Some(DeltaError::CliqueObstruction { size, .. }) => assert_eq!(*size, 5),
            other => panic!("expected a clique obstruction, got {other:?}"),
        }
        assert!(err.to_string().contains("rejected"), "{err}");

        let odd = generators::ring(9);
        let err = DeltaScenario::default()
            .run(&odd, &ExecConfig::default())
            .unwrap_err();
        assert!(matches!(
            err.rejection::<DeltaError>(),
            Some(DeltaError::OddCycle { length: 9, .. })
        ));
    }

    #[test]
    fn scenario_metadata_is_stable() {
        let s = DeltaScenario::default();
        assert_eq!(s.name(), "delta");
        assert_eq!(s.model(), Model::Congest);
    }
}
