//! The Corollary 1.2 pipeline as a [`dcl_runner::Scenario`].
//!
//! Thin adapter over [`color_via_decomposition`] (which stays public). The
//! report's extras carry the decomposition quality stats (`α`, `β`, `κ`)
//! and the decomposition/coloring round split the E5 experiment tabulates.
//!
//! The full `ExecConfig` is honored, transport tier included: the same
//! cell re-run on `TransportSpec::Tcp` ships its rounds through real
//! localhost sockets and still produces a bit-identical
//! `Report` (pinned by `tests/transport_oracle.rs` at the workspace root).

use crate::coloring::{color_via_decomposition, DecompColoringConfig};
use dcl_coloring::instance::ListInstance;
use dcl_graphs::Graph;
use dcl_runner::{Model, Report, RunError, Scenario};
use dcl_sim::ExecConfig;

/// The decomposition-based `poly log n` CONGEST coloring of Corollary 1.2
/// as a runnable scenario (name `"decomp"`).
///
/// # Examples
///
/// ```
/// use dcl_decomp::scenario::DecompScenario;
/// use dcl_graphs::generators;
/// use dcl_runner::Scenario;
/// use dcl_sim::ExecConfig;
///
/// let g = generators::cluster_chain(5, 6, 0.5, 4);
/// let report = DecompScenario::default()
///     .run(&g, &ExecConfig::default())
///     .unwrap();
/// assert!(report.valid());
/// assert!(report.extra("alpha").unwrap() >= 1, "at least one color class");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct DecompScenario {
    /// Driver knobs; the runner's `ExecConfig` replaces `config.exec` per
    /// cell.
    pub config: DecompColoringConfig,
}

impl DecompScenario {
    /// A scenario with explicit driver knobs.
    pub fn with_config(config: DecompColoringConfig) -> Self {
        DecompScenario { config }
    }
}

impl Scenario for DecompScenario {
    fn name(&self) -> &str {
        "decomp"
    }

    fn model(&self) -> Model {
        Model::Congest
    }

    fn run(&self, graph: &Graph, exec: &ExecConfig) -> Result<Report, RunError> {
        let instance = ListInstance::degree_plus_one(graph.clone());
        let result = color_via_decomposition(&instance, &self.config.with_exec(*exec));
        let stats = result
            .decomposition
            .validate(graph)
            .expect("driver-built decompositions are valid by construction");
        let palette = graph.max_degree() as u64 + 1;
        Ok(Report::build(
            self.name(),
            self.model(),
            graph,
            palette,
            result.colors,
            result.metrics,
        )
        .with_extra("decomposition_rounds", result.decomposition_rounds)
        .with_extra("coloring_rounds", result.coloring_rounds)
        .with_extra("alpha", stats.colors as u64)
        .with_extra("beta", u64::from(stats.max_tree_diameter))
        .with_extra("kappa", u64::from(stats.congestion)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcl_graphs::generators;

    #[test]
    fn scenario_matches_the_direct_entry_point() {
        let g = generators::gnp(40, 0.1, 3);
        let report = DecompScenario::default()
            .run(&g, &ExecConfig::default())
            .unwrap();
        let direct = color_via_decomposition(
            &ListInstance::degree_plus_one(g.clone()),
            &DecompColoringConfig::default(),
        );
        assert_eq!(report.colors, direct.colors);
        assert_eq!(report.metrics, direct.metrics);
        assert_eq!(
            report.extra("decomposition_rounds"),
            Some(direct.decomposition_rounds)
        );
        assert_eq!(
            report.extra("coloring_rounds"),
            Some(direct.coloring_rounds)
        );
        assert!(report.valid());
    }

    #[test]
    fn scenario_metadata_is_stable() {
        let s = DecompScenario::default();
        assert_eq!(s.name(), "decomp");
        assert_eq!(s.model(), Model::Congest);
    }
}
