//! The Theorem 1.3 pipeline as a [`dcl_runner::Scenario`].
//!
//! Thin adapter over [`clique_color`] (which stays public).
//!
//! The full `ExecConfig` is honored, transport tier included: the final
//! collect's Lenzen-routed records ship through the selected tier and the
//! leader colors from what it received, while every other step is a
//! charged formula (`DESIGN.md` §7). The `Report` is bit-identical across
//! `TransportSpec`s (pinned by `tests/transport_oracle.rs`).

use crate::coloring::{clique_color, CliqueColoringConfig};
use dcl_coloring::instance::ListInstance;
use dcl_graphs::Graph;
use dcl_runner::{Model, Report, RunError, Scenario};
use dcl_sim::ExecConfig;

/// The CONGESTED CLIQUE `(degree+1)`-list coloring of Theorem 1.3 as a
/// runnable scenario (name `"clique"`).
///
/// # Examples
///
/// ```
/// use dcl_clique::scenario::CliqueScenario;
/// use dcl_graphs::generators;
/// use dcl_runner::Scenario;
/// use dcl_sim::ExecConfig;
///
/// let g = generators::random_regular(30, 4, 9);
/// let report = CliqueScenario::default()
///     .run(&g, &ExecConfig::default())
///     .unwrap();
/// assert!(report.valid());
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct CliqueScenario {
    /// Driver knobs; the runner's `ExecConfig` replaces `config.exec` per
    /// cell.
    pub config: CliqueColoringConfig,
}

impl CliqueScenario {
    /// A scenario with explicit driver knobs.
    pub fn with_config(config: CliqueColoringConfig) -> Self {
        CliqueScenario { config }
    }
}

impl Scenario for CliqueScenario {
    fn name(&self) -> &str {
        "clique"
    }

    fn model(&self) -> Model {
        Model::CongestedClique
    }

    fn run(&self, graph: &Graph, exec: &ExecConfig) -> Result<Report, RunError> {
        let instance = ListInstance::degree_plus_one(graph.clone());
        let result = clique_color(&instance, &self.config.with_exec(*exec));
        let palette = graph.max_degree() as u64 + 1;
        Ok(Report::build(
            self.name(),
            self.model(),
            graph,
            palette,
            result.colors,
            result.metrics,
        )
        .with_extra("iterations", result.iterations as u64)
        .with_extra("collected_nodes", result.collected_nodes as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcl_graphs::generators;

    #[test]
    fn scenario_matches_the_direct_entry_point() {
        let g = generators::gnp(36, 0.15, 2);
        let report = CliqueScenario::default()
            .run(&g, &ExecConfig::default())
            .unwrap();
        let direct = clique_color(
            &ListInstance::degree_plus_one(g.clone()),
            &CliqueColoringConfig::default(),
        );
        assert_eq!(report.colors, direct.colors);
        assert_eq!(report.metrics, direct.metrics);
        assert_eq!(report.extra("iterations"), Some(direct.iterations as u64));
        assert_eq!(
            report.extra("collected_nodes"),
            Some(direct.collected_nodes as u64)
        );
        assert!(report.valid());
    }

    #[test]
    fn scenario_metadata_is_stable() {
        let s = CliqueScenario::default();
        assert_eq!(s.name(), "clique");
        assert_eq!(s.model(), Model::CongestedClique);
    }
}
