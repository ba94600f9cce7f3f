//! The Theorem 1.1 pipeline as a [`dcl_runner::Scenario`].
//!
//! Thin adapter over [`color_list_instance`] (which stays public): the
//! scenario colors the canonical `(degree+1)` instance of the input graph
//! under the `ExecConfig` handed in by the runner. Custom list instances
//! keep using the underlying entry point directly.
//!
//! The full `ExecConfig` is honored, transport tier included: the same
//! cell re-run on `TransportSpec::Tcp` ships its rounds through real
//! localhost sockets and still produces a bit-identical
//! `Report` (pinned by `tests/transport_oracle.rs` at the workspace root).

use crate::congest_coloring::{color_list_instance, CongestColoringConfig};
use crate::instance::ListInstance;
use dcl_graphs::Graph;
use dcl_runner::{Model, Report, RunError, Scenario};
use dcl_sim::ExecConfig;

/// The CONGEST `(degree+1)`-list coloring of Theorem 1.1 as a runnable
/// scenario (name `"congest"`).
///
/// # Examples
///
/// ```
/// use dcl_coloring::scenario::CongestScenario;
/// use dcl_graphs::generators;
/// use dcl_runner::Scenario;
/// use dcl_sim::ExecConfig;
///
/// let g = generators::gnp(48, 0.12, 7);
/// let report = CongestScenario::default()
///     .run(&g, &ExecConfig::default())
///     .unwrap();
/// assert!(report.valid());
/// assert_eq!(report.palette, g.max_degree() as u64 + 1);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct CongestScenario {
    /// Driver knobs; the runner's `ExecConfig` replaces `config.exec` per
    /// cell.
    pub config: CongestColoringConfig,
}

impl CongestScenario {
    /// A scenario with explicit driver knobs.
    pub fn with_config(config: CongestColoringConfig) -> Self {
        CongestScenario { config }
    }
}

impl Scenario for CongestScenario {
    fn name(&self) -> &str {
        "congest"
    }

    fn model(&self) -> Model {
        Model::Congest
    }

    fn run(&self, graph: &Graph, exec: &ExecConfig) -> Result<Report, RunError> {
        let instance = ListInstance::degree_plus_one(graph.clone());
        let result = color_list_instance(&instance, &self.config.with_exec(*exec));
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
        .with_extra("linial_palette", result.linial_palette))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::congest_coloring::color_degree_plus_one;
    use dcl_graphs::generators;

    #[test]
    fn scenario_matches_the_direct_entry_point() {
        let g = generators::random_regular(40, 5, 3);
        let report = CongestScenario::default()
            .run(&g, &ExecConfig::default())
            .unwrap();
        let direct = color_degree_plus_one(&g, &CongestColoringConfig::default());
        assert_eq!(report.colors, direct.colors);
        assert_eq!(report.metrics, direct.metrics);
        assert_eq!(report.extra("iterations"), Some(direct.iterations as u64));
        assert_eq!(report.extra("linial_palette"), Some(direct.linial_palette));
        assert!(report.valid());
    }

    #[test]
    fn scenario_metadata_is_stable() {
        let s = CongestScenario::default();
        assert_eq!(s.name(), "congest");
        assert_eq!(s.model(), Model::Congest);
    }
}
