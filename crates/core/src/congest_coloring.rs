//! Theorem 1.1: deterministic `(degree+1)`-list coloring in
//! `O(D · log n · log C · (log Δ + log log C))` CONGEST rounds (with the
//! seed-length caveat of `DESIGN.md` §2.1).
//!
//! The driver is the proof of Theorem 1.1: compute a `K = O(Δ²)`-ish input
//! coloring with Linial's algorithm once, then iterate Lemma 2.1 `O(log n)`
//! times; after every iteration the freshly colored nodes announce their
//! color and the still-uncolored neighbors remove it from their lists, which
//! preserves the `(degree+1)` slack on the residual instance.

use crate::instance::ListInstance;
use crate::linial::linial_from_ids;
use crate::partial::{partial_coloring, PartialConfig, PartialOutcome};
use dcl_congest::bfs::build_bfs_forest;
use dcl_congest::network::{Metrics, Network};
use dcl_graphs::Graph;
use dcl_sim::ExecConfig;

/// Configuration of the Theorem 1.1 driver.
///
/// `#[non_exhaustive]`: build it with [`Default`] plus the `with_*` setters
/// so future knobs are not semver breaks.
#[derive(Debug, Clone, Copy, Default)]
#[non_exhaustive]
pub struct CongestColoringConfig {
    /// Strategy and accuracy of each partial-coloring invocation.
    pub partial: PartialConfig,
    /// Hard iteration cap (safety net; `None` = `6·⌈log₂ n⌉ + 10`, well
    /// above the guaranteed `log_{8/7} n` bound).
    pub max_iterations: Option<usize>,
    /// Simulator execution: round backend (results are bit-identical across
    /// backends) and bandwidth cap (`None` = the model default; smaller
    /// caps fragment wide payloads and stretch rounds accordingly — the
    /// sweep axis of `dcl_bench::e12_bandwidth_sweep`).
    pub exec: ExecConfig,
}

impl CongestColoringConfig {
    /// Sets the partial-coloring strategy (builder style).
    #[must_use]
    pub fn with_partial(mut self, partial: PartialConfig) -> Self {
        self.partial = partial;
        self
    }

    /// Sets the iteration safety cap (builder style).
    #[must_use]
    pub fn with_max_iterations(mut self, max_iterations: Option<usize>) -> Self {
        self.max_iterations = max_iterations;
        self
    }

    /// Sets the simulator execution knob (builder style).
    #[must_use]
    pub fn with_exec(mut self, exec: ExecConfig) -> Self {
        self.exec = exec;
        self
    }
}

/// Result of the full CONGEST coloring.
#[derive(Debug, Clone)]
pub struct ColoringResult {
    /// The proper list coloring (one color per node).
    pub colors: Vec<u64>,
    /// Number of Lemma 2.1 iterations used.
    pub iterations: usize,
    /// Simulator cost counters (rounds, messages, bits).
    pub metrics: Metrics,
    /// Palette of the Linial input coloring (the `K` of Lemma 2.1).
    pub linial_palette: u64,
    /// Per-iteration partial-coloring outcomes (for the experiment harness).
    pub outcomes: Vec<PartialOutcome>,
}

/// Colors a `(degree+1)`-list instance deterministically (Theorem 1.1).
///
/// # Panics
///
/// Panics if the iteration cap is exceeded (would indicate a progress bug —
/// Lemma 2.1 guarantees an eighth of the remaining nodes per iteration).
pub fn color_list_instance(
    instance: &ListInstance,
    config: &CongestColoringConfig,
) -> ColoringResult {
    let mut net = Network::from_exec(instance.graph(), instance.color_space(), &config.exec);
    color_list_instance_on(&mut net, instance, config)
}

/// [`color_list_instance`] on a caller-supplied [`Network`], so scenario
/// pipelines that run Theorem 1.1 as one phase of a longer algorithm (e.g.
/// the `dcl_delta` Δ-coloring) accumulate every round on a single simulator.
/// The network's graph must be the instance graph; `config.exec` is ignored
/// (the network already carries its backend and cap). The returned
/// [`ColoringResult::metrics`] are the network's cumulative counters, which
/// include whatever the caller already charged.
///
/// # Panics
///
/// Panics if the iteration cap is exceeded (progress bug) or if the
/// network's graph differs from the instance graph.
pub fn color_list_instance_on(
    net: &mut Network<'_>,
    instance: &ListInstance,
    config: &CongestColoringConfig,
) -> ColoringResult {
    let g = instance.graph();
    let n = g.n();
    assert_eq!(
        net.graph(),
        g,
        "network graph must match the instance graph"
    );
    if n == 0 {
        return ColoringResult {
            colors: Vec::new(),
            iterations: 0,
            metrics: net.metrics(),
            linial_palette: 0,
            outcomes: Vec::new(),
        };
    }
    let forest = build_bfs_forest(net);
    let lin = linial_from_ids(net);

    let cap = config
        .max_iterations
        .unwrap_or_else(|| 6 * (usize::BITS - (n - 1).leading_zeros()) as usize + 10);

    let mut residual = instance.clone();
    let mut active = vec![true; n];
    let mut colors: Vec<Option<u64>> = vec![None; n];
    let mut outcomes = Vec::new();
    let mut remaining = n;

    while remaining > 0 {
        assert!(
            outcomes.len() < cap,
            "iteration cap {cap} exceeded with {remaining} nodes uncolored — progress bug"
        );
        let outcome = partial_coloring(
            net,
            &forest,
            &residual,
            &active,
            &lin.colors,
            lin.palette,
            config.partial,
        );
        // One real round: newly colored nodes announce their final color;
        // uncolored neighbors delete it from their lists.
        let newly: Vec<Option<u64>> = {
            let mut a = vec![None; n];
            for &(v, c) in &outcome.colored {
                a[v] = Some(c);
            }
            a
        };
        let inboxes = net.fragmented_broadcast_round(|v| newly[v]);
        for &(v, c) in &outcome.colored {
            colors[v] = Some(c);
            active[v] = false;
            remaining -= 1;
        }
        for v in 0..n {
            if active[v] {
                for &(_, c) in &inboxes[v] {
                    residual.remove_color(v, c);
                }
            }
        }
        outcomes.push(outcome);
    }

    ColoringResult {
        colors: colors
            .into_iter()
            .map(|c| c.expect("loop exits only when all colored"))
            .collect(),
        iterations: outcomes.len(),
        metrics: net.metrics(),
        linial_palette: lin.palette,
        outcomes,
    }
}

/// Colors the canonical `(Δ+1)` instance of `graph` (lists `{0..deg(v)}`).
pub fn color_degree_plus_one(graph: &Graph, config: &CongestColoringConfig) -> ColoringResult {
    color_list_instance(&ListInstance::degree_plus_one(graph.clone()), config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partial::ConflictResolution;
    use dcl_graphs::{generators, metrics, validation};

    #[test]
    fn colors_random_graphs_properly() {
        for seed in 0..4 {
            let g = generators::gnp(40, 0.15, seed);
            let result = color_degree_plus_one(&g, &CongestColoringConfig::default());
            assert_eq!(
                validation::check_proper(&g, &result.colors),
                None,
                "seed {seed}"
            );
            // (Δ+1) colors suffice.
            let delta = g.max_degree() as u64;
            assert!(result.colors.iter().all(|&c| c <= delta));
        }
    }

    #[test]
    fn colors_structured_graphs() {
        for g in [
            generators::ring(31),
            generators::star(20),
            generators::complete(9),
            generators::grid(5, 6),
            generators::hypercube(4),
        ] {
            let result = color_degree_plus_one(&g, &CongestColoringConfig::default());
            assert_eq!(validation::check_proper(&g, &result.colors), None);
        }
    }

    #[test]
    fn respects_arbitrary_lists() {
        // Custom lists with gaps and a large color space.
        let g = generators::ring(10);
        let lists: Vec<Vec<u64>> = (0..10)
            .map(|v| vec![7 + v as u64, 31 + v as u64, 64 + (v % 3) as u64])
            .collect();
        let inst = ListInstance::new(g, 128, lists.clone()).unwrap();
        let result = color_list_instance(&inst, &CongestColoringConfig::default());
        assert_eq!(
            validation::check_list_coloring(inst.graph(), &lists, &result.colors),
            None
        );
    }

    #[test]
    fn iteration_count_is_logarithmic() {
        let g = generators::gnp(64, 0.1, 3);
        let result = color_degree_plus_one(&g, &CongestColoringConfig::default());
        // log_{8/7} 64 ≈ 31; in practice far fewer.
        assert!(
            result.iterations <= 31,
            "took {} iterations",
            result.iterations
        );
    }

    #[test]
    fn deterministic_end_to_end() {
        let g = generators::gnp(30, 0.2, 9);
        let r1 = color_degree_plus_one(&g, &CongestColoringConfig::default());
        let r2 = color_degree_plus_one(&g, &CongestColoringConfig::default());
        assert_eq!(r1.colors, r2.colors);
        assert_eq!(r1.metrics, r2.metrics);
    }

    #[test]
    fn handles_disconnected_graphs() {
        let g = dcl_graphs::Graph::from_edges(
            9,
            &[(0, 1), (1, 2), (2, 0), (3, 4), (5, 6), (6, 7), (7, 8)],
        )
        .unwrap();
        let result = color_degree_plus_one(&g, &CongestColoringConfig::default());
        assert_eq!(validation::check_proper(&g, &result.colors), None);
    }

    #[test]
    fn handles_trivial_graphs() {
        let empty = dcl_graphs::Graph::empty(0);
        assert_eq!(
            color_degree_plus_one(&empty, &CongestColoringConfig::default()).colors,
            vec![]
        );
        let single = dcl_graphs::Graph::empty(1);
        let r = color_degree_plus_one(&single, &CongestColoringConfig::default());
        assert_eq!(r.colors, vec![0]);
        let edgeless = dcl_graphs::Graph::empty(5);
        let r = color_degree_plus_one(&edgeless, &CongestColoringConfig::default());
        assert_eq!(r.colors, vec![0; 5]);
        assert_eq!(r.iterations, 1);
    }

    #[test]
    fn avoid_mis_variant_also_completes() {
        let g = generators::gnp(32, 0.2, 4);
        let config = CongestColoringConfig::default().with_partial(PartialConfig {
            resolution: ConflictResolution::AvoidMis,
            extra_accuracy_bits: 0,
        });
        let result = color_degree_plus_one(&g, &config);
        assert_eq!(validation::check_proper(&g, &result.colors), None);
    }

    #[test]
    fn rounds_scale_with_diameter() {
        // Same n and Δ, very different D: rounds should grow accordingly.
        let small_d = generators::hypercube(5); // n=32, D=5
        let large_d = generators::ring(32); // D=16
        let r_small = color_degree_plus_one(&small_d, &CongestColoringConfig::default());
        let r_large = color_degree_plus_one(&large_d, &CongestColoringConfig::default());
        let d_small = metrics::diameter(&small_d).unwrap() as f64;
        let d_large = metrics::diameter(&large_d).unwrap() as f64;
        assert!(d_large > d_small);
        assert!(
            (r_large.metrics.rounds as f64) > (r_small.metrics.rounds as f64) * 0.5,
            "ring ({}) should not be much cheaper than hypercube ({})",
            r_large.metrics.rounds,
            r_small.metrics.rounds
        );
    }
}
