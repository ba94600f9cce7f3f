//! Cross-model integration tests, driven through the unified front door:
//! the same instances are solved by every [`Scenario`] in the workspace
//! (CONGEST Theorem 1.1, decomposition-based Corollary 1.2, CONGESTED
//! CLIQUE Theorem 1.3, MPC Theorems 1.4/1.5, the Δ-coloring scenario) by
//! iterating `distributed_coloring::scenarios::all()`, and every [`Report`]
//! is validated against the shared summary plus the reference checkers.

use distributed_coloring::coloring::baselines;
use distributed_coloring::coloring::congest_coloring::{
    color_list_instance, CongestColoringConfig,
};
use distributed_coloring::coloring::instance::ListInstance;
use distributed_coloring::congest::bfs::build_bfs_forest;
use distributed_coloring::congest::network::{Metrics, Network};
use distributed_coloring::congest::tree::{
    aggregate_vec_forest_charged, broadcast_forest_charged, broadcast_stepped, convergecast_stepped,
};
use distributed_coloring::decomp::coloring::{color_via_decomposition, DecompColoringConfig};
use distributed_coloring::graphs::{generators, validation, Graph};
use distributed_coloring::runner::{Report, Scenario};
use distributed_coloring::scenarios;
use distributed_coloring::ExecConfig;

fn instances() -> Vec<(String, Graph)> {
    vec![
        ("gnp-sparse".into(), generators::gnp(40, 0.08, 1)),
        ("gnp-dense".into(), generators::gnp(28, 0.3, 2)),
        ("regular".into(), generators::random_regular(36, 5, 3)),
        ("ring".into(), generators::ring(33)),
        ("grid".into(), generators::grid(5, 7)),
        ("star".into(), generators::star(21)),
        ("chain".into(), generators::cluster_chain(5, 6, 0.5, 4)),
        ("disconnected".into(), {
            Graph::from_edges(
                12,
                &[(0, 1), (1, 2), (2, 0), (4, 5), (6, 7), (7, 8), (8, 9)],
            )
            .unwrap()
        }),
    ]
}

/// The Δ-coloring scenario rejects Brooks obstructions by design; small-Δ
/// shared instances (the odd ring, the Δ = 2 disconnected graph with a
/// triangle component) are covered by `dcl_delta`'s own tests.
fn applicable(scenario: &dyn Scenario, g: &Graph) -> bool {
    scenario.name() != "delta" || g.max_degree() >= 3
}

fn run(scenario: &dyn Scenario, name: &str, g: &Graph) -> Report {
    scenario
        .run(g, &ExecConfig::default())
        .unwrap_or_else(|e| panic!("{name}/{}: {e}", scenario.name()))
}

#[test]
fn every_scenario_colors_every_instance_properly() {
    for (name, g) in instances() {
        let mut ran = 0;
        for scenario in scenarios::all() {
            if !applicable(scenario.as_ref(), &g) {
                continue;
            }
            let report = run(scenario.as_ref(), &name, &g);
            assert_eq!(report.colors.len(), g.n(), "{name}/{}", scenario.name());
            assert!(report.proper, "{name}/{}", scenario.name());
            assert!(
                report.within_palette(),
                "{name}/{}: colors must stay below the promised palette {}",
                scenario.name(),
                report.palette
            );
            // The unified summary must agree with the reference checker.
            assert_eq!(
                validation::check_proper(&g, &report.colors),
                None,
                "{name}/{}",
                scenario.name()
            );
            ran += 1;
        }
        assert!(ran >= 5, "{name}: at least the five (Δ+1) pipelines ran");

        // The randomized baseline is a comparison oracle, not a scenario.
        let random = baselines::johansson(&ListInstance::degree_plus_one(g.clone()), 5);
        assert_eq!(
            validation::check_proper(&g, &random.colors),
            None,
            "{name}/johansson"
        );
    }
}

/// The Δ-coloring scenario promises one color fewer than the `(Δ+1)`
/// scenarios on every applicable instance — visible directly in the
/// unified report palettes.
#[test]
fn delta_scenario_saves_a_color_on_shared_instances() {
    let congest = scenarios::CongestScenario::default();
    let delta = scenarios::DeltaScenario::default();
    let mut checked = 0;
    for (name, g) in instances() {
        if !applicable(&delta, &g) {
            continue;
        }
        let d = run(&delta, &name, &g);
        let c = run(&congest, &name, &g);
        assert_eq!(d.palette, g.max_degree() as u64, "{name}");
        assert_eq!(c.palette, g.max_degree() as u64 + 1, "{name}");
        assert!(d.valid(), "{name}/delta");
        assert!(c.valid(), "{name}/congest");
        checked += 1;
    }
    assert!(checked >= 5, "most shared instances have Δ ≥ 3");
}

#[test]
fn all_models_respect_shared_custom_lists() {
    // Custom list instances sit below the Scenario surface (scenarios run
    // the canonical degree+1 instance); the underlying entry points stay
    // public precisely for this.
    use distributed_coloring::clique::coloring::{clique_color, CliqueColoringConfig};
    use distributed_coloring::mpc::coloring::{mpc_color_linear, mpc_color_sublinear};
    let g = generators::gnp(30, 0.15, 9);
    // Lists with gaps, shared across all models.
    let lists: Vec<Vec<u64>> = g
        .nodes()
        .map(|v| {
            (0..=g.degree(v) as u64)
                .map(|i| i * 5 + (v % 3) as u64)
                .collect()
        })
        .collect();
    let c = 5 * (g.max_degree() as u64 + 1) + 3;
    let inst = ListInstance::new(g.clone(), c, lists.clone()).unwrap();

    for (model, colors) in [
        (
            "congest",
            color_list_instance(&inst, &CongestColoringConfig::default()).colors,
        ),
        (
            "decomp",
            color_via_decomposition(&inst, &DecompColoringConfig::default()).colors,
        ),
        (
            "clique",
            clique_color(&inst, &CliqueColoringConfig::default()).colors,
        ),
        ("mpc-linear", mpc_color_linear(&inst).colors),
        ("mpc-sublinear", mpc_color_sublinear(&inst, 0.7).colors),
    ] {
        assert_eq!(
            validation::check_list_coloring(&g, &lists, &colors),
            None,
            "{model}"
        );
    }
}

#[test]
fn deterministic_scenarios_are_reproducible() {
    let g = generators::gnp(26, 0.2, 17);
    for scenario in scenarios::all() {
        if !applicable(scenario.as_ref(), &g) {
            continue;
        }
        let a = run(scenario.as_ref(), "gnp(26,0.2)", &g);
        let b = run(scenario.as_ref(), "gnp(26,0.2)", &g);
        assert_eq!(a, b, "{}: report must be bit-identical", scenario.name());
    }
}

#[test]
fn clique_beats_congest_on_high_diameter() {
    let g = generators::ring(64);
    let congest = run(&scenarios::CongestScenario::default(), "ring(64)", &g);
    let clique = run(&scenarios::CliqueScenario::default(), "ring(64)", &g);
    assert!(
        clique.metrics.rounds * 4 < congest.metrics.rounds,
        "clique {} vs congest {}",
        clique.metrics.rounds,
        congest.metrics.rounds
    );
}

/// The charged (formula-cost) forest collectives the Lemma 2.6 drivers run
/// cost exactly what their stepped (round-by-round) twins cost when the
/// forest's trees run side by side — per-tree results, rounds the maximum
/// over trees, messages and bits the sum — on multi-tree forests, at the
/// default cap and at a swept cap of one word (`DESIGN.md` §2.4). Smaller
/// caps fragment the aggregation's words into a pipelined schedule with no
/// stepped twin; `dcl_congest::tree`'s unit tests pin that formula.
#[test]
fn charged_tree_aggregation_costs_equal_stepped_costs() {
    for cap_bits in [128u32, 64] {
        for seed in 0..3 {
            let context = format!("cap {cap_bits} seed {seed}");
            let g = generators::gnp(40, 0.06, seed);
            let forest = build_bfs_forest(&mut Network::new(&g, cap_bits));
            assert!(
                forest.trees.len() > 1,
                "{context}: want a multi-tree forest"
            );
            // Integer-valued f64 sums are exact in any combine order.
            let values: Vec<f64> = (0..40).map(|v| (v * v + seed as usize) as f64).collect();
            let vectors: Vec<Vec<f64>> = values.iter().map(|&x| vec![x]).collect();
            let per_tree: Vec<u64> = (0..forest.trees.len() as u64).map(|c| 99_999 + c).collect();

            let mut charged_aggregate = Network::new(&g, cap_bits);
            let sums = aggregate_vec_forest_charged(&mut charged_aggregate, &forest, &vectors, 1);
            let mut charged_broadcast = Network::new(&g, cap_bits);
            let out = broadcast_forest_charged(&mut charged_broadcast, &forest, &per_tree);

            let (mut aggregate_cost, mut broadcast_cost) = (Metrics::default(), Metrics::default());
            for (c, tree) in forest.trees.iter().enumerate() {
                let mut net = Network::new(&g, cap_bits);
                let sum = convergecast_stepped(&mut net, tree, &values, |x, y| x + y);
                assert_eq!(sums[c], vec![sum], "{context}: tree {c} aggregate diverged");
                add_side_by_side(&mut aggregate_cost, net.metrics());

                let mut net = Network::new(&g, cap_bits);
                let delivered = broadcast_stepped(&mut net, tree, per_tree[c]);
                for v in g.nodes().filter(|&v| tree.contains(v)) {
                    assert_eq!(delivered[v], Some(out[v]), "{context}: node {v}");
                }
                add_side_by_side(&mut broadcast_cost, net.metrics());
            }
            assert_eq!(
                charged_aggregate.metrics(),
                aggregate_cost,
                "{context}: charged aggregation costs diverged from stepped"
            );
            assert_eq!(
                charged_broadcast.metrics(),
                broadcast_cost,
                "{context}: charged broadcast costs diverged from stepped"
            );
        }
    }
}

/// Adds one tree's stepped cost to the cost of a forest whose trees run
/// side by side: rounds are the maximum over trees, traffic the sum.
fn add_side_by_side(forest: &mut Metrics, tree: Metrics) {
    forest.rounds = forest.rounds.max(tree.rounds);
    forest.messages += tree.messages;
    forest.bits += tree.bits;
    forest.max_message_bits = forest.max_message_bits.max(tree.max_message_bits);
}

/// Pins the default-cap formula of `DESIGN.md` §2.2 across the facade:
/// `2 · max(64, ⌈log₂ n⌉, ⌈log₂ C⌉)` bits.
#[test]
fn default_bandwidth_cap_formula_matches_design() {
    use distributed_coloring::BandwidthCap;
    assert_eq!(BandwidthCap::default_for(8, 8).bits(), 128);
    assert_eq!(BandwidthCap::default_for(1 << 20, 1 << 40).bits(), 128);
    assert_eq!(BandwidthCap::default_for(8, u64::MAX).bits(), 128);
    let g = generators::path(4);
    assert_eq!(Network::with_default_cap(&g, 100).cap_bits(), 128);
}

#[test]
fn decomposition_validates_on_every_instance() {
    for (name, g) in instances() {
        let inst = ListInstance::degree_plus_one(g.clone());
        let result = color_via_decomposition(&inst, &DecompColoringConfig::default());
        let stats = result.decomposition.validate(&g).unwrap_or_else(|e| {
            panic!("{name}: invalid decomposition: {e}");
        });
        // Empirical sanity versus the asymptotic bounds (generous slack).
        let logn = (g.n().max(2) as f64).log2();
        assert!(
            (stats.colors as f64) <= 4.0 * logn + 8.0,
            "{name}: α = {}",
            stats.colors
        );
        assert!(
            f64::from(stats.congestion) <= 2.0 * logn + 4.0,
            "{name}: κ = {}",
            stats.congestion
        );
    }
}
