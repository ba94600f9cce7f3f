//! Adversarial graph families through the `Report` oracle and the list
//! entry points: stars, complete and complete bipartite graphs, a
//! caterpillar, a binary tree, a hypercube, a grid, a barbell, plus the
//! Brooks-tight inputs of the Δ-coloring regime (Halldórsson–Maus 2024):
//! K_{Δ+1} components, which must be rejected, and a clique one edge short,
//! which must be colored.
//!
//! Each family test sweeps every scenario × {`Sequential`, `Parallel(2)`} ×
//! every transport tier through the `Runner`: every cell must equal the
//! sequential, in-memory reference, and the reference must be a proper,
//! in-palette coloring or the typed `DeltaError::CliqueObstruction`. Each
//! list-kind test runs the CONGEST, clique and MPC entry points on every
//! family under both backends and checks the list coloring. Sizes keep the
//! file well under half a minute in a debug build.

use distributed_coloring::clique::coloring::{clique_color, CliqueColoringConfig};
use distributed_coloring::coloring::congest_coloring::{
    color_list_instance, CongestColoringConfig,
};
use distributed_coloring::coloring::instance::ListInstance;
use distributed_coloring::delta::DeltaError;
use distributed_coloring::graphs::{generators, validation, Graph};
use distributed_coloring::mpc::{mpc_color_linear_with, mpc_color_sublinear_with};
use distributed_coloring::runner::{GraphSpec, Runner};
use distributed_coloring::{scenarios, Backend, ExecConfig, TransportSpec};

/// Two `K_k` joined through a path of `bridge` extra nodes: dense ends, a
/// long diameter.
fn barbell(k: usize, bridge: usize) -> Graph {
    let n = 2 * k + bridge;
    let mut edges = Vec::new();
    for offset in [0, k + bridge] {
        for u in 0..k {
            for v in u + 1..k {
                edges.push((offset + u, offset + v));
            }
        }
    }
    // k−1, k, …, k+bridge−1, k+bridge: the path from one clique to the other.
    for v in k - 1..k + bridge {
        edges.push((v, v + 1));
    }
    Graph::from_edges(n, &edges).expect("barbell edges are valid")
}

/// `K_k` with the edge `{0, 1}` removed: every Δ-coloring must give its two
/// endpoints the same color.
fn clique_minus_edge(k: usize) -> Graph {
    let edges: Vec<_> = (0..k)
        .flat_map(|u| (u + 1..k).map(move |v| (u, v)))
        .filter(|&e| e != (0, 1))
        .collect();
    Graph::from_edges(k, &edges).expect("clique edges are valid")
}

/// A `hypercube(3)` (Δ = 3) next to a `K_4` component on nodes 8–11.
fn cube_beside_k4() -> Graph {
    let mut edges: Vec<_> = generators::hypercube(3).edges().collect();
    edges.extend((8..12).flat_map(|u| (u + 1..12).map(move |v| (u, v))));
    Graph::from_edges(12, &edges).expect("component edges are valid")
}

/// The ROADMAP's deterministic probe families, sized for a debug build.
fn families() -> Vec<(&'static str, Graph)> {
    vec![
        ("star", generators::star(24)),
        ("complete_bipartite", generators::complete_bipartite(6, 7)),
        ("caterpillar", generators::caterpillar(10, 3)),
        ("binary_tree", generators::binary_tree(31)),
        ("hypercube", generators::hypercube(4)),
        ("grid", generators::grid(5, 5)),
        ("barbell", barbell(5, 6)),
        ("complete", generators::complete(8)),
    ]
}

fn family(label: &str) -> Graph {
    families()
        .into_iter()
        .find(|(name, _)| *name == label)
        .map(|(_, g)| g)
        .expect("a known family")
}

/// Sweeps every scenario over both backends and every transport tier on
/// `g` and checks every cell against the sequential, in-memory reference.
/// The reference must be a proper, in-palette coloring, except that the
/// Δ-coloring scenario must reject with `obstruction` when one is given.
fn assert_report_grid(label: &str, g: Graph, obstruction: Option<DeltaError>) {
    for scenario in scenarios::all() {
        let sweep = Runner::new(scenario.as_ref())
            .graph(GraphSpec::new(label, g.clone()))
            .backends([Backend::Sequential, Backend::Parallel(2)])
            .transports(TransportSpec::all())
            .catch_panics(true)
            .run();
        assert_eq!(sweep.cells.len(), 2 * TransportSpec::all().len());
        let context = format!("{label}/{}", sweep.scenario);
        let reference = &sweep.cells[0];
        assert_eq!(
            (reference.backend, reference.transport),
            (Backend::Sequential, TransportSpec::Local)
        );
        match (&reference.outcome, &obstruction) {
            (Err(e), Some(expected)) if sweep.scenario == "delta" => {
                assert_eq!(e.rejection::<DeltaError>(), Some(expected), "{context}");
            }
            (Ok(report), _) if sweep.scenario != "delta" || obstruction.is_none() => {
                assert!(report.valid(), "{context}: {report:?}");
                assert_eq!(validation::check_proper(&g, &report.colors), None);
            }
            (outcome, _) => panic!("{context}: unexpected reference {outcome:?}"),
        }
        for cell in &sweep.cells[1..] {
            let cell_context = format!("{context} on {:?}/{}", cell.backend, cell.transport);
            match (&reference.outcome, &cell.outcome) {
                (Ok(expected), Ok(report)) => assert_eq!(report, expected, "{cell_context}"),
                (Err(expected), Err(err)) => {
                    assert_eq!(err.to_string(), expected.to_string(), "{cell_context}");
                }
                (_, outcome) => panic!("{cell_context}: diverged, got {outcome:?}"),
            }
        }
    }
}

#[test]
fn star_is_report_identical_everywhere() {
    assert_report_grid("star", family("star"), None);
}

#[test]
fn complete_bipartite_is_report_identical_everywhere() {
    assert_report_grid("complete_bipartite", family("complete_bipartite"), None);
}

#[test]
fn caterpillar_is_report_identical_everywhere() {
    assert_report_grid("caterpillar", family("caterpillar"), None);
}

#[test]
fn binary_tree_is_report_identical_everywhere() {
    assert_report_grid("binary_tree", family("binary_tree"), None);
}

#[test]
fn hypercube_is_report_identical_everywhere() {
    assert_report_grid("hypercube", family("hypercube"), None);
}

#[test]
fn grid_is_report_identical_everywhere() {
    assert_report_grid("grid", family("grid"), None);
}

#[test]
fn barbell_is_report_identical_everywhere() {
    assert_report_grid("barbell", family("barbell"), None);
}

#[test]
fn complete_graph_is_report_identical_and_rejected_by_delta() {
    let obstruction = DeltaError::CliqueObstruction {
        witness: 0,
        size: 8,
    };
    assert_report_grid("complete", family("complete"), Some(obstruction));
}

#[test]
fn a_k_delta_plus_one_component_is_rejected_everywhere() {
    let obstruction = DeltaError::CliqueObstruction {
        witness: 8,
        size: 4,
    };
    assert_report_grid("cube_beside_k4", cube_beside_k4(), Some(obstruction));
}

#[test]
fn a_clique_one_edge_short_is_delta_colored_everywhere() {
    assert_report_grid("clique_minus_edge", clique_minus_edge(6), None);
}

/// Runs the CONGEST, clique and both MPC entry points on `instance` under
/// both backends: the backends must agree and every coloring must come
/// from the lists.
fn assert_list_colored(label: &str, kind: &str, instance: &ListInstance) {
    let run = |backend| {
        let exec = ExecConfig::default().with_backend(backend);
        let congest = CongestColoringConfig::default().with_exec(exec);
        let clique = CliqueColoringConfig::default().with_exec(exec);
        [
            ("congest", color_list_instance(instance, &congest).colors),
            ("clique", clique_color(instance, &clique).colors),
            ("mpc-linear", mpc_color_linear_with(instance, &exec).colors),
            (
                "mpc-sublinear",
                mpc_color_sublinear_with(instance, 0.6, &exec).colors,
            ),
        ]
    };
    let runs = run(Backend::Sequential);
    assert_eq!(
        runs,
        run(Backend::Parallel(2)),
        "{label}/{kind}: backends diverged"
    );
    for (model, colors) in runs {
        assert_eq!(
            validation::check_list_coloring(instance.graph(), instance.lists(), &colors),
            None,
            "{label}/{kind}/{model}"
        );
    }
}

/// Builds, per family, the instance whose list for `v` is
/// `list(v, deg(v))` over the color space `color_space`, and checks it.
fn assert_list_kind(kind: &str, color_space: u64, list: impl Fn(u64, u64) -> Vec<u64>) {
    for (label, g) in families() {
        let lists = g
            .nodes()
            .map(|v| list(v as u64, g.degree(v) as u64))
            .collect();
        let instance = ListInstance::new(g, color_space, lists).expect("valid lists");
        assert_list_colored(label, kind, &instance);
    }
}

#[test]
fn degree_plus_one_lists_are_colored_by_every_model() {
    for (label, g) in families() {
        assert_list_colored(label, "degree+1", &ListInstance::degree_plus_one(g));
    }
}

#[test]
fn top_of_a_2_pow_40_space_lists_are_colored_by_every_model() {
    const C: u64 = 1 << 40;
    assert_list_kind("top", C, |_, d| (C - d - 1..C).collect());
}

#[test]
fn spread_over_a_2_pow_40_space_lists_are_colored_by_every_model() {
    const C: u64 = 1 << 40;
    assert_list_kind("spread", C, |v, d| {
        (0..=d).map(|i| i * (C / (d + 1)) + v).collect()
    });
}

#[test]
fn shifted_over_a_2_pow_20_space_lists_are_colored_by_every_model() {
    const C: u64 = 1 << 20;
    assert_list_kind("shifted", C, |v, d| {
        let start = v * 4099 % (C - d);
        (start..=start + d).collect()
    });
}
