//! Smoke test for the facade: every re-exported sub-crate must be reachable
//! and functional through `distributed_coloring::*` paths (the paths the
//! README and examples teach downstream users).

use distributed_coloring::clique::{clique_color, CliqueColoringConfig};
use distributed_coloring::coloring::congest_coloring::{
    color_degree_plus_one, CongestColoringConfig,
};
use distributed_coloring::coloring::ListInstance;
use distributed_coloring::congest::network::Network;
use distributed_coloring::decomp::rg::{decompose, RgConfig};
use distributed_coloring::delta::{delta_color, DeltaColoringConfig, DeltaError};
use distributed_coloring::derand::seed::PartialSeed;
use distributed_coloring::derand::slice::SliceFamily;
use distributed_coloring::graphs::{generators, metrics, validation};
use distributed_coloring::kernels::digit_dp::joint_coin_probs_packed;
use distributed_coloring::mpc::{mpc_color_linear, mpc_color_sublinear};

#[test]
fn graphs_reexport_generates_and_measures() {
    let g = generators::gnp(40, 0.15, 11);
    assert_eq!(g.n(), 40);
    assert!(g.max_degree() >= 1);
    let ring = generators::ring(10);
    assert_eq!(metrics::diameter(&ring), Some(5));
}

#[test]
fn congest_reexport_runs_a_metered_round() {
    let g = generators::ring(8);
    let mut net = Network::with_default_cap(&g, 16);
    let inboxes = net.broadcast_round(|v| Some(v as u32));
    assert_eq!(net.metrics().rounds, 1);
    assert_eq!(net.metrics().messages, 16, "2 per node on a ring");
    assert_eq!(inboxes[0].len(), 2);
}

#[test]
fn derand_reexport_evaluates_the_slice_family() {
    let fam = SliceFamily::new(3, 4);
    let mut seed = PartialSeed::new(fam.seed_len());
    let (sx, sy) = (
        fam.packed_forms_for(&seed, 0b101),
        fam.packed_forms_for(&seed, 0b010),
    );
    let [_, _, _, p] = joint_coin_probs_packed(&sx, 6, &sy, 8);
    assert!(
        (p - 6.0 / 16.0 * 8.0 / 16.0).abs() < 1e-12,
        "independent and uniform before fixing: {p}"
    );
    for i in 0..fam.seed_len() {
        seed.fix(i, false);
    }
    assert_eq!(
        fam.evaluate(&seed, 0b101),
        0,
        "all-zero seed is the zero map"
    );
}

#[test]
fn coloring_reexport_colors_congest() {
    let g = generators::gnp(48, 0.12, 7);
    let result = color_degree_plus_one(&g, &CongestColoringConfig::default());
    assert!(validation::check_proper(&g, &result.colors).is_none());
    assert!(result.metrics.rounds > 0, "work must be metered");
}

#[test]
fn decomp_reexport_builds_a_valid_decomposition() {
    let g = generators::gnp(40, 0.1, 3);
    let mut net = Network::with_default_cap(&g, 64);
    let decomposition = decompose(&mut net, &RgConfig::default());
    let stats = decomposition.validate(&g).expect("decomposition is valid");
    assert!(stats.colors >= 1);
}

#[test]
fn clique_reexport_colors_the_clique_model() {
    let g = generators::random_regular(30, 4, 9);
    let inst = ListInstance::degree_plus_one(g);
    let result = clique_color(&inst, &CliqueColoringConfig::default());
    assert!(validation::check_proper(inst.graph(), &result.colors).is_none());
}

#[test]
fn delta_reexport_colors_with_delta_colors_and_types_obstructions() {
    let g = generators::random_regular(40, 5, 3);
    let delta = g.max_degree() as u64;
    let result = delta_color(&g, &DeltaColoringConfig::default()).unwrap();
    assert!(validation::check_proper(&g, &result.colors).is_none());
    assert!(result.colors.iter().all(|&c| c < delta));
    let k4 = generators::complete(4);
    assert!(matches!(
        delta_color(&k4, &DeltaColoringConfig::default()),
        Err(DeltaError::CliqueObstruction { size: 4, .. })
    ));
}

#[test]
fn mpc_reexport_colors_in_both_memory_regimes() {
    let g = generators::gnp(36, 0.12, 5);
    let inst = ListInstance::degree_plus_one(g);
    let linear = mpc_color_linear(&inst);
    assert!(validation::check_proper(inst.graph(), &linear.colors).is_none());
    let sublinear = mpc_color_sublinear(&inst, 0.6);
    assert!(validation::check_proper(inst.graph(), &sublinear.colors).is_none());
}

#[test]
fn runner_reexport_sweeps_a_scenario() {
    use distributed_coloring::runner::{CapSpec, GraphSpec, Runner, Scenario};
    use distributed_coloring::scenarios::{self, CongestScenario};
    use distributed_coloring::ExecConfig;

    // The one-call path.
    let g = generators::gnp(32, 0.15, 11);
    let report = CongestScenario::default()
        .run(&g, &ExecConfig::default())
        .unwrap();
    assert!(report.valid());
    assert!(report.metrics.rounds > 0, "work must be metered");

    // The declarative sweep path.
    let sweep = Runner::new(&CongestScenario::default())
        .graph(GraphSpec::ring(16))
        .caps(CapSpec::log_n_sweep())
        .run();
    assert_eq!(sweep.cells.len(), 4);
    assert!(sweep.cells.iter().all(|c| c.report().valid()));

    // The registry covers all five pipelines (six scenario objects).
    let all = scenarios::all();
    assert_eq!(all.len(), 6);
    let names: Vec<&str> = all.iter().map(|s| s.name()).collect();
    assert_eq!(
        names,
        vec![
            "congest",
            "decomp",
            "clique",
            "mpc-linear",
            "mpc-sublinear",
            "delta"
        ]
    );
}

#[test]
fn runner_reexport_types_errors_losslessly() {
    use distributed_coloring::delta::DeltaError;
    use distributed_coloring::runner::{RunError, Scenario};
    use distributed_coloring::scenarios::DeltaScenario;
    use distributed_coloring::ExecConfig;

    let k4 = generators::complete(4);
    let err = DeltaScenario::default()
        .run(&k4, &ExecConfig::default())
        .unwrap_err();
    assert!(matches!(err, RunError::Rejected { .. }));
    assert!(matches!(
        err.rejection::<DeltaError>(),
        Some(DeltaError::CliqueObstruction { size: 4, .. })
    ));
    // RunError is a std error with a preserved source chain.
    let std_err: &dyn std::error::Error = &err;
    assert!(std_err.source().is_some());
}
