//! Parallel vs sequential backend equivalence for the Theorem 1.3 clique
//! coloring, whose seed-segment candidates the parallel backend scores on
//! the pool.

use dcl_clique::coloring::{clique_color, CliqueColoringConfig};
use dcl_coloring::instance::ListInstance;
use dcl_congest::Backend;
use dcl_graphs::{generators, validation};
use dcl_sim::ExecConfig;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// clique_color produces identical colorings and metrics per backend.
    #[test]
    fn clique_coloring_equivalence(n in 6usize..30, p in 0.1f64..0.4, seed in any::<u64>()) {
        let g = generators::gnp(n, p, seed);
        let inst = ListInstance::degree_plus_one(g.clone());
        let run = |backend| {
            let exec = ExecConfig::default().with_backend(backend);
            let r = clique_color(&inst, &CliqueColoringConfig::default().with_exec(exec));
            (r.colors, r.metrics, r.iterations, r.collected_nodes)
        };
        let seq = run(Backend::Sequential);
        prop_assert_eq!(&seq, &run(Backend::Parallel(3)));
        prop_assert_eq!(validation::check_proper(&g, &seq.0), None);
    }
}
