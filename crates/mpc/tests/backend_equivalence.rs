//! Parallel vs sequential backend equivalence for the Theorem 1.4/1.5 MPC
//! colorings, whose seed-segment candidates the parallel backend scores on
//! the pool.

use dcl_coloring::instance::ListInstance;
use dcl_graphs::{generators, validation};
use dcl_mpc::{mpc_color_linear_with, mpc_color_sublinear_with};
use dcl_par::Backend;
use dcl_sim::ExecConfig;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Linear-memory MPC coloring is identical per backend.
    #[test]
    fn mpc_linear_equivalence(n in 6usize..26, p in 0.1f64..0.35, seed in any::<u64>()) {
        let g = generators::gnp(n, p, seed);
        let inst = ListInstance::degree_plus_one(g.clone());
        let run = |backend| {
            let r = mpc_color_linear_with(&inst, &ExecConfig::default().with_backend(backend));
            (r.colors, r.metrics)
        };
        let seq = run(Backend::Sequential);
        prop_assert_eq!(&seq, &run(Backend::Parallel(3)));
        prop_assert_eq!(validation::check_proper(&g, &seq.0), None);
    }

    /// Sublinear-memory MPC coloring is identical per backend.
    #[test]
    fn mpc_sublinear_equivalence(n in 8usize..22, seed in any::<u64>()) {
        let g = generators::gnp(n, 0.25, seed);
        let inst = ListInstance::degree_plus_one(g.clone());
        let run = |backend| {
            let exec = ExecConfig::default().with_backend(backend);
            let r = mpc_color_sublinear_with(&inst, 0.6, &exec);
            (r.colors, r.metrics)
        };
        prop_assert_eq!(run(Backend::Sequential), run(Backend::Parallel(4)));
    }
}
