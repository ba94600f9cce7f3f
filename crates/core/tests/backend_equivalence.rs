//! Backend-equivalence properties for the Theorem 1.1 coloring: the
//! parallel backend, which runs the derandomization's local computation on
//! the pool, must produce bit-identical colorings, metrics and iteration
//! counts to the sequential backend on every instance family (the
//! determinism contract of `DESIGN.md` §5.1).

use dcl_coloring::congest_coloring::{color_degree_plus_one, CongestColoringConfig};
use dcl_congest::Backend;
use dcl_graphs::{generators, validation, Graph};
use dcl_sim::ExecConfig;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

fn assert_equivalent(g: &Graph, threads: usize) -> Result<(), TestCaseError> {
    let run = |backend| {
        let exec = ExecConfig::default().with_backend(backend);
        let r = color_degree_plus_one(g, &CongestColoringConfig::default().with_exec(exec));
        (r.colors, r.metrics, r.iterations)
    };
    let seq = run(Backend::Sequential);
    prop_assert_eq!(&seq, &run(Backend::Parallel(threads)));
    prop_assert_eq!(validation::check_proper(g, &seq.0), None);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Identical colorings + metrics on rings of arbitrary size.
    #[test]
    fn coloring_equivalence_on_rings(n in 3usize..80, threads in 2usize..5) {
        assert_equivalent(&generators::ring(n), threads)?;
    }

    /// Identical colorings + metrics on G(n, p).
    #[test]
    fn coloring_equivalence_on_gnp(
        n in 4usize..48,
        p in 0.03f64..0.35,
        seed in any::<u64>(),
        threads in 2usize..5,
    ) {
        assert_equivalent(&generators::gnp(n, p, seed), threads)?;
    }

    /// Identical colorings + metrics on Chung–Lu power-law graphs (the
    /// degree-skewed regime where chunk load imbalance is worst).
    #[test]
    fn coloring_equivalence_on_power_law(
        n in 8usize..48,
        seed in any::<u64>(),
        threads in 2usize..5,
    ) {
        assert_equivalent(&generators::power_law(n, 2.5, 4.0, seed), threads)?;
    }
}
