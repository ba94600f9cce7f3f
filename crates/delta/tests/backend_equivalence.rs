//! Parallel vs sequential backend equivalence for the Δ-coloring pipeline,
//! plus the acceptance sweep: every generator graph (gnp / power_law /
//! expander, Δ ≥ 3) must produce a valid Δ-coloring at the default cap
//! *and* at cap = ⌈log₂ n⌉, bit-identical across
//! `Backend::{Sequential, Parallel}`.

use dcl_delta::{delta_color, DeltaColoringConfig, DeltaError};
use dcl_graphs::{generators, validation, Graph};
use dcl_par::Backend;
use dcl_sim::{bit_len, BandwidthCap, ExecConfig};
use proptest::prelude::*;

fn config(backend: Backend, cap: Option<BandwidthCap>) -> DeltaColoringConfig {
    DeltaColoringConfig::default().with_exec(
        ExecConfig::default()
            .with_backend(backend)
            .with_cap_opt(cap),
    )
}

fn assert_valid_delta_coloring(g: &Graph, colors: &[u64]) {
    assert_eq!(validation::check_proper(g, colors), None);
    let delta = g.max_degree() as u64;
    assert!(
        colors.iter().all(|&c| c < delta),
        "Δ-coloring must use colors < {delta}"
    );
}

/// The acceptance sweep: each scale-tier generator family, both caps, both
/// backends, bit-identical results and a valid Δ-coloring everywhere.
#[test]
fn generator_graphs_color_identically_at_default_and_log_n_caps() {
    for (name, g) in [
        ("gnp(72,0.1)", generators::gnp(72, 0.1, 5)),
        (
            "power_law(90,2.5,5)",
            generators::power_law(90, 2.5, 5.0, 9),
        ),
        ("expander(64,4)", generators::expander(64, 4, 1)),
    ] {
        assert!(g.max_degree() >= 3, "{name}");
        let log_n = bit_len(g.n() as u64 - 1);
        for cap in [None, Some(BandwidthCap::new(log_n))] {
            let seq = delta_color(&g, &config(Backend::Sequential, cap))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let par = delta_color(&g, &config(Backend::Parallel(4), cap)).unwrap();
            assert_eq!(seq, par, "{name} cap {cap:?}: backends diverged");
            assert_valid_delta_coloring(&g, &seq.colors);
        }
    }
}

/// K_{Δ+1} inputs come back as the typed error — never a panic — and the
/// error is identical on both backends.
#[test]
fn clique_refusal_is_typed_and_backend_identical() {
    for k in [4usize, 5, 7] {
        let g = generators::complete(k);
        for backend in [Backend::Sequential, Backend::Parallel(3)] {
            assert_eq!(
                delta_color(&g, &config(backend, None)),
                Err(DeltaError::CliqueObstruction {
                    witness: 0,
                    size: k
                }),
                "K_{k} under {backend:?}"
            );
        }
    }
}

/// Odd cycles (Δ = 2) come back as the typed error on both backends, also
/// under a swept cap.
#[test]
fn odd_cycle_refusal_is_typed_and_backend_identical() {
    let g = generators::ring(11);
    let log_n = bit_len(g.n() as u64 - 1);
    for backend in [Backend::Sequential, Backend::Parallel(3)] {
        for cap in [None, Some(BandwidthCap::new(log_n))] {
            assert_eq!(
                delta_color(&g, &config(backend, cap)),
                Err(DeltaError::OddCycle {
                    witness: 0,
                    length: 11
                }),
                "{backend:?} cap {cap:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random instances: the whole pipeline (detection + Theorem 1.1 phase +
    /// Kempe recoloring) is bit-identical per backend and properly Δ-colored.
    #[test]
    fn delta_coloring_equivalence(n in 20usize..64, p in 0.1f64..0.3, seed in any::<u64>()) {
        let g = generators::gnp(n, p, seed);
        prop_assume!(g.max_degree() >= 3);
        let seq = delta_color(&g, &config(Backend::Sequential, None));
        prop_assert_eq!(&seq, &delta_color(&g, &config(Backend::Parallel(3), None)));
        if let Ok(result) = seq {
            assert_valid_delta_coloring(&g, &result.colors);
        }
    }

    /// The swept cap changes costs, never results, on either backend.
    #[test]
    fn swept_cap_equivalence(n in 24usize..56, seed in any::<u64>()) {
        let g = generators::expander(n, 4, seed);
        prop_assume!(g.max_degree() >= 3);
        let log_n = bit_len(g.n() as u64 - 1);
        let tight_cap = Some(BandwidthCap::new(log_n));
        let tight = delta_color(&g, &config(Backend::Sequential, tight_cap));
        prop_assert_eq!(&tight, &delta_color(&g, &config(Backend::Parallel(4), tight_cap)));
        let default_run = delta_color(&g, &config(Backend::Sequential, None));
        match (tight, default_run) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.colors, b.colors, "cap changed the coloring");
                prop_assert!(a.metrics.rounds >= b.metrics.rounds);
            }
            (a, b) => prop_assert_eq!(a.is_err(), b.is_err()),
        }
    }
}
