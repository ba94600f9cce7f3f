//! # distributed-coloring
//!
//! A reproduction of **"Efficient Deterministic Distributed Coloring with
//! Small Bandwidth"** (Bamberger, Kuhn, Maus — PODC 2020).
//!
//! This facade crate re-exports the workspace sub-crates under stable module
//! names so that examples, integration tests and downstream users can depend
//! on a single crate:
//!
//! - [`graphs`] — graph representation, generators, metrics, validators.
//! - [`kernels`] — the numeric kernels behind the hot loops (the Lemma 2.6
//!   digit DP and bit accounting): one safe implementation per entry
//!   point, proven bit-identical to a reference oracle.
//! - [`sim`] — the shared simulator runtime: wire accounting, bandwidth
//!   caps ([`sim::BandwidthCap`]), unified metrics, CONGEST's neighbor
//!   addressing and the backend-aware round engine every model runs on.
//! - [`congest`] — CONGEST model simulator (rounds, bandwidth, BFS trees).
//! - [`derand`] — the slice hash family, Lemma 2.5 coin thresholds and
//!   partially fixed seeds for the method of conditional expectations.
//! - [`coloring`] — the paper's core algorithms (Algorithm 1, Lemmas 2.1–2.6,
//!   Theorem 1.1, Linial's coloring, bounded-degree MIS, baselines).
//! - [`decomp`] — network decomposition (Definition 3.1, RG19-style
//!   clustering) and the `poly log n` coloring of Corollary 1.2.
//! - [`clique`] — CONGESTED CLIQUE simulator and Theorem 1.3.
//! - [`mpc`] — MPC simulator, Section 5 toolbox and Theorems 1.4/1.5.
//! - [`delta`] — the Δ-coloring scenario (Halldórsson–Maus 2024 regime):
//!   Brooks-bound coloring with typed obstruction errors, built on the same
//!   runtime and swept by the same bandwidth caps.
//! - [`runner`] — the one front door: the [`runner::Scenario`] trait every
//!   pipeline implements, the unified [`runner::Report`]/[`runner::RunError`]
//!   types, and the declarative [`runner::Runner`] sweep harness. The
//!   ready-made scenario objects are gathered in [`scenarios`].
//! - [`service`] — coloring as a service: the versioned request/response
//!   protocol over the transport tier's framing, the `dcl_serve` TCP
//!   server (sharded worker pool, backpressure, graceful drain) and the
//!   pipelining [`service::ServiceClient`] — served results are
//!   bit-identical to direct [`runner::Scenario`] runs.
//!
//! # Quickstart
//!
//! Every pipeline is runnable through the same front door:
//!
//! ```
//! use distributed_coloring::graphs::generators;
//! use distributed_coloring::runner::Scenario;
//! use distributed_coloring::scenarios::CongestScenario;
//! use distributed_coloring::ExecConfig;
//!
//! let g = generators::gnp(64, 0.1, 42);
//! let report = CongestScenario::default().run(&g, &ExecConfig::default()).unwrap();
//! assert!(report.valid(), "proper and within the (Δ+1) palette");
//! ```
//!
//! The underlying entry points stay public — the same run, spelled directly:
//!
//! ```
//! use distributed_coloring::graphs::generators;
//! use distributed_coloring::coloring::congest_coloring::{color_degree_plus_one, CongestColoringConfig};
//! use distributed_coloring::graphs::validation::check_proper;
//!
//! let g = generators::gnp(64, 0.1, 42);
//! let result = color_degree_plus_one(&g, &CongestColoringConfig::default());
//! assert!(check_proper(&g, &result.colors).is_none());
//! ```

#![forbid(unsafe_code)]

pub use dcl_clique as clique;
pub use dcl_coloring as coloring;
pub use dcl_congest as congest;
pub use dcl_decomp as decomp;
pub use dcl_delta as delta;
pub use dcl_derand as derand;
pub use dcl_graphs as graphs;
pub use dcl_kernels as kernels;
pub use dcl_mpc as mpc;
pub use dcl_par::{Backend, Pool};
pub use dcl_runner as runner;
pub use dcl_service as service;
pub use dcl_sim as sim;
pub use dcl_sim::{BandwidthCap, ExecConfig, TransportError, TransportSpec};

/// The five pipelines as ready-made [`runner::Scenario`] objects, gathered
/// from their home crates.
pub mod scenarios {
    pub use dcl_clique::scenario::CliqueScenario;
    pub use dcl_coloring::scenario::CongestScenario;
    pub use dcl_decomp::scenario::DecompScenario;
    pub use dcl_delta::scenario::DeltaScenario;
    pub use dcl_mpc::scenario::{MpcLinearScenario, MpcSublinearScenario};

    use crate::runner::Scenario;

    /// Every scenario in the workspace, boxed for uniform iteration —
    /// CONGEST (Thm 1.1), decomposition (Cor 1.2), CONGESTED CLIQUE
    /// (Thm 1.3), MPC linear/sublinear (Thms 1.4/1.5, `α = 0.6`), and the
    /// Δ-coloring scenario (Halldórsson–Maus 2024).
    pub fn all() -> Vec<Box<dyn Scenario>> {
        vec![
            Box::new(CongestScenario::default()),
            Box::new(DecompScenario::default()),
            Box::new(CliqueScenario::default()),
            Box::new(MpcLinearScenario),
            Box::new(MpcSublinearScenario::default()),
            Box::new(DeltaScenario::default()),
        ]
    }
}
