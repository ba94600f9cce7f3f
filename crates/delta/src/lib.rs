//! Deterministic **Δ-coloring** under bandwidth limits — the first scenario
//! crate plugged into the shared `dcl_sim` runtime.
//!
//! The source paper colors with `Δ + 1` colors (one per node more than the
//! trivial lower bound); Halldórsson–Maus, *Distributed Δ-Coloring under
//! Bandwidth Limitations* (2024), extends the small-bandwidth regime to the
//! Brooks bound of exactly `Δ` colors for `Δ ≥ 3`. By Brooks' theorem a
//! graph of maximum degree Δ is Δ-colorable **unless** a connected component
//! is the complete graph `K_{Δ+1}` or (for `Δ = 2`) an odd cycle; those
//! obstructions are detected and rejected with the typed
//! [`DeltaError`] instead of a panic.
//!
//! The pipeline (`DESIGN.md` §2.2b) runs end to end on one metered
//! [`dcl_congest::Network`] — i.e. on the `dcl_sim`
//! `NeighborTopology`/`RoundEngine` runtime — so the backend knob and every
//! swept [`dcl_sim::BandwidthCap`] down to `⌈log₂ n⌉` bits apply to the
//! whole algorithm:
//!
//! 1. **Obstruction detection** ([`obstruction`]): two real rounds (degrees,
//!    then adjacency lists, fragmented under small caps) let every node
//!    check the `K_{Δ+1}` condition locally; `Δ = 2` inputs are 2-colored
//!    over the BFS forest with a parity-verification round that exposes odd
//!    cycles.
//! 2. **Partial coloring** ([`coloring`]): the paper's own Theorem 1.1
//!    machinery (Linial + the Lemma 2.1/2.6 derandomization, reused from
//!    `dcl_coloring`) colors the canonical `(degree+1)` instance — at most
//!    one color too many, and only nodes of full degree Δ can hold the
//!    overflow color Δ.
//! 3. **Kempe recoloring** ([`kempe`]): overflow nodes are eliminated one by
//!    one — greedily when a color is free, otherwise by flipping a
//!    Kempe-style bichromatic chain within the message budget; the rare
//!    irreducible case converge-casts the component to its leader and solves
//!    it locally with the Lovász–Brooks procedure (charged like the other
//!    collect-at-leader finishes in the workspace).
//!
//! Results are bit-identical across `Backend::{Sequential, Parallel}` and
//! across bandwidth caps (property-tested in `tests/backend_equivalence.rs`).
//!
//! # Examples
//!
//! ```
//! use dcl_delta::{delta_color, DeltaColoringConfig};
//! use dcl_graphs::{generators, validation};
//!
//! let g = generators::random_regular(48, 5, 7);
//! let delta = g.max_degree() as u64;
//! let result = delta_color(&g, &DeltaColoringConfig::default()).unwrap();
//! assert!(validation::check_proper(&g, &result.colors).is_none());
//! assert!(result.colors.iter().all(|&c| c < delta)); // Δ colors, not Δ+1
//! ```
//!
//! Obstructions come back as values, not panics:
//!
//! ```
//! use dcl_delta::{delta_color, DeltaColoringConfig, DeltaError};
//! use dcl_graphs::generators;
//!
//! let k5 = generators::complete(5);
//! let err = delta_color(&k5, &DeltaColoringConfig::default()).unwrap_err();
//! assert!(matches!(err, DeltaError::CliqueObstruction { size: 5, .. }));
//! ```

#![forbid(unsafe_code)]
// Node ids double as indices into per-node state vectors throughout the
// simulators; indexed loops over `0..n` are the clearest expression of
// "for every node" here.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod coloring;
pub mod kempe;
pub mod obstruction;
pub mod scenario;

pub use coloring::{delta_color, DeltaColoringConfig, DeltaColoringResult};
pub use obstruction::DeltaError;
pub use scenario::DeltaScenario;
