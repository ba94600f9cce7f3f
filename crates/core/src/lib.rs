//! The paper's primary contribution: deterministic distributed
//! `(degree+1)`-list coloring with small bandwidth.
//!
//! Implements, module by module (see `DESIGN.md` for the full map):
//!
//! - [`instance`] — `(degree+1)`-list-coloring instances over a color space
//!   `[C]` (Section 2 preliminaries);
//! - [`potential`] — the potential function `Φ_ℓ(u) = deg_ℓ(u) / |L_ℓ(u)|`;
//! - [`prefix`] — bitwise candidate-color selection state and the randomized
//!   one-bit prefix extension (Algorithm 1; Lemmas 2.2 and 2.3);
//! - [`derand_step`] — the derandomized one-bit extension via the method of
//!   conditional expectations over a BFS forest (Lemma 2.6);
//! - [`segment`] — the `λ`-bits-at-a-time seed derandomization shared by
//!   the CONGESTED CLIQUE and MPC drivers (Theorems 1.3–1.5);
//! - [`partial`] — the partial coloring that permanently colors at least a
//!   1/8 fraction of the nodes (Lemma 2.1);
//! - [`congest_coloring`] — the full CONGEST algorithm (Theorem 1.1);
//! - [`linial`] — Linial's `O(Δ²)`-coloring in `O(log* n)` rounds;
//! - [`mis`] — maximal independent set on bounded-degree subgraphs by
//!   sweeping the color classes of a Linial coloring;
//! - [`baselines`] — randomized (Johansson-style) and sequential greedy
//!   baselines used by the experiment harness.
//!
//! # Quickstart
//!
//! ```
//! use dcl_graphs::generators;
//! use dcl_graphs::validation::check_proper;
//! use dcl_coloring::congest_coloring::{color_degree_plus_one, CongestColoringConfig};
//!
//! let g = generators::gnp(48, 0.12, 7);
//! let result = color_degree_plus_one(&g, &CongestColoringConfig::default());
//! assert!(check_proper(&g, &result.colors).is_none());
//! ```

#![forbid(unsafe_code)]
// Node ids double as indices into per-node state vectors throughout the
// simulators; indexed loops over `0..n` are the clearest expression of
// "for every node" here.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod baselines;
pub mod congest_coloring;
pub mod derand_step;
pub mod instance;
pub mod linial;
pub mod mis;
pub mod partial;
pub mod potential;
pub mod prefix;
pub mod scenario;
pub mod segment;

pub use congest_coloring::{color_degree_plus_one, color_list_instance, CongestColoringConfig};
pub use instance::ListInstance;
pub use scenario::CongestScenario;
