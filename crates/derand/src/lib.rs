//! Pseudorandomness toolkit for distributed derandomization.
//!
//! The paper derandomizes a zero-round randomized coloring step by (1)
//! producing each node's biased coin from a short *shared random seed* such
//! that the coins of adjacent nodes are pairwise independent (Lemma 2.5 /
//! Theorem 2.4), and (2) fixing the seed bit-by-bit with the method of
//! conditional expectations (Lemma 2.6). This crate provides the seed side
//! of both steps:
//!
//! - [`slice`](mod@slice) — the *slice-independent inner-product family*
//!   that replaces Theorem 2.4's family in every driver: pairwise-independent
//!   `b`-bit values whose conditional distribution under a *partially fixed*
//!   seed is a vector of affine forms, which the `dcl_kernels` digit DP
//!   turns into exact coin probabilities in `O(b)` time per node pair (see
//!   `DESIGN.md` §2.1 for the substitution rationale), plus the Lemma 2.5
//!   coin threshold;
//! - [`seed`] — partially-fixed seed bookkeeping for the method of
//!   conditional expectations.
//!
//! # Examples
//!
//! ```
//! use dcl_derand::slice::SliceFamily;
//! use dcl_derand::seed::PartialSeed;
//! use dcl_kernels::digit_dp::joint_coin_probs_packed;
//!
//! // 4-bit outputs from 3-bit inputs.
//! let fam = SliceFamily::new(3, 4);
//! let mut seed = PartialSeed::new(fam.seed_len());
//! // With a completely free seed, distinct inputs get independent uniform
//! // outputs: Pr[z(5) < 6 ∧ z(2) < 8] = 6/16 · 8/16.
//! let (sx, sy) = (fam.packed_forms_for(&seed, 0b101), fam.packed_forms_for(&seed, 0b010));
//! let [_, _, _, p11] = joint_coin_probs_packed(&sx, 6, &sy, 8);
//! assert!((p11 - 6.0 / 16.0 * 8.0 / 16.0).abs() < 1e-12);
//! // Fix the whole seed to zeros: z becomes deterministic.
//! for i in 0..fam.seed_len() { seed.fix(i, false); }
//! assert_eq!(fam.evaluate(&seed, 0b101), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod seed;
pub mod slice;

pub use seed::PartialSeed;
pub use slice::SliceFamily;
