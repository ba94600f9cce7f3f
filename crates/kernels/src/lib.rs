//! The numeric kernels behind the simulator's hot loops.
//!
//! ~90% of Theorem 1.1 runtime is the Lemma 2.6 per-edge
//! conditional-expectation loop. This crate owns that loop — the digit DP
//! over the joint distribution of two hash outputs ([`digit_dp`]) — plus
//! the bit-accounting ([`bits`]) and ratio ([`ratio`]) arithmetic the
//! drivers and the wire-cost model share.
//!
//! Every production entry point has exactly one implementation:
//!
//! - the stateless digit-DP entry points run the SoA (struct-of-arrays)
//!   evaluator on [`digit_dp::PackedForms`];
//! - `edge_shares_cached` runs the prefix-cached evaluator
//!   ([`digit_dp::incremental`]), which replays only the digits the
//!   monotone seed schedule can still change;
//! - `joint_interval_packed` walks the digits once for all of its CDF
//!   corners.
//!
//! [`digit_dp::reference`] keeps the DP exactly as it lived at its original
//! call sites. No production code calls it; it is the oracle the tests
//! compare every entry point against.
//!
//! # The float-association rule
//!
//! Every entry point produces **bit-identical** `f64` results to the
//! reference, not merely approximately equal ones: the whole system is
//! property-tested bit-identical across backends, bandwidth caps,
//! transports and the service, and the kernels must not be the layer that
//! breaks that contract. The rule that makes this possible: *an
//! implementation may reorder independent work, but never the accumulation
//! order of any single float accumulator*. The cached prefix of the
//! incremental evaluator and the interleaved corners of the interval
//! evaluator both obey it. The bitwise equivalence suite in
//! `tests/tier_equivalence.rs` and the brute-force oracle in
//! `dcl_derand/tests/digit_dp_oracle.rs` enforce the contract.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod digit_dp;
pub mod forms;
pub mod ratio;

pub use forms::{pair_dist_of_forms, BitForm, PairDist};
