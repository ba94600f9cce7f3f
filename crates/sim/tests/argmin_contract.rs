//! The `argmin_f64` contract, pinned as tests.
//!
//! Every driver's candidate-selection loop (CONGEST seed bits, CONGESTED
//! CLIQUE colors, MPC colors) funnels through [`dcl_sim::argmin_f64`], so
//! its exact semantics are part of the cross-model determinism story:
//!
//! 1. the **lowest index wins ties** — candidate order is significant and
//!    must not depend on the backend;
//! 2. **NaN never wins** — a poisoned score must not hijack the schedule;
//! 3. the result is **identical across `Backend::{Sequential, Parallel}`**
//!    for arbitrary score vectors.

use dcl_par::Pool;
use dcl_sim::argmin_f64;
use proptest::prelude::*;

#[test]
fn lowest_index_wins_ties() {
    let scores = [5.0, 2.0, 2.0, 7.0, 2.0];
    assert_eq!(argmin_f64(None, scores.len(), |i| scores[i]), (2.0, 1));
}

#[test]
fn nan_never_wins() {
    // NaN-only input keeps the (INFINITY, 0) identity; mixed input skips
    // the NaNs entirely, wherever they sit.
    let all_nan = argmin_f64(None, 3, |_| f64::NAN);
    assert_eq!(
        (all_nan.0.to_bits(), all_nan.1),
        (f64::INFINITY.to_bits(), 0)
    );
    let nan_first = [f64::NAN, 4.0, 3.0];
    assert_eq!(argmin_f64(None, 3, |i| nan_first[i]), (3.0, 2));
    let nan_mid = [3.0, f64::NAN, 4.0];
    assert_eq!(argmin_f64(None, 3, |i| nan_mid[i]), (3.0, 0));
}

#[test]
fn empty_input_is_the_infinity_identity() {
    let (m, i) = argmin_f64(None, 0, |_| 0.0);
    assert_eq!((m.to_bits(), i), (f64::INFINITY.to_bits(), 0));
}

#[test]
fn signed_zero_ties_keep_the_first_seen_value() {
    let scores = [2.0, 0.0, -0.0, 1.0, -0.0];
    let (m, i) = argmin_f64(None, scores.len(), |i| scores[i]);
    assert_eq!((m.to_bits(), i), (0.0f64.to_bits(), 1));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sequential and parallel backends agree bit for bit on adversarial
    /// score vectors (exact ties via quantization, NaN, infinities, signed
    /// zeros).
    #[test]
    fn backends_agree(
        raw in collection::vec((0u8..8, 0.0f64..1.0), 0..64),
        threads in 2usize..=4,
    ) {
        let scores: Vec<f64> = raw
            .iter()
            .map(|&(code, v)| match code {
                4 => f64::NAN,
                5 => f64::INFINITY,
                6 => 0.0,
                7 => -0.0,
                _ => (v * 8.0).floor() / 8.0,
            })
            .collect();
        let pool = Pool::new(threads);

        let seq = argmin_f64(None, scores.len(), |i| scores[i]);
        let par = argmin_f64(Some(&pool), scores.len(), |i| scores[i]);
        prop_assert_eq!((seq.0.to_bits(), seq.1), (par.0.to_bits(), par.1));

        // The winner is a real argmin: no score is strictly smaller, and
        // no earlier index achieves the same minimum. (With no score below
        // the INFINITY identity the fold never moves and idx stays 0.)
        let (min, idx) = seq;
        if scores.iter().any(|&s| s < f64::INFINITY) {
            prop_assert!(scores.iter().all(|&s| s.is_nan() || s >= min));
            prop_assert!(scores[..idx].iter().all(|&s| s.is_nan() || s > min));
            prop_assert!(scores[idx] == min);
        } else {
            prop_assert_eq!((min.to_bits(), idx), (f64::INFINITY.to_bits(), 0));
        }
    }
}
