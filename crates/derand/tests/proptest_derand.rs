//! Property-based tests for the pseudorandomness toolkit: the exact DP for
//! conditional probabilities, reached through the drivers' kernel
//! `joint_coin_probs_packed` on the family's packed forms, is compared
//! against brute-force enumeration on arbitrary partial seeds, inputs and
//! thresholds.

use dcl_derand::seed::PartialSeed;
use dcl_derand::slice::{coin_threshold, SliceFamily};
use dcl_kernels::digit_dp::joint_coin_probs_packed;
use proptest::prelude::*;

/// `[p00, p01, p10, p11]` of the coins `[z(x) < t_x]`, `[z(y) < t_y]`.
fn coin_probs(fam: &SliceFamily, seed: &PartialSeed, x: u64, tx: u64, y: u64, ty: u64) -> [f64; 4] {
    let (sx, sy) = (fam.packed_forms_for(seed, x), fam.packed_forms_for(seed, y));
    joint_coin_probs_packed(&sx, tx, &sy, ty)
}

/// `Pr[z(x) < t]`: with a certain second coin, `p11` is the marginal.
fn prob_lt(fam: &SliceFamily, seed: &PartialSeed, x: u64, t: u64) -> f64 {
    coin_probs(fam, seed, x, t, x, 1 << fam.output_bits())[3]
}

fn brute_force(seed: &PartialSeed, mut pred: impl FnMut(&PartialSeed) -> bool) -> f64 {
    let mut hits = 0u64;
    let mut total = 0u64;
    seed.for_each_completion(|s| {
        total += 1;
        if pred(s) {
            hits += 1;
        }
    });
    hits as f64 / total as f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The marginal DP equals brute force for arbitrary partial seeds.
    #[test]
    fn marginal_dp_is_exact(
        m in 1u32..4,
        b in 1u32..4,
        x_raw in any::<u64>(),
        t_raw in any::<u64>(),
        fixing in any::<u64>(),
        values in any::<u64>(),
    ) {
        let fam = SliceFamily::new(m, b);
        let x = x_raw & ((1 << m) - 1);
        let t = t_raw % ((1 << b) + 1);
        let mut seed = PartialSeed::new(fam.seed_len());
        for i in 0..fam.seed_len() {
            if fixing >> (i % 64) & 1 == 1 {
                seed.fix(i, values >> (i % 64) & 1 == 1);
            }
        }
        prop_assume!(seed.free_count() <= 16);
        let dp = prob_lt(&fam, &seed, x, t);
        let bf = brute_force(&seed, |s| fam.evaluate(s, x) < t);
        prop_assert!((dp - bf).abs() < 1e-9, "dp={dp} bf={bf}");
    }

    /// The joint DP equals brute force for arbitrary input pairs.
    #[test]
    fn joint_dp_is_exact(
        m in 1u32..4,
        b in 1u32..3,
        x_raw in any::<u64>(),
        y_raw in any::<u64>(),
        tx_raw in any::<u64>(),
        ty_raw in any::<u64>(),
        fixing in any::<u64>(),
        values in any::<u64>(),
    ) {
        let fam = SliceFamily::new(m, b);
        let mask = (1u64 << m) - 1;
        let (x, y) = (x_raw & mask, y_raw & mask);
        let full = 1u64 << b;
        let (tx, ty) = (tx_raw % (full + 1), ty_raw % (full + 1));
        let mut seed = PartialSeed::new(fam.seed_len());
        for i in 0..fam.seed_len() {
            if fixing >> (i % 64) & 1 == 1 {
                seed.fix(i, values >> (i % 64) & 1 == 1);
            }
        }
        prop_assume!(seed.free_count() <= 14);
        let dp = coin_probs(&fam, &seed, x, tx, y, ty)[3];
        let bf = brute_force(&seed, |s| fam.evaluate(s, x) < tx && fam.evaluate(s, y) < ty);
        prop_assert!((dp - bf).abs() < 1e-9, "dp={dp} bf={bf}");
    }

    /// Joint coin probabilities form a distribution and marginalize
    /// correctly.
    #[test]
    fn joint_coin_probs_are_consistent(
        m in 1u32..5,
        b in 1u32..5,
        x_raw in any::<u64>(),
        y_raw in any::<u64>(),
        tx_raw in any::<u64>(),
        ty_raw in any::<u64>(),
    ) {
        let fam = SliceFamily::new(m, b);
        let mask = (1u64 << m) - 1;
        let (x, y) = (x_raw & mask, y_raw & mask);
        let full = 1u64 << b;
        let (tx, ty) = (tx_raw % (full + 1), ty_raw % (full + 1));
        let seed = PartialSeed::new(fam.seed_len());
        let q = coin_probs(&fam, &seed, x, tx, y, ty);
        let sum: f64 = q.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        let px = prob_lt(&fam, &seed, x, tx);
        prop_assert!(((q[2] + q[3]) - px).abs() < 1e-9, "marginal x");
        let py = prob_lt(&fam, &seed, y, ty);
        prop_assert!(((q[1] + q[3]) - py).abs() < 1e-9, "marginal y");
    }

    /// Incremental form updates always match recomputation from scratch.
    #[test]
    fn incremental_updates_match(
        m in 1u32..6,
        b in 1u32..5,
        x_raw in any::<u64>(),
        order_seed in any::<u64>(),
    ) {
        let fam = SliceFamily::new(m, b);
        let x = x_raw & ((1 << m) - 1);
        let mut seed = PartialSeed::new(fam.seed_len());
        let mut forms = fam.forms_for(&seed, x);
        let len = fam.seed_len();
        // A pseudo-random fixing order derived from order_seed.
        let mut order: Vec<usize> = (0..len).collect();
        let mut state = order_seed;
        for i in (1..len).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        for (step, &idx) in order.iter().enumerate() {
            let value = (order_seed >> (step % 64)) & 1 == 1;
            seed.fix(idx, value);
            fam.update_forms_on_fix(&mut forms, x, idx, value);
            prop_assert_eq!(&forms, &fam.forms_for(&seed, x));
        }
    }

    /// Thresholds realize probabilities within 2^-b, exactly at 0 and 1.
    #[test]
    fn coin_threshold_accuracy(num in 0u64..100, den in 1u64..100, b in 1u32..16) {
        prop_assume!(num <= den);
        let t = coin_threshold(num, den, b);
        let p = num as f64 / den as f64;
        let realized = t as f64 / (1u64 << b) as f64;
        prop_assert!(realized >= p - 1e-12);
        prop_assert!(realized <= p + 1.0 / (1u64 << b) as f64 + 1e-12);
        if num == 0 {
            prop_assert_eq!(t, 0);
        }
        if num == den {
            prop_assert_eq!(t, 1 << b);
        }
    }
}
