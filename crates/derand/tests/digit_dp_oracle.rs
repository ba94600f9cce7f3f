//! Brute-force histogram oracle for the digit-DP kernels.
//!
//! The equivalence suite in `dcl_kernels` proves every production entry
//! point bit-identical to the reference oracle; this suite proves they
//! agree with *the ground truth*: for every completion of a partial seed
//! the hash output pair `(z_x, z_y)` is enumerated into an exact joint
//! histogram, and the marginal DP, joint DP and four-outcome coin DP are
//! checked against it for **every** threshold pair. The prefix-cached
//! evaluator is additionally driven through real monotone seed schedules
//! (`SliceFamily` fixes in index order) with the warm cache checked
//! against a fresh enumeration after every candidate evaluation.
//!
//! A hand-crafted `m = 2, b = 2` configuration additionally pins coverage
//! of all five `PairDist` cases (BothKnown / FirstKnown / SecondKnown /
//! Correlated / Independent) so the case analysis can never silently
//! degenerate under refactoring.

use dcl_derand::seed::PartialSeed;
use dcl_derand::slice::{PairDist, SliceFamily};
use dcl_kernels::digit_dp::{incremental, EdgeDpCache};
use proptest::prelude::*;

/// Exact joint histogram of `(z_x, z_y)` over all completions of `seed` —
/// built once, then every threshold query is answered from it instead of
/// re-enumerating.
struct Histogram {
    counts: Vec<u64>,
    total: u64,
    outs: usize,
}

impl Histogram {
    fn build(fam: &SliceFamily, seed: &PartialSeed, x: u64, y: u64) -> Self {
        let outs = 1usize << fam.output_bits();
        let mut counts = vec![0u64; outs * outs];
        let mut total = 0u64;
        seed.for_each_completion(|s| {
            let zx = fam.evaluate(s, x) as usize;
            let zy = fam.evaluate(s, y) as usize;
            counts[zx * outs + zy] += 1;
            total += 1;
        });
        Histogram {
            counts,
            total,
            outs,
        }
    }

    fn prob(&self, pred: impl Fn(u64, u64) -> bool) -> f64 {
        let mut hits = 0u64;
        for zx in 0..self.outs {
            for zy in 0..self.outs {
                if pred(zx as u64, zy as u64) {
                    hits += self.counts[zx * self.outs + zy];
                }
            }
        }
        hits as f64 / self.total as f64
    }
}

/// Checks every DP entry point against the histogram for one threshold
/// pair.
fn check_thresholds(
    fam: &SliceFamily,
    seed: &PartialSeed,
    hist: &Histogram,
    x: u64,
    tx: u64,
    y: u64,
    ty: u64,
) -> Result<(), String> {
    let px = fam.prob_lt(seed, x, tx);
    let py = fam.prob_lt(seed, y, ty);
    let pxy = fam.prob_joint_lt(seed, x, tx, y, ty);
    let coins = fam.joint_coin_probs(seed, x, tx, y, ty);
    let checks = [
        ("marginal x", px, hist.prob(|zx, _| zx < tx)),
        ("marginal y", py, hist.prob(|_, zy| zy < ty)),
        ("joint", pxy, hist.prob(|zx, zy| zx < tx && zy < ty)),
        (
            "coin 00",
            coins[0],
            hist.prob(|zx, zy| zx >= tx && zy >= ty),
        ),
        ("coin 01", coins[1], hist.prob(|zx, zy| zx >= tx && zy < ty)),
        ("coin 10", coins[2], hist.prob(|zx, zy| zx < tx && zy >= ty)),
        ("coin 11", coins[3], hist.prob(|zx, zy| zx < tx && zy < ty)),
    ];
    for (label, dp, oracle) in checks {
        if (dp - oracle).abs() >= 1e-9 {
            return Err(format!(
                "{label} at tx={tx} ty={ty}: dp={dp} oracle={oracle}"
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every DP entry point equals exhaustive enumeration for arbitrary
    /// partial seeds, inputs and **all** threshold pairs.
    #[test]
    fn dp_matches_histogram_oracle(
        m in 1u32..=8,
        b in 1u32..=4,
        x_raw in any::<u64>(),
        y_raw in any::<u64>(),
        fix_a in any::<u64>(),
        fix_b in any::<u64>(),
        values in any::<u64>(),
    ) {
        let fam = SliceFamily::new(m, b);
        let mask = (1u64 << m) - 1;
        let (x, y) = (x_raw & mask, y_raw & mask);
        let mut seed = PartialSeed::new(fam.seed_len());
        // Fix each bit with probability 3/4 so enumeration stays small
        // (seed_len is up to 36 here) while leaving real joint structure.
        for i in 0..fam.seed_len() {
            if (fix_a | fix_b) >> (i % 64) & 1 == 1 {
                seed.fix(i, values >> (i % 64) & 1 == 1);
            }
        }
        prop_assume!(seed.free_count() <= 14);

        let hist = Histogram::build(&fam, &seed, x, y);
        let full = 1u64 << b;
        for tx in 0..=full {
            for ty in 0..=full {
                check_thresholds(&fam, &seed, &hist, x, tx, y, ty)
                    .map_err(TestCaseError::Fail)?;
            }
        }
    }

    /// The prefix-cached evaluator against ground truth through a **real**
    /// monotone seed schedule: every seed bit is visited in index order
    /// (exactly the Lemma 2.6 drivers' order), both candidate values are
    /// evaluated through one warm per-edge cache, and each result is
    /// checked against exhaustive enumeration of the correspondingly fixed
    /// seed and bitwise against the stateless evaluator.
    #[test]
    fn incremental_matches_histogram_across_monotone_schedule(
        m in 1u32..=3,
        b in 1u32..=3,
        x_raw in any::<u64>(),
        y_raw in any::<u64>(),
        values in any::<u64>(),
        ts in any::<u64>(),
    ) {
        let fam = SliceFamily::new(m, b);
        let mask = (1u64 << m) - 1;
        let (x, y) = (x_raw & mask, y_raw & mask);
        let full = 1u64 << b;
        let (tx, ty) = (ts % (full + 1), (ts >> 32) % (full + 1));
        let mut seed = PartialSeed::new(fam.seed_len());
        let mut fx = fam.forms_for(&seed, x);
        let mut fy = fam.forms_for(&seed, y);
        let mut cache = EdgeDpCache::new();
        for index in 0..fam.seed_len() {
            let slice = fam.slice_of_seed_bit(index) as usize;
            for val in [false, true] {
                let ox = fam.form_with_fix(fx[slice], x, index, val);
                let oy = fam.form_with_fix(fy[slice], y, index, val);
                let got = incremental::joint_coin_probs_override(
                    &mut cache, &fx, ox, tx, &fy, oy, ty, slice,
                );
                // Bitwise vs the stateless evaluator.
                let want = fam.joint_coin_probs_override(
                    &fx, Some((slice, ox)), tx, &fy, Some((slice, oy)), ty,
                );
                prop_assert_eq!(
                    got.map(f64::to_bits),
                    want.map(f64::to_bits),
                    "stateless divergence at seed bit {} candidate {}",
                    index,
                    val
                );
                // Ground truth: enumerate the seed with this bit fixed.
                let mut fixed = seed.clone();
                fixed.fix(index, val);
                let hist = Histogram::build(&fam, &fixed, x, y);
                let oracle = [
                    hist.prob(|zx, zy| zx >= tx && zy >= ty),
                    hist.prob(|zx, zy| zx >= tx && zy < ty),
                    hist.prob(|zx, zy| zx < tx && zy >= ty),
                    hist.prob(|zx, zy| zx < tx && zy < ty),
                ];
                for (dp, truth) in got.iter().zip(oracle) {
                    prop_assert!(
                        (dp - truth).abs() < 1e-9,
                        "coin prob off at seed bit {} candidate {}: {} vs {}",
                        index,
                        val,
                        dp,
                        truth
                    );
                }
            }
            // Commit one value and advance the schedule.
            let val = values >> (index % 64) & 1 == 1;
            seed.fix(index, val);
            fam.update_forms_on_fix(&mut fx, x, index, val);
            fam.update_forms_on_fix(&mut fy, y, index, val);
        }
    }
}

/// A fixed `m = 2, b = 2` configuration that provably exercises all five
/// `PairDist` cases at once: slice 0 has its `r₀` and `s` bits fixed (so
/// input 1 is fully known and input 2 is still free), while slice 1 is
/// fully free (equal masks ⇒ Correlated, different masks ⇒ Independent).
#[test]
fn all_five_pair_dist_cases_covered_and_oracle_checked() {
    let fam = SliceFamily::new(2, 2);
    let mut seed = PartialSeed::new(fam.seed_len());
    seed.fix(0, true); // r₀ of slice 0
    seed.fix(2, true); // s of slice 0

    assert!(matches!(
        fam.pair_dist(&seed, 0, 1, 1),
        PairDist::BothKnown(..)
    ));
    assert!(matches!(
        fam.pair_dist(&seed, 0, 1, 2),
        PairDist::FirstKnown(..)
    ));
    assert!(matches!(
        fam.pair_dist(&seed, 0, 2, 1),
        PairDist::SecondKnown(..)
    ));
    assert!(matches!(
        fam.pair_dist(&seed, 1, 1, 1),
        PairDist::Correlated(..)
    ));
    assert!(matches!(
        fam.pair_dist(&seed, 1, 1, 2),
        PairDist::Independent
    ));

    // Input pairs chosen so the two slices jointly walk through every
    // case combination the DP has to aggregate.
    for (x, y) in [(1, 1), (1, 2), (2, 1), (1, 3), (2, 3), (3, 3)] {
        let hist = Histogram::build(&fam, &seed, x, y);
        for tx in 0..=4 {
            for ty in 0..=4 {
                check_thresholds(&fam, &seed, &hist, x, tx, y, ty).unwrap();
            }
        }
    }
}
