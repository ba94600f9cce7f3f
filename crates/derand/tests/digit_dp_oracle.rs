//! Brute-force histogram oracle for the digit-DP kernels the drivers run.
//!
//! The equivalence suite in `dcl_kernels` proves every production entry
//! point bit-identical to the reference oracle; this suite proves they
//! agree with *the ground truth*: for every completion of a partial seed
//! the hash output pair `(z_x, z_y)` is enumerated into an exact joint
//! histogram, and the clique/MPC kernels are checked against it —
//! `joint_coin_probs_packed`'s four coin outcomes for **every** threshold
//! pair, and `joint_interval_packed` for **every** interval pair
//! `[ul, uh) × [vl, vh)`. The prefix-cached evaluator behind Theorem 1.1's
//! `edge_shares_cached` is driven through real monotone seed schedules
//! (`SliceFamily` fixes in index order) with the warm cache checked
//! against a fresh enumeration after every candidate evaluation.
//!
//! A hand-crafted `m = 2, b = 2` configuration additionally pins coverage
//! of all five `PairDist` cases (BothKnown / FirstKnown / SecondKnown /
//! Correlated / Independent) so the case analysis can never silently
//! degenerate under refactoring.

use dcl_derand::seed::PartialSeed;
use dcl_derand::slice::{pair_dist_of_forms, PackedForms, PairDist, SliceFamily};
use dcl_kernels::digit_dp::{
    incremental, joint_coin_probs_packed, joint_interval_packed, EdgeDpCache,
};
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

    /// `Pr[z_x ∈ [ul, uh) ∧ z_y ∈ [vl, vh)]`, summed cell by cell.
    fn interval(&self, ul: u64, uh: u64, vl: u64, vh: u64) -> f64 {
        let mut hits = 0u64;
        for zx in ul as usize..uh as usize {
            for zy in vl as usize..vh as usize {
                hits += self.counts[zx * self.outs + zy];
            }
        }
        hits as f64 / self.total as f64
    }
}

/// Checks `joint_coin_probs_packed`'s four outcomes against the histogram
/// for one threshold pair.
fn check_thresholds(
    sx: &PackedForms,
    sy: &PackedForms,
    hist: &Histogram,
    tx: u64,
    ty: u64,
) -> Result<(), String> {
    let coins = joint_coin_probs_packed(sx, tx, sy, ty);
    let checks = [
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

/// Checks `joint_interval_packed` against the histogram on every pair of
/// intervals `[ul, uh) × [vl, vh)` with `0 ≤ ul ≤ uh ≤ 2^b` (and the same
/// for `v`) — the bounds the clique/MPC drivers pass.
fn check_intervals(
    sx: &PackedForms,
    sy: &PackedForms,
    hist: &Histogram,
    full: u64,
) -> Result<(), String> {
    let intervals: Vec<(u64, u64)> = (0..=full)
        .flat_map(|lo| (lo..=full).map(move |hi| (lo, hi)))
        .collect();
    for &(ul, uh) in &intervals {
        for &(vl, vh) in &intervals {
            let dp = joint_interval_packed(sx, ul, uh, sy, vl, vh);
            let oracle = hist.interval(ul, uh, vl, vh);
            if (dp - oracle).abs() >= 1e-9 {
                return Err(format!(
                    "interval [{ul},{uh})x[{vl},{vh}): dp={dp} oracle={oracle}"
                ));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The clique/MPC kernels equal exhaustive enumeration for arbitrary
    /// partial seeds, inputs and **all** threshold and interval pairs.
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
        let (sx, sy) = (fam.packed_forms_for(&seed, x), fam.packed_forms_for(&seed, y));
        let full = 1u64 << b;
        for tx in 0..=full {
            for ty in 0..=full {
                check_thresholds(&sx, &sy, &hist, tx, ty).map_err(TestCaseError::Fail)?;
            }
        }
        check_intervals(&sx, &sy, &hist, full).map_err(TestCaseError::Fail)?;
    }

    /// The prefix-cached evaluator against ground truth through a **real**
    /// monotone seed schedule: every seed bit is visited in index order
    /// (exactly the Lemma 2.6 drivers' order), both candidate values are
    /// evaluated through one warm per-edge cache, and each result is
    /// checked against exhaustive enumeration of the correspondingly fixed
    /// seed and bitwise against `joint_coin_probs_packed` on packed forms
    /// carrying the same fix.
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
                // Bitwise vs the packed kernel on the fixed forms.
                let (mut sx, mut sy) = (PackedForms::from_forms(&fx), PackedForms::from_forms(&fy));
                sx.set_form(slice, ox);
                sy.set_form(slice, oy);
                let want = joint_coin_probs_packed(&sx, tx, &sy, ty);
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

    let pair_dist = |slice: usize, x: u64, y: u64| {
        pair_dist_of_forms(
            fam.forms_for(&seed, x)[slice],
            fam.forms_for(&seed, y)[slice],
        )
    };
    assert!(matches!(pair_dist(0, 1, 1), PairDist::BothKnown(..)));
    assert!(matches!(pair_dist(0, 1, 2), PairDist::FirstKnown(..)));
    assert!(matches!(pair_dist(0, 2, 1), PairDist::SecondKnown(..)));
    assert!(matches!(pair_dist(1, 1, 1), PairDist::Correlated(..)));
    assert!(matches!(pair_dist(1, 1, 2), PairDist::Independent));

    // Input pairs chosen so the two slices jointly walk through every
    // case combination the DP has to aggregate.
    for (x, y) in [(1, 1), (1, 2), (2, 1), (1, 3), (2, 3), (3, 3)] {
        let hist = Histogram::build(&fam, &seed, x, y);
        let (sx, sy) = (
            fam.packed_forms_for(&seed, x),
            fam.packed_forms_for(&seed, y),
        );
        for tx in 0..=4 {
            for ty in 0..=4 {
                check_thresholds(&sx, &sy, &hist, tx, ty).unwrap();
            }
        }
        check_intervals(&sx, &sy, &hist, 4).unwrap();
    }
}
