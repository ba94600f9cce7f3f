//! The slice-independent inner-product family.
//!
//! For input width `m` and output width `b`, the seed consists of `b`
//! independent *slices*; slice `i` holds a vector `r_i ∈ GF(2)^m` and a bit
//! `s_i`. The `b`-bit output for input `x` is
//!
//! ```text
//! z(x)[i] = ⟨r_i, x⟩ ⊕ s_i          (inner product over GF(2))
//! ```
//!
//! **Pairwise independence.** For `x ≠ y`, the pair `(z(x)[i], z(y)[i])` is
//! uniform on `{0,1}²` (the difference `⟨r_i, x⊕y⟩` is uniform because
//! `x⊕y ≠ 0`, and `s_i` makes the marginal uniform); slices use disjoint seed
//! bits, so `(z(x), z(y))` is uniform on `[2^b]²`. This is exactly the
//! property Lemma 2.5 needs for the coins of adjacent nodes (which hold
//! distinct input colors).
//!
//! **Conditional tractability.** Under a *partially fixed* seed, each output
//! bit is an affine form over the free seed bits of its own slice. For any
//! pair of inputs, the joint distribution of the two output bits at each
//! position falls into one of five closed-form cases ([`PairDist`]), and the
//! positions are independent — so `Pr[z(x) < T_x ∧ z(y) < T_y]` is computed
//! by an exact `O(b)`-time digit DP. This is what makes the method of
//! conditional expectations (Lemma 2.6) efficiently implementable; see
//! `DESIGN.md` §2.1.
//!
//! The DP itself lives in `dcl_kernels::digit_dp`, proven bit-identical to
//! its reference oracle. This module re-exports the form types
//! ([`BitForm`], [`PairDist`], [`PackedForms`]) and builds the forms the
//! kernels consume from a partial seed: [`SliceFamily::forms_for`] and
//! [`SliceFamily::packed_forms_for`], kept current across fixes by
//! [`SliceFamily::form_with_fix`].
//!
//! # The monotone seed-schedule contract
//!
//! The Lemma 2.6 drivers fix seed bits in **increasing index order**, and
//! [`SliceFamily::slice_of_seed_bit`] is monotone nondecreasing in the
//! index (`slice = index / (m+1)`). Together with the locality of
//! [`SliceFamily::update_forms_on_fix`] — fixing a bit of slice `s`
//! mutates only `forms[s]` — this gives the invariant the kernels'
//! prefix-cached evaluator relies on: *while the schedule is inside one slice's
//! window, every form at any other position is frozen*. A per-edge
//! [`dcl_kernels::digit_dp::EdgeDpCache`] can therefore memoize the DP
//! transfer over the untouched positions and replay only the current
//! slice and the digits below it, with the float operation sequence — and
//! hence every probability, bit for bit — unchanged. The
//! `schedule_is_slice_monotone` test pins the layout half of the
//! contract; `form_with_fix`, through which both update methods commit a
//! fix, pins the locality half.

use crate::seed::PartialSeed;

pub use dcl_kernels::digit_dp::PackedForms;
pub use dcl_kernels::{pair_dist_of_forms, BitForm, PairDist};

/// The slice-independent inner-product family `h: {0,1}^m → {0,1}^b`.
///
/// # Examples
///
/// ```
/// use dcl_derand::slice::SliceFamily;
/// use dcl_derand::seed::PartialSeed;
///
/// let fam = SliceFamily::new(4, 3);
/// assert_eq!(fam.seed_len(), 3 * 5);
/// let seed = PartialSeed::from_u64(fam.seed_len(), 0x1234);
/// let z = fam.evaluate(&seed, 0b1010);
/// assert!(z < 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceFamily {
    m: u32,
    b: u32,
}

impl SliceFamily {
    /// Creates the family for `m`-bit inputs and `b`-bit outputs.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ m ≤ 63` and `1 ≤ b ≤ 63`.
    pub fn new(m: u32, b: u32) -> Self {
        assert!((1..=63).contains(&m), "input width must be in 1..=63");
        assert!((1..=63).contains(&b), "output width must be in 1..=63");
        SliceFamily { m, b }
    }

    /// Input width in bits.
    pub fn input_bits(&self) -> u32 {
        self.m
    }

    /// Output width in bits.
    pub fn output_bits(&self) -> u32 {
        self.b
    }

    /// Total seed length: `b · (m + 1)` bits.
    pub fn seed_len(&self) -> usize {
        self.b as usize * (self.m as usize + 1)
    }

    /// The slice an absolute seed-bit index belongs to.
    pub fn slice_of_seed_bit(&self, index: usize) -> u32 {
        (index / (self.m as usize + 1)) as u32
    }

    /// Affine form of output bit `slice` for input `x` under `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not fit in `m` bits, `slice ≥ b`, or the seed has
    /// the wrong length.
    fn bit_form(&self, seed: &PartialSeed, slice: u32, x: u64) -> BitForm {
        assert!(x >> self.m == 0, "input {x} wider than {} bits", self.m);
        assert!(slice < self.b, "slice out of range");
        assert_eq!(seed.len(), self.seed_len(), "seed length mismatch");
        // Packed view of the slice's seed window: bits 0..m are r_i, bit m
        // is s_i. The per-position loop collapses to word-parallel bit
        // algebra — free input positions keep their mask bit, fixed ones
        // fold their value into the offset parity.
        let window = self.m as usize + 1;
        let (fixed, values) = seed.packed(slice as usize * window, window);
        let mask = x & !fixed;
        let mut offset = (x & fixed & values).count_ones() & 1 == 1;
        let s_free = fixed >> self.m & 1 == 0;
        if !s_free {
            offset ^= values >> self.m & 1 == 1;
        }
        BitForm {
            offset,
            mask,
            s_free,
        }
    }

    /// All `b` bit forms for input `x` (index `i` = output bit `i`).
    /// Callers on hot paths cache these per distinct input and update them
    /// incrementally with [`SliceFamily::update_forms_on_fix`].
    ///
    /// # Panics
    ///
    /// Panics if `x` does not fit in `m` bits or the seed has the wrong
    /// length.
    pub fn forms_for(&self, seed: &PartialSeed, x: u64) -> Vec<BitForm> {
        (0..self.b).map(|i| self.bit_form(seed, i, x)).collect()
    }

    /// Incrementally updates cached `forms` (as produced by
    /// [`SliceFamily::forms_for`] for input `x`) after seed bit `index` was
    /// fixed to `value`: the form of the slice containing `index` becomes
    /// its [`SliceFamily::form_with_fix`].
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for the seed layout.
    pub fn update_forms_on_fix(&self, forms: &mut [BitForm], x: u64, index: usize, value: bool) {
        assert!(index < self.seed_len(), "seed bit index out of range");
        let slice = self.slice_of_seed_bit(index) as usize;
        forms[slice] = self.form_with_fix(forms[slice], x, index, value);
    }

    /// A copy of `form` (the bit form of input `x` for the slice containing
    /// seed bit `index`) after seed bit `index` is fixed to `value` — the
    /// one place the fix rule is written. The drivers evaluate both
    /// candidate values through it, and [`SliceFamily::update_forms_on_fix`]
    /// and [`SliceFamily::update_packed_on_fix`] commit the chosen one.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for the seed layout.
    pub fn form_with_fix(&self, mut form: BitForm, x: u64, index: usize, value: bool) -> BitForm {
        assert!(index < self.seed_len(), "seed bit index out of range");
        let slice = self.slice_of_seed_bit(index) as usize;
        let within = index - slice * (self.m as usize + 1);
        // Debug-only on this hot path: every caller fixes the same index in
        // a `PartialSeed` in the same step, and `PartialSeed::fix`
        // release-asserts "seed bit {i} fixed twice".
        if within == self.m as usize {
            // The s_i bit.
            debug_assert!(form.s_free, "s bit fixed twice");
            form.s_free = false;
            form.offset ^= value;
        } else if x >> within & 1 == 1 {
            debug_assert!(form.mask >> within & 1 == 1, "r bit fixed twice");
            form.mask &= !(1u64 << within);
            form.offset ^= value;
        }
        form
    }

    /// All `b` bit forms for input `x`, packed in the kernels' SoA layout
    /// ([`PackedForms`]). The packed layout is what the clique/MPC drivers
    /// keep as per-candidate scratch: the digit-DP entry points
    /// (`joint_interval_packed`, `joint_coin_probs_packed`) consume it
    /// directly, so the per-call pack step disappears from the hot loop.
    pub fn packed_forms_for(&self, seed: &PartialSeed, x: u64) -> PackedForms {
        let forms = self.forms_for(seed, x);
        PackedForms::from_forms(&forms)
    }

    /// [`SliceFamily::update_forms_on_fix`] on the packed layout: O(1)
    /// bitset surgery on the slice containing seed bit `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for the seed layout.
    pub fn update_packed_on_fix(
        &self,
        packed: &mut PackedForms,
        x: u64,
        index: usize,
        value: bool,
    ) {
        assert!(index < self.seed_len(), "seed bit index out of range");
        let slice = self.slice_of_seed_bit(index) as usize;
        let updated = self.form_with_fix(packed.form(slice), x, index, value);
        packed.set_form(slice, updated);
    }

    /// Evaluates the hash on a fully fixed seed.
    ///
    /// # Panics
    ///
    /// Panics if any seed bit relevant to the output is still free.
    pub fn evaluate(&self, seed: &PartialSeed, x: u64) -> u64 {
        let mut z = 0u64;
        for i in 0..self.b {
            let form = self.bit_form(seed, i, x);
            assert!(form.is_known(), "seed slice {i} not fully fixed");
            z |= u64::from(form.offset) << i;
        }
        z
    }
}

/// The coin threshold of Lemma 2.5: the number of hash values `k ∈ [2^b]`
/// with `k/2^b < num/den`, i.e. `⌈num · 2^b / den⌉`. The resulting coin
/// probability `T/2^b` equals `num/den` rounded up to a multiple of `2^{-b}`,
/// and is exact at 0 and 1.
///
/// # Panics
///
/// Panics if `den == 0` or `num > den`.
#[must_use]
pub fn coin_threshold(num: u64, den: u64, b: u32) -> u64 {
    assert!(den > 0, "denominator must be positive");
    assert!(num <= den, "probability must be at most 1");
    let scaled = (u128::from(num) << b) + u128::from(den) - 1;
    (scaled / u128::from(den)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcl_kernels::digit_dp::{joint_coin_probs_packed, reference};

    /// `[p00, p01, p10, p11]` of the threshold coins `[z(x) < t_x]`,
    /// `[z(y) < t_y]` through the clique/MPC drivers' kernel.
    fn coin_probs(
        fam: &SliceFamily,
        seed: &PartialSeed,
        x: u64,
        t_x: u64,
        y: u64,
        t_y: u64,
    ) -> [f64; 4] {
        let (sx, sy) = (fam.packed_forms_for(seed, x), fam.packed_forms_for(seed, y));
        joint_coin_probs_packed(&sx, t_x, &sy, t_y)
    }

    /// `Pr[z(x) < t]`: the joint coin DP with a certain second coin
    /// resolves to the marginal DP, so `p11` is the marginal bit for bit.
    fn prob_lt(fam: &SliceFamily, seed: &PartialSeed, x: u64, t: u64) -> f64 {
        coin_probs(fam, seed, x, t, x, 1 << fam.output_bits())[3]
    }

    /// Brute-force `Pr[pred(seed)]` by enumerating free seed bits.
    fn brute_force_prob(seed: &PartialSeed, mut pred: impl FnMut(&PartialSeed) -> bool) -> f64 {
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

    #[test]
    fn pairwise_independence_exhaustive() {
        // m = 2, b = 2 → 6 seed bits, 64 seeds. For every pair x ≠ y the
        // joint distribution of (z(x), z(y)) must be uniform on [4]².
        let fam = SliceFamily::new(2, 2);
        for x in 0u64..4 {
            for y in 0u64..4 {
                if x == y {
                    continue;
                }
                let mut histogram = [[0u32; 4]; 4];
                PartialSeed::new(fam.seed_len()).for_each_completion(|s| {
                    let zx = fam.evaluate(s, x) as usize;
                    let zy = fam.evaluate(s, y) as usize;
                    histogram[zx][zy] += 1;
                });
                for row in &histogram {
                    for &count in row {
                        assert_eq!(count, 4, "joint distribution must be uniform");
                    }
                }
            }
        }
    }

    #[test]
    fn marginal_uniform_for_every_input() {
        let fam = SliceFamily::new(3, 2);
        for x in 0u64..8 {
            let mut histogram = [0u32; 4];
            PartialSeed::new(fam.seed_len()).for_each_completion(|s| {
                histogram[fam.evaluate(s, x) as usize] += 1;
            });
            let expected = (1u32 << fam.seed_len()) / 4;
            assert!(histogram.iter().all(|&c| c == expected));
        }
    }

    #[test]
    fn prob_lt_on_free_seed_is_uniform() {
        let fam = SliceFamily::new(4, 3);
        let seed = PartialSeed::new(fam.seed_len());
        for t in 0u64..=8 {
            let expected = t.min(8) as f64 / 8.0;
            assert!((prob_lt(&fam, &seed, 0b1011, t) - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn prob_lt_matches_brute_force_on_partial_seeds() {
        let fam = SliceFamily::new(3, 3); // 12 seed bits
        for pattern in [0x0u64, 0x5a3, 0xfff, 0x2b1] {
            // Fix every other bit according to `pattern`.
            let mut seed = PartialSeed::new(fam.seed_len());
            for i in (0..fam.seed_len()).step_by(2) {
                seed.fix(i, pattern >> i & 1 == 1);
            }
            for x in [0u64, 3, 5, 7] {
                for t in [0u64, 1, 3, 5, 8] {
                    let dp = prob_lt(&fam, &seed, x, t);
                    let bf = brute_force_prob(&seed, |s| fam.evaluate(s, x) < t);
                    assert!((dp - bf).abs() < 1e-12, "x={x} t={t}: dp={dp} bf={bf}");
                }
            }
        }
    }

    #[test]
    fn joint_lt_matches_brute_force_on_partial_seeds() {
        let fam = SliceFamily::new(3, 3);
        for fixing in [
            vec![],
            vec![(0, true), (4, false), (8, true)],
            vec![(1, true), (2, true), (3, false), (7, true), (11, false)],
        ] {
            let mut seed = PartialSeed::new(fam.seed_len());
            for (i, v) in fixing {
                seed.fix(i, v);
            }
            for (x, y) in [(1u64, 2u64), (3, 5), (6, 7), (0, 4)] {
                for (tx, ty) in [(3u64, 5u64), (1, 8), (8, 8), (0, 4), (7, 2)] {
                    let dp = coin_probs(&fam, &seed, x, tx, y, ty)[3];
                    let bf = brute_force_prob(&seed, |s| {
                        fam.evaluate(s, x) < tx && fam.evaluate(s, y) < ty
                    });
                    assert!(
                        (dp - bf).abs() < 1e-12,
                        "x={x} y={y} tx={tx} ty={ty}: dp={dp} bf={bf}"
                    );
                }
            }
        }
    }

    #[test]
    fn joint_handles_equal_inputs() {
        // Equal inputs give perfectly correlated outputs; the DP must still
        // be exact (the algorithm only relies on independence for adjacent —
        // hence differently-colored — nodes, but the API stays correct).
        let fam = SliceFamily::new(2, 2);
        let seed = PartialSeed::new(fam.seed_len());
        let p = coin_probs(&fam, &seed, 3, 2, 3, 3)[3];
        // z uniform on [4]: both events ⇔ z < 2 → 1/2.
        assert!((p - 0.5).abs() < 1e-12);
    }

    #[test]
    fn coin_probs_sum_to_one() {
        let fam = SliceFamily::new(3, 4);
        let mut seed = PartialSeed::new(fam.seed_len());
        seed.fix(0, true);
        seed.fix(5, false);
        let q = coin_probs(&fam, &seed, 2, 7, 5, 12);
        let sum: f64 = q.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn coin_threshold_rounds_up() {
        // p = 1/3, b = 4: ⌈16/3⌉ = 6 → coin probability 6/16 ∈ [1/3, 1/3 + 1/16).
        assert_eq!(coin_threshold(1, 3, 4), 6);
        // Exact dyadic probabilities are preserved.
        assert_eq!(coin_threshold(1, 2, 4), 8);
        // Extremes are exact (Lemma 2.5).
        assert_eq!(coin_threshold(0, 7, 4), 0);
        assert_eq!(coin_threshold(7, 7, 4), 16);
    }

    #[test]
    fn fixing_all_bits_determines_output() {
        let fam = SliceFamily::new(5, 4);
        let seed = PartialSeed::from_u64(fam.seed_len(), 0xdead_beef);
        let z1 = fam.evaluate(&seed, 0b10110);
        let z2 = fam.evaluate(&seed, 0b10110);
        assert_eq!(z1, z2);
        assert!(z1 < 16);
        // The marginal degenerates to an indicator.
        assert_eq!(prob_lt(&fam, &seed, 0b10110, z1), 0.0);
        assert_eq!(prob_lt(&fam, &seed, 0b10110, z1 + 1), 1.0);
    }

    #[test]
    fn incremental_form_updates_match_recomputation() {
        let fam = SliceFamily::new(4, 3);
        let xs = [0u64, 5, 9, 15];
        let mut seed = PartialSeed::new(fam.seed_len());
        let mut cached: Vec<Vec<BitForm>> = xs.iter().map(|&x| fam.forms_for(&seed, x)).collect();
        // Fix bits in a scrambled order, checking the incremental update
        // against a fresh recomputation after every step.
        let order: Vec<usize> = (0..fam.seed_len())
            .map(|i| (i * 7) % fam.seed_len())
            .collect();
        for (step, &idx) in order.iter().enumerate() {
            let value = step % 3 == 0;
            seed.fix(idx, value);
            for (x, forms) in xs.iter().zip(cached.iter_mut()) {
                fam.update_forms_on_fix(forms, *x, idx, value);
                assert_eq!(
                    *forms,
                    fam.forms_for(&seed, *x),
                    "x={x} after fixing bit {idx}"
                );
            }
        }
    }

    /// The seed-based packed forms the clique/MPC drivers start from equal
    /// a pack of the AoS forms, and the packed kernel on them equals the
    /// reference DP on the AoS forms bit for bit.
    #[test]
    fn forms_based_probs_match_seed_based() {
        let fam = SliceFamily::new(3, 4);
        let mut seed = PartialSeed::new(fam.seed_len());
        for i in (0..fam.seed_len()).step_by(3) {
            seed.fix(i, i % 2 == 0);
        }
        for (x, y) in [(1u64, 6u64), (2, 5)] {
            let fx = fam.forms_for(&seed, x);
            let fy = fam.forms_for(&seed, y);
            let (sx, sy) = (
                fam.packed_forms_for(&seed, x),
                fam.packed_forms_for(&seed, y),
            );
            for (i, (&f, &g)) in fx.iter().zip(&fy).enumerate() {
                assert_eq!((sx.form(i), sy.form(i)), (f, g), "position {i}");
            }
            for (tx, ty) in [(5u64, 9u64), (16, 3), (0, 12)] {
                let q = joint_coin_probs_packed(&sx, tx, &sy, ty);
                assert_eq!(
                    q.map(f64::to_bits),
                    reference::joint_coin_probs_override(&fx, None, tx, &fy, None, ty)
                        .map(f64::to_bits)
                );
                let sum: f64 = q.iter().sum();
                assert!((sum - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn slice_of_seed_bit_layout() {
        let fam = SliceFamily::new(3, 2);
        assert_eq!(fam.slice_of_seed_bit(0), 0);
        assert_eq!(fam.slice_of_seed_bit(3), 0); // s_0
        assert_eq!(fam.slice_of_seed_bit(4), 1);
        assert_eq!(fam.slice_of_seed_bit(7), 1); // s_1
    }

    /// The widest supported family (`b = 63`): thresholds up to `2^63`
    /// inclusive stay exact through the seed-aware API.
    #[test]
    fn max_width_probabilities_are_exact() {
        let fam = SliceFamily::new(2, 63);
        let seed = PartialSeed::new(fam.seed_len());
        let full = 1u64 << 63;
        assert_eq!(prob_lt(&fam, &seed, 0b01, full), 1.0);
        assert_eq!(prob_lt(&fam, &seed, 0b01, full / 4), 0.25);
        assert_eq!(prob_lt(&fam, &seed, 0b01, 3), 3.0 / full as f64);
        // Distinct inputs are pairwise independent: Pr = 1/2 · 1/4.
        assert_eq!(
            coin_probs(&fam, &seed, 0b01, full / 2, 0b10, full / 4)[3],
            0.125
        );
    }

    /// The layout half of the monotone seed-schedule contract (module
    /// docs): fixing seed bits in index order visits slices in
    /// nondecreasing order, so the kernels' DP prefix cache is
    /// sound for any driver that walks the seed front to back.
    #[test]
    fn schedule_is_slice_monotone() {
        for (m, b) in [(1u32, 1u32), (3, 4), (10, 14), (63, 63)] {
            let fam = SliceFamily::new(m, b);
            let mut prev = 0u32;
            for index in 0..fam.seed_len() {
                let slice = fam.slice_of_seed_bit(index);
                assert!(slice >= prev, "slice regressed at index {index}");
                assert!(slice < b, "slice out of range at index {index}");
                prev = slice;
            }
            assert_eq!(prev, b - 1, "schedule must end in the last slice");
        }
    }

    /// Packed scratch stays in lockstep with the AoS forms across a full
    /// schedule of fixes, and the packed kernel on it matches the reference
    /// DP on the AoS forms.
    #[test]
    fn packed_forms_track_fixes() {
        let fam = SliceFamily::new(4, 3);
        let mut seed = PartialSeed::new(fam.seed_len());
        let (x, y) = (0b1010u64, 0b0111u64);
        let mut forms_x = fam.forms_for(&seed, x);
        let mut packed_x = fam.packed_forms_for(&seed, x);
        let mut forms_y = fam.forms_for(&seed, y);
        let mut packed_y = fam.packed_forms_for(&seed, y);
        for index in 0..fam.seed_len() {
            let value = index % 3 == 1;
            seed.fix(index, value);
            fam.update_forms_on_fix(&mut forms_x, x, index, value);
            fam.update_packed_on_fix(&mut packed_x, x, index, value);
            fam.update_forms_on_fix(&mut forms_y, y, index, value);
            fam.update_packed_on_fix(&mut packed_y, y, index, value);
            for i in 0..fam.output_bits() as usize {
                assert_eq!(packed_x.form(i), forms_x[i], "bit {index} position {i}");
                assert_eq!(packed_y.form(i), forms_y[i], "bit {index} position {i}");
            }
            for (tx, ty) in [(3u64, 7u64), (8, 8), (0, 5)] {
                let aos =
                    reference::joint_coin_probs_override(&forms_x, None, tx, &forms_y, None, ty);
                let packed = joint_coin_probs_packed(&packed_x, tx, &packed_y, ty);
                assert_eq!(aos.map(f64::to_bits), packed.map(f64::to_bits));
            }
        }
    }
}
