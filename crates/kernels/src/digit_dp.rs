//! The Lemma 2.6 pair-probability digit DP and its per-edge aggregation.
//!
//! This is most of Theorem 1.1's runtime: every conflict edge × every seed
//! bit × both candidate values needs the exact `O(b)` digit DP over the
//! joint distribution of two hash outputs (see `DESIGN.md` §8 for the
//! measured share). Each public function here has one implementation:
//!
//! - the stateless entry points (`*_override`, `*_packed`) run the SoA
//!   evaluator in `scalar`: the forms packed into [`PackedForms`]
//!   (`mask` array + `known`/`offset` bitsets), the per-digit case split
//!   resolved by integer bit tests, and the DP transition (`DigitPmf`)
//!   replaying the reference's float operations in the reference's order;
//! - [`edge_shares_cached`] runs the prefix-cached evaluator in
//!   [`incremental`]: the DP state over the leading digits `b-1..s+1` is
//!   invariant for the whole window of slice `s`, so an evaluation
//!   replays only the overridden digit plus the trailing `s` digits, and
//!   a finished result is reused for every later evaluation of the window
//!   whose override falls in the same digit-pmf class;
//! - [`joint_interval_packed`] walks the digits once, stepping every CDF
//!   corner that still needs the DP through the same per-digit pmf.
//!
//! [`mod@reference`] keeps the DP and the edge aggregation exactly as they
//! lived in `dcl_derand::slice` / `dcl_core::derand_step`. No production
//! code calls it; tests compare every entry point against it with
//! `to_bits` equality.
//!
//! Thresholds may be up to `2^b` *inclusive* (the reference's guard
//! clauses); `b` is the forms-slice length, at most 63. Every public entry
//! point rejects `b ≥ 64` with a panic: `1 << 64` does not fit a `u64`,
//! and a release build would otherwise mask the shift and return wrong
//! probabilities.

use crate::forms::BitForm;

pub mod incremental;
pub mod reference;
mod scalar;

pub use incremental::EdgeDpCache;

/// Largest supported digit count: thresholds up to `2^b` must fit a `u64`.
const MAX_DIGITS: usize = 63;

/// Rejects digit counts whose `2^b` threshold bound does not fit a `u64`.
/// A real `assert!`, not a debug check: in a release build the shift
/// `1 << 64` is masked to `1 << 0`, which silently corrupts the guards.
#[inline]
pub(crate) fn assert_width(b: usize) {
    assert!(
        b <= MAX_DIGITS,
        "digit DP supports at most {MAX_DIGITS} digits, got {b}"
    );
}

/// SoA repack of one input's `b` bit forms: the free-variable masks as an
/// array, the known/offset/s-free flags as bitsets. The evaluators read
/// digits from this layout with integer bit tests instead of per-position
/// struct loads, and the drivers keep one `PackedForms` per node updated
/// in place across seed fixes (`SliceFamily::update_packed_on_fix`), so the
/// per-call pack loop disappears from the hot path.
#[derive(Debug, Clone)]
pub struct PackedForms {
    /// Number of digits (= forms.len()).
    pub(crate) b: usize,
    /// `masks[i]` = free positions of `r_i` where the input has a 1 bit.
    pub(crate) masks: [u64; 64],
    /// Bit `i` set iff form `i` is fully determined.
    pub(crate) known: u64,
    /// Bit `i` = offset of form `i`.
    pub(crate) offset: u64,
    /// Bit `i` set iff form `i`'s `s` bit is still free. Not read by the
    /// DP (it folds into `known`), but needed to reconstruct the
    /// [`BitForm`] at a position for in-place updates.
    pub(crate) s_free: u64,
}

impl PackedForms {
    fn pack(forms: &[BitForm], over: Option<(usize, BitForm)>) -> PackedForms {
        assert_width(forms.len());
        let mut s = PackedForms {
            b: forms.len(),
            masks: [0; 64],
            known: 0,
            offset: 0,
            s_free: 0,
        };
        for (i, form) in forms.iter().enumerate() {
            let f = match over {
                Some((oi, o)) if oi == i => o,
                _ => *form,
            };
            s.masks[i] = f.mask;
            if f.is_known() {
                s.known |= 1 << i;
            }
            if f.offset {
                s.offset |= 1 << i;
            }
            if f.s_free {
                s.s_free |= 1 << i;
            }
        }
        s
    }

    /// Packs `forms` (index `i` = output bit `i`).
    ///
    /// # Panics
    ///
    /// Panics when `forms.len() ≥ 64`.
    #[must_use]
    pub fn from_forms(forms: &[BitForm]) -> PackedForms {
        PackedForms::pack(forms, None)
    }

    /// Number of digits.
    #[must_use]
    pub fn digits(&self) -> usize {
        self.b
    }

    /// The bit form at position `i`, reconstructed from the bitsets.
    #[must_use]
    pub fn form(&self, i: usize) -> BitForm {
        debug_assert!(i < self.b, "digit index out of range");
        BitForm {
            offset: self.offset >> i & 1 == 1,
            mask: self.masks[i],
            s_free: self.s_free >> i & 1 == 1,
        }
    }

    /// Replaces the form at position `i` — the O(1) counterpart of
    /// repacking after `SliceFamily::update_forms_on_fix`.
    pub fn set_form(&mut self, i: usize, f: BitForm) {
        debug_assert!(i < self.b, "digit index out of range");
        let bit = 1u64 << i;
        self.masks[i] = f.mask;
        self.known = self.known & !bit | u64::from(f.is_known()) << i;
        self.offset = self.offset & !bit | u64::from(f.offset) << i;
        self.s_free = self.s_free & !bit | u64::from(f.s_free) << i;
    }

    /// Marginal probability that digit `i` equals 1 — same values as
    /// [`BitForm::prob_one`], read from the bitsets.
    #[inline]
    pub(crate) fn prob_one(&self, i: usize) -> f64 {
        if self.known >> i & 1 == 1 {
            if self.offset >> i & 1 == 1 {
                1.0
            } else {
                0.0
            }
        } else {
            0.5
        }
    }
}

/// One marginal DP step on the state `[p_eq, p_lt]` — the body of the
/// reference loop, verbatim.
#[inline]
pub(crate) fn marg_step(st: &mut [f64; 2], p1: f64, tbit: u64) {
    if tbit == 1 {
        st[1] += st[0] * (1.0 - p1);
        st[0] *= p1;
    } else {
        st[0] *= 1.0 - p1;
    }
}

/// The nonzero entries `(bx, by, prob)` of one digit's joint pmf, in
/// ascending pmf-index (`bx<<1|by`) order — exactly the entries the
/// reference's `idx 0..4, skip prob == 0` loop visits, in the same order.
/// The five-case split is [`pair_dist_of_forms`]'s, decided from the known
/// and offset bits and the mask equality of the two forms.
///
/// [`pair_dist_of_forms`]: crate::forms::pair_dist_of_forms
#[derive(Debug, Clone, Copy)]
pub(crate) struct DigitPmf {
    entries: [(u64, u64, f64); 4],
    len: usize,
}

impl DigitPmf {
    #[inline]
    fn new(kx: bool, ky: bool, ox: u64, oy: u64, same_mask: bool) -> DigitPmf {
        let mut entries = [(0u64, 0u64, 0.0f64); 4];
        let len = match (kx, ky) {
            (true, true) => {
                entries[0] = (ox, oy, 1.0);
                1
            }
            (true, false) => {
                entries[0] = (ox, 0, 0.5);
                entries[1] = (ox, 1, 0.5);
                2
            }
            (false, true) => {
                entries[0] = (0, oy, 0.5);
                entries[1] = (1, oy, 0.5);
                2
            }
            // Same slice ⇒ the forms coincide as linear maps iff the
            // r-masks do (`pair_dist_of_forms`'s Correlated case).
            (false, false) if same_mask => {
                let d = ox ^ oy;
                entries[0] = (0, d, 0.5);
                entries[1] = (1, 1 ^ d, 0.5);
                2
            }
            (false, false) => {
                entries[0] = (0, 0, 0.25);
                entries[1] = (0, 1, 0.25);
                entries[2] = (1, 0, 0.25);
                entries[3] = (1, 1, 0.25);
                4
            }
        };
        DigitPmf { entries, len }
    }

    /// The pmf of digit `i` of two packed inputs.
    #[inline]
    pub(crate) fn of_packed(sx: &PackedForms, sy: &PackedForms, i: usize) -> DigitPmf {
        DigitPmf::new(
            sx.known >> i & 1 == 1,
            sy.known >> i & 1 == 1,
            sx.offset >> i & 1,
            sy.offset >> i & 1,
            sx.masks[i] == sy.masks[i],
        )
    }

    /// The pmf of one pair of bit forms.
    #[inline]
    pub(crate) fn of_forms(fx: BitForm, fy: BitForm) -> DigitPmf {
        DigitPmf::new(
            fx.is_known(),
            fy.is_known(),
            u64::from(fx.offset),
            u64::from(fy.offset),
            fx.mask == fy.mask,
        )
    }

    /// One joint DP step on the state `[ee, el, le, ll]` (per coordinate:
    /// prefix still equal to the threshold prefix, or already strictly
    /// less), for threshold digits `tbx`, `tby`. The body is the
    /// reference's inner loop verbatim, so every accumulator sees the same
    /// float operations in the same order.
    #[inline]
    pub(crate) fn step(&self, st: &mut [f64; 4], tbx: u64, tby: u64) {
        use std::cmp::Ordering::*;
        let [ee, el, le, ll] = *st;
        let (mut nee, mut nel, mut nle, mut nll) = (0.0, 0.0, 0.0, 0.0);
        for &(bx, by, prob) in &self.entries[..self.len] {
            let cx = bx.cmp(&tbx);
            let cy = by.cmp(&tby);
            match (cx, cy) {
                (Greater, _) | (_, Greater) => {}
                (Equal, Equal) => nee += ee * prob,
                (Equal, Less) => nel += ee * prob,
                (Less, Equal) => nle += ee * prob,
                (Less, Less) => nll += ee * prob,
            }
            match cx {
                Greater => {}
                Equal => nel += el * prob,
                Less => nll += el * prob,
            }
            match cy {
                Greater => {}
                Equal => nle += le * prob,
                Less => nll += le * prob,
            }
            nll += ll * prob;
        }
        *st = [nee, nel, nle, nll];
    }
}

/// `Pr[z < t]` over the free bits of `forms`, with position `i` replaced by
/// `f` when `over = Some((i, f))`. `t` may be `2^b` (inclusive) → 1.
///
/// # Panics
///
/// Panics when `forms.len() ≥ 64`.
#[must_use]
pub fn prob_lt_override(forms: &[BitForm], over: Option<(usize, BitForm)>, t: u64) -> f64 {
    scalar::prob_lt(&PackedForms::pack(forms, over), t)
}

/// `Pr[z_x < t_x ∧ z_y < t_y]` over the shared free seed bits, with
/// per-input single-position overrides.
///
/// # Panics
///
/// Panics when the inputs have 64 or more digits.
#[must_use]
pub fn prob_joint_lt_override(
    forms_x: &[BitForm],
    over_x: Option<(usize, BitForm)>,
    t_x: u64,
    forms_y: &[BitForm],
    over_y: Option<(usize, BitForm)>,
    t_y: u64,
) -> f64 {
    scalar::prob_joint_lt(
        &PackedForms::pack(forms_x, over_x),
        t_x,
        &PackedForms::pack(forms_y, over_y),
        t_y,
    )
}

/// Joint threshold-coin probabilities `[p00, p01, p10, p11]` with per-input
/// single-position overrides.
///
/// # Panics
///
/// Panics when the inputs have 64 or more digits.
#[must_use]
pub fn joint_coin_probs_override(
    forms_x: &[BitForm],
    over_x: Option<(usize, BitForm)>,
    t_x: u64,
    forms_y: &[BitForm],
    over_y: Option<(usize, BitForm)>,
    t_y: u64,
) -> [f64; 4] {
    scalar::joint_coin_probs(
        &PackedForms::pack(forms_x, over_x),
        t_x,
        &PackedForms::pack(forms_y, over_y),
        t_y,
    )
}

/// [`joint_coin_probs_override`] without overrides, on pre-packed inputs —
/// the drivers' scratch forms live in the SoA layout, so no per-call pack
/// happens.
#[must_use]
pub fn joint_coin_probs_packed(sx: &PackedForms, t_x: u64, sy: &PackedForms, t_y: u64) -> [f64; 4] {
    scalar::joint_coin_probs(sx, t_x, sy, t_y)
}

/// Conditional expectations of one conflict edge for one seed bit:
/// `[x⁰ share of u, x⁰ share of v, x¹ share of u, x¹ share of v]`, with a
/// per-edge DP prefix cache.
///
/// `over_u[c]` / `over_v[c]` are the endpoint forms at position `slice`
/// with the seed bit under evaluation fixed to candidate value `c` (the
/// caller computes them via `SliceFamily::form_with_fix`, keeping the
/// kernel independent of the seed layout). This is the innermost function
/// of the whole system — the dominant work of every scenario. The Lemma
/// 2.6 drivers own one [`EdgeDpCache`] per conflict edge for the duration
/// of a phase and pass it here per seed bit; the cache skips the invariant
/// leading digits (see [`incremental`]).
///
/// Contract (checked in debug builds): the caller owns one cache per
/// conflict edge per phase and fixes seed bits in monotone slice order;
/// forms at positions `≠ slice` must not change while the cache key
/// `(width, slice, thresholds)` is unchanged. A release build trusts the
/// contract (see [`incremental`]).
///
/// # Panics
///
/// Panics when the inputs have 64 or more digits, or when `slice` is not
/// below the digit count.
#[allow(clippy::too_many_arguments)]
#[must_use]
pub fn edge_shares_cached(
    cache: &mut EdgeDpCache,
    forms_u: &[BitForm],
    over_u: [BitForm; 2],
    t_u: u64,
    k0_inv_u: f64,
    k1_inv_u: f64,
    forms_v: &[BitForm],
    over_v: [BitForm; 2],
    t_v: u64,
    k0_inv_v: f64,
    k1_inv_v: f64,
    slice: usize,
) -> [f64; 4] {
    let mut out = [0.0f64; 4];
    for cand in [false, true] {
        // Both candidate values resume the same cached prefix states.
        let p = incremental::joint_coin_probs_override(
            cache,
            forms_u,
            over_u[usize::from(cand)],
            t_u,
            forms_v,
            over_v[usize::from(cand)],
            t_v,
            slice,
        );
        // The combine replays `reference::edge_shares` verbatim.
        let share_u = p[3] * k1_inv_u + p[0] * k0_inv_u;
        let share_v = p[3] * k1_inv_v + p[0] * k0_inv_v;
        let base = if cand { 2 } else { 0 };
        out[base] = share_u;
        out[base + 1] = share_v;
    }
    out
}

/// `Pr[z_u ∈ [ul, uh) ∧ z_v ∈ [vl, vh)]` by inclusion–exclusion over the
/// joint CDF, in the fixed combine order
/// `(J(uh,vh) − J(ul,vh) − J(uh,vl) + J(ul,vl)).max(0)` — the order both
/// the CONGESTED CLIQUE driver and the MPC finisher used before the
/// extraction, so the kernel serves both call sites bit-identically. The
/// clique/MPC drivers keep their per-candidate scratch forms packed and
/// call this once per digit interval.
#[must_use]
pub fn joint_interval_packed(
    su: &PackedForms,
    ul: u64,
    uh: u64,
    sv: &PackedForms,
    vl: u64,
    vh: u64,
) -> f64 {
    scalar::joint_interval(su, ul, uh, sv, vl, vh)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forms::pair_dist_of_forms;

    fn form(offset: bool, mask: u64, s_free: bool) -> BitForm {
        BitForm {
            offset,
            mask,
            s_free,
        }
    }

    fn sample_forms() -> (Vec<BitForm>, Vec<BitForm>) {
        let fx = vec![
            form(false, 0b0110, false),
            form(true, 0, false),
            form(false, 0, true),
            form(true, 0b1000, true),
        ];
        let fy = vec![
            form(true, 0b0110, false),
            form(false, 0b0001, false),
            form(true, 0, true),
            form(false, 0b1000, true),
        ];
        (fx, fy)
    }

    #[test]
    fn entry_points_match_reference_on_sample() {
        let (fx, fy) = sample_forms();
        assert_eq!(
            prob_joint_lt_override(&fx, None, 11, &fy, None, 6).to_bits(),
            reference::prob_joint_lt_override(&fx, None, 11, &fy, None, 6).to_bits(),
        );
        assert_eq!(
            joint_coin_probs_override(&fx, None, 11, &fy, None, 6).map(f64::to_bits),
            reference::joint_coin_probs_override(&fx, None, 11, &fy, None, 6).map(f64::to_bits),
        );
    }

    #[test]
    fn guards_handle_inclusive_thresholds() {
        let (fx, fy) = sample_forms();
        let joint = |tx, ty| prob_joint_lt_override(&fx, None, tx, &fy, None, ty);
        let marg = |f: &[BitForm], t| prob_lt_override(f, None, t);
        assert_eq!(joint(16, 16), 1.0);
        assert_eq!(marg(&fx, 16), 1.0);
        assert_eq!(joint(16, 5).to_bits(), marg(&fy, 5).to_bits());
        assert_eq!(joint(7, 16).to_bits(), marg(&fx, 7).to_bits());
    }

    #[test]
    fn digit_pmf_matches_pair_dist_of_forms() {
        let (fx, fy) = sample_forms();
        let sx = PackedForms::from_forms(&fx);
        let sy = PackedForms::from_forms(&fy);
        for i in 0..fx.len() {
            let q = pair_dist_of_forms(fx[i], fy[i]).pmf();
            let want: Vec<(u64, u64, u64)> = (0..4)
                .filter(|&idx| q[idx] != 0.0)
                .map(|idx| ((idx >> 1) as u64, (idx & 1) as u64, q[idx].to_bits()))
                .collect();
            for pmf in [
                DigitPmf::of_packed(&sx, &sy, i),
                DigitPmf::of_forms(fx[i], fy[i]),
            ] {
                let got: Vec<(u64, u64, u64)> = pmf.entries[..pmf.len]
                    .iter()
                    .map(|&(bx, by, p)| (bx, by, p.to_bits()))
                    .collect();
                assert_eq!(got, want, "digit {i}");
            }
        }
    }

    #[test]
    fn packed_form_roundtrip_and_set() {
        let (fx, fy) = sample_forms();
        let mut packed = PackedForms::from_forms(&fx);
        assert_eq!(packed.digits(), fx.len());
        for (i, &f) in fx.iter().enumerate() {
            assert_eq!(packed.form(i), f, "position {i}");
        }
        // Overwrite every position with fy's form; the result must equal a
        // fresh pack of fy, including the known-bit recomputation.
        for (i, &f) in fy.iter().enumerate() {
            packed.set_form(i, f);
        }
        let fresh = PackedForms::from_forms(&fy);
        assert_eq!(packed.known, fresh.known);
        assert_eq!(packed.offset, fresh.offset);
        assert_eq!(packed.s_free, fresh.s_free);
        assert_eq!(packed.masks, fresh.masks);
    }

    #[test]
    fn packed_entry_points_match_reference() {
        let (fx, fy) = sample_forms();
        let sx = PackedForms::from_forms(&fx);
        let sy = PackedForms::from_forms(&fy);
        for (tx, ty) in [(11u64, 6u64), (16, 6), (3, 16), (16, 16), (0, 9)] {
            assert_eq!(
                joint_coin_probs_packed(&sx, tx, &sy, ty).map(f64::to_bits),
                reference::joint_coin_probs_override(&fx, None, tx, &fy, None, ty)
                    .map(f64::to_bits),
                "t=({tx},{ty})"
            );
        }
        for (ul, uh, vl, vh) in [(2u64, 9u64, 1u64, 7u64), (0, 16, 3, 12), (5, 5, 0, 16)] {
            assert_eq!(
                joint_interval_packed(&sx, ul, uh, &sy, vl, vh).to_bits(),
                reference::joint_interval(&fx, ul, uh, &fy, vl, vh).to_bits(),
                "interval ({ul},{uh})x({vl},{vh})"
            );
        }
    }

    #[test]
    fn zero_digit_forms_match_reference() {
        // Inactive clique/MPC nodes carry an empty pack (b = 0, 2^b = 1).
        let empty = PackedForms::from_forms(&[]);
        assert_eq!(empty.digits(), 0);
        for (tx, ty) in [(0u64, 0u64), (0, 1), (1, 0), (1, 1)] {
            assert_eq!(
                joint_coin_probs_packed(&empty, tx, &empty, ty).map(f64::to_bits),
                reference::joint_coin_probs_override(&[], None, tx, &[], None, ty)
                    .map(f64::to_bits),
                "t=({tx},{ty})"
            );
        }
        assert_eq!(
            joint_interval_packed(&empty, 0, 1, &empty, 0, 1).to_bits(),
            reference::joint_interval(&[], 0, 1, &[], 0, 1).to_bits()
        );
    }

    #[test]
    fn width_63_is_exact_at_both_ends() {
        let free: Vec<BitForm> = (0..63).map(|i| form(false, 1 << i, true)).collect();
        let full = 1u64 << 63;
        assert_eq!(prob_lt_override(&free, None, full), 1.0);
        assert_eq!(prob_lt_override(&free, None, full / 2), 0.5);
        assert_eq!(prob_lt_override(&free, None, 5), 5.0 / full as f64);
        assert_eq!(
            prob_joint_lt_override(&free, None, 5, &free, None, full).to_bits(),
            reference::prob_lt_override(&free, None, 5).to_bits()
        );
    }

    #[test]
    fn zero_corners_are_positive_zero() {
        // Every corner of an interval with a zero upper bound is a zero
        // corner; the result must be +0.0 bit for bit, as the DP gives.
        let (fx, fy) = sample_forms();
        let sx = PackedForms::from_forms(&fx);
        let sy = PackedForms::from_forms(&fy);
        for (uh, vh) in [(0u64, 0u64), (0, 16), (16, 0), (0, 9)] {
            let got = joint_interval_packed(&sx, 0, uh, &sy, 0, vh);
            assert_eq!(got.to_bits(), 0.0f64.to_bits(), "({uh},{vh})");
            assert_eq!(
                got.to_bits(),
                reference::joint_interval(&fx, 0, uh, &fy, 0, vh).to_bits()
            );
        }
    }
}
