//! The oracle: the digit DP exactly as it lived in
//! `dcl_derand::slice::SliceFamily` and the edge aggregation exactly as it
//! lived in `dcl_core::derand_step` — moved, not rewritten. `self.b` became
//! `forms.len()`; every float operation and its order is unchanged. No
//! production code calls this module; the tests prove every production
//! entry point bit-identical to it.

use super::assert_width;
use crate::forms::{pair_dist_of_forms, BitForm};

/// `Pr[z < t]`, position `i` replaced by `f` when `over = Some((i, f))`.
///
/// # Panics
///
/// Panics when `forms.len() ≥ 64`.
#[must_use]
pub fn prob_lt_override(forms: &[BitForm], over: Option<(usize, BitForm)>, t: u64) -> f64 {
    let b = forms.len();
    assert_width(b);
    if t >= 1 << b {
        return 1.0;
    }
    let mut p_eq = 1.0f64;
    let mut p_lt = 0.0f64;
    for i in (0..b).rev() {
        let form = match over {
            Some((oi, f)) if oi == i => f,
            _ => forms[i],
        };
        let p1 = form.prob_one();
        if t >> i & 1 == 1 {
            p_lt += p_eq * (1.0 - p1);
            p_eq *= p1;
        } else {
            p_eq *= 1.0 - p1;
        }
    }
    p_lt
}

/// `Pr[z_x < t_x ∧ z_y < t_y]` with per-input overrides at one position
/// each.
///
/// States track, per coordinate, whether the output prefix is still equal
/// to the threshold prefix or already strictly less; mass where a
/// coordinate exceeds its threshold prefix is discarded.
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
    let b = forms_x.len();
    assert_width(b);
    debug_assert_eq!(b, forms_y.len(), "inputs must share the output width");
    let full = 1u64 << b;
    if t_x >= full && t_y >= full {
        return 1.0;
    }
    if t_x >= full {
        return prob_lt_override(forms_y, over_y, t_y);
    }
    if t_y >= full {
        return prob_lt_override(forms_x, over_x, t_x);
    }
    let mut ee = 1.0f64;
    let mut el = 0.0f64;
    let mut le = 0.0f64;
    let mut ll = 0.0f64;
    for i in (0..b).rev() {
        let fx = match over_x {
            Some((oi, f)) if oi == i => f,
            _ => forms_x[i],
        };
        let fy = match over_y {
            Some((oi, f)) if oi == i => f,
            _ => forms_y[i],
        };
        let q = pair_dist_of_forms(fx, fy).pmf();
        let tbx = t_x >> i & 1;
        let tby = t_y >> i & 1;
        let (mut nee, mut nel, mut nle, mut nll) = (0.0, 0.0, 0.0, 0.0);
        for (idx, &prob) in q.iter().enumerate() {
            if prob == 0.0 {
                continue;
            }
            let bx = (idx >> 1) as u64;
            let by = (idx & 1) as u64;
            let cx = bx.cmp(&tbx);
            let cy = by.cmp(&tby);
            use std::cmp::Ordering::*;
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
        ee = nee;
        el = nel;
        le = nle;
        ll = nll;
    }
    ll
}

/// Joint coin probabilities `[p00, p01, p10, p11]` with per-input overrides
/// at one position each.
#[must_use]
pub fn joint_coin_probs_override(
    forms_x: &[BitForm],
    over_x: Option<(usize, BitForm)>,
    t_x: u64,
    forms_y: &[BitForm],
    over_y: Option<(usize, BitForm)>,
    t_y: u64,
) -> [f64; 4] {
    let p11 = prob_joint_lt_override(forms_x, over_x, t_x, forms_y, over_y, t_y);
    let px = prob_lt_override(forms_x, over_x, t_x);
    let py = prob_lt_override(forms_y, over_y, t_y);
    let p10 = (px - p11).max(0.0);
    let p01 = (py - p11).max(0.0);
    let p00 = (1.0 - px - py + p11).max(0.0);
    [p00, p01, p10, p11]
}

/// One conflict edge's conditional-expectation shares for both candidate
/// values of one seed bit — the body of `dcl_core::derand_step`'s inner
/// loop, verbatim (the `form_with_fix` overrides arrive precomputed as
/// `over_u`/`over_v`).
#[allow(clippy::too_many_arguments)]
#[must_use]
pub fn edge_shares(
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
        let ou = over_u[usize::from(cand)];
        let ov = over_v[usize::from(cand)];
        let p = joint_coin_probs_override(
            forms_u,
            Some((slice, ou)),
            t_u,
            forms_v,
            Some((slice, ov)),
            t_v,
        );
        // Edge survives iff both coins agree; each endpoint adds the
        // conditional expectation of its own 1/|L_ℓ| share.
        let share_u = p[3] * k1_inv_u + p[0] * k0_inv_u;
        let share_v = p[3] * k1_inv_v + p[0] * k0_inv_v;
        let base = if cand { 2 } else { 0 };
        out[base] = share_u;
        out[base + 1] = share_v;
    }
    out
}

/// `Pr[z_u ∈ [ul, uh) ∧ z_v ∈ [vl, vh)]` — the inclusion–exclusion both
/// drivers used, verbatim.
#[must_use]
pub fn joint_interval(
    forms_u: &[BitForm],
    ul: u64,
    uh: u64,
    forms_v: &[BitForm],
    vl: u64,
    vh: u64,
) -> f64 {
    let j = |a: u64, b: u64| prob_joint_lt_override(forms_u, None, a, forms_v, None, b);
    (j(uh, vh) - j(ul, vh) - j(uh, vl) + j(ul, vl)).max(0.0)
}
