//! The stateless SoA evaluator: the digit DP on [`PackedForms`].
//!
//! Bit-identity argument: per digit, the five-case split is resolved by
//! integer bit tests on the `known`/`offset` bitsets, and [`DigitPmf`]
//! emits the nonzero pmf entries in ascending pmf-index order — exactly
//! the entries the reference loop visits, in the same order, through the
//! reference's transition body. So every accumulator sees the same float
//! operations in the same order. What this evaluator removes is overhead
//! *around* the float ops: the per-position override branch (pre-applied
//! by the pack), the `PairDist` enum and its `[f64; 4]` pmf
//! materialization, and the zero-probability float compares.

use super::{marg_step, DigitPmf, PackedForms};

/// Marginal digit DP on a packed input. Same op sequence as
/// [`super::reference::prob_lt_override`]; any override is already packed.
pub(crate) fn prob_lt(s: &PackedForms, t: u64) -> f64 {
    if t >= 1 << s.b {
        return 1.0;
    }
    let mut st = [1.0f64, 0.0f64];
    for i in (0..s.b).rev() {
        marg_step(&mut st, s.prob_one(i), t >> i & 1);
    }
    st[1]
}

/// Joint digit DP on packed inputs.
pub(crate) fn prob_joint_lt(sx: &PackedForms, t_x: u64, sy: &PackedForms, t_y: u64) -> f64 {
    debug_assert_eq!(sx.b, sy.b, "inputs must share the output width");
    let b = sx.b;
    let full = 1u64 << b;
    if t_x >= full && t_y >= full {
        return 1.0;
    }
    if t_x >= full {
        return prob_lt(sy, t_y);
    }
    if t_y >= full {
        return prob_lt(sx, t_x);
    }
    let mut st = [1.0f64, 0.0, 0.0, 0.0];
    for i in (0..b).rev() {
        DigitPmf::of_packed(sx, sy, i).step(&mut st, t_x >> i & 1, t_y >> i & 1);
    }
    st[3]
}

/// Coin probabilities on packed inputs; the combine replays the reference
/// order (`p11`, `px`, `py`, then the clamped differences).
pub(crate) fn joint_coin_probs(sx: &PackedForms, t_x: u64, sy: &PackedForms, t_y: u64) -> [f64; 4] {
    let p11 = prob_joint_lt(sx, t_x, sy, t_y);
    let px = prob_lt(sx, t_x);
    let py = prob_lt(sy, t_y);
    let p10 = (px - p11).max(0.0);
    let p01 = (py - p11).max(0.0);
    let p00 = (1.0 - px - py + p11).max(0.0);
    [p00, p01, p10, p11]
}

/// Interval probability: the four CDF corners `J(a, c)` of
/// `Pr[z_u ∈ [ul, uh) ∧ z_v ∈ [vl, vh)]`, combined in the fixed order.
///
/// Each corner resolves in one of three ways, all bit-identical to
/// [`prob_joint_lt`] on that corner:
///
/// - a zero threshold gives `+0.0` without running any DP. `z < 0` is
///   impossible, so the DP only ever adds `+0.0` terms into that corner's
///   `ll` (every term is a product of non-negative finite factors, and the
///   states that could carry mass into `ll` never leave `+0.0`);
/// - a threshold at `2^b` resolves to `1` or a marginal, as in the
///   reference guards;
/// - every other corner runs the joint DP. Those corners share one walk
///   over the digits: each digit's pmf is built once, and each corner
///   steps its own `[ee, el, le, ll]` state through it. The corners'
///   accumulators are independent, so interleaving them reorders no
///   single accumulator's operations.
pub(crate) fn joint_interval(
    su: &PackedForms,
    ul: u64,
    uh: u64,
    sv: &PackedForms,
    vl: u64,
    vh: u64,
) -> f64 {
    debug_assert_eq!(su.b, sv.b, "inputs must share the output width");
    let full = 1u64 << su.b;
    let corners = [(uh, vh), (ul, vh), (uh, vl), (ul, vl)];
    let mut j = [0.0f64; 4];
    // Corners that need the joint DP: (index into `corners`, state).
    let mut live = [(0usize, [1.0f64, 0.0, 0.0, 0.0]); 4];
    let mut n = 0;
    for (idx, &(a, c)) in corners.iter().enumerate() {
        j[idx] = if a == 0 || c == 0 {
            0.0
        } else if a >= full && c >= full {
            1.0
        } else if a >= full {
            prob_lt(sv, c)
        } else if c >= full {
            prob_lt(su, a)
        } else {
            live[n].0 = idx;
            n += 1;
            continue;
        };
    }
    let live = &mut live[..n];
    if !live.is_empty() {
        for i in (0..su.b).rev() {
            let pmf = DigitPmf::of_packed(su, sv, i);
            for (idx, st) in live.iter_mut() {
                let (a, c) = corners[*idx];
                pmf.step(st, a >> i & 1, c >> i & 1);
            }
        }
        for &(idx, st) in live.iter() {
            j[idx] = st[3];
        }
    }
    (j[0] - j[1] - j[2] + j[3]).max(0.0)
}
