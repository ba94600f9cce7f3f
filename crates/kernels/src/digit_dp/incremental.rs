//! The prefix-cached evaluator behind `edge_shares_cached`: per-edge DP
//! prefix states and finished results cached across one slice window of
//! the seed schedule.
//!
//! # Why a prefix is cacheable
//!
//! The digit DP walks digits `i = b-1 .. 0` (most significant first). The
//! Lemma 2.6 drivers fix seed bits in index order, and
//! `SliceFamily::slice_of_seed_bit` is monotone nondecreasing in the
//! index — so while the schedule is inside slice `s`'s window (`m+1` seed
//! bits × 2 candidate values), `update_forms_on_fix` mutates **only**
//! `forms[s]`. Every form at a position `≠ s` is frozen for the whole
//! window, which means the DP state after processing digits `b-1 .. s+1`
//! — a literal prefix of the reference computation, touching only frozen
//! forms — is the same for all `2(m+1)` evaluations of the window. The
//! [`EdgeDpCache`] memoizes exactly that state (joint `[ee, el, le, ll]`
//! plus both marginal `[p_eq, p_lt]` pairs) and each evaluation replays
//! only digit `s` (with the candidate override) and the trailing digits
//! `s-1 .. 0`.
//!
//! # Why it is bit-identical
//!
//! No float operation is reordered, fused, or skipped relative to the
//! reference: the prefix state is produced by the reference
//! transition applied to the same digits in the same order, and the
//! replay continues that exact sequence. Caching only changes *when* the
//! leading steps run, not *what* they compute — so every probability, and
//! hence every leader decision and every `Report`, is bit-equal to the
//! reference (enforced by `digit_dp_oracle.rs` and `tier_equivalence.rs`).
//!
//! The per-digit transitions are the ones the stateless evaluator uses
//! (`DigitPmf` for the joint DP, `marg_step` for the marginals), fed
//! from [`BitForm`]s directly.
//!
//! # Why finished results are memoizable
//!
//! The digits *below* `s` are frozen too: their seed bits were fixed in
//! earlier windows. So inside one window a finished walk (the override
//! digit `s` plus the trailing digits) depends on the override forms only
//! through the digit pmf they induce — for the joint walk the
//! `PairDist` class of the override pair, for a marginal walk the override
//! form's `prob_one` ∈ {0, ½, 1}. Two evaluations of the same class run
//! the same float operations on the same inputs, so the cache keeps the
//! first result and returns it for the rest of the window, bit for bit.
//!
//! Only the classes that repeat inside a window are memoized: the joint
//! `Independent`, `Correlated(false)` and `Correlated(true)` classes, and
//! each endpoint's ½ marginal — five `f64`s and a valid-bit byte. The
//! override forms are known only when the window's last seed bit (the
//! shared `s` bit, which the layout puts after the `m` r-bits) is under
//! evaluation, and its two candidates give different known classes, so
//! those never repeat and are finished directly.
//!
//! # The validity key
//!
//! Prefix states and memo are keyed by `(width, slice, thresholds)`: a
//! call with a different digit count, slice or threshold pair rebuilds
//! the prefix states and clears the memo. The frozen forms themselves are
//! *not* part of the key. The Lemma 2.6 drivers own one cache per
//! conflict edge per phase and fix seed bits in index order, which keeps
//! every position other than `slice` unchanged while the key matches.
//! Debug builds check this with a fingerprint of every position except
//! `slice`; a release build trusts it, so a cache shared between edges,
//! or reused after forms off `slice` changed under an unchanged key,
//! returns stale probabilities.
//!
//! # Cost
//!
//! A fresh evaluation is `3` DPs × `b` digits per candidate. Per
//! (edge, slice) the cache pays an `O(b−s)` prefix rebuild, and then each
//! memoized class walks its `s+1` digits once: a window of `2(m+1)`
//! evaluations runs about one joint walk per distinct joint class (one or
//! two in practice), one ½-marginal walk per endpoint, and the two
//! known-class evaluations of the `s` bit. Every other evaluation is a
//! class test and a memo read, so the per-evaluation cost no longer grows
//! with `s`.

use super::{assert_width, marg_step, DigitPmf};
use crate::forms::BitForm;

/// Memo slot of the joint `Independent` class.
const JOINT_INDEPENDENT: usize = 0;
/// Memo slots of the joint `Correlated(d)` classes (`+ d`).
const JOINT_CORRELATED: usize = 1;
/// Memo slots of the ½ marginals (`+ 0` for `u`, `+ 1` for `v`).
const MARG_HALF: usize = 3;

/// Cached DP states of one conflict edge for the current slice window:
/// the joint and the two marginal DP states after the digits above
/// `slice`, plus the finished results of the classes that repeat inside
/// the window (see the [module docs](self)). Create one per conflict edge
/// per phase; `edge_shares_cached` and [`joint_coin_probs_override`]
/// revalidate lazily whenever the key `(width, slice, thresholds)`
/// changes.
#[derive(Debug, Clone)]
pub struct EdgeDpCache {
    /// Slice the states were built for; `u8::MAX` = none. Slices and
    /// widths are below 64 (`assert_width`), so a byte holds both.
    slice: u8,
    /// Digit count `b` the states were built for.
    digits: u8,
    /// Bit `k` set iff `memo[k]` holds a finished result for this window.
    memo_valid: u8,
    /// Thresholds the states were built for.
    t_u: u64,
    t_v: u64,
    /// Joint state `[ee, el, le, ll]` after digits `b-1 ..= slice+1`.
    joint: [f64; 4],
    /// Marginal states `[p_eq, p_lt]` of inputs `u` and `v` after the
    /// same digits.
    marg: [[f64; 2]; 2],
    /// Finished results: joint `Independent`, joint `Correlated(false)`,
    /// joint `Correlated(true)`, `u`'s ½ marginal, `v`'s ½ marginal.
    memo: [f64; 5],
    /// Debug-only fingerprint of every form except position `slice`: the
    /// monotone schedule contract says they must not change while the key
    /// is current.
    #[cfg(debug_assertions)]
    frozen_fp: u64,
}

impl EdgeDpCache {
    /// An empty cache; the first evaluation builds the prefix states.
    #[must_use]
    pub fn new() -> Self {
        EdgeDpCache {
            slice: u8::MAX,
            digits: 0,
            memo_valid: 0,
            t_u: 0,
            t_v: 0,
            joint: [0.0; 4],
            marg: [[0.0; 2]; 2],
            memo: [0.0; 5],
            #[cfg(debug_assertions)]
            frozen_fp: 0,
        }
    }

    fn ensure(
        &mut self,
        forms_u: &[BitForm],
        t_u: u64,
        forms_v: &[BitForm],
        t_v: u64,
        slice: usize,
    ) {
        let b = forms_u.len();
        // Both below 64: `assert_width` and `slice < b` ran first.
        let (slice_key, digits_key) = (slice as u8, b as u8);
        if self.slice == slice_key
            && self.digits == digits_key
            && self.t_u == t_u
            && self.t_v == t_v
        {
            #[cfg(debug_assertions)]
            debug_assert_eq!(
                self.frozen_fp,
                frozen_fingerprint(forms_u, forms_v, slice),
                "forms off slice {slice} changed while the slice was current — \
                 the caller broke the monotone seed-schedule contract"
            );
            return;
        }
        self.marg = [
            marg_prefix(forms_u, t_u, slice, b),
            marg_prefix(forms_v, t_v, slice, b),
        ];
        self.joint = joint_prefix(forms_u, t_u, forms_v, t_v, slice, b);
        self.memo_valid = 0;
        self.slice = slice_key;
        self.digits = digits_key;
        self.t_u = t_u;
        self.t_v = t_v;
        #[cfg(debug_assertions)]
        {
            self.frozen_fp = frozen_fingerprint(forms_u, forms_v, slice);
        }
    }

    /// `finish()`, computed once per window for memo slot `slot`.
    #[inline]
    fn memoized(&mut self, slot: usize, finish: impl FnOnce() -> f64) -> f64 {
        let bit = 1u8 << slot;
        if self.memo_valid & bit == 0 {
            self.memo[slot] = finish();
            self.memo_valid |= bit;
        }
        self.memo[slot]
    }

    /// Finished marginal of endpoint `side` (0 = `u`, 1 = `v`) with `over`
    /// at `slice`; the ½ class is memoized.
    #[inline]
    fn marg(&mut self, side: usize, forms: &[BitForm], over: BitForm, t: u64, slice: usize) -> f64 {
        let st = self.marg[side];
        let finish = || marg_finish(st, forms, over, t, slice);
        if over.is_known() {
            finish()
        } else {
            self.memoized(MARG_HALF + side, finish)
        }
    }

    /// Finished joint walk with `over_u`/`over_v` at `slice`; the
    /// `Independent` and `Correlated(d)` classes are memoized. The class
    /// split is `DigitPmf::of_forms`'s.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn joint(
        &mut self,
        forms_u: &[BitForm],
        over_u: BitForm,
        t_u: u64,
        forms_v: &[BitForm],
        over_v: BitForm,
        t_v: u64,
        slice: usize,
    ) -> f64 {
        let st = self.joint;
        let finish = || joint_finish(st, forms_u, over_u, t_u, forms_v, over_v, t_v, slice);
        if over_u.is_known() || over_v.is_known() {
            return finish();
        }
        let slot = if over_u.mask == over_v.mask {
            JOINT_CORRELATED + usize::from(over_u.offset ^ over_v.offset)
        } else {
            JOINT_INDEPENDENT
        };
        self.memoized(slot, finish)
    }
}

impl Default for EdgeDpCache {
    fn default() -> Self {
        EdgeDpCache::new()
    }
}

/// Fingerprint of every form of both inputs except position `slice`.
#[cfg(debug_assertions)]
fn frozen_fingerprint(forms_u: &[BitForm], forms_v: &[BitForm], slice: usize) -> u64 {
    let mut fp = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |f: &BitForm| {
        fp = (fp ^ f.mask ^ (u64::from(f.offset) << 1) ^ u64::from(f.s_free))
            .wrapping_mul(0x0000_0100_0000_01b3);
    };
    for forms in [forms_u, forms_v] {
        for (i, f) in forms.iter().enumerate() {
            if i != slice {
                mix(f);
            }
        }
    }
    fp
}

/// Marginal DP state after the digits above `slice` (`b-1 ..= slice+1`).
fn marg_prefix(forms: &[BitForm], t: u64, slice: usize, b: usize) -> [f64; 2] {
    let mut st = [1.0f64, 0.0f64];
    for i in (slice + 1..b).rev() {
        marg_step(&mut st, forms[i].prob_one(), t >> i & 1);
    }
    st
}

/// Resumes a marginal prefix: digit `slice` with the override form, then
/// the trailing digits. Precondition: `t < 2^b` (guards resolved by
/// callers).
fn marg_finish(mut st: [f64; 2], forms: &[BitForm], over: BitForm, t: u64, slice: usize) -> f64 {
    marg_step(&mut st, over.prob_one(), t >> slice & 1);
    for i in (0..slice).rev() {
        marg_step(&mut st, forms[i].prob_one(), t >> i & 1);
    }
    st[1]
}

/// Joint DP state after the digits above `slice`.
fn joint_prefix(
    forms_u: &[BitForm],
    t_u: u64,
    forms_v: &[BitForm],
    t_v: u64,
    slice: usize,
    b: usize,
) -> [f64; 4] {
    let mut st = [1.0f64, 0.0, 0.0, 0.0];
    for i in (slice + 1..b).rev() {
        DigitPmf::of_forms(forms_u[i], forms_v[i]).step(&mut st, t_u >> i & 1, t_v >> i & 1);
    }
    st
}

/// Resumes a joint prefix through digit `slice` (with the candidate
/// overrides) and the trailing digits. Precondition: both thresholds
/// `< 2^b`.
#[allow(clippy::too_many_arguments)]
fn joint_finish(
    mut st: [f64; 4],
    forms_u: &[BitForm],
    over_u: BitForm,
    t_u: u64,
    forms_v: &[BitForm],
    over_v: BitForm,
    t_v: u64,
    slice: usize,
) -> f64 {
    DigitPmf::of_forms(over_u, over_v).step(&mut st, t_u >> slice & 1, t_v >> slice & 1);
    for i in (0..slice).rev() {
        DigitPmf::of_forms(forms_u[i], forms_v[i]).step(&mut st, t_u >> i & 1, t_v >> i & 1);
    }
    st[3]
}

/// Cached joint coin probabilities `[p00, p01, p10, p11]` with both
/// inputs overridden at position `slice`. Guard clauses and the combine
/// replay the reference order exactly.
///
/// # Panics
///
/// Panics when the inputs have 64 or more digits, or when `slice` is not
/// below the digit count.
#[allow(clippy::too_many_arguments)]
#[must_use]
pub fn joint_coin_probs_override(
    cache: &mut EdgeDpCache,
    forms_u: &[BitForm],
    over_u: BitForm,
    t_u: u64,
    forms_v: &[BitForm],
    over_v: BitForm,
    t_v: u64,
    slice: usize,
) -> [f64; 4] {
    let b = forms_u.len();
    assert_width(b);
    debug_assert_eq!(b, forms_v.len(), "inputs must share the output width");
    assert!(slice < b, "slice {slice} out of range for {b} digits");
    let full = 1u64 << b;
    cache.ensure(forms_u, t_u, forms_v, t_v, slice);
    let p11 = if t_u >= full && t_v >= full {
        1.0
    } else if t_u >= full {
        cache.marg(1, forms_v, over_v, t_v, slice)
    } else if t_v >= full {
        cache.marg(0, forms_u, over_u, t_u, slice)
    } else {
        cache.joint(forms_u, over_u, t_u, forms_v, over_v, t_v, slice)
    };
    let px = if t_u >= full {
        1.0
    } else {
        cache.marg(0, forms_u, over_u, t_u, slice)
    };
    let py = if t_v >= full {
        1.0
    } else {
        cache.marg(1, forms_v, over_v, t_v, slice)
    };
    let p10 = (px - p11).max(0.0);
    let p01 = (py - p11).max(0.0);
    let p00 = (1.0 - px - py + p11).max(0.0);
    [p00, p01, p10, p11]
}

#[cfg(test)]
mod tests {
    use super::super::reference;
    use super::*;

    fn form(offset: bool, mask: u64, s_free: bool) -> BitForm {
        BitForm {
            offset,
            mask,
            s_free,
        }
    }

    fn sample() -> (Vec<BitForm>, Vec<BitForm>) {
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
    fn cached_matches_reference_bitwise_across_slices_and_thresholds() {
        let (fx, fy) = sample();
        // Both endpoints share the seed, so each override pair shares
        // `s_free` (as real fixes produced by `form_with_fix` do).
        let over_pairs = [
            (form(false, 0, false), form(true, 0, false)),
            (form(true, 0b0100, false), form(false, 0b0001, false)),
            (form(false, 0, true), form(true, 0b0010, true)),
        ];
        for slice in 0..fx.len() {
            let mut cache = EdgeDpCache::new();
            for (tx, ty) in [(11u64, 6u64), (16, 6), (3, 16), (16, 16), (0, 9), (7, 7)] {
                for &(ou, ov) in &over_pairs {
                    let got =
                        joint_coin_probs_override(&mut cache, &fx, ou, tx, &fy, ov, ty, slice);
                    let want = reference::joint_coin_probs_override(
                        &fx,
                        Some((slice, ou)),
                        tx,
                        &fy,
                        Some((slice, ov)),
                        ty,
                    );
                    assert_eq!(
                        got.map(f64::to_bits),
                        want.map(f64::to_bits),
                        "slice {slice} t=({tx},{ty})"
                    );
                }
            }
        }
    }

    #[test]
    fn cached_edge_shares_match_reference() {
        let (fx, fy) = sample();
        let over_u = [form(false, 0, false), form(true, 0, false)];
        let over_v = [form(true, 0, false), form(false, 0, false)];
        for slice in 0..fx.len() {
            let mut cache = EdgeDpCache::new();
            // Two calls per slice: the second hits the warm cache.
            for _ in 0..2 {
                let got = super::super::edge_shares_cached(
                    &mut cache, &fx, over_u, 11, 0.25, 0.5, &fy, over_v, 6, 0.125, 0.2, slice,
                );
                let want = reference::edge_shares(
                    &fx, over_u, 11, 0.25, 0.5, &fy, over_v, 6, 0.125, 0.2, slice,
                );
                assert_eq!(
                    got.map(f64::to_bits),
                    want.map(f64::to_bits),
                    "slice {slice}"
                );
            }
        }
    }
}
