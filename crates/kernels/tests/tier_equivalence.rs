//! Bitwise equivalence of every production digit-DP entry point with the
//! reference oracle.
//!
//! Each entry point the drivers run (`joint_coin_probs_packed`,
//! `joint_interval_packed`, `edge_shares_cached`) must produce
//! **bit-identical** `f64` results to `digit_dp::reference` — the
//! float-association rule of the crate docs, checked with `to_bits`
//! equality rather than epsilon comparison. Inputs are arbitrary
//! same-slice form vectors, thresholds (biased towards the `0` and
//! inclusive `2^b` edges, where the zero-corner shortcut and the marginal
//! guards fire) and single-position overrides derived by real "fix one
//! seed bit" semantics. The prefix-cached evaluator is additionally driven
//! through full monotone seed schedules, checking warm-cache vs cold-cache
//! equality after every fix.

use dcl_kernels::digit_dp::{self, reference, EdgeDpCache, PackedForms};
use dcl_kernels::{ratio, BitForm};
use proptest::prelude::*;

/// Decodes two same-slice form vectors of `b` digits from raw generator
/// words. Per position: `s_free` is shared (same slice, same seed), the
/// r-masks are independent `b`-bit subsets, and a `corr` bit forces the
/// masks equal so the `Correlated` case appears reliably. All five
/// `PairDist` cases arise.
#[allow(clippy::too_many_arguments)]
fn decode_forms(
    b: usize,
    s_free_bits: u64,
    off_x: u64,
    off_y: u64,
    mask_seed_x: u64,
    mask_seed_y: u64,
    corr_bits: u64,
) -> (Vec<BitForm>, Vec<BitForm>) {
    debug_assert!(b <= 6, "decode_forms packs 6-bit masks");
    let width = (1u64 << b) - 1;
    let mut fx = Vec::with_capacity(b);
    let mut fy = Vec::with_capacity(b);
    for i in 0..b {
        let s_free = s_free_bits >> i & 1 == 1;
        let mx = mask_seed_x >> (i * 6) & width;
        let my = if corr_bits >> i & 1 == 1 {
            mx
        } else {
            mask_seed_y >> (i * 6) & width
        };
        fx.push(BitForm {
            offset: off_x >> i & 1 == 1,
            mask: mx,
            s_free,
        });
        fy.push(BitForm {
            offset: off_y >> i & 1 == 1,
            mask: my,
            s_free,
        });
    }
    (fx, fy)
}

/// Applies "fix one seed bit of this slice to `val`" to a paired position:
/// either the shared `s` bit (when free and selected) or a free r-variable
/// `j`, dropped from each mask that contains it with `val` folded into the
/// offset. Preserves the same-slice invariant (shared `s_free`, masks stay
/// subsets), exactly like `SliceFamily::form_with_fix`.
fn fix_forms(fx: BitForm, fy: BitForm, which: u64, val: bool) -> (BitForm, BitForm) {
    let mut gx = fx;
    let mut gy = fy;
    if fx.s_free && which & 1 == 1 {
        gx.s_free = false;
        gy.s_free = false;
        if val {
            gx.offset = !gx.offset;
            gy.offset = !gy.offset;
        }
    } else {
        let j = which % 6;
        for g in [&mut gx, &mut gy] {
            if g.mask >> j & 1 == 1 {
                g.mask &= !(1u64 << j);
                if val {
                    g.offset = !g.offset;
                }
            }
        }
    }
    (gx, gy)
}

/// A threshold in `0..=full`, landing on `0` or `full` half of the time.
fn threshold(raw: u64, full: u64) -> u64 {
    match raw % 4 {
        0 => 0,
        1 => full,
        _ => (raw >> 2) % (full + 1),
    }
}

/// `forms` packed, with position `p` replaced by `f` in place — the way
/// the clique/MPC drivers apply a fix to their packed scratch forms.
fn packed_with_override(forms: &[BitForm], over: Option<(usize, BitForm)>) -> PackedForms {
    let mut packed = PackedForms::from_forms(forms);
    if let Some((p, f)) = over {
        packed.set_form(p, f);
    }
    packed
}

/// `joint_interval_packed` vs the reference on unpacked forms.
fn interval_bits(fu: &[BitForm], fv: &[BitForm], [ul, uh, vl, vh]: [u64; 4]) -> (u64, u64) {
    let (su, sv) = (PackedForms::from_forms(fu), PackedForms::from_forms(fv));
    (
        digit_dp::joint_interval_packed(&su, ul, uh, &sv, vl, vh).to_bits(),
        reference::joint_interval(fu, ul, uh, fv, vl, vh).to_bits(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Marginal, joint and four-outcome coin DPs through
    /// `joint_coin_probs_packed` equal the reference bitwise, with and
    /// without a single-position override applied to the packed forms.
    #[test]
    fn digit_dp_probs_match_reference(
        b in 1usize..=6,
        s_free_bits in any::<u64>(),
        offs in any::<u64>(),
        mask_seed_x in any::<u64>(),
        mask_seed_y in any::<u64>(),
        corr_bits in any::<u64>(),
        ts in any::<u64>(),
        ctrl in any::<u64>(),
    ) {
        let (fx, fy) = decode_forms(
            b, s_free_bits, offs, offs >> 8, mask_seed_x, mask_seed_y, corr_bits,
        );
        let full = 1u64 << b;
        let (tx, ty) = (threshold(ts, full), threshold(ts >> 32, full));
        let p = (ctrl % b as u64) as usize;
        let (over_which, over_val, use_over) =
            (ctrl >> 8, ctrl >> 16 & 1 == 1, ctrl >> 17 & 1 == 1);
        let (ox, oy) = fix_forms(fx[p], fy[p], over_which, over_val);
        let (over_x, over_y) = if use_over {
            (Some((p, ox)), Some((p, oy)))
        } else {
            (None, None)
        };

        let sx = packed_with_override(&fx, over_x);
        let sy = packed_with_override(&fy, over_y);
        // With the second coin certain, `p11` is the first coin's marginal.
        for (forms, over, s, t) in [(&fx, over_x, &sx, tx), (&fy, over_y, &sy, ty)] {
            prop_assert_eq!(
                digit_dp::joint_coin_probs_packed(s, t, s, full)[3].to_bits(),
                reference::prob_lt_override(forms, over, t).to_bits(),
                "marginal t={}", t
            );
        }
        let coins = digit_dp::joint_coin_probs_packed(&sx, tx, &sy, ty);
        prop_assert_eq!(
            coins[3].to_bits(),
            reference::prob_joint_lt_override(&fx, over_x, tx, &fy, over_y, ty).to_bits(),
            "joint t=({}, {})", tx, ty
        );
        prop_assert_eq!(
            coins.map(f64::to_bits),
            reference::joint_coin_probs_override(&fx, over_x, tx, &fy, over_y, ty)
                .map(f64::to_bits),
            "coins t=({}, {})", tx, ty
        );
    }

    /// `joint_interval_packed` (one digit walk, zero-corner shortcut)
    /// equals the reference's four independent corner DPs bitwise, on
    /// arbitrary — not necessarily ordered — interval bounds.
    #[test]
    fn joint_interval_matches_reference(
        b in 1usize..=6,
        s_free_bits in any::<u64>(),
        offs in any::<u64>(),
        mask_seed_u in any::<u64>(),
        mask_seed_v in any::<u64>(),
        corr_bits in any::<u64>(),
        bounds_lo in any::<u64>(),
        bounds_hi in any::<u64>(),
    ) {
        let (fu, fv) = decode_forms(
            b, s_free_bits, offs, offs >> 8, mask_seed_u, mask_seed_v, corr_bits,
        );
        let full = 1u64 << b;
        let bounds = [
            threshold(bounds_lo, full),
            threshold(bounds_lo >> 32, full),
            threshold(bounds_hi, full),
            threshold(bounds_hi >> 32, full),
        ];
        let (got, want) = interval_bits(&fu, &fv, bounds);
        prop_assert_eq!(got, want, "interval {:?}", bounds);
    }

    /// `edge_shares_cached` on a cold cache equals the reference edge
    /// aggregation bitwise.
    #[test]
    fn edge_shares_cached_matches_reference(
        b in 1usize..=6,
        s_free_bits in any::<u64>(),
        offs in any::<u64>(),
        mask_seed_u in any::<u64>(),
        mask_seed_v in any::<u64>(),
        corr_bits in any::<u64>(),
        ts in any::<u64>(),
        ctrl in any::<u64>(),
        kraw in any::<u64>(),
    ) {
        let (fu, fv) = decode_forms(
            b, s_free_bits, offs, offs >> 8, mask_seed_u, mask_seed_v, corr_bits,
        );
        let full = 1u64 << b;
        let (tu, tv) = (threshold(ts, full), threshold(ts >> 32, full));
        let slice = (ctrl % b as u64) as usize;
        let over_which = ctrl >> 8;
        let inv = |shift: u32| ratio::recip_or_zero((kraw >> shift) as usize % 9);
        let (u0, v0) = fix_forms(fu[slice], fv[slice], over_which, false);
        let (u1, v1) = fix_forms(fu[slice], fv[slice], over_which, true);

        let got = digit_dp::edge_shares_cached(
            &mut EdgeDpCache::new(),
            &fu, [u0, u1], tu, inv(0), inv(8),
            &fv, [v0, v1], tv, inv(16), inv(24),
            slice,
        );
        let want = reference::edge_shares(
            &fu, [u0, u1], tu, inv(0), inv(8),
            &fv, [v0, v1], tv, inv(16), inv(24),
            slice,
        );
        prop_assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits));
    }

    /// The prefix-cached evaluator driven through a full monotone seed
    /// schedule: slices are processed in increasing order, and within each
    /// slice's window seven seed bits are fixed in turn (mutating only
    /// that slice's form — the contract `EdgeDpCache` relies on), so the
    /// override classes repeat and the finished-result memo is hit. After
    /// **every** fix, the warm persistent cache must agree bitwise with a
    /// cold cache and with the reference.
    #[test]
    fn cached_edge_shares_warm_matches_cold_across_monotone_schedule(
        b in 1usize..=6,
        s_free_bits in any::<u64>(),
        offs in any::<u64>(),
        mask_seed_u in any::<u64>(),
        mask_seed_v in any::<u64>(),
        corr_bits in any::<u64>(),
        ts in any::<u64>(),
        kraw in any::<u64>(),
        fix_ctrl in any::<u64>(),
    ) {
        let (mut fu, mut fv) = decode_forms(
            b, s_free_bits, offs, offs >> 8, mask_seed_u, mask_seed_v, corr_bits,
        );
        let full = 1u64 << b;
        let (tu, tv) = (threshold(ts, full), threshold(ts >> 32, full));
        let inv = |shift: u32| ratio::recip_or_zero((kraw >> shift) as usize % 9);
        let mut warm = EdgeDpCache::new();
        for slice in 0..b {
            // A window of "m + 1 = 7" seed bits per slice.
            for step in 0..7usize {
                let which = fix_ctrl >> (slice * 8 + step * 2);
                let val = fix_ctrl >> (32 + slice + step) & 1 == 1;
                let (u0, v0) = fix_forms(fu[slice], fv[slice], which, false);
                let (u1, v1) = fix_forms(fu[slice], fv[slice], which, true);

                let shares = |cache: &mut EdgeDpCache| {
                    digit_dp::edge_shares_cached(
                        cache,
                        &fu, [u0, u1], tu, inv(0), inv(8),
                        &fv, [v0, v1], tv, inv(16), inv(24),
                        slice,
                    )
                    .map(f64::to_bits)
                };
                let cached = shares(&mut warm);
                let fresh = shares(&mut EdgeDpCache::new());
                let want = reference::edge_shares(
                    &fu, [u0, u1], tu, inv(0), inv(8),
                    &fv, [v0, v1], tv, inv(16), inv(24),
                    slice,
                )
                .map(f64::to_bits);
                prop_assert_eq!(cached, fresh, "warm vs cold at slice {} step {}", slice, step);
                prop_assert_eq!(cached, want, "warm vs reference at slice {} step {}", slice, step);

                // Commit the fix: the chosen candidate becomes the slice's
                // form — only `slice`'s position mutates, as in
                // `SliceFamily::update_forms_on_fix`.
                let (gu, gv) = if val { (u1, v1) } else { (u0, v0) };
                fu[slice] = gu;
                fv[slice] = gv;
            }
        }
    }

    /// The batch ratio helpers equal their single-value anchors bitwise.
    #[test]
    fn ratio_batches_match_singles(
        ks in collection::vec(0usize..10_000, 0..48),
        pairs in collection::vec((0usize..10_000, 1usize..10_000), 0..48),
    ) {
        let (nums, dens): (Vec<usize>, Vec<usize>) = pairs.iter().copied().unzip();
        let mut recips = vec![0.0f64; ks.len()];
        ratio::recip_batch(&ks, &mut recips);
        for (r, &k) in recips.iter().zip(&ks) {
            prop_assert_eq!(r.to_bits(), ratio::recip_or_zero(k).to_bits());
        }
        let mut ratios = vec![0.0f64; nums.len()];
        ratio::ratio_batch(&nums, &dens, &mut ratios);
        for (r, (&n, &d)) in ratios.iter().zip(nums.iter().zip(&dens)) {
            prop_assert_eq!(r.to_bits(), ratio::ratio(n, d).to_bits());
        }
    }
}

/// Every interval whose four bounds come from `{0, 1, 2^(b-1), 2^b}`, on
/// form pairs covering all five `PairDist` cases: each side hits the
/// zero-corner shortcut (`0`), the marginal guards (`2^b`), and both at
/// once, for every `b` the generator supports.
#[test]
fn joint_interval_edge_thresholds_match_reference() {
    for b in 1usize..=6 {
        let full = 1u64 << b;
        let edges = [0, 1, full / 2, full];
        for seed in 0..8u64 {
            let mix = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let (fu, fv) = decode_forms(
                b,
                mix,
                mix >> 7,
                mix >> 13,
                mix.rotate_left(17),
                mix.rotate_left(29),
                mix >> 3,
            );
            for code in 0..4usize.pow(4) {
                let bounds = [0, 1, 2, 3].map(|k| edges[code / 4usize.pow(k) % 4]);
                let (got, want) = interval_bits(&fu, &fv, bounds);
                assert_eq!(got, want, "b={b} seed={seed} interval {bounds:?}");
            }
        }
    }
}

/// The coin and edge-share entry points at every threshold pair from
/// `{0, 1, 2^b - 1, 2^b}`, every override slice, on form pairs covering
/// all five `PairDist` cases: the marginal guards and the empty-mass
/// corners are always hit.
#[test]
fn coin_and_edge_entry_points_at_edge_thresholds_match_reference() {
    for b in 1usize..=6 {
        let full = 1u64 << b;
        let edges = [0, 1, full - 1, full];
        for seed in 0..6u64 {
            let mix = seed.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let (fu, fv) = decode_forms(
                b,
                mix,
                mix >> 11,
                mix >> 19,
                mix.rotate_left(23),
                mix.rotate_left(37),
                mix >> 5,
            );
            let (su, sv) = (PackedForms::from_forms(&fu), PackedForms::from_forms(&fv));
            for &tu in &edges {
                for &tv in &edges {
                    assert_eq!(
                        digit_dp::joint_coin_probs_packed(&su, tu, &sv, tv).map(f64::to_bits),
                        reference::joint_coin_probs_override(&fu, None, tu, &fv, None, tv)
                            .map(f64::to_bits),
                        "b={b} seed={seed} t=({tu},{tv})"
                    );
                    let mut cache = EdgeDpCache::new();
                    for slice in 0..b {
                        let (u0, v0) = fix_forms(fu[slice], fv[slice], mix >> slice, false);
                        let (u1, v1) = fix_forms(fu[slice], fv[slice], mix >> slice, true);
                        let args = (0.25, 0.5, 0.125, 1.0);
                        let got = digit_dp::edge_shares_cached(
                            &mut cache,
                            &fu,
                            [u0, u1],
                            tu,
                            args.0,
                            args.1,
                            &fv,
                            [v0, v1],
                            tv,
                            args.2,
                            args.3,
                            slice,
                        );
                        let want = reference::edge_shares(
                            &fu,
                            [u0, u1],
                            tu,
                            args.0,
                            args.1,
                            &fv,
                            [v0, v1],
                            tv,
                            args.2,
                            args.3,
                            slice,
                        );
                        assert_eq!(
                            got.map(f64::to_bits),
                            want.map(f64::to_bits),
                            "b={b} seed={seed} t=({tu},{tv}) slice={slice}"
                        );
                    }
                }
            }
        }
    }
}

/// Two same-slice form vectors of `b ≤ 5` digits, every `s` bit free;
/// each octal digit pair is one position's mask.
fn free_pair(b: usize) -> (Vec<BitForm>, Vec<BitForm>) {
    decode_forms(
        b,
        u64::MAX,
        0b1010,
        0b1001,
        0o03_03_03_03_03,
        0o06_06_06_06_06,
        0,
    )
}

/// One cache reused across digit widths with the same slice and
/// thresholds: the width is part of the validity key, so the second call
/// rebuilds its prefix states instead of resuming the 1-digit ones.
#[test]
fn edge_dp_cache_key_includes_the_width() {
    let mut cache = EdgeDpCache::new();
    let (t_u, t_v) = (1u64, 2u64);
    for b in [1usize, 3] {
        let (fu, fv) = free_pair(b);
        let (u0, v0) = fix_forms(fu[0], fv[0], 1, false);
        let (u1, v1) = fix_forms(fu[0], fv[0], 1, true);
        let got = digit_dp::edge_shares_cached(
            &mut cache,
            &fu,
            [u0, u1],
            t_u,
            0.5,
            0.25,
            &fv,
            [v0, v1],
            t_v,
            0.125,
            1.0,
            0,
        );
        let want = reference::edge_shares(
            &fu,
            [u0, u1],
            t_u,
            0.5,
            0.25,
            &fv,
            [v0, v1],
            t_v,
            0.125,
            1.0,
            0,
        );
        assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "b={b}");
    }
}

/// The debug contract check covers the digits below the current slice,
/// whose finished walks the memo reuses: changing one in the middle of a
/// window is reported instead of answered from the stale memo.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "monotone seed-schedule contract")]
fn edge_dp_cache_rejects_a_changed_digit_below_the_slice() {
    let (mut fu, fv) = free_pair(4);
    let slice = 2;
    let (u0, v0) = fix_forms(fu[slice], fv[slice], 2, false);
    let (u1, v1) = fix_forms(fu[slice], fv[slice], 2, true);
    let mut cache = EdgeDpCache::new();
    let mut shares = |fu: &[BitForm]| {
        digit_dp::edge_shares_cached(
            &mut cache,
            fu,
            [u0, u1],
            9,
            0.5,
            0.25,
            &fv,
            [v0, v1],
            6,
            0.125,
            1.0,
            slice,
        )
    };
    let _ = shares(&fu);
    fu[0].offset = !fu[0].offset;
    let _ = shares(&fu);
}

/// 64 free digits: every threshold `t < 2^64` is in range, but `1 << 64`
/// does not fit a `u64`, so the guards cannot be evaluated.
fn wide_forms() -> Vec<BitForm> {
    (0..64)
        .map(|i| BitForm {
            offset: false,
            mask: 1 << i,
            s_free: true,
        })
        .collect()
}

/// The width guard of both packed entry points: a `PackedForms` can only
/// be built by `from_forms`, so its assert is what keeps a 64-digit input
/// out of `joint_coin_probs_packed` and `joint_interval_packed`.
#[test]
#[should_panic(expected = "at most 63 digits")]
fn packed_forms_reject_64_digits() {
    let _ = PackedForms::from_forms(&wide_forms());
}

#[test]
#[should_panic(expected = "at most 63 digits")]
fn edge_shares_cached_rejects_64_digits() {
    let f = wide_forms();
    let _ = digit_dp::edge_shares_cached(
        &mut EdgeDpCache::new(),
        &f,
        [f[0]; 2],
        5,
        0.5,
        0.5,
        &f,
        [f[0]; 2],
        7,
        0.5,
        0.5,
        0,
    );
}

#[test]
#[should_panic(expected = "at most 63 digits")]
fn reference_rejects_64_digits() {
    let _ = reference::prob_lt_override(&wide_forms(), None, 5);
}
