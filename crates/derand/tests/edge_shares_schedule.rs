//! `edge_shares_cached` against the reference on the real seed layout.
//!
//! The kernels' equivalence suite drives the prefix-cached evaluator with
//! synthetic fixes; this suite drives it exactly the way the Lemma 2.6
//! driver does: `SliceFamily::forms_for` builds each node's forms,
//! `form_with_fix` builds the two candidate overrides of every seed bit,
//! and `update_forms_on_fix` commits the chosen value — `m + 1` seed bits
//! per slice window, the shared `s` bit last. Every conflict edge owns one
//! `EdgeDpCache` for the whole phase, and after **every** fix each warm
//! cache must agree with `reference::edge_shares` bit for bit.
//!
//! Node inputs come in pairs that differ in one or two bits, so once those
//! r-bits are fixed inside a window the two masks become equal and the
//! `Correlated(d)` classes show up next to `Independent`; thresholds land
//! on `0` and `2^b` half of the time, where the marginal guards fire.

use dcl_derand::seed::PartialSeed;
use dcl_derand::slice::{pair_dist_of_forms, BitForm, PairDist, SliceFamily};
use dcl_kernels::digit_dp::{self, reference, EdgeDpCache};
use dcl_kernels::ratio;
use proptest::prelude::*;

/// A threshold in `0..=full`, landing on `0` or `full` half of the time.
fn threshold(raw: u64, full: u64) -> u64 {
    match raw % 4 {
        0 => 0,
        1 => full,
        _ => (raw >> 2) % (full + 1),
    }
}

/// Four node inputs below `2^m`: two pairs, each pair differing in one
/// or two bits.
fn inputs(m: u32, raw: u64) -> [u64; 4] {
    let width = (1u64 << m) - 1;
    let low = |r: u64| (1u64 << (r % u64::from(m))) | (r >> 8 & 1);
    let (a, c) = (raw & width, raw >> 16 & width);
    [a, a ^ low(raw >> 32), c, c ^ low(raw >> 48)]
}

/// Index of the override pair's joint class in the coverage counters:
/// `BothKnown`, `Correlated(false)`, `Correlated(true)`, `Independent`;
/// `None` for the one-sided known classes, which the shared `s` bit rules
/// out.
fn class_index(ou: BitForm, ov: BitForm) -> Option<usize> {
    match pair_dist_of_forms(ou, ov) {
        PairDist::BothKnown(..) => Some(0),
        PairDist::Correlated(d) => Some(1 + usize::from(d)),
        PairDist::Independent => Some(3),
        PairDist::FirstKnown(_) | PairDist::SecondKnown(_) => None,
    }
}

/// One whole phase over every edge between distinct inputs. Returns the
/// first divergence — from the reference, or from the layout fact the
/// memo is sized by: overrides are known exactly at the window's last
/// seed bit, the `s` bit — or the per-class evaluation counts.
fn walk_phase(
    m: u32,
    b: u32,
    xs: [u64; 4],
    traw: u64,
    kraw: u64,
    values: u64,
) -> Result<[usize; 4], String> {
    let fam = SliceFamily::new(m, b);
    let full = 1u64 << b;
    let t: Vec<u64> = (0..4).map(|k| threshold(traw >> (k * 16), full)).collect();
    let inv =
        |k: usize, side: usize| ratio::recip_or_zero((kraw >> (k * 8 + side * 4)) as usize % 9);
    let seed = PartialSeed::new(fam.seed_len());
    let mut forms: Vec<Vec<BitForm>> = xs.iter().map(|&x| fam.forms_for(&seed, x)).collect();
    let edges: Vec<(usize, usize)> = (0..4)
        .flat_map(|u| (u + 1..4).map(move |v| (u, v)))
        .filter(|&(u, v)| xs[u] != xs[v])
        .collect();
    let mut caches = vec![EdgeDpCache::new(); edges.len()];
    let mut classes = [0usize; 4];
    for j in 0..fam.seed_len() {
        let slice = fam.slice_of_seed_bit(j) as usize;
        for (&(u, v), cache) in edges.iter().zip(caches.iter_mut()) {
            let (fu, fv) = (&forms[u], &forms[v]);
            let over = |f: &[BitForm], x: u64| {
                [false, true].map(|val| fam.form_with_fix(f[slice], x, j, val))
            };
            let (over_u, over_v) = (over(fu, xs[u]), over(fv, xs[v]));
            let s_bit = j % (m as usize + 1) == m as usize;
            for c in 0..2 {
                let class = class_index(over_u[c], over_v[c])
                    .ok_or_else(|| format!("one-sided known class at seed bit {j}"))?;
                if (class == 0) != s_bit {
                    return Err(format!("known class {class} off the s bit at seed bit {j}"));
                }
                classes[class] += 1;
            }
            let args = (t[u], inv(u, 0), inv(u, 1), t[v], inv(v, 0), inv(v, 1));
            let got = digit_dp::edge_shares_cached(
                cache, fu, over_u, args.0, args.1, args.2, fv, over_v, args.3, args.4, args.5,
                slice,
            );
            let want = reference::edge_shares(
                fu, over_u, args.0, args.1, args.2, fv, over_v, args.3, args.4, args.5, slice,
            );
            if got.map(f64::to_bits) != want.map(f64::to_bits) {
                return Err(format!(
                    "seed bit {j} (slice {slice}) edge ({u},{v}) inputs {xs:?} \
                     thresholds {t:?}: got {got:?}, want {want:?}"
                ));
            }
        }
        let val = values >> (j % 64) & 1 == 1;
        for (f, &x) in forms.iter_mut().zip(&xs) {
            fam.update_forms_on_fix(f, x, j, val);
        }
    }
    Ok(classes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Warm per-edge caches equal the reference after every fix of a whole
    /// phase on the real seed layout.
    #[test]
    fn warm_caches_match_reference_through_whole_phases(
        m in 1u32..=6,
        b in 1u32..=8,
        xraw in any::<u64>(),
        traw in any::<u64>(),
        kraw in any::<u64>(),
        values in any::<u64>(),
    ) {
        if let Err(divergence) = walk_phase(m, b, inputs(m, xraw), traw, kraw, values) {
            prop_assert!(false, "{}", divergence);
        }
    }
}

/// The walks above reach every joint class the memo distinguishes: both
/// `Correlated(d)` classes and `Independent` inside windows, `BothKnown`
/// at the `s` bits.
#[test]
fn schedule_walks_cover_every_joint_class() {
    let mut total = [0usize; 4];
    for k in 0..48u64 {
        let mix = k.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let m = 2 + (k % 5) as u32;
        let b = 2 + (k % 7) as u32;
        let classes = walk_phase(
            m,
            b,
            inputs(m, mix),
            mix.rotate_left(13),
            mix.rotate_left(29),
            mix.rotate_left(41),
        )
        .unwrap_or_else(|divergence| panic!("{divergence}"));
        for (t, c) in total.iter_mut().zip(classes) {
            *t += c;
        }
    }
    assert!(
        total.iter().all(|&c| c > 0),
        "joint classes not all covered: {total:?}"
    );
}
