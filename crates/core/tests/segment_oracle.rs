//! Oracle test for [`derandomize_segments`]: the driver keeps one packed
//! form per node and updates it incrementally per fixed bit; the oracle
//! rebuilds every active node's forms from scratch for each candidate (a
//! fresh `PartialSeed` holding the earlier winners plus the candidate's
//! bits) and takes the lowest-index minimum. The two must fix the same seed,
//! bit for bit, on the sequential path and on a worker pool.

use dcl_coloring::segment::derandomize_segments;
use dcl_derand::seed::PartialSeed;
use dcl_derand::slice::{PackedForms, SliceFamily};
use dcl_kernels::digit_dp::joint_interval_packed;
use dcl_sim::Pool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One random edge term: `Pr[z_u ∈ [ul, uh) ∧ z_v ∈ [vl, vh)]`.
type Term = (usize, u64, u64, usize, u64, u64);

/// A random instance: node inputs, activity, and edge terms between active
/// nodes with interval ends biased toward `0` and `2^b`.
fn instance(family: &SliceFamily, n: usize, seed: u64) -> (Vec<u64>, Vec<bool>, Vec<Term>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let top = 1u64 << family.output_bits();
    let psi: Vec<u64> = (0..n)
        .map(|_| rng.gen_range(0..1u64 << family.input_bits()))
        .collect();
    let active: Vec<bool> = (0..n).map(|v| v % 4 != 3).collect();
    let end = |rng: &mut StdRng| match rng.gen_range(0..4u32) {
        0 => 0,
        1 => top,
        _ => rng.gen_range(0..=top),
    };
    let interval = |rng: &mut StdRng| {
        let (a, b) = (end(rng), end(rng));
        (a.min(b), a.max(b))
    };
    let live: Vec<usize> = (0..n).filter(|&v| active[v]).collect();
    let terms = (0..3 * n)
        .map(|_| {
            let u = live[rng.gen_range(0..live.len())];
            let v = live[rng.gen_range(0..live.len())];
            let (ul, uh) = interval(&mut rng);
            let (vl, vh) = interval(&mut rng);
            (u, ul, uh, v, vl, vh)
        })
        .collect();
    (psi, active, terms)
}

fn score(terms: &[Term], forms: &[PackedForms]) -> f64 {
    let mut total = 0.0;
    for &(u, ul, uh, v, vl, vh) in terms {
        total += (1 + u) as f64 * joint_interval_packed(&forms[u], ul, uh, &forms[v], vl, vh);
    }
    total
}

/// The from-scratch reference: no incremental form updates.
fn oracle<F: Fn(&[PackedForms]) -> f64>(
    family: &SliceFamily,
    psi: &[u64],
    active: &[bool],
    lambda: usize,
    score: F,
) -> PartialSeed {
    let seed_len = family.seed_len();
    let mut seed = PartialSeed::new(seed_len);
    let mut start = 0;
    while start < seed_len {
        let end = (start + lambda).min(seed_len);
        let mut best = (f64::INFINITY, 0usize);
        for cand in 0..1usize << (end - start) {
            let mut trial = seed.clone();
            for (offset, j) in (start..end).enumerate() {
                trial.fix(j, cand >> offset & 1 == 1);
            }
            let forms: Vec<PackedForms> = (0..psi.len())
                .map(|v| {
                    if active[v] {
                        family.packed_forms_for(&trial, psi[v])
                    } else {
                        PackedForms::from_forms(&[])
                    }
                })
                .collect();
            let s = score(&forms);
            if s < best.0 {
                best = (s, cand);
            }
        }
        for (offset, j) in (start..end).enumerate() {
            seed.fix(j, best.1 >> offset & 1 == 1);
        }
        start = end;
    }
    seed
}

#[test]
fn driver_matches_from_scratch_oracle() {
    let pool = Pool::new(2);
    let mut nonzero = false;
    for (case, &(m, b, n)) in [(3u32, 3u32, 10usize), (4, 2, 12), (2, 4, 9)]
        .iter()
        .enumerate()
    {
        let family = SliceFamily::new(m, b);
        let (psi, active, terms) = instance(&family, n, case as u64);
        for lambda in [1, 3, m + 1, m + 2] {
            let expected = oracle(&family, &psi, &active, lambda as usize, |f| {
                score(&terms, f)
            });
            nonzero |= (0..expected.len()).any(|j| expected.get(j) == Some(true));
            for backend in [None, Some(&pool)] {
                let (seed, segments) =
                    derandomize_segments(backend, &family, &psi, &active, lambda, |f| {
                        score(&terms, f)
                    });
                let label = format!("m={m} b={b} λ={lambda} pool={}", backend.is_some());
                assert_eq!(seed, expected, "{label}");
                assert!(seed.is_complete(), "{label}");
                assert_eq!(
                    segments,
                    family.seed_len().div_ceil(lambda as usize),
                    "{label}"
                );
            }
        }
    }
    assert!(
        nonzero,
        "every oracle seed was all-zero: the scores are trivial"
    );
}

#[test]
fn ties_fix_the_all_zero_seed() {
    let pool = Pool::new(2);
    let family = SliceFamily::new(3, 3);
    let (psi, active, _) = instance(&family, 8, 7);
    for backend in [None, Some(&pool)] {
        let (seed, segments) = derandomize_segments(backend, &family, &psi, &active, 5, |_| 1.0);
        assert_eq!(seed, PartialSeed::from_u64(family.seed_len(), 0));
        assert_eq!(segments, 3);
    }
}
