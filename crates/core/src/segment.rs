//! Segment-wise seed derandomization for the CONGESTED CLIQUE and MPC
//! drivers (Theorems 1.3–1.5, Section 4).
//!
//! The shared seed of a [`SliceFamily`] is fixed `λ` bits at a time: for
//! each segment all `2^λ` candidate values are scored at once (one
//! responsible node or machine per candidate in the real models) and the
//! lowest-scoring candidate is fixed. The drivers differ only in what they
//! score, so [`derandomize_segments`] runs the loop and takes the score as a
//! closure.

use dcl_derand::seed::PartialSeed;
use dcl_derand::slice::{PackedForms, SliceFamily};
use dcl_sim::Pool;

/// Fixes the whole seed of `family`, `lambda` bits per segment, and returns
/// it with the number of segments (so callers charge
/// `segments × per-segment rounds`).
///
/// Active node `v` has input `psi[v]`; inactive nodes carry the empty form.
/// Segment `[start, min(start + λ, seed_len))` evaluates every candidate
/// value through [`dcl_sim::argmin_f64`] on `pool`: the candidate's forms
/// are the current forms with the segment's bits fixed on the active
/// nodes, and `score` receives the whole per-node form slice (it runs its
/// own edge loop, so each caller keeps its float-summation order). Ties go
/// to the lowest candidate, which makes the result bit-identical across
/// backends.
///
/// # Panics
///
/// Panics if `psi` and `active` differ in length, or if `lambda == 0`.
pub fn derandomize_segments<F>(
    pool: Option<&Pool>,
    family: &SliceFamily,
    psi: &[u64],
    active: &[bool],
    lambda: u32,
    score: F,
) -> (PartialSeed, usize)
where
    F: Fn(&[PackedForms]) -> f64 + Sync,
{
    assert_eq!(psi.len(), active.len(), "one input per node");
    assert!(lambda > 0, "segments must fix at least one bit");
    let seed_len = family.seed_len();
    let mut seed = PartialSeed::new(seed_len);
    let empty = PackedForms::from_forms(&[]);
    let mut forms: Vec<PackedForms> = (0..psi.len())
        .map(|v| {
            if active[v] {
                family.packed_forms_for(&seed, psi[v])
            } else {
                empty.clone()
            }
        })
        .collect();
    let fix = |forms: &mut [PackedForms], start: usize, end: usize, value: usize| {
        for (offset, j) in (start..end).enumerate() {
            let bit = value >> offset & 1 == 1;
            for v in 0..psi.len() {
                if active[v] {
                    family.update_packed_on_fix(&mut forms[v], psi[v], j, bit);
                }
            }
        }
    };
    let mut segments = 0;
    let mut start = 0;
    while start < seed_len {
        let end = (start + lambda as usize).min(seed_len);
        let (_, winner) = dcl_sim::argmin_f64(pool, 1 << (end - start), |cand| {
            let mut scratch = forms.clone();
            fix(&mut scratch, start, end, cand);
            score(&scratch)
        });
        fix(&mut forms, start, end, winner);
        for (offset, j) in (start..end).enumerate() {
            seed.fix(j, winner >> offset & 1 == 1);
        }
        segments += 1;
        start = end;
    }
    (seed, segments)
}
