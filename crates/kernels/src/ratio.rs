//! Ratio and reciprocal arithmetic on counter pairs.
//!
//! The potential function `Φ(v) = conflict_degree(v) / |candidates(v)|`
//! and the per-label shares `1 / |L_ℓ(v)|` are the only float divisions in
//! the hot paths. Division is correctly rounded under IEEE 754, so there
//! is exactly one valid bit pattern per input; the batch helpers are plain
//! loops over the single-value ones, for the per-phase setup loops (one
//! division per node).

/// `num / den` as `f64`. The caller asserts `den > 0` (the potential is
/// undefined for a node with no candidates).
#[must_use]
pub fn ratio(num: usize, den: usize) -> f64 {
    num as f64 / den as f64
}

/// `1 / k`, or `0.0` when `k == 0` (an empty label list contributes no
/// share).
#[must_use]
pub fn recip_or_zero(k: usize) -> f64 {
    if k > 0 {
        1.0 / k as f64
    } else {
        0.0
    }
}

/// Writes `recip_or_zero(ks[i])` into `out[i]` for every `i`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn recip_batch(ks: &[usize], out: &mut [f64]) {
    assert_eq!(ks.len(), out.len(), "batch slices must have equal length");
    for (k, o) in ks.iter().zip(out.iter_mut()) {
        *o = recip_or_zero(*k);
    }
}

/// Writes `nums[i] as f64 / dens[i] as f64` into `out[i]` for every `i`.
/// All denominators must be positive (callers assert this per node).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn ratio_batch(nums: &[usize], dens: &[usize], out: &mut [f64]) {
    assert_eq!(
        nums.len(),
        dens.len(),
        "batch slices must have equal length"
    );
    assert_eq!(nums.len(), out.len(), "batch slices must have equal length");
    for ((o, &n), &d) in out.iter_mut().zip(nums).zip(dens) {
        *o = ratio(n, d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_value_helpers() {
        assert_eq!(ratio(3, 4), 0.75);
        assert_eq!(recip_or_zero(0), 0.0);
        assert_eq!(recip_or_zero(8), 0.125);
    }

    #[test]
    fn batches_match_singles() {
        let ks: Vec<usize> = (0..37).map(|i| i * 7 % 11).collect();
        let nums: Vec<usize> = (0..37).map(|i| i * 13 % 29).collect();
        let dens: Vec<usize> = (0..37).map(|i| 1 + i * 5 % 17).collect();
        let want_recip: Vec<u64> = ks.iter().map(|&k| recip_or_zero(k).to_bits()).collect();
        let want_ratio: Vec<u64> = nums
            .iter()
            .zip(&dens)
            .map(|(&n, &d)| ratio(n, d).to_bits())
            .collect();
        let mut out = vec![0.0f64; ks.len()];
        recip_batch(&ks, &mut out);
        let got: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want_recip);
        ratio_batch(&nums, &dens, &mut out);
        let got: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want_ratio);
    }
}
