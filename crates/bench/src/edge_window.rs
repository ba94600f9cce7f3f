//! The `kernels/digit_dp/edge_shares` workload: one conflict edge through
//! one whole slice window of the Lemma 2.6 seed schedule.
//!
//! `edge_shares_cached` keeps per-window state (the DP prefix and the
//! finished results per digit-pmf class), so timing one warm call in a
//! loop would time a memo lookup. [`EdgeShareWindow::run`] instead does
//! what the driver does for one edge in one window: a fresh cache, the
//! `m + 1` seed bits of the slice in index order (the shared `s` bit
//! last), both candidate overrides per bit from `form_with_fix`, and the
//! smaller side committed with `update_forms_on_fix`. `experiments bench`
//! reports the window's time divided by [`EdgeShareWindow::EVALS`], i.e. per
//! `edge_shares_cached` call.

use dcl_derand::seed::PartialSeed;
use dcl_derand::slice::{BitForm, SliceFamily};
use dcl_kernels::digit_dp::{self, EdgeDpCache};

/// Input width of the fixture family.
const M: u32 = 10;
/// Output width of the fixture family.
const B: u32 = 14;
/// The window's slice: the middle digit, the schedule's average depth.
const SLICE: usize = B as usize / 2;
/// The two endpoint inputs (distinct ψ colors).
const INPUTS: [u64; 2] = [0b10_1100_1101, 0b01_1101_0010];
/// Coin thresholds of the endpoints.
const THRESHOLDS: [u64; 2] = [9000, 4000];
/// `1/k0`, `1/k1` of each endpoint.
const K_INV: [(f64, f64); 2] = [(0.2, 0.25), (0.125, 0.5)];

/// One edge's forms at the start of the middle slice's window of a
/// `b = 14`, `m = 10` family: every seed bit of the slices below fixed,
/// the window's own bits free.
#[derive(Debug, Clone)]
pub struct EdgeShareWindow {
    fam: SliceFamily,
    start: [Vec<BitForm>; 2],
    forms: [Vec<BitForm>; 2],
}

impl EdgeShareWindow {
    /// `edge_shares_cached` calls per window: one per seed bit.
    pub const EVALS: u32 = M + 1;

    /// The fixture: the slices below the window fixed to a fixed bit
    /// pattern.
    #[must_use]
    pub fn new() -> Self {
        let fam = SliceFamily::new(M, B);
        let window = M as usize + 1;
        let mut seed = PartialSeed::new(fam.seed_len());
        for i in 0..SLICE * window {
            seed.fix(i, i % 3 == 0);
        }
        let start = INPUTS.map(|x| fam.forms_for(&seed, x));
        EdgeShareWindow {
            fam,
            forms: start.clone(),
            start,
        }
    }

    /// Runs the window once from a fresh cache and returns the sum of the
    /// shares (so the work cannot be optimized away).
    pub fn run(&mut self) -> f64 {
        for (forms, start) in self.forms.iter_mut().zip(&self.start) {
            forms.copy_from_slice(start);
        }
        let mut cache = EdgeDpCache::new();
        let window = M as usize + 1;
        let mut total = 0.0;
        for j in SLICE * window..(SLICE + 1) * window {
            let [fu, fv] = &self.forms;
            let over = |f: &[BitForm], x: u64| {
                [false, true].map(|val| self.fam.form_with_fix(f[SLICE], x, j, val))
            };
            let [(k0u, k1u), (k0v, k1v)] = K_INV;
            let s = digit_dp::edge_shares_cached(
                &mut cache,
                fu,
                over(fu, INPUTS[0]),
                THRESHOLDS[0],
                k0u,
                k1u,
                fv,
                over(fv, INPUTS[1]),
                THRESHOLDS[1],
                k0v,
                k1v,
                SLICE,
            );
            total += s.iter().sum::<f64>();
            // The leader's rule: commit the side with the smaller sum.
            let bit = s[2] + s[3] < s[0] + s[1];
            for (forms, x) in self.forms.iter_mut().zip(INPUTS) {
                self.fam.update_forms_on_fix(forms, x, j, bit);
            }
        }
        total
    }
}

impl Default for EdgeShareWindow {
    fn default() -> Self {
        EdgeShareWindow::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_is_repeatable_and_fixes_the_slice() {
        let mut w = EdgeShareWindow::new();
        let first = w.run();
        assert_eq!(first.to_bits(), w.run().to_bits());
        for forms in &w.forms {
            assert!(forms[SLICE].is_known(), "the window fixes every bit");
            assert!(forms[SLICE + 1..].iter().all(|f| !f.is_known()));
        }
    }
}
