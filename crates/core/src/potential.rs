//! The potential function `Φ_ℓ(u) = deg_ℓ(u) / |L_ℓ(u)|` (Section 2).
//!
//! The potential measures, per node, the conflict pressure of the current
//! prefix assignment: it starts below 1 (`deg(v)/|L(v)| < 1` by the
//! `(degree+1)` slack), the randomized one-bit extension does not increase
//! its sum in expectation (Lemma 2.2), ε-inaccurate coins add at most
//! `10·ε·Δ·n` (Lemma 2.3), and once all bits are fixed `Φ(u)` equals the
//! number of neighbors sharing `u`'s candidate color.

use crate::instance::ListInstance;
use crate::prefix::PrefixState;

/// Exact potential of a single node given conflict degree and candidate
/// count.
///
/// # Panics
///
/// Panics if `candidates == 0` (candidate sets never become empty; an empty
/// set indicates a bug in the prefix machinery).
#[must_use]
pub fn node_potential(conflict_degree: usize, candidates: usize) -> f64 {
    assert!(candidates > 0, "candidate set must be nonempty");
    dcl_kernels::ratio::ratio(conflict_degree, candidates)
}

/// The per-phase potential budget of Lemma 2.6:
/// `n_active / ⌈log₂ C⌉`.
#[must_use]
pub fn phase_budget(active_nodes: usize, color_bits: u32) -> f64 {
    active_nodes as f64 / f64::from(color_bits.max(1))
}

/// Snapshot of the potential trajectory across the `⌈log₂ C⌉` phases of one
/// partial-coloring attempt, recorded by the experiment harness.
#[derive(Debug, Clone, Default)]
pub struct PotentialTrace {
    /// `values[ℓ]` = `Σ_v Φ_ℓ(v)` after phase `ℓ` (`values[0]` is initial).
    pub values: Vec<f64>,
}

impl PotentialTrace {
    /// Starts a trace from the initial state.
    pub fn start(state: &PrefixState) -> Self {
        PotentialTrace {
            values: vec![state.total_potential()],
        }
    }

    /// Records the potential after a phase.
    pub fn record(&mut self, state: &PrefixState) {
        self.values.push(state.total_potential());
    }

    /// Largest single-phase increase observed (0 if non-increasing).
    pub fn max_increase(&self) -> f64 {
        self.values
            .windows(2)
            .map(|w| w[1] - w[0])
            .fold(0.0, f64::max)
    }

    /// Final minus initial potential.
    pub fn total_increase(&self) -> f64 {
        match (self.values.first(), self.values.last()) {
            (Some(a), Some(b)) => b - a,
            _ => 0.0,
        }
    }
}

/// Verifies the invariant chain of Lemma 2.6 on a finished trace: every
/// phase increased the potential by at most `budget + slack`.
pub fn phases_within_budget(trace: &PotentialTrace, budget: f64, slack: f64) -> bool {
    trace
        .values
        .windows(2)
        .all(|w| w[1] - w[0] <= budget + slack)
}

/// Initial total potential of an instance restricted to `active` nodes
/// (`Σ deg_active(v) / |L(v)|`).
///
/// The divisions run through `dcl_kernels::ratio::ratio_batch`; the sum
/// folds the per-node ratios in node order, matching the sequential
/// `map(...).sum()` this replaced bit for bit (division is correctly
/// rounded, so batching cannot change any term).
pub fn instance_potential(instance: &ListInstance, active: &[bool]) -> f64 {
    let g = instance.graph();
    let (degs, lens): (Vec<usize>, Vec<usize>) = g
        .nodes()
        .filter(|&v| active[v])
        .map(|v| {
            let deg = g.neighbors(v).iter().filter(|&&u| active[u]).count();
            let candidates = instance.list(v).len();
            assert!(candidates > 0, "candidate set must be nonempty");
            (deg, candidates)
        })
        .unzip();
    let mut ratios = vec![0.0f64; degs.len()];
    dcl_kernels::ratio::ratio_batch(&degs, &lens, &mut ratios);
    ratios.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcl_graphs::generators;

    #[test]
    fn node_potential_is_ratio() {
        assert_eq!(node_potential(3, 4), 0.75);
        assert_eq!(node_potential(0, 1), 0.0);
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn zero_candidates_panics() {
        let _ = node_potential(1, 0);
    }

    #[test]
    fn initial_instance_potential_below_n() {
        for seed in 0..5 {
            let g = generators::gnp(30, 0.2, seed);
            let inst = ListInstance::degree_plus_one(g);
            let phi = instance_potential(&inst, &[true; 30]);
            assert!(phi < 30.0, "Φ₀ = {phi} must be below n");
        }
    }

    #[test]
    fn trace_records_increases() {
        let mut trace = PotentialTrace { values: vec![10.0] };
        trace.values.push(9.0);
        trace.values.push(9.5);
        assert!((trace.max_increase() - 0.5).abs() < 1e-12);
        assert!((trace.total_increase() + 0.5).abs() < 1e-12);
        assert!(phases_within_budget(&trace, 0.5, 1e-9));
        assert!(!phases_within_budget(&trace, 0.4, 1e-9));
    }

    #[test]
    fn phase_budget_formula() {
        assert_eq!(phase_budget(100, 4), 25.0);
        assert_eq!(phase_budget(100, 0), 100.0);
    }
}
