//! The derandomized one-bit prefix extension (Lemma 2.6).
//!
//! One phase fixes the next bit of every node's color prefix such that
//!
//! ```text
//! Σ_u Φ_ℓ(u)  ≤  Σ_u Φ_{ℓ-1}(u) + n/⌈log C⌉            (Equation 5)
//! ```
//!
//! and no candidate set becomes empty. The phase derandomizes the biased-coin
//! process of Lemma 2.3 with the method of conditional expectations: the
//! shared seed of the coin family is fixed bit by bit; for each seed bit,
//! every node computes the conditional expectation of its potential for both
//! candidate values (`x⁰_v`, `x¹_v` in the paper), the two sums are
//! aggregated over the BFS tree toward the leader, the leader picks the
//! smaller side and broadcasts the chosen bit. One seed bit therefore costs
//! `O(D)` rounds; a whole phase costs `O(D · seed_len)` plus two real
//! neighbor-exchange rounds.
//!
//! Per the substitution documented in `DESIGN.md` §2.1, the coin family is
//! the slice-independent inner-product family with seed length
//! `b · (⌈log₂ K⌉ + 1)` (the paper's Theorem 2.4 family achieves
//! `2 · max{log K, b}` but has no efficiently computable conditional
//! expectations); all potential invariants are preserved with
//! `ε = 2^{-b}`.

use crate::instance::ListInstance;
use crate::prefix::PrefixState;
use dcl_congest::bfs::BfsForest;
use dcl_congest::network::Network;
use dcl_congest::tree::{aggregate_vec_forest_charged, broadcast_forest_charged};
use dcl_derand::seed::PartialSeed;
use dcl_derand::slice::{coin_threshold, BitForm, SliceFamily};
use dcl_kernels::digit_dp::EdgeDpCache;

/// Outcome of one derandomized phase.
#[derive(Debug, Clone)]
pub struct PhaseOutcome {
    /// `Σ Φ` before the phase.
    pub potential_before: f64,
    /// `Σ Φ` after the phase.
    pub potential_after: f64,
    /// Seed length used (bits fixed by conditional expectations).
    pub seed_len: usize,
}

/// Conditional expectations of one conflict edge for one seed bit:
/// `[x⁰ share of u, x⁰ share of v, x¹ share of u, x¹ share of v]`.
///
/// This is the dominant work of the whole algorithm (every conflict edge ×
/// every seed bit × both candidate values). In the real CONGEST network each
/// *node* evaluates its incident edges locally and simultaneously, so the
/// simulator farms the per-edge evaluations out to the backend's pool; the
/// caller replays the returned contributions in edge order on one thread,
/// which keeps the float association — and hence every leader decision
/// downstream — bit-identical to the sequential backend.
///
/// The numeric work lives in `dcl_kernels::digit_dp::edge_shares_cached`;
/// here we only resolve the seed layout: the candidate-value overrides for
/// position `slice` of each endpoint's form vector. `cache` is this edge's
/// persistent DP prefix state — the seed bits `j` arrive in index order,
/// which is exactly the monotone schedule the cache contract requires (see
/// `dcl_derand::slice` module docs).
#[allow(clippy::too_many_arguments)]
#[inline]
fn edge_shares(
    family: &SliceFamily,
    forms: &[Vec<BitForm>],
    psi: &[u64],
    thresholds: &[u64],
    k0_inv: &[f64],
    k1_inv: &[f64],
    j: usize,
    slice: usize,
    u: usize,
    v: usize,
    cache: &mut EdgeDpCache,
) -> [f64; 4] {
    let fu = &forms[u];
    let fv = &forms[v];
    let over_u = [
        family.form_with_fix(fu[slice], psi[u], j, false),
        family.form_with_fix(fu[slice], psi[u], j, true),
    ];
    let over_v = [
        family.form_with_fix(fv[slice], psi[v], j, false),
        family.form_with_fix(fv[slice], psi[v], j, true),
    ];
    dcl_kernels::digit_dp::edge_shares_cached(
        cache,
        fu,
        over_u,
        thresholds[u],
        k0_inv[u],
        k1_inv[u],
        fv,
        over_v,
        thresholds[v],
        k0_inv[v],
        k1_inv[v],
        slice,
    )
}

/// Per-conflict-edge scratch that survives the whole phase: the edge's
/// DP prefix cache plus the share slot the parallel
/// path writes results into (a flat buffer instead of per-chunk `Vec`
/// churn — the same fix the aggregation `vectors` buffer got).
struct EdgeScratch {
    cache: EdgeDpCache,
    share: [f64; 4],
}

/// Accuracy parameter `b` such that `ε = 2^{-b} ≤ 1/(10 · Δ · ⌈log C⌉ ·
/// extra)`; `extra = Δ+1` is the MIS-avoidance variant of Section 4.
#[must_use]
pub fn accuracy_bits(max_degree: usize, color_bits: u32, extra: u64) -> u32 {
    let target = 10u64
        .saturating_mul(max_degree.max(1) as u64)
        .saturating_mul(u64::from(color_bits.max(1)))
        .saturating_mul(extra.max(1));
    let b = 64 - (target - 1).leading_zeros();
    assert!(
        b <= 48,
        "accuracy parameter b = {b} unreasonably large; check instance parameters"
    );
    b.max(1)
}

/// Runs one derandomized prefix-extension phase for all active nodes.
///
/// `psi` must be a proper coloring of the instance graph restricted to the
/// active nodes (the symmetry-breaking input of Lemma 2.1) with values below
/// `psi_palette`; `b` is the coin accuracy from [`accuracy_bits`].
///
/// # Panics
///
/// Panics if called on a completed [`PrefixState`] or if `psi` values exceed
/// the palette.
pub fn derandomized_phase(
    net: &mut Network<'_>,
    forest: &BfsForest,
    instance: &ListInstance,
    state: &mut PrefixState,
    psi: &[u64],
    psi_palette: u64,
    b: u32,
) -> PhaseOutcome {
    let n = instance.graph().n();
    let potential_before = state.total_potential();
    let m = (64 - psi_palette.saturating_sub(1).leading_zeros()).max(1);
    let family = SliceFamily::new(m, b);
    let seed_len = family.seed_len();

    // --- Local setup: k0/k1 splits and coin thresholds. -------------------
    // Inactive nodes keep k = 0, which `recip_batch` maps to 0.0 — the same
    // no-share sentinel the per-node branch produced.
    let mut k0 = vec![0usize; n];
    let mut k1 = vec![0usize; n];
    let mut thresholds = vec![0u64; n];
    for v in 0..n {
        if !state.is_active(v) {
            continue;
        }
        assert!(psi[v] < psi_palette, "psi value out of palette at node {v}");
        let split = state.split(instance, v);
        let total = (split.k0 + split.k1) as u64;
        thresholds[v] = coin_threshold(split.k1 as u64, total, b);
        k0[v] = split.k0;
        k1[v] = split.k1;
    }
    let mut k0_inv = vec![0.0f64; n];
    let mut k1_inv = vec![0.0f64; n];
    dcl_kernels::ratio::recip_batch(&k0, &mut k0_inv);
    dcl_kernels::ratio::recip_batch(&k1, &mut k1_inv);

    // One real round: neighbors learn (k1, |L|) — everything they need to
    // evaluate the survival probability of the shared edge (they already
    // know ψ of their neighbors from the setup round of the partial
    // coloring).
    let _ = net.fragmented_broadcast_round(|v| {
        if state.is_active(v) {
            Some((thresholds[v], state.candidate_count(v) as u64))
        } else {
            None
        }
    });

    // --- Method of conditional expectations over the seed bits. -----------
    let trees = forest.trees.len();
    let mut seeds: Vec<PartialSeed> = (0..trees).map(|_| PartialSeed::new(seed_len)).collect();
    // Cached affine forms per node (all start identical per ψ; we keep them
    // per node for branch-free updates).
    let mut forms: Vec<Vec<BitForm>> = (0..n)
        .map(|v| {
            if state.is_active(v) {
                family.forms_for(&seeds[forest.component[v]], psi[v])
            } else {
                Vec::new()
            }
        })
        .collect();
    let edges = state.conflict_edges();
    // Per-edge scratch allocated once per phase. The caches make each
    // seed-bit evaluation replay only the current slice's digits, and only
    // once per digit-pmf class of the candidate forms within a slice
    // window; the share slots give the parallel path a flat output buffer.
    // `map_chunks_with` hands each worker exclusive access to its chunk of
    // scratch at deterministic boundaries, so results stay independent of
    // the worker count.
    let mut scratch: Vec<EdgeScratch> = edges
        .iter()
        .map(|_| EdgeScratch {
            cache: EdgeDpCache::new(),
            share: [0.0; 4],
        })
        .collect();

    let mut x0 = vec![0.0f64; n];
    let mut x1 = vec![0.0f64; n];
    // Reused aggregation buffer: rebuilding n two-element vectors per seed
    // bit costs ~10⁹ allocations on a 10⁵-node run and dominates RSS via
    // allocator churn.
    let mut vectors: Vec<Vec<f64>> = (0..n).map(|_| vec![0.0, 0.0]).collect();
    // Reused per-tree decision buffer (same churn argument, one per bit).
    let mut choices = vec![false; trees];
    for j in 0..seed_len {
        x0.iter_mut().for_each(|x| *x = 0.0);
        x1.iter_mut().for_each(|x| *x = 0.0);
        let slice = family.slice_of_seed_bit(j) as usize;
        match net.pool() {
            Some(pool) => {
                pool.map_chunks_with(&mut scratch, |range, chunk| {
                    for (e, sc) in range.zip(chunk.iter_mut()) {
                        let (u, v) = edges[e];
                        sc.share = edge_shares(
                            &family,
                            &forms,
                            psi,
                            &thresholds,
                            &k0_inv,
                            &k1_inv,
                            j,
                            slice,
                            u,
                            v,
                            &mut sc.cache,
                        );
                    }
                });
                // Replay in edge order on one thread: float association —
                // and every leader decision downstream — stays bit-identical
                // to the sequential backend.
                for (&(u, v), sc) in edges.iter().zip(&scratch) {
                    x0[u] += sc.share[0];
                    x0[v] += sc.share[1];
                    x1[u] += sc.share[2];
                    x1[v] += sc.share[3];
                }
            }
            None => {
                for (&(u, v), sc) in edges.iter().zip(scratch.iter_mut()) {
                    let s = edge_shares(
                        &family,
                        &forms,
                        psi,
                        &thresholds,
                        &k0_inv,
                        &k1_inv,
                        j,
                        slice,
                        u,
                        v,
                        &mut sc.cache,
                    );
                    x0[u] += s[0];
                    x0[v] += s[1];
                    x1[u] += s[2];
                    x1[v] += s[3];
                }
            }
        }
        // Aggregate [Σ x⁰, Σ x¹] per component over the BFS forest, pick the
        // smaller side at each leader, broadcast the chosen bit back.
        for v in 0..n {
            vectors[v][0] = x0[v];
            vectors[v][1] = x1[v];
        }
        let sums = aggregate_vec_forest_charged(net, forest, &vectors, 2);
        for (c, s) in choices.iter_mut().zip(sums.iter()) {
            *c = s[1] < s[0];
        }
        let delivered = broadcast_forest_charged(net, forest, &choices);
        for (t, &bit) in choices.iter().enumerate() {
            seeds[t].fix(j, bit);
        }
        for v in 0..n {
            if state.is_active(v) {
                let bit = delivered[v];
                family.update_forms_on_fix(&mut forms[v], psi[v], j, bit);
            }
        }
    }

    // --- Apply the fully derandomized coins. -------------------------------
    for v in 0..n {
        if !state.is_active(v) {
            continue;
        }
        let mut z = 0u64;
        for (i, form) in forms[v].iter().enumerate() {
            debug_assert!(form.is_known(), "seed fully fixed implies known forms");
            z |= u64::from(form.offset) << i;
        }
        let bit = z < thresholds[v];
        state.extend(instance, v, bit);
    }
    // One real round: exchange the chosen bit so both endpoints of every
    // conflict edge learn whether the edge survived.
    let _ = net.fragmented_broadcast_round(|v| if state.is_active(v) { Some(1u8) } else { None });
    state.finish_phase();

    PhaseOutcome {
        potential_before,
        potential_after: state.total_potential(),
        seed_len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linial::linial_from_ids;
    use dcl_congest::bfs::build_bfs_forest;
    use dcl_graphs::generators;

    /// Runs all phases on a fresh degree+1 instance; returns (state, traces).
    fn run_all_phases(g: dcl_graphs::Graph) -> (ListInstance, PrefixState, Vec<PhaseOutcome>, u64) {
        let n = g.n();
        let inst = ListInstance::degree_plus_one(g);
        let mut net = Network::with_default_cap(inst.graph(), inst.color_space());
        let forest = build_bfs_forest(&mut net);
        let lin = linial_from_ids(&mut net);
        let mut state = PrefixState::new(&inst, &vec![true; n]);
        let b = accuracy_bits(inst.graph().max_degree(), inst.color_bits(), 1);
        let mut outcomes = Vec::new();
        for _ in 0..inst.color_bits() {
            outcomes.push(derandomized_phase(
                &mut net,
                &forest,
                &inst,
                &mut state,
                &lin.colors,
                lin.palette,
                b,
            ));
        }
        let rounds = net.rounds();
        (inst, state, outcomes, rounds)
    }

    #[test]
    fn accuracy_bits_formula() {
        // 10·4·3 = 120 → b = 7 (2^7 = 128 ≥ 120).
        assert_eq!(accuracy_bits(4, 3, 1), 7);
        // MIS-avoidance adds the (Δ+1) factor: 10·4·3·5 = 600 → b = 10.
        assert_eq!(accuracy_bits(4, 3, 5), 10);
        // Degenerate inputs are guarded.
        assert_eq!(accuracy_bits(0, 0, 0), 4); // 10 → 2^4
    }

    #[test]
    fn each_phase_respects_the_potential_budget() {
        for seed in 0..4 {
            let g = generators::gnp(28, 0.2, seed);
            let n = g.n();
            let (inst, _, outcomes, _) = run_all_phases(g);
            let budget = n as f64 / f64::from(inst.color_bits());
            for (i, o) in outcomes.iter().enumerate() {
                assert!(
                    o.potential_after <= o.potential_before + budget + 1e-6,
                    "seed {seed} phase {i}: {} -> {} exceeds budget {budget}",
                    o.potential_before,
                    o.potential_after
                );
            }
        }
    }

    #[test]
    fn final_potential_at_most_two_n() {
        for seed in 0..4 {
            let g = generators::gnp(26, 0.25, seed + 10);
            let n = g.n();
            let (_, state, _, _) = run_all_phases(g);
            assert!(
                state.total_potential() <= 2.0 * n as f64 + 1e-6,
                "seed {seed}: final potential {}",
                state.total_potential()
            );
        }
    }

    #[test]
    fn candidate_sets_never_empty_and_all_bits_fixed() {
        let g = generators::random_regular(30, 4, 3);
        let (inst, state, _, _) = run_all_phases(g);
        assert!(state.is_complete());
        for v in 0..30 {
            assert_eq!(state.candidate_count(v), 1);
            let c = state.candidate_color(&inst, v);
            assert!(inst.list(v).contains(&c));
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let g1 = generators::gnp(24, 0.3, 7);
        let g2 = generators::gnp(24, 0.3, 7);
        let (inst1, state1, _, rounds1) = run_all_phases(g1);
        let (_, state2, _, rounds2) = run_all_phases(g2);
        for v in 0..24 {
            assert_eq!(
                state1.candidate_color(&inst1, v),
                state2.candidate_color(&inst1, v),
                "node {v} diverged"
            );
        }
        assert_eq!(rounds1, rounds2);
    }

    #[test]
    fn round_cost_scales_with_seed_and_tree_height() {
        // Path graph: D = n-1 dominates. One phase ≈ seed_len·(2·height+1).
        let g = generators::path(16);
        let inst = ListInstance::degree_plus_one(g);
        let mut net = Network::with_default_cap(inst.graph(), inst.color_space());
        let forest = build_bfs_forest(&mut net);
        let lin = linial_from_ids(&mut net);
        let mut state = PrefixState::new(&inst, &[true; 16]);
        let b = accuracy_bits(2, inst.color_bits(), 1);
        let before = net.rounds();
        let out = derandomized_phase(
            &mut net,
            &forest,
            &inst,
            &mut state,
            &lin.colors,
            lin.palette,
            b,
        );
        let used = net.rounds() - before;
        let height = u64::from(forest.max_height());
        let expected = out.seed_len as u64 * (2 * height + 1) + 2;
        assert_eq!(used, expected);
    }

    #[test]
    fn works_on_disconnected_graphs() {
        let g = dcl_graphs::Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]).unwrap();
        let (inst, state, outcomes, _) = run_all_phases(g);
        assert!(state.is_complete());
        for o in &outcomes {
            assert!(o.potential_after <= o.potential_before + 6.0 / 2.0 + 1e-9);
        }
        for v in 0..6 {
            let c = state.candidate_color(&inst, v);
            assert!(inst.list(v).contains(&c));
        }
    }
}
