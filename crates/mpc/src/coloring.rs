//! Deterministic `(degree+1)`-list coloring in the MPC model:
//! Theorem 1.4 (linear memory), Theorem 1.5 (sublinear memory) and the
//! Lemma 4.2 finisher, with the MIS-avoidance conflict resolution of
//! Section 4.
//!
//! Both drivers share the candidate-selection core (bitwise prefix
//! extension with the segment-wise seed derandomization of
//! [`dcl_coloring::segment::derandomize_segments`], the same loop the clique
//! runs — the models differ in *where* data lives and what a round may
//! move, which is captured by the cost events charged to the simulator):
//!
//! - **linear** (`S = Θ̃(n)`): a node's whole neighborhood and list live on
//!   one machine; per seed segment, machines aggregate candidate vectors
//!   directly at machine 0 (`O(1)` rounds per segment);
//! - **sublinear** (`S = Θ(n^α)`): node data is sharded; neighborhood
//!   aggregation uses trees of fan-in `√S` (depth `O(1/α)`), the list
//!   update after each iteration runs the *real*
//!   [`crate::tools::set_difference`] on the simulator, and once
//!   `Δ² · uncolored ≤ n` the Lemma 4.2 one-shot finisher completes the
//!   coloring in `O(log n)` extra rounds.

use crate::machine::{Mpc, MpcMetrics};
use crate::tools;
use dcl_coloring::derand_step::accuracy_bits;
use dcl_coloring::instance::ListInstance;
use dcl_coloring::prefix::PrefixState;
use dcl_coloring::segment::derandomize_segments;
use dcl_derand::slice::{coin_threshold, PackedForms, SliceFamily};
use dcl_graphs::NodeId;

/// Result of an MPC coloring run.
#[derive(Debug, Clone)]
pub struct MpcColoringResult {
    /// The proper list coloring.
    pub colors: Vec<u64>,
    /// Simulator cost counters.
    pub metrics: MpcMetrics,
    /// Bitwise partial-coloring iterations.
    pub iterations: usize,
    /// Lemma 4.2 finisher iterations (sublinear only).
    pub finisher_iterations: usize,
    /// Number of machines used.
    pub machines: usize,
    /// Memory per machine in words.
    pub memory_words: usize,
}

/// Words needed to store the full residual instance (directed edges + list
/// entries + node records).
fn instance_words(instance: &ListInstance, active: &[bool]) -> usize {
    let g = instance.graph();
    g.nodes()
        .filter(|&v| active[v])
        .map(|v| {
            let deg = g.neighbors(v).iter().filter(|&&u| active[u]).count();
            2 * deg + instance.list(v).len() + 2
        })
        .sum()
}

/// Round charges of the bitwise candidate selection, per cost event. The
/// host model's data placement determines them: with linear memory the
/// aggregations go straight to machine 0, with sublinear memory they climb
/// `O(1/α)`-deep fan-in trees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelectionCosts {
    /// Rounds charged at the start of each prefix-bit phase (neighbors
    /// exchange `(k₁, |L|)`).
    pub phase_rounds: u64,
    /// Rounds charged per derandomized seed segment (candidate vectors +
    /// argmin).
    pub segment_rounds: u64,
}

/// One derandomized bitwise candidate selection over all active nodes,
/// charged to `mpc` per `costs`. The seed is fixed by
/// [`derandomize_segments`] on the cluster's backend pool (free local
/// computation in the MPC cost model), bit-identical to the sequential
/// evaluation.
#[allow(clippy::too_many_arguments)]
fn bitwise_selection(
    mpc: &mut Mpc,
    residual: &ListInstance,
    active: &[bool],
    psi: &[u64],
    m_bits: u32,
    b: u32,
    lambda: u32,
    costs: SelectionCosts,
) -> PrefixState {
    let n = residual.graph().n();
    let family = SliceFamily::new(m_bits, b);
    let mut state = PrefixState::new(residual, active);
    while state.remaining_bits() > 0 {
        mpc.charge_rounds(costs.phase_rounds);
        // Per-node thresholds. Inactive nodes keep k = 0 → `recip_batch`
        // yields the 0.0 no-share sentinel.
        let mut thresholds = vec![0u64; n];
        let mut k0 = vec![0usize; n];
        let mut k1 = vec![0usize; n];
        for v in 0..n {
            if !active[v] {
                continue;
            }
            let split = state.split(residual, v);
            let total = (split.k0 + split.k1) as u64;
            thresholds[v] = coin_threshold(split.k1 as u64, total, b);
            k0[v] = split.k0;
            k1[v] = split.k1;
        }
        let mut k0_inv = vec![0.0f64; n];
        let mut k1_inv = vec![0.0f64; n];
        dcl_kernels::ratio::recip_batch(&k0, &mut k0_inv);
        dcl_kernels::ratio::recip_batch(&k1, &mut k1_inv);
        let edges = state.conflict_edges();
        let (seed, segments) =
            derandomize_segments(mpc.pool(), &family, psi, active, lambda, |forms| {
                let mut total = 0.0;
                for &(u, v) in &edges {
                    let p = dcl_kernels::digit_dp::joint_coin_probs_packed(
                        &forms[u],
                        thresholds[u],
                        &forms[v],
                        thresholds[v],
                    );
                    total += p[3] * (k1_inv[u] + k1_inv[v]) + p[0] * (k0_inv[u] + k0_inv[v]);
                }
                total
            });
        mpc.charge_rounds(segments as u64 * costs.segment_rounds);
        for v in 0..n {
            if active[v] {
                let z = family.evaluate(&seed, psi[v]);
                let bit = z < thresholds[v];
                state.extend(residual, v, bit);
            }
        }
        state.finish_phase();
    }
    state
}

/// Theorem 1.4: `(degree+1)`-list coloring with linear memory
/// (`S = Θ̃(n)`), in `O(log Δ · log C)` rounds (times the seed-segment
/// count; see `DESIGN.md` §2.1).
///
/// # Panics
///
/// Panics on internal progress bugs.
pub fn mpc_color_linear(instance: &ListInstance) -> MpcColoringResult {
    mpc_color_linear_with(instance, &dcl_sim::ExecConfig::default())
}

/// [`mpc_color_linear`] with an explicit [`dcl_sim::ExecConfig`] (results
/// are bit-identical across backends). The config's bandwidth cap is
/// ignored: in MPC the per-machine word budget `S` plays the bandwidth
/// role.
pub fn mpc_color_linear_with(
    instance: &ListInstance,
    exec: &dcl_sim::ExecConfig,
) -> MpcColoringResult {
    let g = instance.graph();
    let n = g.n();
    let delta = g.max_degree();
    let s = (4 * n).max(8 * (delta + 2)).max(64);
    let total = instance_words(instance, &vec![true; n]);
    let machines = total.div_ceil(s).max(1) + 1;
    let mut mpc = Mpc::from_exec(machines, s, exec);

    // Owner assignment: first-fit by node-record size.
    let mut owner = vec![0usize; n];
    {
        let mut load = vec![0usize; machines];
        let mut next = 0usize;
        for v in 0..n {
            let words = 2 * g.degree(v) + instance.list(v).len() + 2;
            if load[next] + words > s && next + 1 < machines {
                next += 1;
            }
            load[next] += words;
            owner[v] = next;
        }
        for (i, &l) in load.iter().enumerate() {
            mpc.assert_storage(i, l);
        }
    }

    let mut colors: Vec<Option<u64>> = vec![None; n];
    if n == 0 {
        return MpcColoringResult {
            colors: Vec::new(),
            metrics: mpc.metrics(),
            iterations: 0,
            finisher_iterations: 0,
            machines,
            memory_words: s,
        };
    }
    let mut residual = instance.clone();
    let mut active = vec![true; n];
    let mut uncolored = n;
    let psi: Vec<u64> = (0..n as u64).collect();
    let m_bits = (64 - (n.max(2) as u64 - 1).leading_zeros()).max(1);
    let lambda = 4u32.min(m_bits).max(1);
    let mut iterations = 0usize;

    while uncolored > 0 {
        // Collect once the residual fits one machine.
        let words_left = instance_words(&residual, &active);
        if words_left <= s || uncolored <= 2 {
            mpc.charge_rounds(2);
            mpc.charge_traffic(uncolored as u64, words_left as u64);
            greedy_finish(&residual, &mut active, &mut colors);
            mpc.charge_rounds(1); // distribute results
            break;
        }
        assert!(
            iterations < 400,
            "linear MPC coloring failed to make progress"
        );
        iterations += 1;
        let delta_act = max_active_degree(&residual, &active);
        let b = accuracy_bits(delta_act, residual.color_bits(), delta_act as u64 + 1);
        let state = bitwise_selection(
            &mut mpc,
            &residual,
            &active,
            &psi,
            m_bits,
            b,
            lambda,
            SelectionCosts {
                // Owners exchange (k1, |L|) per edge.
                phase_rounds: 1,
                // Candidate vectors to machine 0 + argmin back.
                segment_rounds: 2,
            },
        );
        let newly = state.mis_avoidance_keeps(&residual);
        mpc.charge_rounds(2); // keep decision + color announcements
        apply_keeps(
            &newly,
            &mut residual,
            &mut active,
            &mut colors,
            &mut uncolored,
        );
    }

    MpcColoringResult {
        colors: colors
            .into_iter()
            .map(|c| c.expect("all colored"))
            .collect(),
        metrics: mpc.metrics(),
        iterations,
        finisher_iterations: 0,
        machines,
        memory_words: s,
    }
}

/// Theorem 1.5: `(degree+1)`-list coloring with sublinear memory
/// (`S = Θ(n^α)`), in `O(log Δ · log C + log n)`-shaped rounds, finishing
/// with Lemma 4.2.
///
/// # Panics
///
/// Panics if `alpha` is not in `(0, 1]` or on internal progress bugs.
pub fn mpc_color_sublinear(instance: &ListInstance, alpha: f64) -> MpcColoringResult {
    mpc_color_sublinear_with(instance, alpha, &dcl_sim::ExecConfig::default())
}

/// [`mpc_color_sublinear`] with an explicit [`dcl_sim::ExecConfig`]
/// (results are bit-identical across backends). The config's bandwidth cap
/// is ignored: in MPC the per-machine word budget `S` plays the bandwidth
/// role.
pub fn mpc_color_sublinear_with(
    instance: &ListInstance,
    alpha: f64,
    exec: &dcl_sim::ExecConfig,
) -> MpcColoringResult {
    assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
    let g = instance.graph();
    let n = g.n();
    let s = ((n.max(2) as f64).powf(alpha).ceil() as usize).max(16);
    let total = instance_words(instance, &vec![true; n]).max(1);
    let machines = total.div_ceil(s).max(2);
    let mut mpc = Mpc::from_exec(machines, s, exec);
    let tree_fanout = ((s as f64).sqrt().floor() as usize).max(2);
    let tree_depth = ((machines as f64).ln() / (tree_fanout as f64).ln())
        .ceil()
        .max(1.0) as u64;

    let mut colors: Vec<Option<u64>> = vec![None; n];
    if n == 0 {
        return MpcColoringResult {
            colors: Vec::new(),
            metrics: mpc.metrics(),
            iterations: 0,
            finisher_iterations: 0,
            machines,
            memory_words: s,
        };
    }

    // Initial placement: sort the (adversarially scattered) edge tuples and
    // list entries to group each node's data — real rounds on the simulator
    // (this is the aggregation-tree setup of Section 5).
    {
        let mut records: Vec<(u64, u64)> = Vec::new();
        for (u, v) in g.edges() {
            records.push((u as u64, v as u64));
            records.push((v as u64, u as u64));
        }
        for v in g.nodes() {
            for &c in instance.list(v) {
                records.push((v as u64, c));
            }
        }
        let scattered = tools::scatter(machines, &records);
        let _sorted = tools::sort(&mut mpc, scattered);
    }

    let mut residual = instance.clone();
    let mut active = vec![true; n];
    let mut uncolored = n;
    let psi: Vec<u64> = (0..n as u64).collect();
    let m_bits = (64 - (n.max(2) as u64 - 1).leading_zeros()).max(1);
    // λ < α·log n so that candidate vectors fit the memory; capped for work.
    let lambda = (((s as f64).log2() / 2.0).floor() as u32)
        .clamp(1, 4)
        .min(m_bits);
    let mut iterations = 0usize;
    let mut finisher_iterations = 0usize;

    loop {
        if uncolored == 0 {
            break;
        }
        let delta_act = max_active_degree(&residual, &active);
        // Lemma 4.2 regime: Δ²·uncolored = O(n) with Δ = O(√S) (the paper's
        // Δ < n^{α/2} with total memory Ω(nΔ²)).
        let delta_fits = (delta_act + 1) * (delta_act + 1) <= 4 * s;
        if delta_act <= 1 || (delta_fits && delta_act * delta_act * uncolored <= 4 * n.max(4)) {
            finisher_iterations += run_finisher(
                &mut mpc,
                &mut residual,
                &mut active,
                &mut colors,
                &mut uncolored,
                &psi,
                m_bits,
                lambda,
                tree_depth,
            );
            break;
        }
        assert!(
            iterations < 400,
            "sublinear MPC coloring failed to make progress"
        );
        iterations += 1;
        let b = accuracy_bits(delta_act, residual.color_bits(), delta_act as u64 + 1);
        let state = bitwise_selection(
            &mut mpc,
            &residual,
            &active,
            &psi,
            m_bits,
            b,
            lambda,
            SelectionCosts {
                // (k1, |L|) via the node aggregation trees + the
                // (u,v)↔(v,u) machine exchange: O(depth) rounds.
                phase_rounds: 2 * tree_depth + 1,
                // Candidate vectors aggregated over the global tree.
                segment_rounds: 2 * tree_depth,
            },
        );
        let newly = state.mis_avoidance_keeps(&residual);
        mpc.charge_rounds(2);
        apply_keeps(
            &newly,
            &mut residual,
            &mut active,
            &mut colors,
            &mut uncolored,
        );
        // Real distributed list update (Definition 5.3): delete colors taken
        // by newly colored neighbors from the remaining lists.
        let mut a_entries: Vec<(u64, u64)> = Vec::new();
        for v in 0..n {
            if active[v] {
                for &c in residual.list(v) {
                    a_entries.push((v as u64, c));
                }
            }
        }
        let mut b_entries: Vec<(u64, u64)> = Vec::new();
        for &(v, c) in &newly {
            for &u in g.neighbors(v) {
                if active[u] {
                    b_entries.push((u as u64, c));
                }
            }
        }
        if !a_entries.is_empty() {
            let result = tools::set_difference(
                &mut mpc,
                &tools::scatter(machines, &a_entries),
                &tools::scatter(machines, &b_entries),
            );
            // (The central `residual` was already pruned by `apply_keeps`;
            // cross-check the distributed answer against it.)
            for block in &result {
                for &((v, c), in_b) in block {
                    let still_listed = residual.list(v as usize).contains(&c);
                    assert_eq!(
                        still_listed, !in_b,
                        "distributed set difference disagrees at node {v} color {c}"
                    );
                }
            }
        }
    }

    MpcColoringResult {
        colors: colors
            .into_iter()
            .map(|c| c.expect("all colored"))
            .collect(),
        metrics: mpc.metrics(),
        iterations,
        finisher_iterations,
        machines,
        memory_words: s,
    }
}

/// Lemma 4.2: one-shot color selection (quantile digits over whole lists)
/// plus the matching keep rule, iterated to completion in `O(log n)`
/// iterations. Returns the iteration count.
#[allow(clippy::too_many_arguments)]
fn run_finisher(
    mpc: &mut Mpc,
    residual: &mut ListInstance,
    active: &mut [bool],
    colors: &mut [Option<u64>],
    uncolored: &mut usize,
    psi: &[u64],
    m_bits: u32,
    lambda: u32,
    tree_depth: u64,
) -> usize {
    let n = residual.graph().n();
    let mut iterations = 0usize;
    while *uncolored > 0 {
        assert!(
            iterations < 400,
            "Lemma 4.2 finisher failed to make progress"
        );
        iterations += 1;
        let delta_act = max_active_degree(residual, active);
        // Cap lists at Δ+1 (Equation 9: guarantees ΣΦ < n − n/(Δ+1)).
        for v in 0..n {
            if active[v] && residual.list(v).len() > delta_act + 1 {
                let deg = residual
                    .graph()
                    .neighbors(v)
                    .iter()
                    .filter(|&&u| active[u])
                    .count();
                residual.truncate_list(v, (delta_act + 1).max(deg + 1));
            }
        }
        let b = accuracy_bits(
            delta_act,
            1,
            (delta_act as u64 + 1) * (delta_act as u64 + 1),
        );
        let family = SliceFamily::new(m_bits, b);
        // Quantile thresholds over each node's full list.
        let mut thresholds: Vec<Vec<u64>> = vec![Vec::new(); n];
        for v in 0..n {
            if active[v] {
                let len = residual.list(v).len() as u64;
                thresholds[v] = (0..=len).map(|i| coin_threshold(i, len, b)).collect();
            }
        }
        mpc.charge_rounds(2 * tree_depth); // lists meet at edge machines

        // Conflict edges = all active-active edges (fresh selection).
        let edges: Vec<(NodeId, NodeId)> = residual
            .graph()
            .edges()
            .filter(|&(u, v)| active[u] && active[v])
            .collect();
        let (seed, segments) =
            derandomize_segments(mpc.pool(), &family, psi, active, lambda, |forms| {
                let mut total = 0.0;
                for &(u, v) in &edges {
                    total += edge_conflict_expectation(
                        residual,
                        u,
                        v,
                        &forms[u],
                        &forms[v],
                        &thresholds,
                    );
                }
                total
            });
        mpc.charge_rounds(segments as u64 * 2 * tree_depth);
        // Apply: every active node picks the list color of its quantile.
        let mut chosen: Vec<Option<u64>> = vec![None; n];
        for v in 0..n {
            if active[v] {
                let z = family.evaluate(&seed, psi[v]);
                let idx = thresholds[v].partition_point(|&t| t <= z) - 1;
                chosen[v] = Some(residual.list(v)[idx]);
            }
        }
        // Matching keep rule on the realized conflicts.
        let mut conflicts = vec![0usize; n];
        let mut partner = vec![usize::MAX; n];
        for &(u, v) in &edges {
            if chosen[u] == chosen[v] {
                conflicts[u] += 1;
                conflicts[v] += 1;
                partner[u] = v;
                partner[v] = u;
            }
        }
        mpc.charge_rounds(2);
        let newly: Vec<(NodeId, u64)> = (0..n)
            .filter(|&v| {
                active[v]
                    && (conflicts[v] == 0
                        || (conflicts[v] == 1 && (conflicts[partner[v]] > 1 || v > partner[v])))
            })
            .map(|v| (v, chosen[v].expect("keeper has a chosen color")))
            .collect();
        assert!(!newly.is_empty(), "finisher iteration made no progress");
        mpc.charge_rounds(1);
        apply_keeps(&newly, residual, active, colors, uncolored);
    }
    iterations
}

/// Expected conflict contribution of one edge under a partially fixed seed:
/// the probability that both endpoints' quantiles land on the same color.
fn edge_conflict_expectation(
    residual: &ListInstance,
    u: NodeId,
    v: NodeId,
    forms_u: &PackedForms,
    forms_v: &PackedForms,
    thresholds: &[Vec<u64>],
) -> f64 {
    let (lu, lv) = (residual.list(u), residual.list(v));
    let mut total = 0.0;
    let mut iu = 0usize;
    let mut iv = 0usize;
    while iu < lu.len() && iv < lv.len() {
        match lu[iu].cmp(&lv[iv]) {
            std::cmp::Ordering::Less => iu += 1,
            std::cmp::Ordering::Greater => iv += 1,
            std::cmp::Ordering::Equal => {
                let (a0, a1) = (thresholds[u][iu], thresholds[u][iu + 1]);
                let (b0, b1) = (thresholds[v][iv], thresholds[v][iv + 1]);
                if a1 > a0 && b1 > b0 {
                    total += dcl_kernels::digit_dp::joint_interval_packed(
                        forms_u, a0, a1, forms_v, b0, b1,
                    );
                }
                iu += 1;
                iv += 1;
            }
        }
    }
    // Both endpoints count the conflict in Σ Φ.
    2.0 * total
}

/// Finishes tiny residual instances greedily (after collection at one
/// machine).
fn greedy_finish(residual: &ListInstance, active: &mut [bool], colors: &mut [Option<u64>]) {
    let g = residual.graph();
    for v in g.nodes() {
        if !active[v] {
            continue;
        }
        let taken: Vec<u64> = g
            .neighbors(v)
            .iter()
            .filter_map(|&u| colors[u].filter(|_| !active[u]))
            .collect();
        let c = residual
            .list(v)
            .iter()
            .copied()
            .find(|c| !taken.contains(c))
            .expect("(degree+1) slack guarantees a free color");
        colors[v] = Some(c);
        active[v] = false;
    }
}

fn max_active_degree(residual: &ListInstance, active: &[bool]) -> usize {
    let g = residual.graph();
    g.nodes()
        .filter(|&v| active[v])
        .map(|v| g.neighbors(v).iter().filter(|&&u| active[u]).count())
        .max()
        .unwrap_or(0)
}

/// Applies the keep decisions: records the newly colored `(node, color)`
/// pairs, deactivates those nodes, then prunes their colors from the lists
/// of still-active neighbors.
fn apply_keeps(
    newly: &[(NodeId, u64)],
    residual: &mut ListInstance,
    active: &mut [bool],
    colors: &mut [Option<u64>],
    uncolored: &mut usize,
) {
    for &(v, c) in newly {
        colors[v] = Some(c);
        active[v] = false;
        *uncolored -= 1;
    }
    let g = residual.graph().clone();
    for &(v, c) in newly {
        for &u in g.neighbors(v) {
            if active[u] {
                residual.remove_color(u, c);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcl_graphs::{generators, validation};

    #[test]
    fn linear_colors_random_graphs() {
        for seed in 0..3 {
            let g = generators::gnp(26, 0.25, seed);
            let inst = ListInstance::degree_plus_one(g.clone());
            let r = mpc_color_linear(&inst);
            assert_eq!(validation::check_proper(&g, &r.colors), None, "seed {seed}");
            let delta = g.max_degree() as u64;
            assert!(r.colors.iter().all(|&c| c <= delta));
        }
    }

    #[test]
    fn linear_memory_is_linear_in_n() {
        let g = generators::gnp(30, 0.2, 7);
        let inst = ListInstance::degree_plus_one(g);
        let r = mpc_color_linear(&inst);
        assert!(r.memory_words >= 30);
        assert!(r.metrics.max_storage_words <= 4 * r.memory_words);
    }

    #[test]
    fn sublinear_colors_random_graphs() {
        for seed in 0..3 {
            let g = generators::gnp(24, 0.22, seed + 5);
            let inst = ListInstance::degree_plus_one(g.clone());
            let r = mpc_color_sublinear(&inst, 0.6);
            assert_eq!(validation::check_proper(&g, &r.colors), None, "seed {seed}");
        }
    }

    #[test]
    fn sublinear_uses_many_small_machines() {
        let g = generators::random_regular(40, 4, 2);
        let inst = ListInstance::degree_plus_one(g);
        let r = mpc_color_sublinear(&inst, 0.5);
        assert!(
            r.machines > 4,
            "expected a real cluster, got {}",
            r.machines
        );
        assert!(r.memory_words < 40 * 4);
    }

    #[test]
    fn sublinear_finisher_handles_bounded_degree() {
        // Small Δ relative to n triggers the Lemma 4.2 path immediately.
        let g = generators::ring(40);
        let inst = ListInstance::degree_plus_one(g.clone());
        let r = mpc_color_sublinear(&inst, 0.5);
        assert_eq!(validation::check_proper(&g, &r.colors), None);
        assert!(r.finisher_iterations > 0, "ring should use the finisher");
    }

    #[test]
    fn structured_graphs_all_models() {
        for g in [
            generators::star(18),
            generators::grid(4, 5),
            generators::complete(8),
        ] {
            let inst = ListInstance::degree_plus_one(g.clone());
            let lin = mpc_color_linear(&inst);
            assert_eq!(validation::check_proper(&g, &lin.colors), None);
            let sub = mpc_color_sublinear(&inst, 0.6);
            assert_eq!(validation::check_proper(&g, &sub.colors), None);
        }
    }

    #[test]
    fn custom_lists_respected() {
        let g = generators::ring(12);
        let lists: Vec<Vec<u64>> = (0..12u64)
            .map(|v| vec![(2 * v) % 9, (2 * v + 3) % 9 + 9, v % 4 + 18])
            .collect();
        let inst = ListInstance::new(g.clone(), 22, lists.clone()).unwrap();
        let lin = mpc_color_linear(&inst);
        assert_eq!(
            validation::check_list_coloring(&g, &lists, &lin.colors),
            None
        );
        let sub = mpc_color_sublinear(&inst, 0.7);
        assert_eq!(
            validation::check_list_coloring(&g, &lists, &sub.colors),
            None
        );
    }

    #[test]
    fn deterministic_runs() {
        let g = generators::gnp(20, 0.3, 4);
        let inst = ListInstance::degree_plus_one(g);
        let a = mpc_color_linear(&inst);
        let b = mpc_color_linear(&inst);
        assert_eq!(a.colors, b.colors);
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn trivial_graphs() {
        let empty = dcl_graphs::Graph::empty(0);
        let inst = ListInstance::degree_plus_one(empty);
        assert!(mpc_color_linear(&inst).colors.is_empty());
        let edgeless = dcl_graphs::Graph::empty(5);
        let inst = ListInstance::degree_plus_one(edgeless.clone());
        let r = mpc_color_sublinear(&inst, 0.5);
        assert_eq!(validation::check_proper(&edgeless, &r.colors), None);
    }
}
