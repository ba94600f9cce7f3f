//! Theorem 1.3: deterministic `(degree+1)`-list coloring in the CONGESTED
//! CLIQUE.
//!
//! Three clique-specific accelerations over the CONGEST algorithm (Section
//! 4 of the paper):
//!
//! 1. **No diameter factor** — conditional expectations travel directly to
//!    the leader instead of over a BFS tree.
//! 2. **Segment-parallel derandomization** — the shared seed is split into
//!    segments of `λ ≤ log₂ n` bits; all `2^λ` candidate values of a segment
//!    are evaluated simultaneously (each candidate by a responsible node)
//!    and the argmin is fixed in `O(1)` rounds, instead of `Θ(λ)` rounds of
//!    bit-by-bit fixing. The input coloring is the node ids (`K = n`), so no
//!    Linial step is needed.
//! 3. **Accelerating batches + final collect** — once at most `n/2^i` nodes
//!    remain uncolored, the routing headroom fixes `i` prefix bits per
//!    `O(1)`-round batch (implemented via `2^i`-ary digits with quantile
//!    thresholds on the same coin family), and once the residual subgraph
//!    (edges + lists) fits into a single Lenzen routing instance it is
//!    shipped to the leader and solved locally.
//!
//! Final conflicts are resolved with the MIS-avoidance trick of Section 4
//! (coins a `(Δ+1)` factor more accurate; surviving conflict graph is a
//! matching; larger id wins), so no distributed MIS is needed — matching the
//! clique/MPC presentation of the paper.

use crate::network::CliqueNetwork;
use dcl_coloring::derand_step::accuracy_bits;
use dcl_coloring::instance::ListInstance;
use dcl_coloring::prefix::PrefixState;
use dcl_coloring::segment::derandomize_segments;
use dcl_derand::slice::{coin_threshold, SliceFamily};
use dcl_sim::{ExecConfig, Wire};

/// Configuration of the clique coloring.
///
/// `#[non_exhaustive]`: build it with [`Default`] plus the `with_*` setters
/// so future knobs are not semver breaks.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct CliqueColoringConfig {
    /// Cap on the seed-segment length `λ` (the effective value is
    /// `min(λ_cap, ⌈log₂ n⌉)`; candidates per segment = `2^λ`).
    pub segment_bits: u32,
    /// Cap on the batch width `i` (bits of candidate color fixed per batch).
    pub max_batch_width: u32,
    /// Safety cap on partial-coloring iterations.
    pub max_iterations: usize,
    /// Simulator execution: round backend (results are bit-identical across
    /// backends) and bandwidth cap (`None` = two words).
    pub exec: ExecConfig,
}

impl Default for CliqueColoringConfig {
    fn default() -> Self {
        CliqueColoringConfig {
            segment_bits: 6,
            max_batch_width: 3,
            max_iterations: 200,
            exec: ExecConfig::default(),
        }
    }
}

impl CliqueColoringConfig {
    /// Sets the seed-segment length cap `λ` (builder style).
    #[must_use]
    pub fn with_segment_bits(mut self, segment_bits: u32) -> Self {
        self.segment_bits = segment_bits;
        self
    }

    /// Sets the batch-width cap (builder style).
    #[must_use]
    pub fn with_max_batch_width(mut self, max_batch_width: u32) -> Self {
        self.max_batch_width = max_batch_width;
        self
    }

    /// Sets the iteration safety cap (builder style).
    #[must_use]
    pub fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = max_iterations;
        self
    }

    /// Sets the simulator execution knob (builder style).
    #[must_use]
    pub fn with_exec(mut self, exec: ExecConfig) -> Self {
        self.exec = exec;
        self
    }
}

/// Result of [`clique_color`].
#[derive(Debug, Clone)]
pub struct CliqueColoringResult {
    /// The proper list coloring.
    pub colors: Vec<u64>,
    /// Simulator cost counters.
    pub metrics: crate::network::CliqueMetrics,
    /// Partial-coloring iterations before the final collect.
    pub iterations: usize,
    /// Number of nodes colored locally at the leader in the final step.
    pub collected_nodes: usize,
}

/// Colors a `(degree+1)`-list instance in the CONGESTED CLIQUE
/// (Theorem 1.3).
///
/// # Panics
///
/// Panics if the iteration cap is exceeded (progress bug).
pub fn clique_color(
    instance: &ListInstance,
    config: &CliqueColoringConfig,
) -> CliqueColoringResult {
    let g = instance.graph();
    let n = g.n();
    let mut net = CliqueNetwork::from_exec(n.max(2), &config.exec);
    let mut colors: Vec<Option<u64>> = vec![None; n];
    if n == 0 {
        return CliqueColoringResult {
            colors: Vec::new(),
            metrics: net.metrics(),
            iterations: 0,
            collected_nodes: 0,
        };
    }
    let mut residual = instance.clone();
    let mut active = vec![true; n];
    let mut uncolored = n;
    let mut iterations = 0;
    let mut collected_nodes = 0;
    // ψ = ids; K = n.
    let psi: Vec<u64> = (0..n as u64).collect();
    let m_bits = (64 - (n.max(2) as u64 - 1).leading_zeros()).max(1);

    while uncolored > 0 {
        // --- Final collect: residual graph + lists fit one routing step. ---
        let active_deg = |v: usize| g.neighbors(v).iter().filter(|&&u| active[u]).count();
        let message_count: usize = (0..n)
            .filter(|&v| active[v])
            .map(|v| active_deg(v) + residual.list(v).len() + 1)
            .sum();
        if message_count <= n || uncolored <= 4 {
            let leader = 0usize;
            // Ship the subgraph and lists to the leader (edge and list
            // entries as one message each; small instances skip routing).
            // Every node assembles its own routing records; the per-node
            // batches are concatenated in node order.
            let node_msgs = |v: usize| -> Vec<(usize, usize, (u64, u64))> {
                if !active[v] {
                    return Vec::new();
                }
                let mut out = Vec::new();
                for &u in g.neighbors(v) {
                    if active[u] && u > v {
                        out.push((v, leader, (v as u64, u as u64)));
                    }
                }
                for &c in residual.list(v) {
                    out.push((v, leader, (v as u64 | 1 << 63, c)));
                }
                out
            };
            let msgs: Vec<(usize, usize, (u64, u64))> = (0..n).flat_map(node_msgs).collect();
            let inboxes = if message_count <= n {
                net.lenzen_route(msgs)
            } else {
                // Tiny instance: a constant number of plain rounds suffices
                // — stretched by the widest record's fragment count, exactly
                // like the lenzen_route branch prices the same records.
                let max_fragments = msgs
                    .iter()
                    .map(|(_, _, m)| net.cap().fragments(m.wire_bits()))
                    .max()
                    .unwrap_or(1);
                net.charge_rounds(
                    msgs.len().div_ceil(n.max(2) - 1) as u64 * u64::from(max_fragments),
                );
                net.ship(msgs)
            };
            // Leader solves greedily on the collected instance alone: a
            // list record names an active node (every residual list is
            // non-empty) and carries its colors in list order; an edge
            // record joins two active nodes.
            let mut lists: Vec<Vec<u64>> = vec![Vec::new(); n];
            let mut adjacency: Vec<Vec<usize>> = vec![Vec::new(); n];
            for &(_, (a, b)) in &inboxes[leader] {
                if a & 1 << 63 != 0 {
                    lists[(a & !(1 << 63)) as usize].push(b);
                } else {
                    adjacency[a as usize].push(b as usize);
                    adjacency[b as usize].push(a as usize);
                }
            }
            let order: Vec<usize> = (0..n).filter(|&v| !lists[v].is_empty()).collect();
            let mut local: Vec<Option<u64>> = vec![None; n];
            for &v in &order {
                let taken: Vec<u64> = adjacency[v].iter().filter_map(|&u| local[u]).collect();
                let c = lists[v]
                    .iter()
                    .copied()
                    .find(|c| !taken.contains(c))
                    .expect("(degree+1) slack guarantees a free color");
                local[v] = Some(c);
            }
            // Leader distributes the colors (one unicast round; color names
            // fragment at caps below ⌈log₂ C⌉ bits).
            net.charge_rounds(u64::from(net.cap().fragments(residual.color_bits())));
            for &v in &order {
                colors[v] = local[v];
                active[v] = false;
            }
            collected_nodes = order.len();
            break;
        }

        // --- One partial-coloring iteration with batched digits. -----------
        assert!(iterations < config.max_iterations, "iteration cap exceeded");
        iterations += 1;
        let delta_act = (0..n)
            .filter(|&v| active[v])
            .map(active_deg)
            .max()
            .unwrap_or(0);
        // Batch width from the routing headroom: uncolored ≤ n/2^i ⇒ width i.
        let headroom = (n / uncolored).max(1);
        let width_budget = 63 - (headroom as u64).leading_zeros(); // ⌊log₂⌋
        let width = width_budget.clamp(1, config.max_batch_width);
        // MIS-avoidance accuracy: the (Δ+1) factor of Section 4, plus the
        // 2^w digit-alphabet factor.
        let extra = (delta_act as u64 + 1).saturating_mul(1 << width);
        let b = accuracy_bits(delta_act, residual.color_bits(), extra);
        let family = SliceFamily::new(m_bits, b);
        let lambda = config.segment_bits.min(m_bits).max(1);

        let mut state = PrefixState::new(&residual, &active);
        while state.remaining_bits() > 0 {
            let w_eff = width.min(state.remaining_bits());
            let digits = 1usize << w_eff;
            // Per-node digit thresholds (cumulative quantiles of Lemma 2.5).
            let mut thresholds: Vec<Vec<u64>> = vec![Vec::new(); n];
            let mut inv: Vec<Vec<f64>> = vec![Vec::new(); n];
            for v in 0..n {
                if !active[v] {
                    continue;
                }
                let counts = state.split_digits(&residual, v, w_eff);
                let len = counts.iter().sum::<usize>() as u64;
                let mut ts = Vec::with_capacity(digits + 1);
                let mut cum = 0u64;
                ts.push(0);
                for &k in &counts {
                    cum += k as u64;
                    ts.push(coin_threshold(cum, len, b));
                }
                thresholds[v] = ts;
                let mut recips = vec![0.0f64; counts.len()];
                dcl_kernels::ratio::recip_batch(&counts, &mut recips);
                inv[v] = recips;
            }
            // One round: neighbors exchange their digit-count vectors. The
            // routing headroom absorbs the 2^w word *count* (that is how w
            // was chosen), but each word still fragments at sub-word caps,
            // so the round stretches by the per-word fragment factor.
            net.charge_rounds(u64::from(net.cap().fragments(64)));

            // Segmented derandomization of the shared seed. All 2^λ
            // candidate values of a segment are evaluated simultaneously —
            // one responsible node each in the real clique, the backend pool
            // here. Each candidate's score sums `p·(inv_u + inv_v)` per digit
            // into one running total in edge order, so the winning segment
            // is bit-identical across backends.
            let edges = state.conflict_edges();
            let (seed, segments) =
                derandomize_segments(net.pool(), &family, &psi, &active, lambda, |forms| {
                    let mut total = 0.0f64;
                    for &(u, v) in &edges {
                        for a in 0..digits {
                            let (ul, uh) = (thresholds[u][a], thresholds[u][a + 1]);
                            let (vl, vh) = (thresholds[v][a], thresholds[v][a + 1]);
                            if uh == ul || vh == vl {
                                continue;
                            }
                            let p = dcl_kernels::digit_dp::joint_interval_packed(
                                &forms[u], ul, uh, &forms[v], vl, vh,
                            );
                            total += p * (inv[u][a] + inv[v][a]);
                        }
                    }
                    total
                });
            // Each segment fixes in O(1) rounds (responsible-node evaluation
            // + leader argmin + broadcast; the word-sized scores fragment at
            // sub-word caps).
            net.charge_rounds(segments as u64 * (2 + 2 * u64::from(net.cap().fragments(64))));

            // Apply digits and update the conflict graph (one round).
            for v in 0..n {
                if !active[v] {
                    continue;
                }
                let z = family.evaluate(&seed, psi[v]);
                let digit = thresholds[v].partition_point(|&t| t <= z) - 1;
                state.extend_digit(&residual, v, w_eff, digit as u64);
            }
            state.finish_phase_digits(w_eff);
            net.charge_rounds(1);
        }

        // Conflict resolution: matching by larger id (one round).
        net.charge_rounds(1);
        let newly = state.mis_avoidance_keeps(&residual);
        // Announce colors, prune lists (one round).
        net.charge_rounds(1);
        for &(v, c) in &newly {
            colors[v] = Some(c);
            active[v] = false;
            uncolored -= 1;
            for &u in g.neighbors(v) {
                if active[u] {
                    residual.remove_color(u, c);
                }
            }
        }
    }

    CliqueColoringResult {
        colors: colors
            .into_iter()
            .map(|c| c.expect("all nodes colored"))
            .collect(),
        metrics: net.metrics(),
        iterations,
        collected_nodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcl_graphs::{generators, validation};

    fn color_dp1(g: dcl_graphs::Graph) -> (dcl_graphs::Graph, CliqueColoringResult) {
        let inst = ListInstance::degree_plus_one(g.clone());
        let result = clique_color(&inst, &CliqueColoringConfig::default());
        (g, result)
    }

    #[test]
    fn colors_random_graphs_properly() {
        for seed in 0..4 {
            let (g, result) = color_dp1(generators::gnp(24, 0.25, seed));
            assert_eq!(
                validation::check_proper(&g, &result.colors),
                None,
                "seed {seed}"
            );
            let delta = g.max_degree() as u64;
            assert!(result.colors.iter().all(|&c| c <= delta));
        }
    }

    #[test]
    fn colors_structured_graphs() {
        for g in [
            generators::ring(20),
            generators::complete(10),
            generators::star(16),
            generators::grid(4, 5),
        ] {
            let (g, result) = color_dp1(g);
            assert_eq!(validation::check_proper(&g, &result.colors), None);
        }
    }

    #[test]
    fn small_instances_collect_immediately() {
        let (g, result) = color_dp1(generators::path(4));
        assert_eq!(validation::check_proper(&g, &result.colors), None);
        assert_eq!(result.iterations, 0);
        assert_eq!(result.collected_nodes, 4);
    }

    #[test]
    fn respects_custom_lists() {
        let g = generators::ring(12);
        let lists: Vec<Vec<u64>> = (0..12u64)
            .map(|v| vec![v % 5, 5 + v % 3, 9 + v % 4])
            .collect();
        let inst = ListInstance::new(g.clone(), 16, lists.clone()).unwrap();
        let result = clique_color(&inst, &CliqueColoringConfig::default());
        assert_eq!(
            validation::check_list_coloring(&g, &lists, &result.colors),
            None
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let g = generators::gnp(20, 0.3, 5);
        let (_, r1) = color_dp1(g.clone());
        let (_, r2) = color_dp1(g);
        assert_eq!(r1.colors, r2.colors);
        assert_eq!(r1.metrics, r2.metrics);
    }

    #[test]
    fn rounds_do_not_scale_with_diameter() {
        // A long ring has D = n/2 but the clique algorithm's round count
        // must stay small (no D factor).
        let (_, small) = color_dp1(generators::ring(16));
        let (_, large) = color_dp1(generators::ring(64));
        assert!(
            large.metrics.rounds < 40 * small.metrics.rounds.max(1),
            "rounds grew too fast: {} -> {}",
            small.metrics.rounds,
            large.metrics.rounds
        );
    }

    #[test]
    fn both_collect_branches_ship_over_sockets_bit_identically() {
        // path(4) collects at once through the tiny-instance branch; the
        // random graph iterates first and collects through Lenzen routing.
        let tcp = ExecConfig::default().with_transport(dcl_sim::TransportSpec::Tcp);
        for g in [generators::path(4), generators::gnp(24, 0.25, 1)] {
            let inst = ListInstance::degree_plus_one(g.clone());
            let local = clique_color(&inst, &CliqueColoringConfig::default());
            let sockets = clique_color(&inst, &CliqueColoringConfig::default().with_exec(tcp));
            assert_eq!(validation::check_proper(&g, &sockets.colors), None);
            assert_eq!(sockets.colors, local.colors);
            assert_eq!(sockets.metrics, local.metrics);
            assert_eq!(sockets.iterations, local.iterations);
            assert_eq!(sockets.collected_nodes, local.collected_nodes);
        }
    }

    #[test]
    fn handles_trivial_graphs() {
        let (_, r) = color_dp1(dcl_graphs::Graph::empty(6));
        assert_eq!(r.colors, vec![0; 6]);
        let empty = dcl_graphs::Graph::empty(0);
        let inst = ListInstance::degree_plus_one(empty);
        let r = clique_color(&inst, &CliqueColoringConfig::default());
        assert!(r.colors.is_empty());
    }
}
