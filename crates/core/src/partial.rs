//! The partial coloring of Lemma 2.1: permanently list-color at least a 1/8
//! fraction of the active nodes.
//!
//! Pipeline (exactly the paper's):
//! 1. run `⌈log C⌉` derandomized prefix-extension phases (Lemma 2.6), after
//!    which every node holds a single candidate color and
//!    `Σ Φ ≤ 2·n_active`;
//! 2. let `V₍₄₎` be the active nodes with at most 3 conflicting neighbors
//!    (at least half of the active nodes by Markov);
//! 3. compute an MIS of the conflict graph induced by `V₍₄₎`
//!    (maximum degree 3) via Linial + color-class sweeps;
//! 4. MIS nodes keep their candidate color permanently — at least
//!    `|V₍₄₎|/4 ≥ n_active/8` nodes.
//!
//! The *MIS-avoidance* variant of Section 4 ("How to Avoid MIS") is also
//! implemented: with coins a factor `(Δ+1)` more accurate, `Σ Φ < n_active`
//! after the phases, at least half of the active nodes have at most one
//! conflict, and the induced conflict graph is a matching — resolved in one
//! round by keeping the larger id.

use crate::derand_step::{accuracy_bits, derandomized_phase};
use crate::instance::ListInstance;
use crate::mis::mis_bounded_degree;
use crate::potential::PotentialTrace;
use crate::prefix::PrefixState;
use dcl_congest::bfs::BfsForest;
use dcl_congest::network::Network;
use dcl_graphs::NodeId;

/// Conflict-resolution strategy for the final step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConflictResolution {
    /// Paper default (Lemma 2.1): MIS on the `≤ 3`-conflict nodes.
    #[default]
    Mis,
    /// Section 4 variant: extra coin accuracy, `≤ 1`-conflict nodes, larger
    /// id wins (no MIS computation).
    AvoidMis,
}

/// Configuration of one partial-coloring invocation.
#[derive(Debug, Clone, Copy, Default)]
pub struct PartialConfig {
    /// How final conflicts are resolved.
    pub resolution: ConflictResolution,
    /// Extra accuracy bits added to `b` (ablation knob; 0 = paper setting).
    pub extra_accuracy_bits: u32,
}

/// Outcome of one partial-coloring invocation.
#[derive(Debug, Clone)]
pub struct PartialOutcome {
    /// Nodes permanently colored in this invocation, with their colors.
    pub colored: Vec<(NodeId, u64)>,
    /// Potential after each phase (`values[0]` = initial).
    pub trace: PotentialTrace,
    /// Number of active nodes the invocation started with.
    pub active_count: usize,
    /// Number of active nodes with few (≤3 or ≤1) conflicts after all
    /// phases.
    pub eligible_count: usize,
    /// Coin accuracy `b` used.
    pub accuracy_bits: u32,
    /// Seed length per phase.
    pub seed_len: usize,
}

/// Runs Lemma 2.1 on the nodes marked `active`.
///
/// `psi` must be a proper coloring (palette `psi_palette`) of the instance
/// graph restricted to active nodes. Includes one setup round in which nodes
/// exchange ψ values.
///
/// # Panics
///
/// Panics if the instance slack `|L(v)| ≥ deg_active(v)+1` is violated.
pub fn partial_coloring(
    net: &mut Network<'_>,
    forest: &BfsForest,
    instance: &ListInstance,
    active: &[bool],
    psi: &[u64],
    psi_palette: u64,
    config: PartialConfig,
) -> PartialOutcome {
    let n = instance.graph().n();
    let active_count = active.iter().filter(|&&a| a).count();
    if active_count == 0 {
        return PartialOutcome {
            colored: Vec::new(),
            trace: PotentialTrace::default(),
            active_count: 0,
            eligible_count: 0,
            accuracy_bits: 0,
            seed_len: 0,
        };
    }
    assert!(
        instance.slack_holds(active),
        "instance violates the (degree+1) slack"
    );

    // Setup round: neighbors learn each other's ψ (used throughout the
    // phases to derive each other's coins from the shared seed).
    let _ = net.fragmented_broadcast_round(|v| if active[v] { Some(psi[v]) } else { None });

    let max_deg = instance
        .graph()
        .nodes()
        .filter(|&v| active[v])
        .map(|v| {
            instance
                .graph()
                .neighbors(v)
                .iter()
                .filter(|&&u| active[u])
                .count()
        })
        .max()
        .unwrap_or(0);
    let extra = match config.resolution {
        ConflictResolution::Mis => 1,
        ConflictResolution::AvoidMis => max_deg as u64 + 1,
    };
    let b = accuracy_bits(max_deg, instance.color_bits(), extra) + config.extra_accuracy_bits;

    let mut state = PrefixState::new(instance, active);
    let mut trace = PotentialTrace::start(&state);
    let mut seed_len = 0;
    for _ in 0..instance.color_bits() {
        let outcome = derandomized_phase(net, forest, instance, &mut state, psi, psi_palette, b);
        seed_len = outcome.seed_len;
        trace.record(&state);
    }

    // Conflict counts: |L_ℓ(v)| = 1, so Φ(v) = number of same-candidate
    // neighbors = conflict degree.
    let max_conflicts = match config.resolution {
        ConflictResolution::Mis => 3,
        ConflictResolution::AvoidMis => 1,
    };
    let eligible: Vec<bool> = (0..n)
        .map(|v| active[v] && state.conflict_degree(v) <= max_conflicts)
        .collect();
    let eligible_count = eligible.iter().filter(|&&e| e).count();

    let colored: Vec<(NodeId, u64)> = match config.resolution {
        ConflictResolution::Mis => {
            // Conflict adjacency restricted to eligible nodes.
            let adj: Vec<Vec<NodeId>> = (0..n)
                .map(|v| {
                    if eligible[v] {
                        state
                            .conflict_neighbors(v)
                            .iter()
                            .copied()
                            .filter(|&u| eligible[u])
                            .collect()
                    } else {
                        Vec::new()
                    }
                })
                .collect();
            let mis = mis_bounded_degree(net, &adj, &eligible, psi, psi_palette);
            (0..n)
                .filter(|&v| mis.in_set[v])
                .map(|v| (v, state.candidate_color(instance, v)))
                .collect()
        }
        ConflictResolution::AvoidMis => {
            // One round: conflict pairs resolve by id (the induced conflict
            // graph on eligible nodes is a matching).
            let _ = net.fragmented_broadcast_round(|v| if eligible[v] { Some(1u8) } else { None });
            state.mis_avoidance_keeps(instance)
        }
    };

    PartialOutcome {
        colored,
        trace,
        active_count,
        eligible_count,
        accuracy_bits: b,
        seed_len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linial::linial_from_ids;
    use dcl_congest::bfs::build_bfs_forest;
    use dcl_graphs::{generators, validation};

    fn run(g: dcl_graphs::Graph, config: PartialConfig) -> (ListInstance, PartialOutcome) {
        let n = g.n();
        let inst = ListInstance::degree_plus_one(g);
        let mut net = Network::with_default_cap(inst.graph(), inst.color_space());
        let forest = build_bfs_forest(&mut net);
        let lin = linial_from_ids(&mut net);
        let out = partial_coloring(
            &mut net,
            &forest,
            &inst,
            &vec![true; n],
            &lin.colors,
            lin.palette,
            config,
        );
        (inst, out)
    }

    #[test]
    fn colors_at_least_an_eighth() {
        for seed in 0..5 {
            let g = generators::gnp(32, 0.2, seed);
            let n = g.n();
            let (_, out) = run(g, PartialConfig::default());
            assert!(
                out.colored.len() * 8 >= n,
                "seed {seed}: colored only {}/{n}",
                out.colored.len()
            );
        }
    }

    #[test]
    fn colored_nodes_form_proper_partial_list_coloring() {
        for seed in 0..5 {
            let g = generators::random_regular(36, 5, seed);
            let (inst, out) = run(g, PartialConfig::default());
            let mut colors = vec![None; 36];
            for &(v, c) in &out.colored {
                assert!(inst.list(v).contains(&c), "node {v} got a non-list color");
                colors[v] = Some(c);
            }
            assert_eq!(
                validation::check_proper_partial(inst.graph(), &colors),
                None
            );
        }
    }

    #[test]
    fn half_of_nodes_have_few_conflicts() {
        for seed in 0..4 {
            let g = generators::gnp(30, 0.3, seed);
            let (_, out) = run(g, PartialConfig::default());
            assert!(
                out.eligible_count * 2 >= out.active_count,
                "seed {seed}: only {}/{} eligible",
                out.eligible_count,
                out.active_count
            );
        }
    }

    #[test]
    fn potential_ends_below_two_n() {
        let g = generators::gnp(34, 0.25, 11);
        let (_, out) = run(g, PartialConfig::default());
        let last = *out.trace.values.last().unwrap();
        assert!(last <= 2.0 * 34.0 + 1e-6, "final potential {last}");
    }

    #[test]
    fn avoid_mis_variant_colors_and_stays_proper() {
        for seed in 0..4 {
            let g = generators::gnp(30, 0.2, seed + 50);
            let (inst, out) = run(
                g,
                PartialConfig {
                    resolution: ConflictResolution::AvoidMis,
                    extra_accuracy_bits: 0,
                },
            );
            let mut colors = vec![None; 30];
            for &(v, c) in &out.colored {
                colors[v] = Some(c);
            }
            assert_eq!(
                validation::check_proper_partial(inst.graph(), &colors),
                None
            );
            // Stronger accuracy ⇒ Σ Φ < n ⇒ at least half eligible, a
            // quarter colored (matching: each pair keeps one node).
            assert!(out.colored.len() * 4 >= out.active_count, "seed {seed}");
        }
    }

    #[test]
    fn avoid_mis_uses_more_accuracy_bits() {
        let g1 = generators::gnp(24, 0.3, 1);
        let g2 = generators::gnp(24, 0.3, 1);
        let (_, mis) = run(g1, PartialConfig::default());
        let (_, avoid) = run(
            g2,
            PartialConfig {
                resolution: ConflictResolution::AvoidMis,
                extra_accuracy_bits: 0,
            },
        );
        assert!(avoid.accuracy_bits > mis.accuracy_bits);
    }

    #[test]
    fn empty_active_set_is_a_noop() {
        let g = generators::path(4);
        let inst = ListInstance::degree_plus_one(g);
        let mut net = Network::with_default_cap(inst.graph(), inst.color_space());
        let forest = build_bfs_forest(&mut net);
        let out = partial_coloring(
            &mut net,
            &forest,
            &inst,
            &[false; 4],
            &[0, 0, 0, 0],
            1,
            PartialConfig::default(),
        );
        assert!(out.colored.is_empty());
        assert_eq!(out.active_count, 0);
    }

    #[test]
    fn edgeless_graph_colors_everyone_in_one_shot() {
        let g = dcl_graphs::Graph::empty(7);
        let (_, out) = run(g, PartialConfig::default());
        assert_eq!(out.colored.len(), 7);
    }
}
