//! Converge-cast (aggregation) and broadcast over BFS trees and forests.
//!
//! Two families:
//!
//! - `*_stepped`: literal round-by-round execution over one tree through
//!   [`Network::fragmented_round`], the ground truth the tests hold the
//!   charged pair to;
//! - `*_forest_charged`: what the Lemma 2.6 drivers run — hundreds of
//!   thousands of times per run — over every tree of a forest at once. They
//!   compute the result centrally in `O(n)` work and charge the costs of
//!   the trees running side by side: per-tree results equal the stepped
//!   ones, rounds are the maximum over trees and messages and bits the sum.
//!
//! Round costs: a scalar converge-cast or broadcast over a tree of height `h`
//! costs `h` rounds; a `W`-word vector aggregation pipelines to `h + W − 1`
//! rounds. Under a swept (small) bandwidth cap, payloads wider than the cap
//! fragment into `⌈bits / cap⌉` messages: every broadcast level stretches
//! accordingly, and the aggregation charges the pipelined
//! `h + W·⌈64 / cap⌉ − 1`, a schedule the one-word-per-level stepped
//! converge-cast (`h·⌈64 / cap⌉` for one word) does not replay
//! (`DESIGN.md` §2.4). At the default cap nothing fragments.

use crate::bfs::BfsTree;
use crate::network::Network;
use crate::wire::Wire;
use dcl_graphs::NodeId;

/// Aggregates `values[v]` for all tree nodes toward the root with the
/// associative, commutative `combine`, executing one real communication round
/// per tree level. Returns the aggregate at the root.
///
/// Costs `tree.height` rounds.
pub fn convergecast_stepped<M, F>(
    net: &mut Network<'_>,
    tree: &BfsTree,
    values: &[M],
    mut combine: F,
) -> M
where
    M: Wire + Clone,
    F: FnMut(&M, &M) -> M,
{
    let n = values.len();
    assert_eq!(n, net.graph().n(), "one value per node required");
    let mut partial: Vec<M> = values.to_vec();
    let levels = tree.levels();
    for d in (1..levels.len()).rev() {
        let senders: &[NodeId] = &levels[d];
        let payloads: Vec<Option<(NodeId, M)>> = (0..n)
            .map(|v| {
                if senders.contains(&v) {
                    tree.parent[v].map(|p| (p, partial[v].clone()))
                } else {
                    None
                }
            })
            .collect();
        let inboxes = net.fragmented_round(|v| payloads[v].clone().into_iter().collect::<Vec<_>>());
        for v in 0..n {
            for (_, msg) in &inboxes[v] {
                partial[v] = combine(&partial[v], msg);
            }
        }
    }
    partial[tree.root].clone()
}

/// Broadcasts `value` from the root to every tree node, one real round per
/// level. Returns the delivered value per node (`None` for nodes outside the
/// tree). Costs `tree.height` rounds.
pub fn broadcast_stepped<M>(net: &mut Network<'_>, tree: &BfsTree, value: M) -> Vec<Option<M>>
where
    M: Wire + Clone,
{
    let n = net.graph().n();
    let mut have: Vec<Option<M>> = vec![None; n];
    have[tree.root] = Some(value);
    let levels = tree.levels();
    for d in 0..levels.len().saturating_sub(1) {
        let senders: &[NodeId] = &levels[d];
        let payloads: Vec<Vec<(NodeId, M)>> = (0..n)
            .map(|v| {
                if senders.contains(&v) {
                    let msg = have[v].clone().expect("sender has the value");
                    tree.children[v].iter().map(|&c| (c, msg.clone())).collect()
                } else {
                    Vec::new()
                }
            })
            .collect();
        let inboxes = net.fragmented_round(|v| payloads[v].clone());
        for v in 0..n {
            if let Some((_, msg)) = inboxes[v].first() {
                have[v] = Some(msg.clone());
            }
        }
    }
    have
}

/// Pipelined vector aggregation over a whole forest: every tree aggregates in
/// parallel, so the round charge is `max_height + width − 1` once. Returns
/// the component-wise sums per tree (indexed like `forest.trees`).
pub fn aggregate_vec_forest_charged(
    net: &mut Network<'_>,
    forest: &crate::bfs::BfsForest,
    values: &[Vec<f64>],
    width: usize,
) -> Vec<Vec<f64>> {
    let n = net.graph().n();
    assert_eq!(values.len(), n, "one vector per node required");
    let mut sums = vec![vec![0.0; width]; forest.trees.len()];
    let mut tree_edges = 0u64;
    for v in 0..n {
        let c = forest.component[v];
        // Nodes outside their assigned tree (possible for the partial
        // forests built from cluster Steiner trees) contribute nothing.
        if !forest.trees[c].contains(v) {
            continue;
        }
        assert_eq!(
            values[v].len(),
            width,
            "all vectors must have the declared width"
        );
        for (acc, x) in sums[c].iter_mut().zip(&values[v]) {
            *acc += *x;
        }
        if v != forest.trees[c].root {
            tree_edges += 1;
        }
    }
    let fragments = u64::from(net.cap().fragments(64));
    let extra = (width as u64 * fragments).saturating_sub(1);
    net.charge_rounds(u64::from(forest.max_height()) + extra);
    net.charge_payload_traffic(tree_edges * width as u64, 64);
    sums
}

/// Broadcasts one value per tree from each root to its component, in
/// parallel. Returns the delivered value per node. Charged `max_height`
/// rounds and one message per tree edge.
pub fn broadcast_forest_charged<M>(
    net: &mut Network<'_>,
    forest: &crate::bfs::BfsForest,
    per_tree: &[M],
) -> Vec<M>
where
    M: Wire + Clone,
{
    assert_eq!(
        per_tree.len(),
        forest.trees.len(),
        "one value per tree required"
    );
    let n = net.graph().n();
    let mut out = Vec::with_capacity(n);
    let mut max_fragments = 1u32;
    for v in 0..n {
        let c = forest.component[v];
        let msg = per_tree[c].clone();
        if v != forest.trees[c].root && forest.trees[c].contains(v) {
            max_fragments = max_fragments.max(net.charge_payload_traffic(1, msg.wire_bits()));
        }
        out.push(msg);
    }
    // All trees broadcast in the same rounds; the widest payload dictates
    // how far each level stretches.
    net.charge_rounds(u64::from(forest.max_height()) * u64::from(max_fragments));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::{build_bfs_forest, build_bfs_tree, BfsForest};
    use crate::network::Metrics;
    use dcl_graphs::{generators, Graph};

    /// Three components: a path of height 3 from its smallest node, a star
    /// and an isolated node.
    fn three_trees() -> Graph {
        Graph::from_edges(9, &[(0, 1), (1, 2), (2, 3), (4, 5), (4, 6), (4, 7)]).unwrap()
    }

    fn forest_of(g: &Graph, cap_bits: u32) -> BfsForest {
        build_bfs_forest(&mut Network::new(g, cap_bits))
    }

    /// Runs `run` on each tree of `forest` on its own fresh network and
    /// returns the per-tree results with the costs of the trees running
    /// side by side: rounds are the maximum over trees, messages and bits
    /// the sum.
    fn stepped_per_tree<R>(
        g: &Graph,
        cap_bits: u32,
        forest: &BfsForest,
        mut run: impl FnMut(&mut Network<'_>, usize, &BfsTree) -> R,
    ) -> (Vec<R>, Metrics) {
        let mut total = Metrics::default();
        let results = forest
            .trees
            .iter()
            .enumerate()
            .map(|(c, tree)| {
                let mut net = Network::new(g, cap_bits);
                let result = run(&mut net, c, tree);
                let m = net.metrics();
                total.rounds = total.rounds.max(m.rounds);
                total.messages += m.messages;
                total.bits += m.bits;
                total.max_message_bits = total.max_message_bits.max(m.max_message_bits);
                result
            })
            .collect();
        (results, total)
    }

    #[test]
    fn forest_aggregation_equals_stepped_convergecast_per_tree() {
        for (g, cap_bits) in [
            (three_trees(), 64),
            (generators::gnp(40, 0.05, 3), 128),
            (generators::random_connected(25, 12, 1), 64),
        ] {
            let forest = forest_of(&g, cap_bits);
            // Integer-valued f64 sums are exact in any combine order.
            let values: Vec<f64> = g.nodes().map(|v| (v * v + 1) as f64).collect();
            let (stepped, cost) = stepped_per_tree(&g, cap_bits, &forest, |net, _, tree| {
                convergecast_stepped(net, tree, &values, |x, y| x + y)
            });
            let mut net = Network::new(&g, cap_bits);
            let vectors: Vec<Vec<f64>> = values.iter().map(|&x| vec![x]).collect();
            let sums = aggregate_vec_forest_charged(&mut net, &forest, &vectors, 1);
            assert_eq!(
                sums,
                stepped.into_iter().map(|x| vec![x]).collect::<Vec<_>>()
            );
            assert_eq!(net.metrics(), cost);
            assert_eq!(cost.rounds, u64::from(forest.max_height()));
        }
    }

    #[test]
    fn forest_broadcast_equals_stepped_broadcast_per_tree() {
        // Equal-width values per tree, so every tree's levels stretch alike
        // and the swept caps fragment them.
        for cap_bits in [128, 7] {
            let g = three_trees();
            let forest = forest_of(&g, cap_bits);
            let per_tree: Vec<u32> = (0..forest.trees.len() as u32)
                .map(|i| (1 << 20) | i)
                .collect();
            let (stepped, cost) = stepped_per_tree(&g, cap_bits, &forest, |net, c, tree| {
                broadcast_stepped(net, tree, per_tree[c])
            });
            let mut net = Network::new(&g, cap_bits);
            let out = broadcast_forest_charged(&mut net, &forest, &per_tree);
            for v in g.nodes() {
                assert_eq!(stepped[forest.component[v]][v], Some(out[v]));
            }
            assert_eq!(net.metrics(), cost, "cap {cap_bits}");
        }
    }

    #[test]
    fn aggregation_at_a_fragmenting_cap_charges_the_pipelined_formula() {
        // At a 7-bit cap a 64-bit word is ⌈64/7⌉ = 10 fragments. The charge
        // is h + W·10 − 1, a pipelined schedule; the stepped converge-cast
        // sends one word per level and costs h·10, so it is no twin here.
        let g = generators::path(5);
        let forest = forest_of(&g, 7);
        let h = u64::from(forest.max_height());
        assert_eq!(h, 4);
        for width in [1usize, 3] {
            let mut net = Network::new(&g, 7);
            let vectors = vec![vec![1.0; width]; 5];
            let sums = aggregate_vec_forest_charged(&mut net, &forest, &vectors, width);
            assert_eq!(sums, vec![vec![5.0; width]]);
            assert_eq!(net.rounds(), h + width as u64 * 10 - 1);
        }
        let mut stepped = Network::new(&g, 7);
        let total = convergecast_stepped(&mut stepped, &forest.trees[0], &[1.0; 5], |x, y| x + y);
        assert_eq!(total, 5.0);
        assert_eq!(stepped.rounds(), h * 10);
    }

    #[test]
    fn convergecast_max_works() {
        let g = generators::binary_tree(15);
        let mut net = Network::with_default_cap(&g, 2);
        let tree = build_bfs_tree(&mut net, 0);
        let values: Vec<u64> = (0..15).map(|v| (v * 7 % 13) as u64).collect();
        let m = convergecast_stepped(&mut net, &tree, &values, |x, y| *x.max(y));
        assert_eq!(m, *values.iter().max().unwrap());
    }

    #[test]
    fn vector_aggregation_sums_and_charges_pipelined_rounds() {
        let g = generators::path(6);
        let mut net = Network::with_default_cap(&g, 2);
        let forest = build_bfs_forest(&mut net);
        assert_eq!(forest.trees.len(), 1);
        let base = net.rounds();
        let values: Vec<Vec<f64>> = (0..6).map(|v| vec![v as f64, 1.0, 0.5]).collect();
        let sums = aggregate_vec_forest_charged(&mut net, &forest, &values, 3);
        assert_eq!(sums, vec![vec![15.0, 6.0, 3.0]]);
        // height = 5, width = 3 → 5 + 2 = 7 rounds.
        assert_eq!(forest.max_height(), 5);
        assert_eq!(net.rounds() - base, 7);
    }

    #[test]
    fn broadcast_skips_unreachable() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let mut net = Network::with_default_cap(&g, 2);
        let tree = build_bfs_tree(&mut net, 0);
        let out = broadcast_stepped(&mut net, &tree, 5u32);
        assert_eq!(out[1], Some(5));
        assert_eq!(out[2], None);
    }

    #[test]
    fn forest_aggregation_sums_per_component() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        let mut net = Network::with_default_cap(&g, 2);
        let forest = build_bfs_forest(&mut net);
        assert_eq!(forest.trees.len(), 2);
        let values: Vec<Vec<f64>> = (0..5).map(|v| vec![v as f64, 1.0]).collect();
        let base = net.rounds();
        let sums = aggregate_vec_forest_charged(&mut net, &forest, &values, 2);
        assert_eq!(sums[forest.component[0]], vec![3.0, 3.0]);
        assert_eq!(sums[forest.component[3]], vec![7.0, 2.0]);
        // max height = 2 (path 0-1-2), width 2 → 3 rounds.
        assert_eq!(net.rounds() - base, 3);
    }

    #[test]
    fn forest_broadcast_delivers_per_component_values() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let mut net = Network::with_default_cap(&g, 2);
        let forest = build_bfs_forest(&mut net);
        let per_tree: Vec<u32> = (0..forest.trees.len() as u32).map(|i| 100 + i).collect();
        let out = broadcast_forest_charged(&mut net, &forest, &per_tree);
        assert_eq!(out[0], out[1]);
        assert_eq!(out[2], out[3]);
        assert_ne!(out[0], out[2]);
    }
}
