//! Converge-cast (aggregation) and broadcast over a rooted tree.
//!
//! Two interchangeable implementations are provided:
//!
//! - `*_stepped`: literal round-by-round execution through
//!   [`Network::round`], used in tests as the ground truth;
//! - `*_charged`: computes the same result centrally in `O(n)` work and
//!   charges the identical round/message/bit costs. Hot paths (the per-seed-
//!   bit aggregations of Lemma 2.6, which run hundreds of thousands of times)
//!   use the charged variants; equivalence is asserted by tests here.
//!
//! Round costs: a scalar converge-cast or broadcast over a tree of height `h`
//! costs `h` rounds; a `W`-word vector aggregation pipelines to `h + W − 1`
//! rounds. Under a swept (small) bandwidth cap, payloads wider than the cap
//! fragment into `⌈bits / cap⌉` messages and every level stretches
//! accordingly — the stepped variants inherit this from
//! [`Network::fragmented_round`], and the charged variants charge the
//! identical stretched costs, so stepped ≡ charged holds at *every* cap (at
//! the default cap nothing fragments and all costs equal the historical
//! ones).

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

/// Equivalent of [`convergecast_stepped`] computing the aggregate centrally
/// and charging the same costs (`height` rounds; one message of the combined
/// value's width per tree edge).
pub fn convergecast_charged<M, F>(
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
    // Each level is one (possibly fragment-stretched) round: the level's
    // cost is the largest fragment count among its messages, exactly what
    // the stepped variant's fragmented rounds charge.
    let mut rounds = 0u64;
    for d in (1..levels.len()).rev() {
        let mut level_cost = 1u32;
        for &v in &levels[d] {
            let p = tree.parent[v].expect("non-root tree nodes have parents");
            let msg = partial[v].clone();
            level_cost = level_cost.max(net.charge_payload_traffic(1, msg.wire_bits()));
            partial[p] = combine(&partial[p], &msg);
        }
        rounds += u64::from(level_cost);
    }
    net.charge_rounds(rounds);
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

/// Equivalent of [`broadcast_stepped`] with charged costs.
pub fn broadcast_charged<M>(net: &mut Network<'_>, tree: &BfsTree, value: M) -> Vec<Option<M>>
where
    M: Wire + Clone,
{
    let n = net.graph().n();
    let mut have: Vec<Option<M>> = vec![None; n];
    let bits = value.wire_bits();
    // Every level repeats the same value, so every level stretches by the
    // same fragment count.
    net.charge_rounds(u64::from(tree.height) * u64::from(net.cap().fragments(bits)));
    for v in 0..n {
        if tree.contains(v) {
            if v != tree.root {
                net.charge_payload_traffic(1, bits);
            }
            have[v] = Some(value.clone());
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
    use crate::bfs::build_bfs_tree;
    use dcl_graphs::generators;

    #[test]
    fn stepped_and_charged_convergecast_agree() {
        for seed in 0..4 {
            let g = generators::random_connected(25, 12, seed);
            let values: Vec<u64> = (0..25).map(|v| (v * v + 1) as u64).collect();

            let mut net1 = Network::with_default_cap(&g, 2);
            let tree1 = build_bfs_tree(&mut net1, 0);
            let base = net1.rounds();
            let a = convergecast_stepped(&mut net1, &tree1, &values, |x, y| x + y);
            let stepped_rounds = net1.rounds() - base;

            let mut net2 = Network::with_default_cap(&g, 2);
            let tree2 = build_bfs_tree(&mut net2, 0);
            let base = net2.rounds();
            let b = convergecast_charged(&mut net2, &tree2, &values, |x, y| x + y);
            let charged_rounds = net2.rounds() - base;

            assert_eq!(a, b);
            assert_eq!(a, values.iter().sum::<u64>());
            assert_eq!(stepped_rounds, charged_rounds);
            assert_eq!(stepped_rounds, u64::from(tree1.height));
        }
    }

    #[test]
    fn convergecast_max_works() {
        let g = generators::binary_tree(15);
        let mut net = Network::with_default_cap(&g, 2);
        let tree = build_bfs_tree(&mut net, 0);
        let values: Vec<u64> = (0..15).map(|v| (v * 7 % 13) as u64).collect();
        let m = convergecast_charged(&mut net, &tree, &values, |x, y| *x.max(y));
        assert_eq!(m, *values.iter().max().unwrap());
    }

    #[test]
    fn stepped_and_charged_broadcast_agree() {
        let g = generators::grid(3, 4);
        let mut net1 = Network::with_default_cap(&g, 2);
        let tree1 = build_bfs_tree(&mut net1, 0);
        let base = net1.rounds();
        let a = broadcast_stepped(&mut net1, &tree1, 99u32);
        let ra = net1.rounds() - base;

        let mut net2 = Network::with_default_cap(&g, 2);
        let tree2 = build_bfs_tree(&mut net2, 0);
        let base = net2.rounds();
        let b = broadcast_charged(&mut net2, &tree2, 99u32);
        let rb = net2.rounds() - base;

        assert_eq!(a, b);
        assert!(a.iter().all(|x| *x == Some(99)));
        assert_eq!(ra, rb);
    }

    #[test]
    fn vector_aggregation_sums_and_charges_pipelined_rounds() {
        use crate::bfs::build_bfs_forest;
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
        let g = dcl_graphs::Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let mut net = Network::with_default_cap(&g, 2);
        let tree = build_bfs_tree(&mut net, 0);
        let out = broadcast_charged(&mut net, &tree, 5u32);
        assert_eq!(out[1], Some(5));
        assert_eq!(out[2], None);
    }

    #[test]
    fn forest_aggregation_sums_per_component() {
        use crate::bfs::build_bfs_forest;
        let g = dcl_graphs::Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]).unwrap();
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
        use crate::bfs::build_bfs_forest;
        let g = dcl_graphs::Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let mut net = Network::with_default_cap(&g, 2);
        let forest = build_bfs_forest(&mut net);
        let per_tree: Vec<u32> = (0..forest.trees.len() as u32).map(|i| 100 + i).collect();
        let out = broadcast_forest_charged(&mut net, &forest, &per_tree);
        assert_eq!(out[0], out[1]);
        assert_eq!(out[2], out[3]);
        assert_ne!(out[0], out[2]);
    }
}
