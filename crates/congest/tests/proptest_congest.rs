//! Property-based tests of the CONGEST substrate: BFS forests, charged vs
//! stepped collectives, and metric accounting.

// Node ids double as indices into per-node state vectors (same policy as
// the crate roots).
#![allow(clippy::needless_range_loop)]

use dcl_congest::bfs::{build_bfs_forest, BfsForest, BfsTree};
use dcl_congest::network::{Metrics, Network};
use dcl_congest::tree::{
    aggregate_vec_forest_charged, broadcast_forest_charged, broadcast_stepped, convergecast_stepped,
};
use dcl_graphs::{generators, metrics, Graph};
use proptest::prelude::*;

/// Runs `run` on each tree of `forest` on its own fresh default-cap network
/// and returns the per-tree results with the costs of the trees running
/// side by side: rounds are the maximum over trees, messages and bits the
/// sum.
fn stepped_per_tree<R>(
    g: &Graph,
    forest: &BfsForest,
    mut run: impl FnMut(&mut Network<'_>, usize, &BfsTree) -> R,
) -> (Vec<R>, Metrics) {
    let mut total = Metrics::default();
    let results = forest
        .trees
        .iter()
        .enumerate()
        .map(|(c, tree)| {
            let mut net = Network::with_default_cap(g, 64);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Forest depths equal BFS distances from the component minimum.
    #[test]
    fn forest_depths_are_distances(n in 1usize..40, p in 0.0f64..0.3, seed in any::<u64>()) {
        let g = generators::gnp(n, p, seed);
        let mut net = Network::with_default_cap(&g, 64);
        let forest = build_bfs_forest(&mut net);
        for tree in &forest.trees {
            let dist = metrics::bfs(&g, tree.root);
            for v in 0..n {
                if forest.component[v] == forest.component[tree.root] {
                    prop_assert_eq!(tree.depth[v], dist[v]);
                }
            }
        }
    }

    /// The charged forest aggregation Lemma 2.6 runs (width 1,
    /// integer-valued `f64`) equals the stepped converge-cast tree by tree
    /// on arbitrary, mostly disconnected graphs: per-tree sums, rounds the
    /// maximum over trees, messages and bits the sum.
    #[test]
    fn charged_equals_stepped(n in 1usize..40, p in 0.0f64..0.3, seed in any::<u64>()) {
        let g = generators::gnp(n, p, seed);
        let forest = build_bfs_forest(&mut Network::with_default_cap(&g, 64));
        let values: Vec<f64> = (0..n as u64).map(|v| (v * 31 % 97) as f64).collect();
        let (stepped, cost) = stepped_per_tree(&g, &forest, |net, _, tree| {
            convergecast_stepped(net, tree, &values, |x, y| x + y)
        });
        let mut net = Network::with_default_cap(&g, 64);
        let vectors: Vec<Vec<f64>> = values.iter().map(|&x| vec![x]).collect();
        let sums = aggregate_vec_forest_charged(&mut net, &forest, &vectors, 1);
        prop_assert_eq!(sums, stepped.into_iter().map(|x| vec![x]).collect::<Vec<_>>());
        prop_assert_eq!(net.metrics(), cost);
    }

    /// The charged forest broadcast equals the stepped broadcast tree by
    /// tree: every node receives its own tree's value, at the same combined
    /// cost.
    #[test]
    fn charged_broadcast_equals_stepped(n in 1usize..40, p in 0.0f64..0.3, seed in any::<u64>()) {
        let g = generators::gnp(n, p, seed);
        let forest = build_bfs_forest(&mut Network::with_default_cap(&g, 64));
        let per_tree: Vec<u64> = (0..forest.trees.len() as u64).map(|c| c * 7 + 1).collect();
        let (stepped, cost) = stepped_per_tree(&g, &forest, |net, c, tree| {
            broadcast_stepped(net, tree, per_tree[c])
        });
        let mut net = Network::with_default_cap(&g, 64);
        let out = broadcast_forest_charged(&mut net, &forest, &per_tree);
        for v in 0..n {
            prop_assert_eq!(stepped[forest.component[v]][v], Some(out[v]));
        }
        prop_assert_eq!(net.metrics(), cost);
    }

    /// Metrics are additive: messages and bits only grow.
    #[test]
    fn metrics_monotone(n in 2usize..25, p in 0.05f64..0.5, seed in any::<u64>()) {
        let g = generators::gnp(n, p, seed);
        let mut net = Network::with_default_cap(&g, 64);
        let mut last = net.metrics();
        for round in 0..5u32 {
            let _ = net.broadcast_round(|v| if v as u32 % 2 == round % 2 { Some(v as u64) } else { None });
            let now = net.metrics();
            prop_assert!(now.rounds > last.rounds);
            prop_assert!(now.messages >= last.messages);
            prop_assert!(now.bits >= last.bits);
            last = now;
        }
    }
}
