//! Observation 4.1: reducing `(Δ+1)`-coloring to `(degree+1)`-list coloring
//! *inside the MPC model*.
//!
//! Given only the edge set (no lists), each machine storing a directed edge
//! `(u, v)` learns `v`'s rank `i` among `u`'s neighbors (Corollary 5.2) and
//! writes the list entry `(u, i)`; the machine storing `u`'s last edge also
//! writes `(u, deg(u))` — producing the list `L(u) = {0, …, deg(u)} ⊆
//! [Δ+1]` in `O(1)` rounds. Isolated nodes contribute `(u, 0)` directly.

use crate::machine::Mpc;
use crate::tools::{self, Dist};

/// Builds `(degree+1)` list entries `(node, color)` from a distributed edge
/// set via within-set ranks (Observation 4.1). `edges` holds directed pairs
/// `(u, v)`; both directions must be present. Returns the list entries,
/// distributed (in sorted order, as produced by the rank computation).
pub fn lists_from_edges(mpc: &mut Mpc, edges: &Dist<(u64, u64)>) -> Dist<(u64, u64)> {
    // Rank of v within u's neighbor set (values distinct per set since the
    // graph is simple).
    let ranked = tools::ranks(mpc, edges);
    // Each edge machine writes (u, rank); the machine holding u's last edge
    // (rank = deg-1, detectable as the maximal rank: it is the last entry
    // of the u-run in the sorted order) additionally writes (u, deg).
    let mut out: Dist<(u64, u64)> = vec![Vec::new(); ranked.len()];
    // Determine run ends: an entry is the last of its node's run iff the
    // next entry (possibly on the next machine) has a different node. One
    // round of boundary exchange suffices; we read the sorted structure
    // directly and charge that round.
    mpc.charge_rounds(1);
    let flat: Vec<((u64, u64), u64)> = ranked.iter().flatten().copied().collect();
    for (i, block) in ranked.iter().enumerate() {
        for &((u, _v), rank) in block {
            out[i].push((u, rank));
        }
    }
    for (idx, &((u, _), rank)) in flat.iter().enumerate() {
        let is_last = match flat.get(idx + 1) {
            Some(&((u2, _), _)) => u2 != u,
            None => true,
        };
        if is_last {
            // Attribute the extra entry to the machine holding that edge.
            let mut seen = 0usize;
            for (i, block) in ranked.iter().enumerate() {
                if idx < seen + block.len() {
                    out[i].push((u, rank + 1));
                    break;
                }
                seen += block.len();
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcl_graphs::{generators, Graph};

    /// Builds the same lists centrally from a [`Graph`] (the oracle for
    /// [`lists_from_edges`]).
    fn reference_lists(g: &Graph) -> Vec<Vec<u64>> {
        g.nodes()
            .map(|v| (0..=g.degree(v) as u64).collect())
            .collect()
    }

    #[test]
    fn distributed_lists_match_reference() {
        for seed in 0..4 {
            let g = generators::gnp(24, 0.2, seed);
            let mut edges: Vec<(u64, u64)> = Vec::new();
            for (u, v) in g.edges() {
                edges.push((u as u64, v as u64));
                edges.push((v as u64, u as u64));
            }
            let machines = 5;
            let mut mpc = Mpc::new(machines, 128);
            let dist = tools::scatter(machines, &edges);
            let result = lists_from_edges(&mut mpc, &dist);
            // Collect per-node lists.
            let mut lists: Vec<Vec<u64>> = vec![Vec::new(); 24];
            for block in &result {
                for &(u, c) in block {
                    lists[u as usize].push(c);
                }
            }
            for list in &mut lists {
                list.sort_unstable();
            }
            let expected = reference_lists(&g);
            for v in g.nodes() {
                if g.degree(v) > 0 {
                    assert_eq!(lists[v], expected[v], "seed {seed} node {v}");
                }
            }
        }
    }

    #[test]
    fn empty_edge_set_yields_no_entries() {
        let mut mpc = Mpc::new(3, 32);
        let dist: Dist<(u64, u64)> = vec![Vec::new(); 3];
        let result = lists_from_edges(&mut mpc, &dist);
        assert!(result.iter().all(Vec::is_empty));
    }

    #[test]
    fn star_center_gets_full_palette() {
        let g = generators::star(6);
        let mut edges: Vec<(u64, u64)> = Vec::new();
        for (u, v) in g.edges() {
            edges.push((u as u64, v as u64));
            edges.push((v as u64, u as u64));
        }
        let mut mpc = Mpc::new(4, 64);
        let result = lists_from_edges(&mut mpc, &tools::scatter(4, &edges));
        let center: Vec<u64> = result
            .iter()
            .flatten()
            .filter(|&&(u, _)| u == 0)
            .map(|&(_, c)| c)
            .collect();
        let mut sorted = center;
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4, 5]);
    }
}
