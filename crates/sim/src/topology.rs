//! CONGEST addressing: who may send to whom in one round.
//!
//! Messages travel along graph edges only. [`NeighborTopology`] validates a
//! single `(sender, recipient)` pair and exposes the scratch geometry of the
//! stamp-mark duplicate-send check (see `DESIGN.md` §5.3), so the round
//! engine ([`crate::engine::RoundEngine`]) owns everything else — the round
//! loop, duplicate-send marking, cap enforcement, metrics — once.

use crate::cap::BandwidthCap;
use crate::metrics::SimMetrics;
use crate::wire::Wire;
use dcl_graphs::Graph;

/// Model name in CONGEST's cap-violation panics and transport limits.
pub(crate) const MODEL: &str = "CONGEST";

/// Neighbor-only delivery over a graph. The mark slot of a message is the
/// recipient's position in the sender's sorted adjacency list (one binary
/// search per message).
#[derive(Debug, Clone, Copy)]
pub struct NeighborTopology<'g> {
    graph: &'g Graph,
    /// Cached Δ of `graph` (scratch sizing for the duplicate-edge marks).
    max_deg: usize,
}

impl<'g> NeighborTopology<'g> {
    /// Wraps a graph as a neighbor-only delivery policy.
    pub fn new(graph: &'g Graph) -> Self {
        NeighborTopology {
            graph,
            max_deg: graph.max_degree(),
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// Length of the duplicate-send mark scratch: Δ, one slot per
    /// adjacency position.
    #[must_use]
    pub fn marks_len(&self) -> usize {
        self.max_deg
    }

    /// Validates that `u` may address `v` this round and returns the mark
    /// slot for the duplicate-send check: `v`'s position in `u`'s sorted
    /// adjacency.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a neighbor of `u`. Violations are simulation
    /// bugs, never silently tolerated.
    #[must_use]
    pub fn route(&self, u: usize, v: usize) -> usize {
        self.graph
            .neighbors(u)
            .binary_search(&v)
            .unwrap_or_else(|_| panic!("node {u} attempted to send to non-neighbor {v}"))
    }
}

/// Validates one node's outgoing messages for a message round and accounts
/// them into `metrics`. Returns the largest fragment count among the
/// messages (always 1 under [`SendPolicy::Strict`](crate::SendPolicy)).
///
/// The duplicate check stamps `marks[topo.route(u, v)]` with the sender id —
/// slots written by other senders hold a different id, so the scratch needs
/// no clearing between senders (see `DESIGN.md` §5.3).
pub(crate) fn validate_sends<M: Wire>(
    topo: &NeighborTopology<'_>,
    cap: BandwidthCap,
    policy: crate::engine::SendPolicy,
    u: usize,
    msgs: &[(usize, M)],
    marks: &mut [usize],
    metrics: &mut SimMetrics,
) -> u32 {
    let mut max_fragments = 1u32;
    for (v, msg) in msgs {
        let slot = topo.route(u, *v);
        assert!(
            marks[slot] != u,
            "node {u} sent two messages to {v} in one round"
        );
        marks[slot] = u;
        let bits = msg.wire_bits();
        match policy {
            crate::engine::SendPolicy::Strict => metrics.account(cap, bits, MODEL),
            crate::engine::SendPolicy::Fragment => {
                max_fragments = max_fragments.max(metrics.account_fragmented(cap, bits));
            }
        }
    }
    max_fragments
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcl_graphs::generators;

    #[test]
    fn neighbor_topology_routes_by_adjacency_position() {
        let g = generators::star(4);
        let topo = NeighborTopology::new(&g);
        assert_eq!(topo.marks_len(), 3);
        assert_eq!(topo.route(0, 2), 1); // neighbors of 0 are [1, 2, 3]
        assert_eq!(topo.route(3, 0), 0);
    }

    #[test]
    #[should_panic(expected = "non-neighbor")]
    fn neighbor_topology_rejects_non_edges() {
        let g = generators::path(3);
        let _ = NeighborTopology::new(&g).route(0, 2);
    }

    #[test]
    #[should_panic(expected = "node 1 attempted to send to non-neighbor 1")]
    fn neighbor_topology_rejects_self_sends() {
        let g = generators::complete(3);
        let _ = NeighborTopology::new(&g).route(1, 1);
    }

    #[test]
    fn edgeless_graphs_need_no_mark_scratch() {
        let g = Graph::empty(5);
        let topo = NeighborTopology::new(&g);
        assert_eq!(topo.marks_len(), 0);
        assert_eq!(topo.graph().n(), 5);
    }
}
