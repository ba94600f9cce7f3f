//! Delivery-policy trait: who may send to whom in one round.
//!
//! Each simulated model is, from the runtime's point of view, just an
//! addressing discipline: CONGEST delivers along graph edges only, the
//! CONGESTED CLIQUE unicasts between arbitrary distinct pairs, MPC addresses
//! machines with volume budgets instead of per-pair constraints. The
//! [`Topology`] trait captures exactly that discipline so the round engine
//! ([`crate::engine::RoundEngine`]) can own everything else — the round
//! loop, duplicate-send marking, cap enforcement, metrics — once.

use crate::cap::BandwidthCap;
use crate::metrics::SimMetrics;
use crate::wire::Wire;
use dcl_graphs::Graph;

/// Addressing discipline of a simulated model.
///
/// Implementations validate a single `(sender, recipient)` pair and expose
/// the scratch geometry for the stamp-mark duplicate-send check (see
/// `DESIGN.md` §5.3): [`route`](Topology::route) returns a *mark slot* — an
/// index into a scratch array of [`marks_len`](Topology::marks_len) entries —
/// and the engine stamps the slot with the sender id, so sending twice over
/// the same (sender, slot) pair in one round is caught in `O(1)`–`O(log
/// deg)` per message with no per-sender clearing.
///
/// # Adding a new model
///
/// A new communication model plugs into the shared runtime by implementing
/// this trait and delegating its round loop to the engine. A hypothetical
/// *broadcast-tree* model in which node 0 may message everyone and everyone
/// may message node 0:
///
/// ```
/// use dcl_sim::{BandwidthCap, RoundEngine, SendPolicy, SimMetrics, Topology, TransportSpec};
/// use dcl_par::Backend;
///
/// struct StarTopology {
///     n: usize,
/// }
///
/// impl Topology for StarTopology {
///     fn len(&self) -> usize {
///         self.n
///     }
///     fn marks_len(&self) -> usize {
///         self.n // one duplicate-mark slot per possible recipient
///     }
///     fn route(&self, u: usize, v: usize) -> usize {
///         assert!(v < self.n, "recipient {v} out of range");
///         assert!(u == 0 || v == 0, "node {u} may only talk to the hub");
///         v
///     }
///     fn model(&self) -> &'static str {
///         "star"
///     }
/// }
///
/// // The model's simulator is now ~20 lines: hold an engine + metrics and
/// // forward rounds.
/// let topo = StarTopology { n: 5 };
/// let mut engine = RoundEngine::new(Backend::Sequential, TransportSpec::Local);
/// let mut metrics = SimMetrics::default();
/// let inboxes = engine.message_round(
///     &topo,
///     BandwidthCap::two_words(),
///     SendPolicy::Strict,
///     &mut metrics,
///     |v| if v == 0 { vec![(3usize, 9u32)] } else { vec![] },
/// );
/// assert_eq!(inboxes[3], vec![(0, 9u32)]);
/// assert_eq!(metrics.rounds, 1);
/// ```
pub trait Topology {
    /// Number of endpoints (nodes or machines) in the model.
    fn len(&self) -> usize;

    /// Whether the model has no endpoints.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Length of the duplicate-send mark scratch. `0` disables
    /// the duplicate check (models that allow repeated sends per pair).
    fn marks_len(&self) -> usize;

    /// Validates that `u` may address `v` this round and returns the mark
    /// slot for the duplicate-send check (ignored when
    /// [`marks_len`](Topology::marks_len) is 0).
    ///
    /// # Panics
    ///
    /// Panics on a model violation (wrong recipient for this topology).
    /// Violations are simulation bugs, never silently tolerated.
    fn route(&self, u: usize, v: usize) -> usize;

    /// Model name used in cap-violation panic messages ("CONGEST",
    /// "clique", …).
    fn model(&self) -> &'static str;
}

/// CONGEST addressing: messages travel along graph edges only. The mark
/// slot is the recipient's position in the sender's sorted adjacency list
/// (one binary search per message).
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
}

impl Topology for NeighborTopology<'_> {
    fn len(&self) -> usize {
        self.graph.n()
    }

    fn marks_len(&self) -> usize {
        self.max_deg
    }

    fn route(&self, u: usize, v: usize) -> usize {
        self.graph
            .neighbors(u)
            .binary_search(&v)
            .unwrap_or_else(|_| panic!("node {u} attempted to send to non-neighbor {v}"))
    }

    fn model(&self) -> &'static str {
        "CONGEST"
    }
}

/// CONGESTED CLIQUE addressing: every ordered pair of *distinct* nodes may
/// exchange one message per round. The mark slot is the recipient id.
#[derive(Debug, Clone, Copy)]
pub struct AllPairsTopology {
    n: usize,
}

impl AllPairsTopology {
    /// An all-pairs unicast policy over `n` nodes.
    #[must_use]
    pub fn new(n: usize) -> Self {
        AllPairsTopology { n }
    }
}

impl Topology for AllPairsTopology {
    fn len(&self) -> usize {
        self.n
    }

    fn marks_len(&self) -> usize {
        self.n
    }

    fn route(&self, u: usize, v: usize) -> usize {
        assert!(v < self.n, "recipient {v} out of range");
        assert_ne!(u, v, "node {u} sent a message to itself");
        v
    }

    fn model(&self) -> &'static str {
        "clique"
    }
}

/// MPC addressing: any machine may message any machine, repeatedly — the
/// model bounds per-machine send/receive *volume*, not pair multiplicity, so
/// the duplicate check is disabled and the volume budgets are enforced by
/// the model's merge step (`dcl_mpc::Mpc::round`).
#[derive(Debug, Clone, Copy)]
pub struct MachineTopology {
    machines: usize,
}

impl MachineTopology {
    /// A machine-addressed policy over `machines` machines.
    #[must_use]
    pub fn new(machines: usize) -> Self {
        MachineTopology { machines }
    }
}

impl Topology for MachineTopology {
    fn len(&self) -> usize {
        self.machines
    }

    fn marks_len(&self) -> usize {
        0
    }

    fn route(&self, _u: usize, v: usize) -> usize {
        assert!(v < self.machines, "machine {v} out of range");
        0
    }

    fn model(&self) -> &'static str {
        "MPC"
    }
}

/// Validates one node's outgoing messages for a message round and accounts
/// them into `metrics`. Returns the largest fragment count among the
/// messages (always 1 under [`SendPolicy::Strict`]).
///
/// The duplicate check stamps `marks[topo.route(u, v)]` with the sender id —
/// slots written by other senders hold a different id, so the scratch needs
/// no clearing between senders (see `DESIGN.md` §5.3).
pub(crate) fn validate_sends<M: Wire, T: Topology + ?Sized>(
    topo: &T,
    cap: BandwidthCap,
    policy: crate::engine::SendPolicy,
    u: usize,
    msgs: &[(usize, M)],
    marks: &mut [usize],
    metrics: &mut SimMetrics,
) -> u32 {
    let dedup = !marks.is_empty();
    let mut max_fragments = 1u32;
    for (v, msg) in msgs {
        let slot = topo.route(u, *v);
        if dedup {
            assert!(
                marks[slot] != u,
                "node {u} sent two messages to {v} in one round"
            );
            marks[slot] = u;
        }
        let bits = msg.wire_bits();
        match policy {
            crate::engine::SendPolicy::Strict => metrics.account(cap, bits, topo.model()),
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
        assert_eq!(topo.len(), 4);
        assert_eq!(topo.marks_len(), 3);
        assert_eq!(topo.route(0, 2), 1); // neighbors of 0 are [1, 2, 3]
        assert_eq!(topo.route(3, 0), 0);
        assert_eq!(topo.model(), "CONGEST");
    }

    #[test]
    #[should_panic(expected = "non-neighbor")]
    fn neighbor_topology_rejects_non_edges() {
        let g = generators::path(3);
        NeighborTopology::new(&g).route(0, 2);
    }

    #[test]
    fn all_pairs_topology_routes_by_recipient() {
        let topo = AllPairsTopology::new(5);
        assert_eq!(topo.route(1, 4), 4);
        assert_eq!(topo.marks_len(), 5);
        assert_eq!(topo.model(), "clique");
    }

    #[test]
    #[should_panic(expected = "to itself")]
    fn all_pairs_topology_rejects_self_sends() {
        AllPairsTopology::new(3).route(2, 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn all_pairs_topology_rejects_out_of_range() {
        AllPairsTopology::new(3).route(0, 3);
    }

    #[test]
    fn machine_topology_allows_repeats() {
        let topo = MachineTopology::new(4);
        assert_eq!(topo.marks_len(), 0, "volume-budgeted models skip dedup");
        assert_eq!(topo.route(0, 3), 0);
        assert_eq!(topo.route(0, 3), 0);
    }

    #[test]
    #[should_panic(expected = "machine 9 out of range")]
    fn machine_topology_rejects_out_of_range() {
        MachineTopology::new(4).route(0, 9);
    }
}
