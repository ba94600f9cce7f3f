//! Synchronous message-passing network with bandwidth enforcement.
//!
//! The runtime — the round loop, duplicate-send validation, cap
//! enforcement, cost metering — lives in [`dcl_sim`]; this module is the
//! CONGEST *policy*: neighbor-only delivery ([`NeighborTopology`]), the
//! paper's default cap formula, and the charged-traffic entry points the
//! tree collectives use.

use crate::wire::Wire;
use dcl_graphs::{Graph, NodeId};
use dcl_par::{Backend, Pool};
use dcl_sim::{
    BandwidthCap, ExecConfig, NeighborTopology, RoundEngine, SendPolicy, TransportSpec,
    TransportStats,
};

/// Cost counters accumulated by a [`Network`] (the shared
/// [`dcl_sim::SimMetrics`]).
pub use dcl_sim::SimMetrics as Metrics;

pub use dcl_sim::Inboxes;

/// A CONGEST network over a graph.
///
/// All communication APIs assert the model's constraints: messages travel
/// only along edges, and each message is at most [`Network::cap_bits`] bits
/// wide. Violations are simulation bugs and panic. Algorithm drivers that
/// must run under *swept* (small) caps use the `fragmented_*` round
/// variants, which split oversized payloads into cap-sized physical
/// messages and stretch the round accordingly — at a cap that fits every
/// payload they cost exactly the same as the strict rounds.
///
/// # Examples
///
/// ```
/// use dcl_graphs::generators;
/// use dcl_congest::network::Network;
///
/// let g = generators::path(3);
/// let mut net = Network::with_default_cap(&g, 4);
/// // Node 0 sends its id to node 1.
/// let inboxes = net.round(|v| if v == 0 { vec![(1, 0u32)] } else { vec![] });
/// assert_eq!(inboxes[1], vec![(0, 0u32)]);
/// assert_eq!(net.metrics().messages, 1);
/// ```
#[derive(Debug)]
pub struct Network<'g> {
    topo: NeighborTopology<'g>,
    cap: BandwidthCap,
    metrics: Metrics,
    engine: RoundEngine,
}

impl<'g> Network<'g> {
    /// Creates a network with an explicit per-message cap in bits.
    ///
    /// # Panics
    ///
    /// Panics if `cap_bits == 0`.
    pub fn new(graph: &'g Graph, cap_bits: u32) -> Self {
        Network::with_cap(graph, BandwidthCap::new(cap_bits))
    }

    /// Creates a network with an explicit [`BandwidthCap`].
    pub fn with_cap(graph: &'g Graph, cap: BandwidthCap) -> Self {
        Network {
            topo: NeighborTopology::new(graph),
            cap,
            metrics: Metrics::default(),
            engine: RoundEngine::new(Backend::Sequential, TransportSpec::Local),
        }
    }

    /// Creates a network with the workspace's default CONGEST cap:
    /// `2 · max(64, ⌈log₂ n⌉, ⌈log₂ color_space⌉)` bits — i.e. two machine
    /// words of `O(log max(n, C))` bits, matching the paper's assumption that
    /// each color fits in `O(1)` messages.
    pub fn with_default_cap(graph: &'g Graph, color_space: u64) -> Self {
        Network::with_cap(graph, BandwidthCap::default_for(graph.n(), color_space))
    }

    /// Creates a network from an [`ExecConfig`]: the config's cap override
    /// if set, else the default cap for `color_space`; the config's backend
    /// and transport tier, fixed for the network's life. Results are
    /// bit-identical across backends and tiers; only the drivers'
    /// wall-clock and the physical layer ([`Network::transport_stats`])
    /// change.
    pub fn from_exec(graph: &'g Graph, color_space: u64, exec: &ExecConfig) -> Self {
        let cap = exec.cap_or(BandwidthCap::default_for(graph.n(), color_space));
        Network {
            engine: RoundEngine::new(exec.backend, exec.transport),
            ..Network::with_cap(graph, cap)
        }
    }

    /// Physical-layer counters of the built transport (`None` on the
    /// in-memory reference tier, which never serializes).
    pub fn transport_stats(&self) -> Option<&TransportStats> {
        self.engine.transport_stats()
    }

    /// Fault injection for tests: tears down transport endpoint `v`, so
    /// subsequent rounds touching `v` raise a typed
    /// [`dcl_sim::TransportError`]. No-op on the in-memory reference tier.
    pub fn close_transport_endpoint(&mut self, v: usize) {
        let n = self.topo.graph().n();
        self.engine.close_transport_endpoint(n, v);
    }

    /// The worker pool of a parallel backend (`None` under
    /// [`Backend::Sequential`]). Algorithm drivers use it for *local*
    /// per-node computation between rounds — work that in the real
    /// distributed system every node performs simultaneously for free.
    pub fn pool(&self) -> Option<&Pool> {
        self.engine.pool()
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g Graph {
        self.topo.graph()
    }

    /// The per-message bandwidth cap in bits.
    pub fn cap_bits(&self) -> u32 {
        self.cap.bits()
    }

    /// The per-message bandwidth cap.
    pub fn cap(&self) -> BandwidthCap {
        self.cap
    }

    /// Accumulated cost counters.
    pub fn metrics(&self) -> Metrics {
        self.metrics
    }

    /// Number of rounds elapsed so far.
    pub fn rounds(&self) -> u64 {
        self.metrics.rounds
    }

    /// Runs one synchronous round. `sender(v)` returns the messages node `v`
    /// sends this round as `(neighbor, payload)` pairs.
    ///
    /// `sender` is called once per node, in node order, on the calling
    /// thread under every backend; messages merge into the inboxes in
    /// sender order.
    ///
    /// # Panics
    ///
    /// Panics if a message is addressed to a non-neighbor, if a node sends
    /// two messages over the same edge in one round, or if a payload exceeds
    /// the bandwidth cap. After a panic the network's metrics are
    /// unspecified.
    pub fn round<M, F>(&mut self, sender: F) -> Inboxes<M>
    where
        M: Wire,
        F: Fn(NodeId) -> Vec<(NodeId, M)>,
    {
        self.engine.message_round(
            &self.topo,
            self.cap,
            SendPolicy::Strict,
            &mut self.metrics,
            sender,
        )
    }

    /// [`Network::round`] for algorithm drivers running under swept caps:
    /// payloads wider than the cap are split into `⌈bits / cap⌉` physical
    /// messages, and the round stretches to the largest fragment count
    /// among its messages. At a cap that fits every payload this is exactly
    /// [`Network::round`].
    ///
    /// # Panics
    ///
    /// Panics on non-neighbor or duplicate-edge sends (never on payload
    /// width).
    pub fn fragmented_round<M, F>(&mut self, sender: F) -> Inboxes<M>
    where
        M: Wire,
        F: Fn(NodeId) -> Vec<(NodeId, M)>,
    {
        self.engine.message_round(
            &self.topo,
            self.cap,
            SendPolicy::Fragment,
            &mut self.metrics,
            sender,
        )
    }

    /// Convenience round: every node sends the *same* payload to all of its
    /// neighbors (or stays silent with `None`), evaluated like
    /// [`Network::round`].
    ///
    /// # Panics
    ///
    /// Panics if a payload exceeds the bandwidth cap.
    pub fn broadcast_round<M, F>(&mut self, f: F) -> Inboxes<M>
    where
        M: Wire + Clone,
        F: Fn(NodeId) -> Option<M>,
    {
        self.engine.broadcast_round(
            &self.topo,
            self.cap,
            SendPolicy::Strict,
            &mut self.metrics,
            f,
        )
    }

    /// [`Network::broadcast_round`] with fragmentation instead of the
    /// oversized-payload panic (see [`Network::fragmented_round`]).
    pub fn fragmented_broadcast_round<M, F>(&mut self, f: F) -> Inboxes<M>
    where
        M: Wire + Clone,
        F: Fn(NodeId) -> Option<M>,
    {
        self.engine.broadcast_round(
            &self.topo,
            self.cap,
            SendPolicy::Fragment,
            &mut self.metrics,
            f,
        )
    }

    /// Charges `rounds` additional synchronous rounds without message
    /// delivery. Used by charged (pipelined) collective operations whose
    /// round cost is a closed formula; the message/bit traffic must be
    /// charged separately via [`Network::charge_traffic`].
    pub fn charge_rounds(&mut self, rounds: u64) {
        self.metrics.rounds += rounds;
    }

    /// Charges `messages` messages of `bits_each` bits (each must respect the
    /// cap) without delivering anything.
    ///
    /// # Panics
    ///
    /// Panics if `bits_each` exceeds the bandwidth cap.
    pub fn charge_traffic(&mut self, messages: u64, bits_each: u32) {
        for _ in 0..messages {
            self.metrics.account(self.cap, bits_each, "CONGEST");
        }
    }

    /// Charges `count` logical payloads of `bits_each` bits, splitting each
    /// into cap-sized fragments when oversized. Returns the per-payload
    /// fragment count (the number of sub-rounds each payload occupies on
    /// its link); callers charge rounds accordingly. At a cap that fits the
    /// payload this equals [`Network::charge_traffic`] and returns 1.
    pub fn charge_payload_traffic(&mut self, count: u64, bits_each: u32) -> u32 {
        self.metrics
            .account_fragmented_many(self.cap, count, bits_each)
    }
}

/// The default CONGEST bandwidth cap for `n` nodes and color space `[C]`,
/// in bits (see [`BandwidthCap::default_for`]).
#[must_use]
pub fn default_cap(n: usize, color_space: u64) -> u32 {
    BandwidthCap::default_for(n, color_space).bits()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcl_graphs::generators;

    #[test]
    fn round_delivers_to_neighbors() {
        let g = generators::path(3);
        let mut net = Network::with_default_cap(&g, 2);
        let inboxes = net.round(|v| match v {
            0 => vec![(1, 10u32)],
            2 => vec![(1, 20u32)],
            _ => vec![],
        });
        let mut got = inboxes[1].clone();
        got.sort_unstable();
        assert_eq!(got, vec![(0, 10), (2, 20)]);
        assert_eq!(net.metrics().rounds, 1);
        assert_eq!(net.metrics().messages, 2);
    }

    #[test]
    #[should_panic(expected = "non-neighbor")]
    fn sending_to_non_neighbor_panics() {
        let g = generators::path(3);
        let mut net = Network::with_default_cap(&g, 2);
        let _ = net.round(|v| if v == 0 { vec![(2, 1u32)] } else { vec![] });
    }

    #[test]
    #[should_panic(expected = "two messages")]
    fn duplicate_edge_message_panics() {
        let g = generators::path(2);
        let mut net = Network::with_default_cap(&g, 2);
        let _ = net.round(|v| {
            if v == 0 {
                vec![(1, 1u32), (1, 2u32)]
            } else {
                vec![]
            }
        });
    }

    #[test]
    #[should_panic(expected = "exceeds CONGEST cap")]
    fn oversized_message_panics() {
        let g = generators::path(2);
        let mut net = Network::new(&g, 8);
        let _ = net.round(|v| {
            if v == 0 {
                vec![(1, 1u64 << 40)]
            } else {
                vec![]
            }
        });
    }

    #[test]
    fn fragmented_round_splits_instead_of_panicking() {
        let g = generators::path(2);
        let mut net = Network::new(&g, 8);
        // 41-bit payload at an 8-bit cap: 6 fragments.
        let inboxes = net.fragmented_round(|v| {
            if v == 0 {
                vec![(1, 1u64 << 40)]
            } else {
                vec![]
            }
        });
        assert_eq!(inboxes[1], vec![(0, 1u64 << 40)]);
        assert_eq!(net.metrics().rounds, 6);
        assert_eq!(net.metrics().messages, 6);
        assert_eq!(net.metrics().bits, 41);
        assert_eq!(net.metrics().max_message_bits, 8);
    }

    #[test]
    fn fragmented_round_equals_strict_round_at_the_default_cap() {
        let g = generators::gnp(30, 0.2, 5);
        let sender = |v: NodeId| -> Vec<(NodeId, u64)> {
            g.neighbors(v)
                .iter()
                .map(|&u| (u, (v * 31 + u) as u64))
                .collect()
        };
        let mut strict = Network::with_default_cap(&g, 31);
        let mut frag = Network::with_default_cap(&g, 31);
        assert_eq!(strict.round(sender), frag.fragmented_round(sender));
        let a = strict.broadcast_round(|v| (v % 2 == 0).then_some(v as u32));
        let b = frag.fragmented_broadcast_round(|v| (v % 2 == 0).then_some(v as u32));
        assert_eq!(a, b);
        assert_eq!(strict.metrics(), frag.metrics());
    }

    #[test]
    fn broadcast_round_reaches_all_neighbors() {
        let g = generators::star(5);
        let mut net = Network::with_default_cap(&g, 2);
        let inboxes = net.broadcast_round(|v| if v == 0 { Some(7u32) } else { None });
        for leaf in 1..5 {
            assert_eq!(inboxes[leaf], vec![(0, 7u32)]);
        }
        assert_eq!(net.metrics().messages, 4);
    }

    #[test]
    fn charge_rounds_and_traffic_accumulate() {
        let g = generators::path(2);
        let mut net = Network::new(&g, 64);
        net.charge_rounds(5);
        net.charge_traffic(3, 10);
        assert_eq!(net.metrics().rounds, 5);
        assert_eq!(net.metrics().messages, 3);
        assert_eq!(net.metrics().bits, 30);
        assert_eq!(net.metrics().max_message_bits, 10);
    }

    #[test]
    fn charge_payload_traffic_fragments_oversized_payloads() {
        let g = generators::path(2);
        let mut net = Network::new(&g, 8);
        assert_eq!(net.charge_payload_traffic(3, 20), 3);
        assert_eq!(net.metrics().messages, 9);
        assert_eq!(net.metrics().bits, 60);
        assert_eq!(net.metrics().max_message_bits, 8);
        // Fitting payloads behave exactly like charge_traffic.
        let mut a = Network::new(&g, 64);
        let mut b = Network::new(&g, 64);
        assert_eq!(a.charge_payload_traffic(4, 10), 1);
        b.charge_traffic(4, 10);
        assert_eq!(a.metrics(), b.metrics());
    }

    #[test]
    fn default_cap_is_two_words() {
        // For every u64-representable n and C the dominant term is the
        // 64-bit machine word, so the cap is two words.
        assert_eq!(default_cap(8, 8), 128);
        assert_eq!(default_cap(1 << 20, 1 << 40), 128);
        assert_eq!(default_cap(8, u64::MAX), 128);
    }

    #[test]
    fn from_exec_applies_cap_override_and_backend() {
        let g = generators::path(4);
        let net = Network::from_exec(&g, 100, &ExecConfig::default());
        assert_eq!(net.cap_bits(), 128);
        assert!(net.pool().is_none());
        let exec = ExecConfig::default()
            .with_backend(Backend::Parallel(2))
            .with_cap(BandwidthCap::new(9));
        let net = Network::from_exec(&g, 100, &exec);
        assert_eq!(net.cap_bits(), 9);
        assert_eq!(net.pool().map(Pool::threads), Some(2));
    }

    #[test]
    fn round_runs_a_non_sync_sender_once_per_node_in_order() {
        // `Cell` is not `Sync`: rounds accept it because the senders run on
        // the calling thread, even when the backend sizes a pool.
        let g = generators::gnp(90, 0.1, 5);
        let exec = ExecConfig::default().with_backend(Backend::Parallel(2));
        let mut net = Network::from_exec(&g, 91, &exec);
        let calls = std::cell::Cell::new(0usize);
        let inboxes = net.round(|v| {
            assert_eq!(calls.get(), v, "senders run in node order");
            calls.set(v + 1);
            g.neighbors(v)
                .iter()
                .map(|&u| (u, v as u32))
                .collect::<Vec<_>>()
        });
        assert_eq!(calls.get(), g.n());
        assert!(inboxes[0].iter().all(|&(u, m)| m == u as u32));
    }

    #[test]
    fn tcp_matches_the_local_reference_bit_for_bit() {
        let g = generators::gnp(24, 0.3, 9);
        let sender = |v: NodeId| -> Vec<(NodeId, u64)> {
            g.neighbors(v)
                .iter()
                .map(|&u| (u, (v * 1000 + u) as u64))
                .collect()
        };
        let mut reference = Network::from_exec(&g, 25, &ExecConfig::default());
        let rounds_ref = [reference.round(sender), reference.round(sender)];
        let broadcast_ref = reference.broadcast_round(|v| (v % 3 == 0).then_some(v as u32));
        let exec = ExecConfig::default().with_transport(TransportSpec::Tcp);
        let mut net = Network::from_exec(&g, 25, &exec);
        assert_eq!(rounds_ref[0], net.round(sender));
        assert_eq!(rounds_ref[1], net.round(sender));
        let b = net.broadcast_round(|v| (v % 3 == 0).then_some(v as u32));
        assert_eq!(broadcast_ref, b);
        assert_eq!(reference.metrics(), net.metrics());
        let stats = net
            .transport_stats()
            .expect("the socket tier meters traffic");
        assert_eq!(stats.frames, reference.metrics().messages);
        assert!(reference.transport_stats().is_none());
    }

    #[test]
    fn max_message_bits_tracked() {
        let g = generators::path(2);
        let mut net = Network::with_default_cap(&g, 2);
        let _ = net.round(|v| if v == 0 { vec![(1, 0b1011u32)] } else { vec![] });
        assert_eq!(net.metrics().max_message_bits, 4);
    }
}
