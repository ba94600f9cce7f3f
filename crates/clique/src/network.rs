//! CONGESTED CLIQUE simulator.
//!
//! Each round, every node may send one `O(log n)`-bit message to *every*
//! other node (unicast: different messages to different peers). The
//! simulator enforces per-node send budgets and meters rounds, messages and
//! bits. Bulk data movement uses [`CliqueNetwork::lenzen_route`], the
//! cost-model form of Lenzen's deterministic routing theorem \[Len13\]: any
//! instance where every node sends and receives at most `n` messages is
//! delivered in `O(1)` (charged: 2) rounds.
//!
//! The runtime — the round loop, duplicate-recipient validation, cap
//! enforcement, cost metering — lives in [`dcl_sim`]; this module is the
//! clique *policy*: all-pairs unicast ([`AllPairsTopology`]), the two-word
//! default cap, and the Lenzen-routing cost model.

use dcl_par::{Backend, Pool};
use dcl_sim::wire::Wire;
use dcl_sim::{
    AllPairsTopology, BandwidthCap, RoundEngine, SendPolicy, Topology, TransportSpec,
    TransportStats,
};

/// Cost counters of a [`CliqueNetwork`] (the shared
/// [`dcl_sim::SimMetrics`]).
pub use dcl_sim::SimMetrics as CliqueMetrics;

/// A congested clique on `n` nodes.
///
/// # Examples
///
/// ```
/// use dcl_clique::network::CliqueNetwork;
///
/// let mut net = CliqueNetwork::new(4, 64);
/// // Node 0 sends its id to everyone else.
/// let inboxes = net.round(|v| if v == 0 { vec![(1, 7u32), (2, 7), (3, 7)] } else { vec![] });
/// assert_eq!(inboxes[3], vec![(0, 7)]);
/// assert_eq!(net.metrics().rounds, 1);
/// ```
#[derive(Debug)]
pub struct CliqueNetwork {
    topo: AllPairsTopology,
    cap: BandwidthCap,
    metrics: CliqueMetrics,
    engine: RoundEngine,
}

/// Per-node inboxes: `(sender, payload)` pairs.
pub type Inboxes<M> = Vec<Vec<(usize, M)>>;

impl CliqueNetwork {
    /// Creates a clique of `n` nodes with a per-message cap in bits.
    ///
    /// # Panics
    ///
    /// Panics if `cap_bits == 0`.
    pub fn new(n: usize, cap_bits: u32) -> Self {
        CliqueNetwork::with_cap(n, BandwidthCap::new(cap_bits))
    }

    /// Creates a clique of `n` nodes with an explicit [`BandwidthCap`].
    pub fn with_cap(n: usize, cap: BandwidthCap) -> Self {
        CliqueNetwork {
            topo: AllPairsTopology::new(n),
            cap,
            metrics: CliqueMetrics::default(),
            engine: RoundEngine::new(Backend::Sequential, TransportSpec::Local),
        }
    }

    /// Creates a clique with the default cap (two 64-bit words, covering
    /// `O(log n)`-bit ids and colors plus a word-sized value).
    pub fn with_default_cap(n: usize) -> Self {
        CliqueNetwork::with_cap(n, BandwidthCap::two_words())
    }

    /// Creates a clique from an [`dcl_sim::ExecConfig`]: the config's cap
    /// override if set, else the two-word default; the config's backend and
    /// transport tier, fixed for the clique's life. Results are
    /// bit-identical across backends and tiers. Charged collectives
    /// ([`CliqueNetwork::lenzen_route`]) deliver centrally on every tier:
    /// they are cost-model shortcuts, not stepped rounds.
    pub fn from_exec(n: usize, exec: &dcl_sim::ExecConfig) -> Self {
        CliqueNetwork {
            engine: RoundEngine::new(exec.backend, exec.transport),
            ..CliqueNetwork::with_cap(n, exec.cap_or(BandwidthCap::two_words()))
        }
    }

    /// Physical-layer counters of the built transport (`None` on the
    /// in-memory reference tier, which never serializes).
    pub fn transport_stats(&self) -> Option<&TransportStats> {
        self.engine.transport_stats()
    }

    /// The worker pool of a parallel backend (`None` under
    /// [`Backend::Sequential`]). The coloring driver uses it to evaluate
    /// seed-segment candidates in parallel — work every node performs
    /// simultaneously in the real clique.
    pub fn pool(&self) -> Option<&Pool> {
        self.engine.pool()
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.topo.len()
    }

    /// The per-message bandwidth cap.
    pub fn cap(&self) -> BandwidthCap {
        self.cap
    }

    /// Accumulated cost counters.
    pub fn metrics(&self) -> CliqueMetrics {
        self.metrics
    }

    /// Rounds elapsed.
    pub fn rounds(&self) -> u64 {
        self.metrics.rounds
    }

    /// One synchronous round: `sender(v)` lists `(recipient, payload)`
    /// pairs — at most one message per ordered pair per round.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range recipients, self-messages, duplicate
    /// recipients, or oversized payloads. After a panic the metrics are
    /// unspecified.
    ///
    /// `sender` is called once per node, in node order, on the calling
    /// thread under every backend; messages merge into the inboxes in
    /// sender order.
    pub fn round<M, F>(&mut self, sender: F) -> Inboxes<M>
    where
        M: Wire,
        F: Fn(usize) -> Vec<(usize, M)>,
    {
        self.engine.message_round(
            &self.topo,
            self.cap,
            SendPolicy::Strict,
            &mut self.metrics,
            sender,
        )
    }

    /// Lenzen routing: delivers an arbitrary multiset of messages in a
    /// charged constant number of rounds (2 per fragment of the widest
    /// payload — 2 exactly at any cap that fits every payload), after
    /// verifying the theorem's precondition that every node sends at most
    /// `n` and receives at most `n` messages. Payloads wider than the cap
    /// fragment into `⌈bits / cap⌉` cap-sized messages, which is what keeps
    /// the routing runnable under swept caps.
    ///
    /// # Panics
    ///
    /// Panics if a send or receive budget is exceeded or an endpoint is out
    /// of range.
    pub fn lenzen_route<M>(&mut self, messages: Vec<(usize, usize, M)>) -> Inboxes<M>
    where
        M: Wire,
    {
        let n = self.n();
        let mut sent = vec![0usize; n];
        let mut received = vec![0usize; n];
        let mut inboxes: Inboxes<M> = (0..n).map(|_| Vec::new()).collect();
        let mut max_fragments = 1u32;
        for (src, dst, msg) in messages {
            assert!(src < n && dst < n, "endpoint out of range");
            sent[src] += 1;
            received[dst] += 1;
            assert!(sent[src] <= n, "node {src} exceeds the Lenzen send budget");
            assert!(
                received[dst] <= n,
                "node {dst} exceeds the Lenzen receive budget"
            );
            max_fragments =
                max_fragments.max(self.metrics.account_fragmented(self.cap, msg.wire_bits()));
            inboxes[dst].push((src, msg));
        }
        self.metrics.rounds += 2 * u64::from(max_fragments);
        inboxes
    }

    /// Charges `rounds` rounds without traffic (for schedule steps whose
    /// cost is a closed formula).
    pub fn charge_rounds(&mut self, rounds: u64) {
        self.metrics.rounds += rounds;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_unicast_delivery() {
        let mut net = CliqueNetwork::with_default_cap(3);
        let inboxes = net.round(|v| match v {
            0 => vec![(1, 10u32), (2, 20u32)],
            1 => vec![(2, 30u32)],
            _ => vec![],
        });
        assert_eq!(inboxes[1], vec![(0, 10)]);
        let mut got = inboxes[2].clone();
        got.sort_unstable();
        assert_eq!(got, vec![(0, 20), (1, 30)]);
        assert_eq!(net.metrics().messages, 3);
    }

    #[test]
    #[should_panic(expected = "to itself")]
    fn self_message_panics() {
        let mut net = CliqueNetwork::with_default_cap(2);
        let _ = net.round(|v| if v == 0 { vec![(0, 1u32)] } else { vec![] });
    }

    #[test]
    #[should_panic(expected = "two messages")]
    fn duplicate_recipient_panics() {
        let mut net = CliqueNetwork::with_default_cap(2);
        let _ = net.round(|v| {
            if v == 0 {
                vec![(1, 1u32), (1, 2u32)]
            } else {
                vec![]
            }
        });
    }

    #[test]
    #[should_panic(expected = "exceeds clique cap")]
    fn oversized_message_panics() {
        let mut net = CliqueNetwork::new(2, 4);
        let _ = net.round(|v| if v == 0 { vec![(1, 255u32)] } else { vec![] });
    }

    #[test]
    fn round_runs_a_non_sync_sender_once_per_node_in_order() {
        // `Cell` is not `Sync`: rounds accept it because the senders run on
        // the calling thread, even when the backend sizes a pool.
        let exec = dcl_sim::ExecConfig::default().with_backend(Backend::Parallel(2));
        let mut net = CliqueNetwork::from_exec(40, &exec);
        let calls = std::cell::Cell::new(0usize);
        let inboxes = net.round(|v| {
            assert_eq!(calls.get(), v, "senders run in node order");
            calls.set(v + 1);
            vec![((v + 1) % 40, v as u32)]
        });
        assert_eq!(calls.get(), 40);
        assert_eq!(inboxes[0], vec![(39, 39)]);
        assert_eq!(net.metrics().messages, 40);
    }

    #[test]
    fn lenzen_routing_charges_two_rounds() {
        let mut net = CliqueNetwork::with_default_cap(4);
        let msgs = vec![(0, 1, 5u32), (0, 2, 6u32), (3, 1, 7u32)];
        let inboxes = net.lenzen_route(msgs);
        assert_eq!(net.metrics().rounds, 2);
        assert_eq!(inboxes[1].len(), 2);
        assert_eq!(inboxes[2], vec![(0, 6)]);
    }

    #[test]
    fn lenzen_routing_stretches_with_fragments_at_small_caps() {
        let mut net = CliqueNetwork::new(4, 4);
        // An 8-bit payload at a 4-bit cap: 2 fragments → 4 charged rounds.
        let inboxes = net.lenzen_route(vec![(0, 1, 255u32), (2, 3, 1u32)]);
        assert_eq!(net.metrics().rounds, 4);
        assert_eq!(net.metrics().messages, 3);
        assert_eq!(net.metrics().bits, 9);
        assert_eq!(inboxes[1], vec![(0, 255)]);
    }

    #[test]
    fn lenzen_budget_allows_n_messages_per_node() {
        let mut net = CliqueNetwork::with_default_cap(3);
        // Node 0 sends 3 = n messages (to nodes 1 and 2, one duplicate pair).
        let msgs = vec![(0, 1, 1u32), (0, 1, 2u32), (0, 2, 3u32)];
        let inboxes = net.lenzen_route(msgs);
        assert_eq!(inboxes[1].len(), 2);
    }

    #[test]
    fn tcp_matches_the_local_reference_bit_for_bit() {
        let sender = |v: usize| -> Vec<(usize, u64)> {
            (0..16usize)
                .filter(|&u| u != v && (u + v).is_multiple_of(3))
                .map(|u| (u, (v * 100 + u) as u64))
                .collect()
        };
        let mut reference = CliqueNetwork::with_default_cap(16);
        let rounds_ref = [reference.round(sender), reference.round(sender)];
        let exec = dcl_sim::ExecConfig::default().with_transport(TransportSpec::Tcp);
        let mut net = CliqueNetwork::from_exec(16, &exec);
        assert_eq!(rounds_ref[0], net.round(sender));
        assert_eq!(rounds_ref[1], net.round(sender));
        assert_eq!(reference.metrics(), net.metrics());
        // Lenzen routing is a charged collective: central delivery, no
        // transport frames.
        let frames_before = net.transport_stats().map_or(0, |s| s.frames);
        let _ = net.lenzen_route(vec![(0, 1, 5u32), (3, 2, 6u32)]);
        assert_eq!(net.transport_stats().map_or(0, |s| s.frames), frames_before);
    }

    #[test]
    #[should_panic(expected = "send budget")]
    fn lenzen_send_budget_enforced() {
        let mut net = CliqueNetwork::with_default_cap(2);
        let msgs = vec![(0, 1, 1u32), (0, 1, 2u32), (0, 1, 3u32)];
        let _ = net.lenzen_route(msgs);
    }
}
