//! CONGESTED CLIQUE simulator.
//!
//! Each round, every node may send one `O(log n)`-bit message to *every*
//! other node (unicast: different messages to different peers). Bulk data
//! movement uses [`CliqueNetwork::lenzen_route`], the cost-model form of
//! Lenzen's deterministic routing theorem \[Len13\]: any instance where
//! every node sends and receives at most `n` messages is delivered in
//! `O(1)` (charged: 2) rounds. Every other step of the clique algorithms is
//! a charged formula ([`CliqueNetwork::charge_rounds`]).
//!
//! The runtime — cost metering, the transport tier — lives in [`dcl_sim`];
//! this module is the clique *policy*: the two-word default cap, the
//! Lenzen budgets and cost model, and delivery of the routed records over
//! the selected transport through [`dcl_sim::RoundEngine::ship`].

use dcl_par::{Backend, Pool};
use dcl_sim::wire::Wire;
use dcl_sim::{BandwidthCap, RoundEngine, SendPolicy, TransportSpec, TransportStats};

/// Cost counters of a [`CliqueNetwork`] (the shared
/// [`dcl_sim::SimMetrics`]).
pub use dcl_sim::SimMetrics as CliqueMetrics;

pub use dcl_sim::Inboxes;

/// A congested clique on `n` nodes.
///
/// # Examples
///
/// ```
/// use dcl_clique::network::CliqueNetwork;
///
/// let mut net = CliqueNetwork::new(4, 64);
/// // Nodes 0 and 3 route records to node 1; node 0 sends two.
/// let inboxes = net.lenzen_route(vec![(3, 1, 9u32), (0, 1, 7), (0, 1, 8)]);
/// assert_eq!(inboxes[1], vec![(0, 7), (0, 8), (3, 9)]);
/// assert_eq!(net.metrics().rounds, 2);
/// ```
#[derive(Debug)]
pub struct CliqueNetwork {
    n: usize,
    cap: BandwidthCap,
    metrics: CliqueMetrics,
    engine: RoundEngine,
}

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
            n,
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
    /// transport tier, fixed for the clique's life. Lenzen-routed records
    /// travel over that tier; results are bit-identical across backends and
    /// tiers.
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
        self.n
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

    /// Lenzen routing: delivers an arbitrary multiset of `(src, dst,
    /// payload)` records — repeated pairs and self-addressed records
    /// included — in a charged constant number of rounds (2 per fragment of
    /// the widest payload — 2 exactly at any cap that fits every payload),
    /// after verifying the theorem's precondition that every node sends at
    /// most `n` and receives at most `n` messages. Payloads wider than the
    /// cap fragment into `⌈bits / cap⌉` cap-sized messages, which is what
    /// keeps the routing runnable under swept caps.
    ///
    /// The records then travel over the clique's transport tier, grouped by
    /// sender: `inboxes[v]` lists `(sender, payload)` pairs in sender order,
    /// each sender's records in their input order.
    ///
    /// # Panics
    ///
    /// Panics if a send or receive budget is exceeded or an endpoint is out
    /// of range.
    pub fn lenzen_route<M>(&mut self, messages: Vec<(usize, usize, M)>) -> Inboxes<M>
    where
        M: Wire,
    {
        let n = self.n;
        let mut sent = vec![0usize; n];
        let mut received = vec![0usize; n];
        let mut max_fragments = 1u32;
        for &(src, dst, ref msg) in &messages {
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
        }
        self.metrics.rounds += 2 * u64::from(max_fragments);
        self.ship(messages)
    }

    /// Ships `(src, dst, payload)` records over the transport tier, grouped
    /// by sender, under the fragmenting policy at the clique's cap. Meters
    /// nothing into the [`CliqueMetrics`]: callers charge the delivery.
    pub(crate) fn ship<M: Wire>(&mut self, records: Vec<(usize, usize, M)>) -> Inboxes<M> {
        let mut outgoing: Vec<Vec<(usize, M)>> = (0..self.n).map(|_| Vec::new()).collect();
        for (src, dst, msg) in records {
            outgoing[src].push((dst, msg));
        }
        self.engine.ship(
            self.n,
            "clique",
            Some(self.cap),
            SendPolicy::Fragment,
            outgoing,
        )
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
    fn lenzen_route_on_sockets_matches_the_local_reference() {
        // Repeated (src, dst) pairs, a self-addressed record, and payloads
        // far wider than every swept cap; node 3's record to node 1 comes
        // first but is delivered after node 0's (sender order).
        let msgs = || -> Vec<(usize, usize, u64)> {
            vec![
                (3, 1, 7),
                (0, 1, u64::MAX),
                (0, 1, 0xFFFF),
                (2, 2, 1 << 40),
                (5, 0, 300),
                (1, 4, 1),
                (5, 0, 0xABCD_EF01),
            ]
        };
        let tcp = dcl_sim::ExecConfig::default().with_transport(TransportSpec::Tcp);
        for cap_bits in 3u32..10 {
            let cap = BandwidthCap::new(cap_bits);
            let mut reference = CliqueNetwork::with_cap(6, cap);
            let expected = reference.lenzen_route(msgs());
            assert_eq!(expected[1], vec![(0, u64::MAX), (0, 0xFFFF), (3, 7)]);
            assert_eq!(expected[2], vec![(2, 1 << 40)]);
            let mut net = CliqueNetwork::from_exec(6, &tcp.with_cap(cap));
            let inboxes = net.lenzen_route(msgs());
            assert_eq!(inboxes, expected, "inboxes diverged at cap {cap_bits}");
            assert_eq!(net.metrics(), reference.metrics(), "cap {cap_bits}");
            // The socket tier's counters, recounted from the delivered
            // inboxes: one frame per record, its codec bytes, and
            // ⌈bytes / MTU⌉ packets at the cap's whole-byte MTU.
            let mtu = (cap_bits as usize).div_ceil(8);
            let (mut frames, mut payload_bytes, mut packets) = (0, 0, 0);
            for (_, msg) in inboxes.iter().flatten() {
                let mut bytes = Vec::new();
                msg.wire_encode(&mut bytes);
                frames += 1;
                payload_bytes += bytes.len() as u64;
                packets += bytes.len().div_ceil(mtu).max(1) as u64;
            }
            let stats = net.transport_stats().expect("the socket tier meters");
            assert_eq!(frames, 7);
            assert_eq!(
                (stats.frames, stats.payload_bytes, stats.packets),
                (frames, payload_bytes, packets),
                "cap {cap_bits}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "send budget")]
    fn lenzen_send_budget_enforced() {
        let mut net = CliqueNetwork::with_default_cap(2);
        let msgs = vec![(0, 1, 1u32), (0, 1, 2u32), (0, 1, 3u32)];
        let _ = net.lenzen_route(msgs);
    }

    #[test]
    #[should_panic(expected = "node 2 exceeds the Lenzen receive budget")]
    fn lenzen_receive_budget_enforced() {
        let mut net = CliqueNetwork::with_default_cap(3);
        // Every sender stays within its budget; node 2 receives 4 > n.
        let msgs = vec![(0, 2, 1u32), (1, 2, 2), (2, 2, 3), (0, 2, 4)];
        let _ = net.lenzen_route(msgs);
    }

    #[test]
    #[should_panic(expected = "endpoint out of range")]
    fn lenzen_route_rejects_an_out_of_range_sender() {
        let mut net = CliqueNetwork::with_default_cap(3);
        let _ = net.lenzen_route(vec![(3, 0, 1u32)]);
    }

    #[test]
    #[should_panic(expected = "endpoint out of range")]
    fn lenzen_route_rejects_an_out_of_range_recipient() {
        let mut net = CliqueNetwork::with_default_cap(3);
        let _ = net.lenzen_route(vec![(0, 3, 1u32)]);
    }

    #[test]
    fn lenzen_budget_check_fires_before_anything_ships() {
        let tcp = dcl_sim::ExecConfig::default().with_transport(TransportSpec::Tcp);
        let mut net = CliqueNetwork::from_exec(2, &tcp);
        let over_budget = vec![(0, 1, 1u32), (0, 1, 2), (0, 1, 3)];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            net.lenzen_route(over_budget)
        }));
        assert!(result.is_err(), "node 0 sends 3 > n records");
        assert_eq!(net.rounds(), 0, "a rejected route charges nothing");
        assert!(
            net.transport_stats().is_none(),
            "a rejected route never builds the socket tier"
        );
    }

    #[test]
    fn empty_lenzen_route_still_charges_two_rounds() {
        let mut net = CliqueNetwork::with_default_cap(4);
        let inboxes = net.lenzen_route(Vec::<(usize, usize, u32)>::new());
        assert_eq!(inboxes, vec![Vec::new(); 4]);
        assert_eq!(net.metrics().rounds, 2);
        assert_eq!(net.metrics().messages, 0);
    }

    #[test]
    fn ship_delivers_over_sockets_but_meters_nothing() {
        let tcp = dcl_sim::ExecConfig::default().with_transport(TransportSpec::Tcp);
        let mut net = CliqueNetwork::from_exec(3, &tcp.with_cap(BandwidthCap::new(5)));
        let inboxes = net.ship(vec![(2, 0, 0xFFu64), (1, 0, 3), (0, 0, 1), (2, 0, 4)]);
        assert_eq!(inboxes[0], vec![(0, 1), (1, 3), (2, 0xFF), (2, 4)]);
        assert_eq!(net.metrics(), CliqueMetrics::default());
        let stats = net.transport_stats().expect("the socket tier meters");
        assert_eq!(stats.frames, 4);
    }

    #[test]
    fn from_exec_applies_the_cap_override_or_the_two_word_default() {
        let exec = dcl_sim::ExecConfig::default();
        let net = CliqueNetwork::from_exec(5, &exec);
        assert_eq!(net.cap(), BandwidthCap::two_words());
        assert_eq!(net.n(), 5);
        assert!(net.transport_stats().is_none(), "Local never serializes");
        let capped = CliqueNetwork::from_exec(5, &exec.with_cap(BandwidthCap::new(7)));
        assert_eq!(capped.cap(), BandwidthCap::new(7));
    }
}
