//! The MPC simulator.
//!
//! `M = O((n + m)/S)` machines, each with a memory of `S` words (a word is
//! `O(log n)` bits). Per round, every machine may send and receive at most
//! `O(S)` words; local computation is free. The simulator enforces the send
//! and receive budgets on every [`Mpc::round`] and offers
//! [`Mpc::assert_storage`] for algorithms to declare their resident state
//! (checked against the memory bound).
//!
//! Any machine may message any machine, repeatedly: the model bounds
//! per-machine send/receive *volume*, not pair multiplicity. The volume
//! budgets are replayed message-by-message in machine order, since receive
//! budgets couple different senders, and the validated round then ships
//! through the shared [`dcl_sim`] round engine's transport tier.

use dcl_par::{Backend, Pool};
use dcl_sim::{
    ExecConfig, RoundEngine, SendPolicy, SimMetrics, TransportSpec, TransportStats, Wire,
};

/// Word size of message payloads.
///
/// Every MPC payload is also [`Wire`] (all the impls below have blanket
/// `Wire` coverage in `dcl_sim`), which is what lets [`Mpc::round`] ship
/// over the socket transport.
pub trait WordSized {
    /// Number of machine words the value occupies.
    fn words(&self) -> usize;
}

impl WordSized for u64 {
    fn words(&self) -> usize {
        1
    }
}

impl WordSized for f64 {
    fn words(&self) -> usize {
        1
    }
}

impl WordSized for (u64, u64) {
    fn words(&self) -> usize {
        2
    }
}

impl WordSized for (u64, u64, u64) {
    fn words(&self) -> usize {
        3
    }
}

impl<T: WordSized> WordSized for Vec<T> {
    fn words(&self) -> usize {
        self.iter().map(WordSized::words).sum::<usize>() + 1
    }
}

/// Cost counters of an [`Mpc`] cluster.
///
/// Internally the cluster meters through the shared [`SimMetrics`] (with
/// words playing the role of bits); this read-out struct keeps the
/// MPC-native field names plus the storage high-water mark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MpcMetrics {
    /// Synchronous rounds elapsed.
    pub rounds: u64,
    /// Messages delivered.
    pub messages: u64,
    /// Words moved.
    pub words: u64,
    /// Largest per-machine storage declared via
    /// [`Mpc::assert_storage`].
    pub max_storage_words: usize,
}

impl From<MpcMetrics> for SimMetrics {
    /// The unified read-out used by the `dcl_runner` front door: `bits`
    /// carries the word count (MPC's accounting unit). Per-message size
    /// maxima are not tracked in this model — the storage high-water mark
    /// plays that role — so `max_message_bits` reads 0.
    fn from(m: MpcMetrics) -> Self {
        SimMetrics {
            rounds: m.rounds,
            messages: m.messages,
            bits: m.words,
            max_message_bits: 0,
        }
    }
}

/// An MPC cluster.
///
/// # Examples
///
/// ```
/// use dcl_mpc::machine::Mpc;
///
/// let mut mpc = Mpc::new(4, 100);
/// let inboxes = mpc.round(|machine| {
///     if machine == 0 { vec![(2usize, 42u64)] } else { vec![] }
/// });
/// assert_eq!(inboxes[2], vec![(0, 42)]);
/// assert_eq!(mpc.metrics().rounds, 1);
/// ```
#[derive(Debug)]
pub struct Mpc {
    machines: usize,
    memory_words: usize,
    /// Budget slack constant: per-round send/receive and storage may reach
    /// `slack · S` (the model's `O(S)`).
    slack: usize,
    /// Shared counters; `bits` counts *words* in this model.
    metrics: SimMetrics,
    max_storage_words: usize,
    engine: RoundEngine,
}

pub use dcl_sim::Inboxes;

impl Mpc {
    /// Creates a cluster of `machines` machines with `memory_words`-word
    /// memories (slack constant 4).
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    pub fn new(machines: usize, memory_words: usize) -> Self {
        assert!(machines > 0, "need at least one machine");
        assert!(memory_words > 0, "memory must be positive");
        Mpc {
            machines,
            memory_words,
            slack: 4,
            metrics: SimMetrics::default(),
            max_storage_words: 0,
            engine: RoundEngine::new(Backend::Sequential, TransportSpec::Local),
        }
    }

    /// Creates a cluster from an [`ExecConfig`]: the config's backend and
    /// transport tier, fixed for the cluster's life (the cap override is
    /// ignored — MPC's bandwidth role is played by the per-machine word
    /// budget). Results are bit-identical across backends and tiers.
    pub fn from_exec(machines: usize, memory_words: usize, exec: &ExecConfig) -> Self {
        Mpc {
            engine: RoundEngine::new(exec.backend, exec.transport),
            ..Mpc::new(machines, memory_words)
        }
    }

    /// Physical-layer counters of the built transport (`None` on the
    /// in-memory reference tier, which never serializes).
    pub fn transport_stats(&self) -> Option<&TransportStats> {
        self.engine.transport_stats()
    }

    /// The worker pool of a parallel backend (`None` under
    /// [`Backend::Sequential`]). The coloring drivers use it to evaluate
    /// seed-segment candidates in parallel — free local computation in the
    /// MPC cost model.
    pub fn pool(&self) -> Option<&Pool> {
        self.engine.pool()
    }

    /// Number of machines.
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// Memory size `S` in words.
    pub fn memory_words(&self) -> usize {
        self.memory_words
    }

    /// Accumulated cost counters.
    pub fn metrics(&self) -> MpcMetrics {
        MpcMetrics {
            rounds: self.metrics.rounds,
            messages: self.metrics.messages,
            words: self.metrics.bits,
            max_storage_words: self.max_storage_words,
        }
    }

    /// Rounds elapsed.
    pub fn rounds(&self) -> u64 {
        self.metrics.rounds
    }

    /// One synchronous round; `sender(i)` lists machine `i`'s outgoing
    /// `(recipient, payload)` messages.
    ///
    /// # Panics
    ///
    /// Panics if a machine sends or receives more than `O(S)` words or
    /// addresses an unknown machine.
    ///
    /// Every machine's `sender` is called first, in machine order on the
    /// calling thread; the send/receive budget checks are then replayed
    /// message-by-message in machine order, so a budget panic names the
    /// first violation in that order.
    pub fn round<M, F>(&mut self, sender: F) -> Inboxes<M>
    where
        M: WordSized + Wire,
        F: Fn(usize) -> Vec<(usize, M)>,
    {
        self.metrics.rounds += 1;
        let machines = self.machines();
        let budget = self.slack * self.memory_words;
        let outgoing: Vec<Vec<(usize, M)>> = (0..machines).map(sender).collect();
        let mut received = vec![0usize; machines];
        let mut validated: Vec<Vec<(usize, M)>> = Vec::with_capacity(machines);
        for (i, msgs) in outgoing.into_iter().enumerate() {
            let mut sent = 0usize;
            let mut row = Vec::with_capacity(msgs.len());
            for (dst, msg) in msgs {
                let w = msg.words();
                assert!(dst < machines, "machine {dst} out of range");
                sent += w;
                received[dst] += w;
                assert!(
                    sent <= budget,
                    "machine {i} exceeded its send budget of {budget} words"
                );
                assert!(
                    received[dst] <= budget,
                    "machine {dst} exceeded its receive budget of {budget} words"
                );
                self.metrics.messages += 1;
                self.metrics.bits += w as u64;
                row.push((dst, msg));
            }
            validated.push(row);
        }
        // Word budgets are already enforced above (MPC has no per-message
        // bit cap), so the transport ships uncapped under the strict policy.
        self.engine
            .ship(machines, "MPC", None, SendPolicy::Strict, validated)
    }

    /// Declares machine `i`'s resident storage; panics if it exceeds the
    /// memory bound `O(S)`.
    pub fn assert_storage(&mut self, machine: usize, words: usize) {
        let budget = self.slack * self.memory_words;
        assert!(
            words <= budget,
            "machine {machine} stores {words} words, exceeding its memory of {budget}"
        );
        self.max_storage_words = self.max_storage_words.max(words);
    }

    /// Charges `rounds` rounds without traffic (schedule steps whose cost is
    /// a closed formula).
    pub fn charge_rounds(&mut self, rounds: u64) {
        self.metrics.rounds += rounds;
    }

    /// Charges `words` words of traffic (for formula-cost collectives),
    /// split across `messages` messages.
    pub fn charge_traffic(&mut self, messages: u64, words: u64) {
        self.metrics.messages += messages;
        self.metrics.bits += words;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_delivers() {
        let mut mpc = Mpc::new(3, 10);
        let inboxes = mpc.round(|i| match i {
            0 => vec![(1, 5u64)],
            1 => vec![(2, 6u64), (0, 7u64)],
            _ => vec![],
        });
        assert_eq!(inboxes[0], vec![(1, 7)]);
        assert_eq!(inboxes[1], vec![(0, 5)]);
        assert_eq!(inboxes[2], vec![(1, 6)]);
        assert_eq!(mpc.metrics().words, 3);
    }

    #[test]
    #[should_panic(expected = "machine 3 out of range")]
    fn round_rejects_an_unknown_machine() {
        let mut mpc = Mpc::new(3, 10);
        let _ = mpc.round(|i| if i == 1 { vec![(3usize, 1u64)] } else { vec![] });
    }

    #[test]
    fn round_calls_every_sender_in_order_before_the_budget_replay() {
        // `Cell` is not `Sync`: rounds accept it because the senders run on
        // the calling thread, even when the backend sizes a pool. Machine 0
        // breaks its send budget (8 words), yet every sender has run by the
        // time the replay reports it.
        let exec = ExecConfig::default().with_backend(Backend::Parallel(2));
        let mut mpc = Mpc::from_exec(5, 2, &exec);
        let calls = std::cell::Cell::new(0usize);
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            mpc.round(|i| {
                assert_eq!(calls.get(), i, "senders run in machine order");
                calls.set(i + 1);
                let count = if i == 0 { 9 } else { 1 };
                (0..count).map(|_| ((i + 1) % 5, 1u64)).collect()
            })
        }))
        .expect_err("machine 0 exceeds its send budget");
        assert_eq!(calls.get(), 5);
        let msg = panic.downcast_ref::<String>().expect("formatted payload");
        assert!(msg.contains("machine 0 exceeded its send budget"), "{msg}");
    }

    #[test]
    #[should_panic(expected = "send budget")]
    fn send_budget_enforced() {
        let mut mpc = Mpc::new(2, 2);
        // Budget = 8 words; send 9 single-word messages.
        let _ = mpc.round(|i| {
            if i == 0 {
                (0..9).map(|_| (1usize, 1u64)).collect()
            } else {
                vec![]
            }
        });
    }

    #[test]
    #[should_panic(expected = "receive budget")]
    fn receive_budget_enforced() {
        let mut mpc = Mpc::new(3, 2);
        // Two senders each within budget, but the receiver is flooded.
        let _ = mpc.round(|i| {
            if i < 2 {
                (0..5).map(|_| (2usize, 1u64)).collect()
            } else {
                vec![]
            }
        });
    }

    #[test]
    #[should_panic(expected = "exceeding its memory")]
    fn storage_bound_enforced() {
        let mut mpc = Mpc::new(2, 10);
        mpc.assert_storage(0, 41);
    }

    #[test]
    fn storage_highwater_recorded() {
        let mut mpc = Mpc::new(2, 100);
        mpc.assert_storage(0, 50);
        mpc.assert_storage(1, 80);
        assert_eq!(mpc.metrics().max_storage_words, 80);
    }

    #[test]
    fn tcp_matches_the_local_reference_bit_for_bit() {
        // Machine 0 sends to machine 4 twice in one round: MPC tools send
        // repeated (src, dst) pairs, which arrive in per-link FIFO order.
        let sender = |i: usize| -> Vec<(usize, (u64, u64))> {
            let mut msgs: Vec<(usize, (u64, u64))> = (0..12usize)
                .filter(|&d| d != i && (d + i).is_multiple_of(4))
                .map(|d| (d, ((i * 100 + d) as u64, i as u64)))
                .collect();
            if i == 0 {
                msgs.push((4, (7, 0)));
            }
            msgs
        };
        let mut reference = Mpc::new(12, 50);
        let rounds_ref = [reference.round(sender), reference.round(sender)];
        let exec = ExecConfig::default().with_transport(TransportSpec::Tcp);
        let mut mpc = Mpc::from_exec(12, 50, &exec);
        assert_eq!(rounds_ref[0][4][..2], [(0, (4, 0)), (0, (7, 0))]);
        assert_eq!(rounds_ref[0], mpc.round(sender));
        assert_eq!(rounds_ref[1], mpc.round(sender));
        assert_eq!(reference.metrics(), mpc.metrics());
        let stats = mpc
            .transport_stats()
            .expect("the socket tier meters traffic");
        assert_eq!(stats.frames, reference.metrics().messages);
        assert!(reference.transport_stats().is_none());
    }

    #[test]
    #[should_panic(expected = "send budget")]
    fn send_budget_fires_before_the_transport_ships() {
        let exec = ExecConfig::default().with_transport(TransportSpec::Tcp);
        let mut mpc = Mpc::from_exec(2, 2, &exec);
        let _ = mpc.round(|i| {
            if i == 0 {
                (0..9).map(|_| (1usize, 1u64)).collect()
            } else {
                vec![]
            }
        });
    }

    #[test]
    fn word_sizes() {
        assert_eq!(5u64.words(), 1);
        assert_eq!((1u64, 2u64).words(), 2);
        assert_eq!(vec![1u64, 2, 3].words(), 4);
    }
}
