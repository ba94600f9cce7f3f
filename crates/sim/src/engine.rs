//! The round engine shared by every simulator.
//!
//! One round loop owns everything the three models used to duplicate:
//! evaluating the per-node `sender` closures in node order, the stamp-mark
//! duplicate-send check, [`SimMetrics`] accounting, and the sender-order
//! merge into per-recipient inboxes. A simulator is the engine plus its
//! model's addressing and cost events: CONGEST rounds go through
//! [`NeighborTopology`]; the clique and MPC validate their own traffic and
//! hand it to [`RoundEngine::ship`].
//!
//! Rounds run on the calling thread. The engine's [`Pool`], built once by
//! [`RoundEngine::new`] from a [`Backend`], serves only the drivers' local
//! computation between rounds, through [`RoundEngine::pool`] and
//! [`argmin_f64`] (`DESIGN.md` §5).

use crate::cap::BandwidthCap;
use crate::metrics::SimMetrics;
use crate::topology::{validate_sends, NeighborTopology, MODEL};
use crate::transport::{Frame, RoundLimits, TcpTransport, TransportSpec, TransportStats};
use crate::wire::Wire;
use dcl_par::{Backend, Pool};

/// Per-endpoint inboxes produced by a communication round: `inboxes[v]`
/// holds `(sender, payload)` pairs in sender order.
pub type Inboxes<M> = Vec<Vec<(usize, M)>>;

/// How a round treats payloads wider than the bandwidth cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendPolicy {
    /// Oversized payloads are model violations and panic. The round costs
    /// exactly one round. This is the contract of the raw `round()` APIs.
    Strict,
    /// Oversized payloads fragment into `⌈bits / cap⌉` physical messages and
    /// the round stretches to the largest fragment count among its messages
    /// (the synchronous schedule: every link finishes before the next
    /// logical round starts). At a cap that fits every payload this is
    /// exactly [`SendPolicy::Strict`] — same costs, bit for bit — which is
    /// what lets algorithm drivers run unchanged under swept caps.
    Fragment,
}

/// Round executor: the [`TransportSpec`] tier that carries each round's
/// messages (in-memory reference or localhost sockets — results are
/// bit-identical across tiers), plus the worker pool a [`Backend`] sizes
/// for the drivers' local computation. Both are fixed when the engine is
/// built.
#[derive(Debug)]
pub struct RoundEngine {
    /// Worker pool, present only when the backend is effectively parallel.
    pool: Option<Pool>,
    transport_spec: TransportSpec,
    /// The socket transport, created lazily on the first shipped round
    /// (so [`TransportSpec::Local`]'s zero-copy fast path never pays for
    /// socket setup).
    transport: Option<TcpTransport>,
}

impl RoundEngine {
    /// An engine whose local-computation pool follows `backend` and whose
    /// rounds travel over `transport`. Rounds always run on the calling
    /// thread, so results are bit-identical across backends and tiers; only
    /// the drivers' wall-clock and the physical layer (metered by
    /// [`RoundEngine::transport_stats`]) change.
    #[must_use]
    pub fn new(backend: Backend, transport: TransportSpec) -> Self {
        RoundEngine {
            pool: backend.is_parallel().then(|| Pool::new(backend.threads())),
            transport_spec: transport,
            transport: None,
        }
    }

    /// Physical-layer counters of the built transport. `None` until a round
    /// has shipped (and always `None` on [`TransportSpec::Local`], whose
    /// fast path bypasses the transport object entirely).
    #[must_use]
    pub fn transport_stats(&self) -> Option<&TransportStats> {
        self.transport.as_ref().map(TcpTransport::stats)
    }

    /// Fault injection for tests: tears down endpoint `v` on the built
    /// transport (building it first if need be), so subsequent rounds
    /// touching `v` raise a typed
    /// [`TransportError`](crate::transport::TransportError). `n` is the
    /// endpoint count used if the transport must be built.
    pub fn close_transport_endpoint(&mut self, n: usize, v: usize) {
        self.ensure_transport(n);
        if let Some(transport) = self.transport.as_mut() {
            transport.close_endpoint(v);
        }
    }

    /// Builds (or rebuilds, on an endpoint-count mismatch) the transport
    /// for `n` endpoints. No-op on [`TransportSpec::Local`].
    fn ensure_transport(&mut self, n: usize) {
        if self.transport_spec == TransportSpec::Local {
            return;
        }
        let stale = self
            .transport
            .as_ref()
            .is_none_or(|transport| transport.len() != n);
        if stale {
            self.transport = Some(TcpTransport::new(n));
        }
    }

    /// Ships one round of already-validated outgoing messages over the
    /// active transport and returns the per-recipient inboxes. On
    /// [`TransportSpec::Local`] this is the zero-copy sender-order
    /// `deliver` merge; on [`TransportSpec::Tcp`] every payload crosses
    /// the `Wire` codec inside a length-prefixed frame and the transport's
    /// sorted-by-sender/per-link-FIFO delivery reproduces the same order
    /// bit for bit.
    ///
    /// Transport failures (broken peer, protocol violation, undecodable
    /// payload) raise the typed
    /// [`TransportError`](crate::transport::TransportError) via
    /// `std::panic::panic_any`, which `dcl_runner::run_protected` re-catches
    /// losslessly as `RunError::Transport` — the round APIs themselves stay
    /// infallible.
    pub fn ship<M>(
        &mut self,
        n: usize,
        model: &'static str,
        cap: Option<BandwidthCap>,
        policy: SendPolicy,
        outgoing: Vec<Vec<(usize, M)>>,
    ) -> Inboxes<M>
    where
        M: Wire,
    {
        if self.transport_spec == TransportSpec::Local {
            return deliver(n, outgoing);
        }
        self.ensure_transport(n);
        let transport = self
            .transport
            .as_mut()
            .expect("ensure_transport builds the socket transport");
        transport.begin_round(&RoundLimits { cap, policy, model });
        for (u, msgs) in outgoing.into_iter().enumerate() {
            for (v, msg) in msgs {
                let mut payload = Vec::new();
                msg.wire_encode(&mut payload);
                let frame = Frame {
                    declared_bits: msg.wire_bits(),
                    payload,
                };
                if let Err(e) = transport.send(u, v, frame) {
                    std::panic::panic_any(e);
                }
            }
        }
        let frames = match transport.finish_round() {
            Ok(frames) => frames,
            Err(e) => std::panic::panic_any(e),
        };
        frames
            .into_iter()
            .map(|inbox| {
                inbox
                    .into_iter()
                    .map(|(from, frame)| {
                        let mut buf = frame.payload.as_slice();
                        let msg = M::wire_decode(&mut buf).unwrap_or_else(|| {
                            std::panic::panic_any(crate::transport::TransportError::Protocol {
                                detail: format!(
                                    "undecodable {}-bit payload from endpoint {from}",
                                    frame.declared_bits
                                ),
                            })
                        });
                        if !buf.is_empty() {
                            std::panic::panic_any(crate::transport::TransportError::Protocol {
                                detail: format!(
                                    "{} trailing payload bytes from endpoint {from}",
                                    buf.len()
                                ),
                            });
                        }
                        (from, msg)
                    })
                    .collect()
            })
            .collect()
    }

    /// The worker pool of a parallel backend (`None` under
    /// [`Backend::Sequential`]). Algorithm drivers use it for *local*
    /// per-node computation between rounds — work that in the real
    /// distributed system every node performs simultaneously for free.
    #[must_use]
    pub fn pool(&self) -> Option<&Pool> {
        self.pool.as_ref()
    }

    /// Runs one synchronous CONGEST unicast round over `topo`: `sender(u)`
    /// returns the messages node `u` sends as `(neighbor, payload)` pairs.
    /// Senders run in node order on the calling thread, each followed by
    /// its validation (addressing, duplicate sends, cap) and cost
    /// accounting; messages merge into the inboxes in sender order.
    ///
    /// # Panics
    ///
    /// Panics if a message targets a non-neighbor, if a node sends twice
    /// to the same neighbor in one round, or — under
    /// [`SendPolicy::Strict`] — if a payload exceeds `cap`. After a panic
    /// the metrics are unspecified.
    pub fn message_round<M, F>(
        &mut self,
        topo: &NeighborTopology<'_>,
        cap: BandwidthCap,
        policy: SendPolicy,
        metrics: &mut SimMetrics,
        sender: F,
    ) -> Inboxes<M>
    where
        M: Wire,
        F: Fn(usize) -> Vec<(usize, M)>,
    {
        let n = topo.graph().n();
        let (outgoing, round_cost) = fan_out(
            n,
            topo.marks_len(),
            metrics,
            &sender,
            |u, msgs: &Vec<(usize, M)>, marks, local| {
                validate_sends(topo, cap, policy, u, msgs, marks, local)
            },
        );
        metrics.rounds += u64::from(round_cost);
        self.ship(n, MODEL, Some(cap), policy, outgoing)
    }

    /// Runs one broadcast round over a [`NeighborTopology`]: every node
    /// sends the *same* payload to all of its neighbors (or stays silent
    /// with `None`). Nodes without neighbors are not charged (and, under
    /// [`SendPolicy::Strict`], not cap-checked), matching per-delivery
    /// accounting.
    ///
    /// # Panics
    ///
    /// Under [`SendPolicy::Strict`], panics if a payload exceeds `cap`.
    pub fn broadcast_round<M, F>(
        &mut self,
        topo: &NeighborTopology<'_>,
        cap: BandwidthCap,
        policy: SendPolicy,
        metrics: &mut SimMetrics,
        f: F,
    ) -> Inboxes<M>
    where
        M: Wire + Clone,
        F: Fn(usize) -> Option<M>,
    {
        let graph = topo.graph();
        let n = graph.n();
        let (payloads, round_cost) = fan_out(
            n,
            0,
            metrics,
            &f,
            |u, payload: &Option<M>, _marks, local| {
                let Some(msg) = payload else { return 1 };
                let deg = graph.degree(u) as u64;
                if deg == 0 {
                    return 1;
                }
                let bits = msg.wire_bits();
                match policy {
                    SendPolicy::Strict => {
                        assert!(
                            cap.fits(bits),
                            "message of {bits} bits exceeds {MODEL} cap of {} bits",
                            cap.bits()
                        );
                        local.messages += deg;
                        local.bits += deg * u64::from(bits);
                        local.max_message_bits = local.max_message_bits.max(bits);
                        1
                    }
                    SendPolicy::Fragment => {
                        let fragments = cap.fragments(bits);
                        local.messages += deg * u64::from(fragments);
                        local.bits += deg * u64::from(bits);
                        local.max_message_bits = local.max_message_bits.max(bits.min(cap.bits()));
                        fragments
                    }
                }
            },
        );
        metrics.rounds += u64::from(round_cost);
        // Expanding the broadcast into per-neighbor unicasts (in neighbor
        // order) reproduces the direct inbox build exactly, so the same
        // ship path serves every transport tier.
        let outgoing: Vec<Vec<(usize, M)>> = payloads
            .into_iter()
            .enumerate()
            .map(|(u, payload)| match payload {
                Some(msg) => graph
                    .neighbors(u)
                    .iter()
                    .map(|&v| (v, msg.clone()))
                    .collect(),
                None => Vec::new(),
            })
            .collect();
        self.ship(n, MODEL, Some(cap), policy, outgoing)
    }
}

/// Evaluates `produce(u)` for every `u in 0..n` in index order, running
/// `validate` over each item with one stamp-mark scratch of `marks_len`
/// slots and accumulating its cost counters into `metrics`. Returns the
/// items and the maximum value `validate` returned (the fragment-stretched
/// round cost; 1 when `n == 0`).
///
/// This is the round loop under every stepped CONGEST round. It runs on
/// the calling thread: rounds are cheap next to the drivers' local
/// computation, which is what the pool is for (`DESIGN.md` §5).
fn fan_out<T>(
    n: usize,
    marks_len: usize,
    metrics: &mut SimMetrics,
    produce: impl Fn(usize) -> T,
    validate: impl Fn(usize, &T, &mut [usize], &mut SimMetrics) -> u32,
) -> (Vec<T>, u32) {
    let mut round_cost = 1u32;
    let mut marks = vec![usize::MAX; marks_len];
    let mut items = Vec::with_capacity(n);
    for u in 0..n {
        let item = produce(u);
        round_cost = round_cost.max(validate(u, &item, &mut marks, metrics));
        items.push(item);
    }
    (items, round_cost)
}

/// Merges per-sender outgoing message lists into per-recipient inboxes, in
/// sender order.
fn deliver<M>(n: usize, outgoing: Vec<Vec<(usize, M)>>) -> Inboxes<M> {
    let mut inboxes: Inboxes<M> = (0..n).map(|_| Vec::new()).collect();
    for (u, msgs) in outgoing.into_iter().enumerate() {
        for (v, msg) in msgs {
            inboxes[v].push((u, msg));
        }
    }
    inboxes
}

/// Evaluates `f(i)` for every `i in 0..jobs` across the pool — one job per
/// index, unlike [`Pool::map_chunks_with`]'s 64-item chunking, so it
/// parallelizes small batches of *expensive* jobs (e.g. the `2^λ` candidate
/// evaluations of a seed segment) — and returns the results in index order.
fn par_map_jobs<R, F>(pool: &Pool, jobs: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let slots: Vec<std::sync::Mutex<Option<R>>> =
        (0..jobs).map(|_| std::sync::Mutex::new(None)).collect();
    pool.run(jobs, &|i| {
        *slots[i].lock().unwrap() = Some(f(i));
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap()
                .expect("run() returns only after every job completed")
        })
        .collect()
}

/// Deterministic parallel argmin: evaluates `score(i)` for `i in 0..count`
/// (on `pool` when given, inline otherwise) and returns `(best_score,
/// best_index)` of the first-minimum scan `for i { if score < best }` from
/// the seed `(f64::INFINITY, 0)`: the lowest index wins ties, `NaN` never
/// wins, and `count == 0` (or all-`NaN` scores) returns
/// `(f64::INFINITY, 0)`. Each score is computed by a single worker with the
/// same float-operation order as the sequential evaluation, and the scan
/// visits indices in order, so the winner is bit-identical across
/// backends (pinned by `tests/argmin_contract.rs`).
///
/// The scan itself is cheap: the drivers fold at most `2^λ` candidate
/// scores, and each score costs far more than its comparison.
pub fn argmin_f64<F>(pool: Option<&Pool>, count: usize, score: F) -> (f64, usize)
where
    F: Fn(usize) -> f64 + Sync,
{
    match pool {
        Some(pool) if count > 1 => first_min(par_map_jobs(pool, count, &score)),
        _ => first_min((0..count).map(score)),
    }
}

/// The first-minimum scan under strict `<` from `(f64::INFINITY, 0)`.
fn first_min(scores: impl IntoIterator<Item = f64>) -> (f64, usize) {
    let mut best = (f64::INFINITY, 0usize);
    for (i, s) in scores.into_iter().enumerate() {
        if s < best.0 {
            best = (s, i);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcl_graphs::{generators, Graph};

    #[test]
    fn message_round_delivers_and_meters() {
        let g = generators::complete(3);
        let topo = NeighborTopology::new(&g);
        let mut engine = RoundEngine::new(Backend::Sequential, TransportSpec::Local);
        let mut metrics = SimMetrics::default();
        let inboxes = engine.message_round(
            &topo,
            BandwidthCap::two_words(),
            SendPolicy::Strict,
            &mut metrics,
            |v| match v {
                0 => vec![(1, 10u32), (2, 20u32)],
                1 => vec![(2, 30u32)],
                _ => vec![],
            },
        );
        assert_eq!(inboxes[1], vec![(0, 10)]);
        assert_eq!(inboxes[2], vec![(0, 20), (1, 30)]);
        assert_eq!(metrics.rounds, 1);
        assert_eq!(metrics.messages, 3);
    }

    #[test]
    fn fragmented_round_stretches_to_widest_message() {
        let g = generators::path(3);
        let topo = NeighborTopology::new(&g);
        let mut engine = RoundEngine::new(Backend::Sequential, TransportSpec::Local);
        let cap = BandwidthCap::new(7);
        let mut metrics = SimMetrics::default();
        // Node 0 sends a 20-bit payload (3 fragments at 7 bits).
        let inboxes = engine.message_round(&topo, cap, SendPolicy::Fragment, &mut metrics, |v| {
            if v == 0 {
                vec![(1usize, 0xF_FFFFu32)]
            } else {
                vec![]
            }
        });
        assert_eq!(inboxes[1], vec![(0, 0xF_FFFF)]);
        assert_eq!(metrics.rounds, 3, "20 bits at cap 7 = 3 sub-rounds");
        assert_eq!(metrics.messages, 3);
        assert_eq!(metrics.bits, 20);
        assert_eq!(metrics.max_message_bits, 7);
    }

    #[test]
    fn fragment_policy_matches_strict_when_everything_fits() {
        let g = generators::gnp(40, 0.2, 3);
        let cap = BandwidthCap::default_for(40, 41);
        let sender = |v: usize| -> Vec<(usize, u64)> {
            g.neighbors(v)
                .iter()
                .map(|&u| (u, (v + u) as u64))
                .collect()
        };
        let mut engine = RoundEngine::new(Backend::Sequential, TransportSpec::Local);
        let topo = NeighborTopology::new(&g);
        let mut strict = SimMetrics::default();
        let mut frag = SimMetrics::default();
        let a = engine.message_round(&topo, cap, SendPolicy::Strict, &mut strict, sender);
        let b = engine.message_round(&topo, cap, SendPolicy::Fragment, &mut frag, sender);
        assert_eq!(a, b);
        assert_eq!(strict, frag);
        let a = engine.broadcast_round(&topo, cap, SendPolicy::Strict, &mut strict, |v| {
            (v % 2 == 0).then_some(v as u32)
        });
        let b = engine.broadcast_round(&topo, cap, SendPolicy::Fragment, &mut frag, |v| {
            (v % 2 == 0).then_some(v as u32)
        });
        assert_eq!(a, b);
        assert_eq!(strict, frag);
    }

    #[test]
    fn empty_round_still_costs_one_round() {
        let g = Graph::empty(0);
        let topo = NeighborTopology::new(&g);
        let mut engine = RoundEngine::new(Backend::Sequential, TransportSpec::Local);
        let mut metrics = SimMetrics::default();
        let inboxes: Inboxes<u32> = engine.message_round(
            &topo,
            BandwidthCap::two_words(),
            SendPolicy::Strict,
            &mut metrics,
            |_| vec![],
        );
        assert!(inboxes.is_empty());
        assert_eq!(metrics.rounds, 1);
    }

    #[test]
    fn rounds_accumulate_into_the_callers_metrics() {
        // The round loop accounts straight into the caller's metrics: counts
        // add up across rounds and the widest message is a running maximum.
        let g = generators::complete(3);
        let topo = NeighborTopology::new(&g);
        let mut engine = RoundEngine::new(Backend::Parallel(2), TransportSpec::Local);
        let cap = BandwidthCap::two_words();
        let mut metrics = SimMetrics::default();
        let _ = engine.message_round(&topo, cap, SendPolicy::Strict, &mut metrics, |v| {
            if v == 0 {
                vec![(1usize, 0xFFu32), (2, 1)]
            } else {
                vec![]
            }
        });
        let first = metrics;
        assert_eq!((first.rounds, first.messages), (1, 2));
        let _ = engine.message_round(&topo, cap, SendPolicy::Strict, &mut metrics, |v| {
            vec![((v + 1) % 3, 1u32)]
        });
        assert_eq!(metrics.rounds, 2);
        assert_eq!(metrics.messages, 5);
        assert_eq!(metrics.bits, first.bits + 3);
        assert_eq!(metrics.max_message_bits, first.max_message_bits);
        assert_eq!(first.max_message_bits, 8);
    }

    #[test]
    fn a_sender_may_reuse_a_recipient_of_an_earlier_sender() {
        // One stamp-mark scratch serves the whole round: a mark left by
        // sender `u` must not count as a duplicate for a later sender.
        let g = generators::star(4);
        let topo = NeighborTopology::new(&g);
        let mut engine = RoundEngine::new(Backend::Sequential, TransportSpec::Local);
        let mut metrics = SimMetrics::default();
        let inboxes = engine.message_round(
            &topo,
            BandwidthCap::new(32),
            SendPolicy::Strict,
            &mut metrics,
            |v| {
                if v == 0 {
                    vec![]
                } else {
                    vec![(0usize, v as u32)]
                }
            },
        );
        assert_eq!(inboxes[0], vec![(1, 1), (2, 2), (3, 3)]);
        assert_eq!(metrics.messages, 3);
    }

    #[test]
    fn ship_rebuilds_the_socket_tier_when_the_endpoint_count_changes() {
        let mut engine = RoundEngine::new(Backend::Sequential, TransportSpec::Tcp);
        let first = engine.ship(3, "test", None, SendPolicy::Strict, vec![vec![(2, 1u32)]]);
        assert_eq!(first[2], vec![(0, 1)]);
        assert_eq!(engine.transport_stats().map(|s| s.frames), Some(1));
        // Five endpoints: a three-endpoint transport could not reach 4, so
        // the engine builds a fresh one whose counters start at zero.
        let outgoing = vec![
            vec![],
            vec![(4, 2u32), (4, 3)],
            vec![],
            vec![],
            vec![(1, 4)],
        ];
        let second = engine.ship(5, "test", None, SendPolicy::Strict, outgoing);
        assert_eq!(second[4], vec![(1, 2), (1, 3)]);
        assert_eq!(second[1], vec![(4, 4)]);
        assert_eq!(engine.transport_stats().map(|s| s.frames), Some(3));
    }

    #[test]
    fn argmin_is_identical_across_backends_and_breaks_ties_low() {
        let scores = [3.0f64, 1.0, 1.0, 2.0, 1.0];
        let seq = argmin_f64(None, scores.len(), |i| scores[i]);
        let pool = Pool::new(4);
        let par = argmin_f64(Some(&pool), scores.len(), |i| scores[i]);
        assert_eq!(seq, (1.0, 1));
        assert_eq!(seq, par);
        assert_eq!(argmin_f64(None, 0, |_| 0.0), (f64::INFINITY, 0));
    }

    #[test]
    fn par_map_jobs_returns_in_index_order() {
        let pool = Pool::new(3);
        let out = par_map_jobs(&pool, 10, |i| i * i);
        assert_eq!(out, (0..10).map(|i| i * i).collect::<Vec<_>>());
    }
}
