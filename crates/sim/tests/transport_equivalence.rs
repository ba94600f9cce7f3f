//! Cross-transport determinism properties: a scripted multi-round CONGEST
//! conversation, and any-to-any traffic handed straight to
//! [`RoundEngine::ship`], produce bit-identical inboxes and
//! [`SimMetrics`] whether the messages travel through the in-memory
//! reference ([`TransportSpec::Local`]) or real localhost sockets
//! ([`TransportSpec::Tcp`]), with caps swept down to `⌈log₂ n⌉` bits. The
//! socket tier's byte counters are recomputed independently from the
//! delivered inboxes. Intentional cap-violation panics carry the identical
//! payload on both tiers.

use dcl_graphs::{generators, Graph};
use dcl_par::Backend;
use dcl_sim::{
    BandwidthCap, Inboxes, NeighborTopology, RoundEngine, SendPolicy, SimMetrics, TransportSpec,
    TransportStats, Wire,
};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One scripted run: `rounds` unicast rounds over `topo`, each node
/// messaging a deterministic, `salt`-dependent subset of its neighbors with
/// payloads as wide as the policy allows — up to the cap under
/// [`SendPolicy::Strict`], full 64-bit words (which fragment) under
/// [`SendPolicy::Fragment`] — so payloads span several MTU-sized packets.
/// Returns every inbox and the accumulated metrics plus the transport's
/// byte-level statistics.
fn scripted_run(
    spec: TransportSpec,
    topo: &NeighborTopology<'_>,
    cap: BandwidthCap,
    policy: SendPolicy,
    rounds: usize,
    salt: u64,
) -> (Vec<Inboxes<u64>>, SimMetrics, Option<TransportStats>) {
    let width = match policy {
        SendPolicy::Strict => cap.bits().min(64),
        SendPolicy::Fragment => 64,
    };
    let mut engine = RoundEngine::new(Backend::Sequential, spec);
    let mut metrics = SimMetrics::default();
    let mut history = Vec::new();
    for r in 0..rounds {
        let inboxes = engine.message_round(topo, cap, policy, &mut metrics, |u| {
            topo.graph()
                .neighbors(u)
                .iter()
                .copied()
                .filter(|&v| !(u + v + r).is_multiple_of(3))
                .map(|v| {
                    let h = ((u * 131 + v + r) as u64)
                        .wrapping_add(salt)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    (v, (h >> (64 - width)).max(1))
                })
                .collect::<Vec<(usize, u64)>>()
        });
        history.push(inboxes);
    }
    let stats = engine.transport_stats().copied();
    (history, metrics, stats)
}

/// `(frames, payload_bytes, packets)` recounted from the delivered inboxes
/// alone: one frame per message, its `wire_encode` length in payload bytes,
/// and `max(1, ⌈len / ⌈cap/8⌉⌉)` packets at the cap's whole-byte MTU.
fn recount(history: &[Inboxes<u64>], cap: BandwidthCap) -> (u64, u64, u64) {
    let mtu = (cap.bits() as usize).div_ceil(8).max(1);
    let (mut frames, mut payload_bytes, mut packets) = (0, 0, 0);
    for (_, msg) in history.iter().flatten().flatten() {
        let mut bytes = Vec::new();
        msg.wire_encode(&mut bytes);
        frames += 1;
        payload_bytes += bytes.len() as u64;
        packets += bytes.len().div_ceil(mtu).max(1) as u64;
    }
    (frames, payload_bytes, packets)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// CONGEST (neighbor) rounds: inboxes and metrics are bit-identical on
    /// every transport tier, at caps down to `⌈log₂ n⌉`, under both send
    /// policies — cap-wide payloads under [`SendPolicy::Strict`], 64-bit
    /// payloads that fragment under [`SendPolicy::Fragment`] — and the
    /// socket tier meters one frame per logical message with MTU-sized
    /// packets.
    #[test]
    fn neighbor_rounds_are_transport_identical(
        n in 6usize..28,
        p in 0.1f64..0.5,
        seed in any::<u64>(),
        salt in any::<u64>(),
        cap_mult in 1u32..4,
        policy in any::<bool>().prop_map(|fragment| {
            if fragment { SendPolicy::Fragment } else { SendPolicy::Strict }
        }),
    ) {
        let g = generators::gnp(n, p, seed);
        let topo = NeighborTopology::new(&g);
        let log_n = (usize::BITS - (n - 1).leading_zeros()).max(1);
        let cap = BandwidthCap::new(cap_mult * log_n);
        let (reference, ref_metrics, ref_stats) = scripted_run(
            TransportSpec::Local, &topo, cap, policy, 3, salt,
        );
        prop_assert!(ref_stats.is_none(), "the local tier has no byte layer");
        let expected = recount(&reference, cap);
        if policy == SendPolicy::Strict {
            prop_assert_eq!(expected.0, ref_metrics.messages, "one frame per logical message");
        }
        for spec in TransportSpec::all() {
            let (history, metrics, stats) = scripted_run(
                spec, &topo, cap, policy, 3, salt,
            );
            prop_assert_eq!(&history, &reference, "inboxes diverged on {}", spec);
            prop_assert_eq!(&metrics, &ref_metrics, "metrics diverged on {}", spec);
            match spec {
                TransportSpec::Local => prop_assert!(stats.is_none()),
                TransportSpec::Tcp => {
                    let s = stats.unwrap();
                    prop_assert_eq!((s.frames, s.payload_bytes, s.packets), expected);
                }
            }
        }
    }

    /// Any-to-any traffic handed straight to [`RoundEngine::ship`] — the
    /// path the clique's Lenzen routes and MPC rounds take — with repeated
    /// `(src, dst)` pairs and self-addressed records: every tier delivers
    /// the sender-order merge of the input (each link FIFO), and the socket
    /// tier meters one frame per record with MTU-sized packets at the cap
    /// (one packet per frame when the round is uncapped).
    #[test]
    fn shipped_rounds_are_transport_identical(
        n in 2usize..14,
        salt in any::<u64>(),
        capped in any::<bool>(),
    ) {
        let (cap, policy) = if capped {
            (Some(BandwidthCap::new(3 + (salt % 7) as u32)), SendPolicy::Fragment)
        } else {
            (None, SendPolicy::Strict)
        };
        let outgoing = || -> Vec<Vec<(usize, u64)>> {
            (0..n)
                .map(|u| {
                    (0..(salt as usize + u) % 5)
                        .map(|k| {
                            let h = ((u * 31 + k) as u64)
                                .wrapping_add(salt)
                                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
                            // Recipients repeat (k and k + 2 often collide
                            // modulo n) and include u itself.
                            ((u + k * k) % n, h >> (h % 64))
                        })
                        .collect()
                })
                .collect()
        };
        let mut expected: Inboxes<u64> = vec![Vec::new(); n];
        for (u, msgs) in outgoing().into_iter().enumerate() {
            for (v, msg) in msgs {
                expected[v].push((u, msg));
            }
        }
        for spec in TransportSpec::all() {
            let mut engine = RoundEngine::new(Backend::Sequential, spec);
            let inboxes = engine.ship(n, "any-to-any", cap, policy, outgoing());
            prop_assert_eq!(&inboxes, &expected, "inboxes diverged on {}", spec);
            match spec {
                TransportSpec::Local => prop_assert!(engine.transport_stats().is_none()),
                TransportSpec::Tcp => {
                    let s = engine.transport_stats().copied().unwrap();
                    let (frames, payload_bytes, packets) =
                        recount(std::slice::from_ref(&expected), cap.unwrap_or(BandwidthCap::new(1)));
                    prop_assert_eq!((s.frames, s.payload_bytes), (frames, payload_bytes));
                    prop_assert_eq!(s.packets, if capped { packets } else { frames });
                }
            }
        }
    }
}

/// A strict-policy cap violation panics with the identical, byte-for-byte
/// assertion message whether the round ships through memory or sockets —
/// the panic fires at validation time, before any tier-specific code runs.
#[test]
fn cap_violation_panics_identically_on_every_tier() {
    let g: Graph = generators::ring(8);
    let cap = BandwidthCap::new(4);
    let mut payloads = Vec::new();
    for spec in TransportSpec::all() {
        let topo = NeighborTopology::new(&g);
        let mut engine = RoundEngine::new(Backend::Sequential, spec);
        let mut metrics = SimMetrics::default();
        let result = catch_unwind(AssertUnwindSafe(|| {
            engine.message_round(&topo, cap, SendPolicy::Strict, &mut metrics, |u| {
                g.neighbors(u)
                    .iter()
                    .map(|&v| (v, u64::MAX))
                    .collect::<Vec<(usize, u64)>>()
            });
        }));
        let payload = result
            .expect_err("a 64-bit payload must violate the 4-bit cap")
            .downcast_ref::<String>()
            .cloned()
            .expect("cap assertions carry String payloads");
        payloads.push(payload);
    }
    assert_eq!(
        payloads[0],
        "message of 64 bits exceeds CONGEST cap of 4 bits"
    );
    assert!(
        payloads.windows(2).all(|w| w[0] == w[1]),
        "tiers disagreed on the violation payload: {payloads:?}"
    );
}
