//! Engine-level rejection property: the model-violation panic raised by
//! [`NeighborTopology`]'s addressing check names the offending pair.

use dcl_graphs::generators;
use dcl_par::Backend;
use dcl_sim::{BandwidthCap, NeighborTopology, RoundEngine, SendPolicy, SimMetrics, TransportSpec};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Runs one round in which `sender_node` messages `target` (plus every node
/// messaging its real neighbors) and returns the panic message, if any.
fn round_panic_message(g: &dcl_graphs::Graph, sender_node: usize, target: usize) -> Option<String> {
    let topo = NeighborTopology::new(g);
    let mut engine = RoundEngine::new(Backend::Sequential, TransportSpec::Local);
    let mut metrics = SimMetrics::default();
    let result = catch_unwind(AssertUnwindSafe(|| {
        engine.message_round(
            &topo,
            BandwidthCap::two_words(),
            SendPolicy::Strict,
            &mut metrics,
            |v| {
                let mut msgs: Vec<(usize, u64)> = g
                    .neighbors(v)
                    .iter()
                    .map(|&u| (u, (v + u) as u64))
                    .collect();
                if v == sender_node {
                    msgs.push((target, 7));
                }
                msgs
            },
        )
    }));
    result.err().map(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| {
                payload
                    .downcast_ref::<&'static str>()
                    .map(|s| s.to_string())
            })
            .unwrap_or_else(|| "<non-string panic payload>".into())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A send to a non-neighbor panics with a message naming the pair.
    #[test]
    fn non_neighbor_rejection_names_the_pair(
        n in 6usize..80,
        p in 0.05f64..0.4,
        seed in any::<u64>(),
        pick in any::<u64>(),
    ) {
        let g = generators::gnp(n, p, seed);
        // Deterministically pick a non-adjacent ordered pair (u, w).
        let mut non_edge = None;
        'outer: for off in 0..n {
            let u = (pick as usize + off) % n;
            for w in 0..n {
                if w != u && !g.has_edge(u, w) {
                    non_edge = Some((u, w));
                    break 'outer;
                }
            }
        }
        prop_assume!(non_edge.is_some()); // complete graphs have no non-edge
        let (u, w) = non_edge.unwrap();

        let message = round_panic_message(&g, u, w);
        let expected = format!("node {u} attempted to send to non-neighbor {w}");
        prop_assert_eq!(message.as_deref(), Some(expected.as_str()));
    }
}
