//! Theorem 1.1 rebuilt from its public layer functions, with a span around
//! every call, so the traced run can say where a `congest` solve spends its
//! time. The composition mirrors `dcl_coloring::congest_coloring` and
//! `dcl_coloring::partial` (paper defaults: MIS resolution, no extra
//! accuracy bits) and must reproduce `CongestScenario`'s report bit for bit.

use crate::trace::Recorder;
use dcl_coloring::derand_step::{accuracy_bits, derandomized_phase};
use dcl_coloring::instance::ListInstance;
use dcl_coloring::linial::linial_from_ids;
use dcl_coloring::mis::mis_bounded_degree;
use dcl_coloring::potential::PotentialTrace;
use dcl_coloring::prefix::PrefixState;
use dcl_congest::bfs::{build_bfs_forest, BfsForest};
use dcl_congest::network::Network;
use dcl_congest::tree::{aggregate_vec_forest_charged, broadcast_forest_charged};
use dcl_graphs::{Graph, NodeId};
use dcl_sim::{ExecConfig, SimMetrics};
use std::time::Instant;

/// Deterministic per-layer counts of one recomposed solve.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerCounts {
    pub iterations: u64,
    pub derand_phases: u64,
    /// Σ seed_len over all phases: the seed bits fixed by conditional
    /// expectations, one tree aggregate + broadcast each.
    pub derand_seed_bits: u64,
    /// Σ |conflict edges| · seed_len: Lemma 2.6 per-edge evaluations.
    pub derand_edge_evals: u64,
    pub derand: SimMetrics,
    pub psi: SimMetrics,
    pub bfs: SimMetrics,
    pub linial: SimMetrics,
    pub mis: SimMetrics,
    pub announce: SimMetrics,
}

/// The recomposed solve's result.
#[derive(Debug, Clone)]
pub struct Recomposed {
    pub colors: Vec<u64>,
    pub metrics: SimMetrics,
    pub counts: LayerCounts,
    pub forest: BfsForest,
}

/// Cost counters charged by `f` on `net`.
fn charged<R>(
    net: &mut Network<'_>,
    into: &mut SimMetrics,
    f: impl FnOnce(&mut Network<'_>) -> R,
) -> R {
    let before = net.metrics();
    let result = f(net);
    let after = net.metrics();
    into.rounds += after.rounds - before.rounds;
    into.messages += after.messages - before.messages;
    into.bits += after.bits - before.bits;
    result
}

/// Colors the `(degree+1)` instance of `graph` like
/// `CongestScenario::run`, recording one span per layer call into `rec`.
pub fn recomposed_solve(graph: &Graph, exec: &ExecConfig, rec: &mut Recorder) -> Recomposed {
    rec.span("thm11.solve", |rec| {
        let instance = ListInstance::degree_plus_one(graph.clone());
        let n = graph.n();
        let mut net = Network::from_exec(instance.graph(), instance.color_space(), exec);
        let mut counts = LayerCounts::default();
        let forest = rec.span("dcl_congest.bfs", |_| {
            charged(&mut net, &mut counts.bfs, build_bfs_forest)
        });
        let lin = rec.span("dcl_coloring.linial", |_| {
            charged(&mut net, &mut counts.linial, linial_from_ids)
        });
        let (psi, psi_palette) = (&lin.colors, lin.palette);

        let mut residual = instance.clone();
        let mut active = vec![true; n];
        let mut colors: Vec<Option<u64>> = vec![None; n];
        let mut remaining = n;
        while remaining > 0 {
            counts.iterations += 1;
            let colored = rec.span("dcl_coloring.iteration", |rec| {
                let colored = partial_coloring(
                    rec,
                    &mut net,
                    &forest,
                    &residual,
                    &active,
                    psi,
                    psi_palette,
                    &mut counts,
                );
                rec.span("dcl_coloring.announce", |_| {
                    charged(&mut net, &mut counts.announce, |net| {
                        let mut newly = vec![None; n];
                        for &(v, c) in &colored {
                            newly[v] = Some(c);
                        }
                        let inboxes = net.fragmented_broadcast_round(|v| newly[v]);
                        for &(v, c) in &colored {
                            colors[v] = Some(c);
                            active[v] = false;
                        }
                        for v in 0..n {
                            if active[v] {
                                for &(_, c) in &inboxes[v] {
                                    residual.remove_color(v, c);
                                }
                            }
                        }
                    })
                });
                colored
            });
            assert!(!colored.is_empty(), "a Lemma 2.1 iteration colored nothing");
            remaining -= colored.len();
        }
        Recomposed {
            colors: colors
                .into_iter()
                .map(|c| c.expect("loop exits only when all colored"))
                .collect(),
            metrics: net.metrics(),
            counts,
            forest,
        }
    })
}

/// Lemma 2.1 on the active nodes, as `dcl_coloring::partial::partial_coloring`
/// runs it, returning the nodes colored this iteration.
#[allow(clippy::too_many_arguments)]
fn partial_coloring(
    rec: &mut Recorder,
    net: &mut Network<'_>,
    forest: &BfsForest,
    instance: &ListInstance,
    active: &[bool],
    psi: &[u64],
    psi_palette: u64,
    counts: &mut LayerCounts,
) -> Vec<(NodeId, u64)> {
    let n = instance.graph().n();
    assert!(
        instance.slack_holds(active),
        "instance violates the (degree+1) slack"
    );
    rec.span("dcl_coloring.psi_exchange", |_| {
        charged(net, &mut counts.psi, |net| {
            let _ = net.fragmented_broadcast_round(|v| if active[v] { Some(psi[v]) } else { None });
        })
    });
    let max_deg = instance
        .graph()
        .nodes()
        .filter(|&v| active[v])
        .map(|v| {
            instance
                .graph()
                .neighbors(v)
                .iter()
                .filter(|&&u| active[u])
                .count()
        })
        .max()
        .unwrap_or(0);
    let b = accuracy_bits(max_deg, instance.color_bits(), 1);

    let mut state = PrefixState::new(instance, active);
    let mut trace = PotentialTrace::start(&state);
    for _ in 0..instance.color_bits() {
        let conflict_edges = state.conflict_edges().len() as u64;
        let outcome = rec.span("dcl_coloring.derand_phase", |_| {
            charged(net, &mut counts.derand, |net| {
                derandomized_phase(net, forest, instance, &mut state, psi, psi_palette, b)
            })
        });
        counts.derand_phases += 1;
        counts.derand_seed_bits += outcome.seed_len as u64;
        counts.derand_edge_evals += conflict_edges * outcome.seed_len as u64;
        trace.record(&state);
    }

    let (eligible, adj) = rec.span("dcl_coloring.conflict_pass", |_| {
        let eligible: Vec<bool> = (0..n)
            .map(|v| active[v] && state.conflict_degree(v) <= 3)
            .collect();
        let adj: Vec<Vec<NodeId>> = (0..n)
            .map(|v| {
                if eligible[v] {
                    state
                        .conflict_neighbors(v)
                        .iter()
                        .copied()
                        .filter(|&u| eligible[u])
                        .collect()
                } else {
                    Vec::new()
                }
            })
            .collect();
        (eligible, adj)
    });
    let keeps = rec.span("dcl_coloring.mis", |_| {
        charged(net, &mut counts.mis, |net| {
            mis_bounded_degree(net, &adj, &eligible, psi, psi_palette).in_set
        })
    });
    (0..n)
        .filter(|&v| keeps[v])
        .map(|v| (v, state.candidate_color(instance, v)))
        .collect()
}

/// Replays the tree collectives of the derandomization — one
/// `aggregate_vec_forest_charged` + `broadcast_forest_charged` per fixed
/// seed bit — on `forest` over a scratch network, returning the seconds
/// they took.
pub fn tree_replay(graph: &Graph, forest: &BfsForest, seed_bits: u64, exec: &ExecConfig) -> f64 {
    let instance = ListInstance::degree_plus_one(graph.clone());
    let mut net = Network::from_exec(instance.graph(), instance.color_space(), exec);
    let n = graph.n();
    let vectors: Vec<Vec<f64>> = (0..n).map(|v| vec![v as f64, (n - v) as f64]).collect();
    let mut choices = vec![false; forest.trees.len()];
    let start = Instant::now();
    for _ in 0..seed_bits {
        let sums = aggregate_vec_forest_charged(&mut net, forest, &vectors, 2);
        for (c, s) in choices.iter_mut().zip(&sums) {
            *c = s[1] < s[0];
        }
        std::hint::black_box(broadcast_forest_charged(&mut net, forest, &choices));
    }
    start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcl_coloring::scenario::CongestScenario;
    use dcl_graphs::generators;
    use dcl_runner::Scenario;
    use dcl_sim::Backend;

    #[test]
    fn recomposed_pipeline_is_bit_identical_to_the_scenario() {
        for (graph, backend) in [
            (generators::gnp(60, 0.15, 3), Backend::Sequential),
            (
                generators::power_law(300, 2.5, 4.0, 9),
                Backend::Parallel(2),
            ),
            (generators::ring(31), Backend::Sequential),
        ] {
            let exec = ExecConfig::default().with_backend(backend);
            let report = CongestScenario::default().run(&graph, &exec).unwrap();
            let mut rec = Recorder::new();
            let got = recomposed_solve(&graph, &exec, &mut rec);
            assert_eq!(got.colors, report.colors);
            assert_eq!(got.metrics, report.metrics);
            assert_eq!(Some(got.counts.iterations), report.extra("iterations"));

            let c = got.counts;
            assert!(c.derand_phases >= c.iterations);
            assert!(c.derand_seed_bits >= c.derand_phases);
            // Every round is charged to exactly one layer.
            let layered = c.bfs.rounds
                + c.linial.rounds
                + c.psi.rounds
                + c.derand.rounds
                + c.mis.rounds
                + c.announce.rounds;
            assert_eq!(layered, got.metrics.rounds);
            assert_eq!(rec.get("dcl_coloring.derand_phase").count, c.derand_phases);
            assert_eq!(rec.get("thm11.solve").count, 1);
        }
    }

    #[test]
    fn tree_replay_runs_once_per_seed_bit() {
        let graph = generators::gnp(40, 0.2, 1);
        let mut rec = Recorder::new();
        let got = recomposed_solve(&graph, &ExecConfig::default(), &mut rec);
        assert!(tree_replay(&graph, &got.forest, 10, &ExecConfig::default()) >= 0.0);
    }
}
