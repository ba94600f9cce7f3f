//! Release-gated scale smoke tests (n = 10⁵): the scale-tier generators, the
//! round loop's cost metering and the full coloring pipeline at sizes the
//! experiment harness targets. Debug builds mark these `#[ignore]` — run
//! them with `cargo test --release`.

use distributed_coloring::coloring::congest_coloring::{
    color_degree_plus_one, CongestColoringConfig,
};
use distributed_coloring::congest::network::Network;
use distributed_coloring::graphs::{generators, validation};
use distributed_coloring::sim::Wire;
use distributed_coloring::Backend;

const SCALE_N: usize = 100_000;

#[test]
#[cfg_attr(debug_assertions, ignore = "scale test; run with cargo test --release")]
fn scale_generators_build_100k_graphs() {
    let gnp = generators::gnp(SCALE_N, 8.0 / SCALE_N as f64, 1);
    assert_eq!(gnp.n(), SCALE_N);
    let expect = SCALE_N as f64 * 4.0;
    assert!((gnp.m() as f64 - expect).abs() < 0.05 * expect);

    let pl = generators::power_law(SCALE_N, 2.5, 4.0, 7);
    assert!(pl.m() > SCALE_N);
    assert!(pl.max_degree() > 500, "power law should have heavy head");

    let ex = generators::expander(SCALE_N, 8, 1);
    assert!(ex.max_degree() <= 8);
    assert!(ex.nodes().filter(|&v| ex.degree(v) == 8).count() > SCALE_N - 100);
}

/// Five unicast and five broadcast rounds on the heavy-headed power-law
/// graph cost exactly what the graph and `Wire::wire_bits` say: one round
/// each (every payload fits the default cap), one message per delivery,
/// and the payload widths summed over the deliveries.
#[test]
#[cfg_attr(debug_assertions, ignore = "scale test; run with cargo test --release")]
fn scale_rounds_meter_closed_form_costs_on_power_law() {
    let g = generators::power_law(SCALE_N, 2.5, 4.0, 7);
    let mut net = Network::with_default_cap(&g, SCALE_N as u64);
    let (mut messages, mut bits) = (0u64, 0u64);
    for v in g.nodes() {
        for &u in g.neighbors(v) {
            if (u ^ v).is_multiple_of(4) {
                messages += 1;
                bits += u64::from(((v ^ u) as u64).wire_bits());
            }
            if v.is_multiple_of(7) {
                messages += 1;
                bits += u64::from((v as u64).wire_bits());
            }
        }
    }
    let mut delivered = 0;
    for _ in 0..5 {
        let inboxes = net.round(|v| {
            g.neighbors(v)
                .iter()
                .filter(|&&u| (u ^ v).is_multiple_of(4))
                .map(|&u| (u, (v ^ u) as u64))
                .collect()
        });
        delivered += inboxes.iter().map(Vec::len).sum::<usize>();
        let inboxes = net.broadcast_round(|v| v.is_multiple_of(7).then_some(v as u64));
        delivered += inboxes.iter().map(Vec::len).sum::<usize>();
    }
    let metrics = net.metrics();
    assert_eq!(metrics.rounds, 10);
    assert_eq!(metrics.messages, 5 * messages);
    assert_eq!(metrics.bits, 5 * bits);
    assert_eq!(delivered as u64, metrics.messages);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "scale test; run with cargo test --release")]
fn scale_coloring_completes_on_100k_expander() {
    let g = generators::expander(SCALE_N, 8, 1);
    let par = color_degree_plus_one(
        &g,
        &CongestColoringConfig::default().with_exec(
            distributed_coloring::sim::ExecConfig::default().with_backend(Backend::Parallel(0)),
        ),
    );
    assert_eq!(validation::check_proper(&g, &par.colors), None);
    // (Δ+1)-coloring: palette ≤ 9.
    assert!(par.colors.iter().all(|&c| c <= 8));
}
