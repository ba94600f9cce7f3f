//! `experiments sweep`: CSV sweeps for plotting the round-complexity
//! scalings (finer-grained than the experiment tables). Each series prints
//! `series,x,rounds,iterations` rows to stdout; the series are declarative
//! [`Runner`] programs over the CONGEST scenario.
//!
//! ```text
//! cargo run --release -p dcl_bench --bin experiments -- sweep > sweeps.csv
//! ```

use dcl_coloring::scenario::CongestScenario;
use dcl_runner::{GraphSpec, Runner};

/// Prints one CSV series: `x` values paired with the sweep's cells.
fn print_series(series: &str, xs: &[usize], graphs: Vec<GraphSpec>) {
    let sweep = Runner::new(&CongestScenario::default())
        .graphs(graphs)
        .run();
    assert_eq!(xs.len(), sweep.cells.len());
    for (x, cell) in xs.iter().zip(&sweep.cells) {
        let r = cell.report();
        println!(
            "{series},{x},{},{}",
            r.metrics.rounds,
            r.extra("iterations").expect("congest publishes iterations")
        );
    }
}

/// Prints every series, header first.
pub fn run() {
    println!("series,x,rounds,iterations");
    // Rounds vs n at fixed degree (D grows slowly).
    let ns = [24usize, 32, 48, 64, 96, 128, 192, 256];
    print_series(
        "rounds_vs_n",
        &ns,
        ns.iter().map(|&n| GraphSpec::regular(n, 6, 5)).collect(),
    );
    // Rounds vs Δ at fixed n.
    let ds = [2usize, 3, 4, 6, 8, 12, 16, 24];
    print_series(
        "rounds_vs_delta",
        &ds,
        ds.iter().map(|&d| GraphSpec::regular(96, d, 5)).collect(),
    );
    // Rounds vs D: rings of growing length (D = n/2, Δ = 2 fixed).
    let ring_ns = [16usize, 32, 64, 128, 192];
    let diameters: Vec<usize> = ring_ns.iter().map(|&n| n / 2).collect();
    print_series(
        "rounds_vs_D",
        &diameters,
        ring_ns.iter().map(|&n| GraphSpec::ring(n)).collect(),
    );
}
