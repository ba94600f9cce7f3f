//! `experiments scale`: the scale tier recorded in `BENCH_scale.json` —
//! generator throughput at 10⁵–10⁶ nodes, the full Theorem 1.1 coloring on
//! scale instances on both backends, and the `dcl_delta` Δ-coloring on the
//! 10⁴-node expander, with the machine profile needed to interpret the
//! numbers (on a single-core runner the parallel backend can only tie the
//! sequential one; the baseline records whatever was measured).
//!
//! ```text
//! cargo run --release -p dcl_bench --bin experiments -- scale [--json out.json] [--quick]
//! ```
//!
//! The document goes to stdout, and also to `out.json` under `--json`.
//! `--quick` skips the long power-law coloring (for PR-gating CI runs); the
//! committed baseline is produced by a full run.

use dcl_coloring::congest_coloring::{color_degree_plus_one, CongestColoringConfig};
use dcl_congest::Backend;
use dcl_graphs::{generators, validation, Graph};
use std::fmt::Write as _;
use std::time::Instant;

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

struct GenRow {
    name: &'static str,
    n: usize,
    m: usize,
    max_degree: usize,
    ms: f64,
}

struct PairRow {
    workload: String,
    sequential_ms: f64,
    parallel_ms: f64,
    congest_rounds: u64,
    identical: bool,
}

fn time_generator(name: &'static str, n: usize, f: impl Fn() -> Graph) -> GenRow {
    let t = Instant::now();
    let g = f();
    GenRow {
        name,
        n,
        m: g.m(),
        max_degree: g.max_degree(),
        ms: ms(t),
    }
}

fn time_coloring(workload: String, g: &Graph, threads: usize) -> PairRow {
    let t = Instant::now();
    let seq = color_degree_plus_one(g, &CongestColoringConfig::default());
    let sequential_ms = ms(t);
    let t = Instant::now();
    let par = color_degree_plus_one(
        g,
        &CongestColoringConfig::default()
            .with_exec(dcl_sim::ExecConfig::default().with_backend(Backend::Parallel(threads))),
    );
    let parallel_ms = ms(t);
    assert_eq!(validation::check_proper(g, &seq.colors), None);
    PairRow {
        workload,
        sequential_ms,
        parallel_ms,
        congest_rounds: seq.metrics.rounds,
        identical: seq.colors == par.colors && seq.metrics == par.metrics,
    }
}

/// Times the `dcl_delta` Δ-coloring on both backends.
fn time_delta(workload: String, g: &Graph, threads: usize) -> PairRow {
    use dcl_delta::{delta_color, DeltaColoringConfig};
    let t = Instant::now();
    let seq = delta_color(g, &DeltaColoringConfig::default()).expect("no Brooks obstruction");
    let sequential_ms = ms(t);
    let t = Instant::now();
    let par = delta_color(
        g,
        &DeltaColoringConfig::default()
            .with_exec(dcl_sim::ExecConfig::default().with_backend(Backend::Parallel(threads))),
    )
    .expect("no Brooks obstruction");
    let parallel_ms = ms(t);
    assert_eq!(validation::check_proper(g, &seq.colors), None);
    assert!(seq.colors.iter().all(|&c| c < g.max_degree() as u64));
    PairRow {
        workload,
        sequential_ms,
        parallel_ms,
        congest_rounds: seq.metrics.rounds,
        identical: seq == par,
    }
}

/// Runs the tier, prints the `bench_scale/v1` document and, given a path,
/// writes it there.
pub fn run(json_out: Option<&str>, quick: bool) {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!("scale: {threads} hardware threads, quick = {quick}");

    // --- Generator throughput. -------------------------------------------
    let mut gens = Vec::new();
    for n in [100_000usize, 1_000_000] {
        gens.push(time_generator("gnp", n, || {
            generators::gnp(n, 8.0 / n as f64, 1)
        }));
        gens.push(time_generator("power_law", n, || {
            generators::power_law(n, 2.5, 4.0, 7)
        }));
        gens.push(time_generator("expander", n, || {
            generators::expander(n, 8, 1)
        }));
        eprintln!("generators at n = {n} done");
    }

    // --- Full colorings. --------------------------------------------------
    let mut colorings = Vec::new();
    let ex = generators::expander(100_000, 8, 1);
    colorings.push(time_coloring("expander(100000, 8)".into(), &ex, threads));
    eprintln!("expander coloring done");
    let dg = generators::expander(10_000, 8, 1);
    colorings.push(time_coloring("expander(10000, 8)".into(), &dg, threads));
    eprintln!("10⁴-node expander coloring done");
    colorings.push(time_delta("delta: expander(10000, 8)".into(), &dg, threads));
    eprintln!("delta coloring done");
    if !quick {
        let pl = generators::power_law(100_000, 2.5, 4.0, 7);
        colorings.push(time_coloring(
            "power_law(100000, 2.5, 4)".into(),
            &pl,
            threads,
        ));
        eprintln!("power-law coloring done");
    }

    // --- Emit JSON. -------------------------------------------------------
    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(j, "  \"schema\": \"bench_scale/v1\",");
    let _ = writeln!(
        j,
        "  \"machine\": {},",
        dcl_runner::MachineProfile::current().json_object()
    );
    let _ = writeln!(j, "  \"generators\": [");
    for (i, r) in gens.iter().enumerate() {
        let comma = if i + 1 < gens.len() { "," } else { "" };
        let _ = writeln!(
            j,
            "    {{ \"name\": \"{}\", \"n\": {}, \"m\": {}, \"max_degree\": {}, \"ms\": {:.1} }}{comma}",
            r.name, r.n, r.m, r.max_degree, r.ms
        );
    }
    let _ = writeln!(j, "  ],");
    let pair = |r: &PairRow| {
        format!(
            "{{ \"workload\": \"{}\", \"sequential_ms\": {:.1}, \"parallel_ms\": {:.1}, \"speedup\": {:.3}, \"congest_rounds\": {}, \"bit_identical\": {} }}",
            r.workload,
            r.sequential_ms,
            r.parallel_ms,
            r.sequential_ms / r.parallel_ms,
            r.congest_rounds,
            r.identical
        )
    };
    let _ = writeln!(j, "  \"coloring\": [");
    for (i, r) in colorings.iter().enumerate() {
        let comma = if i + 1 < colorings.len() { "," } else { "" };
        let _ = writeln!(j, "    {}{comma}", pair(r));
    }
    let _ = writeln!(j, "  ]");
    let _ = writeln!(j, "}}");
    println!("{j}");
    if let Some(out_path) = json_out {
        std::fs::write(out_path, &j).expect("write scale baseline json");
        eprintln!("wrote {out_path}");
    }
}
