//! The two solve workloads, `thm11-powerlaw` and `clique-mpc`: scenario
//! runs through `run_protected` on `Parallel(2)`, one cycle over the seed's
//! input set after another until the run's seconds are used up.

use crate::inputs::{self, CliqueMpcSet};
use crate::report::{Gate, Metrics};
use crate::stats::{self, median};
use crate::thm11;
use crate::trace::Recorder;
use dcl_graphs::Graph;
use dcl_runner::{run_protected, Report, RunError, Scenario};
use dcl_sim::{Backend, ExecConfig};
use std::time::Instant;

/// Set-ups timed per run; `setup_s` is their median.
pub const SETUPS: usize = 9;

pub fn parallel() -> ExecConfig {
    ExecConfig::default().with_backend(Backend::Parallel(2))
}

pub fn scenario(name: &str) -> Box<dyn Scenario> {
    dcl_service::build_scenario(name).expect("registered scenario")
}

/// Runs `setup` [`SETUPS`] times; returns the last result and the median
/// wall-clock seconds. Earlier results are dropped outside the timed span
/// (a dropped service session shuts its server down).
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let value = setup();
        times.push(start.elapsed().as_secs_f64());
        last = Some(value);
    }
    (
        last.expect("at least one set-up"),
        median(&times).expect("samples"),
    )
}

/// One operation of a solve workload: the scenario runs on one input
/// (one graph for Theorem 1.1, one graph set for clique/MPC).
type Operation<'a> = Box<dyn Fn() -> Vec<(String, Result<Report, RunError>)> + 'a>;

/// Checks one operation's reports: each run must succeed with a valid
/// coloring, and equal the first cycle's report for the same input.
fn gate_operation(
    gate: &mut Gate,
    label: &str,
    runs: &[(String, Result<Report, RunError>)],
    first: Option<&[(String, Result<Report, RunError>)]>,
) {
    for (i, (name, outcome)) in runs.iter().enumerate() {
        let ok = match outcome {
            Ok(report) => {
                report.valid() && first.is_none_or(|f| matches!(&f[i].1, Ok(r) if r == report))
            }
            Err(_) => false,
        };
        gate.check(ok, || match outcome {
            Ok(r) if !r.valid() => format!("{label} {name}: invalid coloring"),
            Ok(_) => format!("{label} {name}: report differs from the first cycle"),
            Err(e) => format!("{label} {name}: {e}"),
        });
    }
}

/// Cycles over `operations` while the next cycle is projected to end
/// within `seconds` (always at least one full cycle) and reports the
/// end-to-end metrics of a solve workload.
fn measure(operations: &[Operation<'_>], seconds: f64, setup_s: f64, gate: &mut Gate) -> Metrics {
    let mut latencies = Vec::new();
    let mut per_input: Vec<Vec<f64>> = vec![Vec::new(); operations.len()];
    let mut cycles = 0;
    let mut first: Vec<Vec<(String, Result<Report, RunError>)>> = Vec::new();
    let cpu_start = stats::process_cpu_s();
    let start = Instant::now();
    loop {
        let cycle_start = Instant::now();
        for (k, operation) in operations.iter().enumerate() {
            let t = Instant::now();
            let runs = operation();
            let s = t.elapsed().as_secs_f64();
            latencies.push(s * 1e3);
            per_input[k].push(s);
            let label = format!("input {k}");
            gate_operation(gate, &label, &runs, first.get(k).map(Vec::as_slice));
            if first.len() == k {
                first.push(runs);
            }
        }
        cycles += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + cycle_start.elapsed().as_secs_f64() > seconds {
            break;
        }
    }
    // A typical cycle: each input at its median time.
    let solve_s: f64 = per_input
        .iter()
        .map(|t| median(t).expect("one cycle"))
        .sum();
    let solved = start.elapsed().as_secs_f64();
    let cpu_s = (stats::process_cpu_s() - cpu_start) / f64::from(cycles);
    let reports = first.iter().flatten().filter_map(|(_, r)| r.as_ref().ok());
    let (rounds, bits) = reports.fold((0u64, 0u64), |(r, b), rep| {
        (r + rep.metrics.rounds, b + rep.metrics.bits)
    });

    let mut m = Metrics::default();
    m.put("setup_s", setup_s, "s");
    m.put("solve_s", solve_s, "s");
    m.put("cpu_s", cpu_s, "s");
    m.put("peak_rss_mb", stats::peak_rss_mb(), "MB");
    m.put("rounds", rounds as f64, "count");
    m.put("bits", bits as f64, "count");
    m.put("latency_p50_ms", median(&latencies).expect("samples"), "ms");
    m.put(
        "latency_p99_ms",
        stats::tail(&latencies).expect("samples"),
        "ms",
    );
    m.put("throughput_rps", latencies.len() as f64 / solved, "1/s");
    m
}

/// `thm11-powerlaw`, tracing off.
pub fn thm11_untraced(seed: u64, seconds: f64, gate: &mut Gate) -> Metrics {
    let (graphs, setup_s) = timed_setup(|| inputs::thm11_graphs(seed));
    let congest = scenario("congest");
    let exec = parallel();
    let operations: Vec<Operation<'_>> = graphs
        .iter()
        .map(|g| -> Operation<'_> {
            let (congest, exec) = (&congest, &exec);
            Box::new(move || vec![("congest".into(), run_protected(congest.as_ref(), g, exec))])
        })
        .collect();
    measure(&operations, seconds, setup_s, gate)
}

fn clique_mpc_runs(
    set: &CliqueMpcSet,
    exec: &ExecConfig,
) -> Vec<(String, Result<Report, RunError>)> {
    [
        ("clique", &set.clique),
        ("mpc-linear", &set.mpc),
        ("mpc-sublinear", &set.mpc),
    ]
    .into_iter()
    .map(|(name, g)| {
        (
            name.to_string(),
            run_protected(scenario(name).as_ref(), g, exec),
        )
    })
    .collect()
}

/// `clique-mpc`, tracing off.
pub fn clique_mpc_untraced(seed: u64, seconds: f64, gate: &mut Gate) -> Metrics {
    let (sets, setup_s) = timed_setup(|| {
        inputs::clique_mpc_sets(
            seed,
            inputs::CLIQUE_MPC_SETS,
            inputs::CLIQUE_N,
            inputs::MPC_N,
        )
    });
    let exec = parallel();
    let operations: Vec<Operation<'_>> = sets
        .iter()
        .map(|set| -> Operation<'_> {
            let exec = &exec;
            Box::new(move || clique_mpc_runs(set, exec))
        })
        .collect();
    measure(&operations, seconds, setup_s, gate)
}

/// Per-layer metrics of Theorem 1.1 on `graph`: an untraced solve, the
/// traced recomposition (checked bit-identical to it), the tree-collective
/// replay and a Sequential solve for the backend speed-up. Returns the
/// metrics and the traced over untraced wall-clock ratio.
pub fn thm11_traced(graph: &Graph, rec: &mut Recorder, gate: &mut Gate) -> (Metrics, f64) {
    let exec = parallel();
    let congest = scenario("congest");
    // Untraced solves on both sides of the traced one, so neither side
    // alone pays the cold start; the faster one is the reference.
    let untraced_solve = || {
        let start = Instant::now();
        let report = run_protected(congest.as_ref(), graph, &exec);
        (report, start.elapsed().as_secs_f64())
    };
    let (untraced, before_s) = untraced_solve();
    let spans_before = rec.spans().len();
    let got = thm11::recomposed_solve(graph, &exec, rec);
    let traced_s = rec.spans()[spans_before].duration_ns() as f64 * 1e-9;
    let (again, after_s) = untraced_solve();
    let untraced_s = before_s.min(after_s);
    let same = |r: &Report| r.valid() && r.colors == got.colors && r.metrics == got.metrics;
    gate.check(matches!(&untraced, Ok(r) if same(r)), || {
        "thm11 recomposed pipeline differs from CongestScenario::run".to_string()
    });
    gate.check(matches!(&again, Ok(r) if same(r)), || {
        "thm11 repeated CongestScenario::run differs".to_string()
    });
    let tree_s = thm11::tree_replay(graph, &got.forest, got.counts.derand_seed_bits, &exec);

    let start = Instant::now();
    let sequential = run_protected(congest.as_ref(), graph, &ExecConfig::default());
    let sequential_s = start.elapsed().as_secs_f64();
    gate.check(matches!(&sequential, Ok(r) if same(r)), || {
        "thm11 Sequential report differs from Parallel(2)".to_string()
    });

    let c = got.counts;
    let s = |name: &str| rec.get(name).total_s();
    let derand_s = s("dcl_coloring.derand_phase");
    let mut m = Metrics::default();
    m.put("dcl_coloring.derand_phase_s", derand_s, "s");
    m.put(
        "dcl_coloring.derand_phases",
        c.derand_phases as f64,
        "count",
    );
    m.put(
        "dcl_coloring.derand_seed_bits",
        c.derand_seed_bits as f64,
        "count",
    );
    m.put(
        "dcl_coloring.derand_edge_evals",
        c.derand_edge_evals as f64,
        "count",
    );
    let evals = c.derand_edge_evals.max(1) as f64;
    m.put(
        "dcl_coloring.derand_ns_per_edge_eval",
        derand_s * 1e9 / evals,
        "ns",
    );
    m.put(
        "dcl_coloring.derand_rounds",
        c.derand.rounds as f64,
        "count",
    );
    m.put("dcl_coloring.derand_bits", c.derand.bits as f64, "count");
    m.put("dcl_congest.tree_s", tree_s, "s");
    m.put("dcl_congest.bfs_s", s("dcl_congest.bfs"), "s");
    m.put("dcl_congest.bfs_rounds", c.bfs.rounds as f64, "count");
    m.put("dcl_coloring.linial_s", s("dcl_coloring.linial"), "s");
    m.put(
        "dcl_coloring.linial_rounds",
        c.linial.rounds as f64,
        "count",
    );
    m.put("dcl_coloring.mis_s", s("dcl_coloring.mis"), "s");
    m.put("dcl_coloring.mis_rounds", c.mis.rounds as f64, "count");
    m.put("dcl_coloring.announce_s", s("dcl_coloring.announce"), "s");
    m.put(
        "dcl_coloring.announce_rounds",
        c.announce.rounds as f64,
        "count",
    );
    m.put("dcl_coloring.iterations", c.iterations as f64, "count");
    m.put("dcl_par.speedup", sequential_s / untraced_s, "x");
    (m, traced_s / untraced_s)
}

/// Per-layer metrics of the clique/MPC pipelines over `sets`: an untraced
/// pass, then a traced pass with one span per scenario run (its reports
/// must equal the untraced ones). Returns the metrics and the traced over
/// untraced wall-clock ratio.
pub fn clique_mpc_traced(
    sets: &[CliqueMpcSet],
    rec: &mut Recorder,
    gate: &mut Gate,
) -> (Metrics, f64) {
    let exec = parallel();
    let start = Instant::now();
    let untraced: Vec<_> = sets.iter().map(|set| clique_mpc_runs(set, &exec)).collect();
    let untraced_s = start.elapsed().as_secs_f64();

    let spans_before = rec.spans().len();
    let traced: Vec<Vec<(String, Result<Report, RunError>)>> = rec.span("clique_mpc.pass", |rec| {
        sets.iter()
            .map(|set| {
                [
                    ("dcl_clique.solve", "clique", &set.clique),
                    ("dcl_mpc.linear", "mpc-linear", &set.mpc),
                    ("dcl_mpc.sublinear", "mpc-sublinear", &set.mpc),
                ]
                .into_iter()
                .map(|(span, name, g)| {
                    let outcome =
                        rec.span(span, |_| run_protected(scenario(name).as_ref(), g, &exec));
                    (name.to_string(), outcome)
                })
                .collect()
            })
            .collect()
    });
    let traced_s = rec.spans()[spans_before].duration_ns() as f64 * 1e-9;
    for (k, (runs, first)) in traced.iter().zip(&untraced).enumerate() {
        gate_operation(gate, &format!("set {k}"), runs, Some(first));
    }

    let mut totals = [[0u64; 4]; 3];
    for runs in &traced {
        for (i, (_, outcome)) in runs.iter().enumerate() {
            if let Ok(r) = outcome {
                let extra = |k: &str| r.extra(k).unwrap_or(0);
                let row = [
                    r.metrics.rounds,
                    r.metrics.bits,
                    extra("iterations"),
                    extra("collected_nodes"),
                ];
                for (t, v) in totals[i].iter_mut().zip(row) {
                    *t += v;
                }
            }
        }
    }
    let s = |name: &str| rec.get(name).total_s();
    let mut m = Metrics::default();
    m.put("dcl_clique.solve_s", s("dcl_clique.solve"), "s");
    m.put("dcl_clique.rounds", totals[0][0] as f64, "count");
    m.put("dcl_clique.iterations", totals[0][2] as f64, "count");
    m.put("dcl_clique.collected_nodes", totals[0][3] as f64, "count");
    m.put("dcl_mpc.linear_s", s("dcl_mpc.linear"), "s");
    m.put("dcl_mpc.linear_words", totals[1][1] as f64, "count");
    m.put("dcl_mpc.sublinear_s", s("dcl_mpc.sublinear"), "s");
    m.put("dcl_mpc.sublinear_rounds", totals[2][0] as f64, "count");
    (m, traced_s / untraced_s)
}
