//! The workspace benchmark: end-to-end metrics with tracing off, per-layer
//! metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <thm11-powerlaw|clique-mpc|serve-mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Workloads, metrics and the layer
//! each metric belongs to are described in `perfbench/README.md`.

mod inputs;
mod report;
mod serve;
mod solve;
mod stats;
mod thm11;
mod trace;

use report::{Gate, Metrics};
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Recorder;

const WORKLOADS: [&str; 3] = ["thm11-powerlaw", "clique-mpc", "serve-mix"];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(20.0);
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// End-to-end metrics, tracing off.
fn untraced(args: &Args, gate: &mut Gate) -> Result<Metrics, String> {
    match args.workload.as_str() {
        "thm11-powerlaw" => Ok(solve::thm11_untraced(args.seed, args.seconds, gate)),
        "clique-mpc" => Ok(solve::clique_mpc_untraced(args.seed, args.seconds, gate)),
        _ => serve::serve_untraced(args.seed, args.seconds, gate),
    }
}

/// Per-layer metrics. Each traced run measures every layer, so every run
/// prints the same metric set: the workload's own layers on its full
/// inputs, the other workloads' layers on small probe inputs from the same
/// seed. `trace.overhead` belongs to the workload's own layers.
fn traced(args: &Args, rec: &mut Recorder, gate: &mut Gate) -> Result<Metrics, String> {
    let home = args.workload.as_str();
    let seed = args.seed;
    let mut m = Metrics::default();

    let graph = if home == "thm11-powerlaw" {
        inputs::thm11_graphs(seed).swap_remove(0)
    } else {
        dcl_graphs::generators::power_law(500, inputs::THM11_GAMMA, inputs::THM11_AVG_DEGREE, seed)
    };
    let (layers, thm11_overhead) = solve::thm11_traced(&graph, rec, gate);
    m.extend(layers);

    let sets = if home == "clique-mpc" {
        inputs::clique_mpc_sets(
            seed,
            inputs::CLIQUE_MPC_TRACED_SETS,
            inputs::CLIQUE_N,
            inputs::MPC_N,
        )
    } else {
        inputs::clique_mpc_sets(seed, 1, 32, 64)
    };
    let (layers, clique_mpc_overhead) = solve::clique_mpc_traced(&sets, rec, gate);
    m.extend(layers);

    let (open, closed) = if home == "serve-mix" {
        (serve::open_requests(args.seconds), serve::CLOSED_REQUESTS)
    } else {
        (60, 24)
    };
    let (layers, serve_overhead) = serve::serve_traced(seed, open, closed, rec, gate)?;
    m.extend(layers);

    let overhead = match home {
        "thm11-powerlaw" => thm11_overhead,
        "clique-mpc" => clique_mpc_overhead,
        _ => serve_overhead,
    };
    m.put("trace.overhead", overhead, "ratio");
    Ok(m)
}

/// Self time per span name, largest first, on standard error.
fn print_span_summary(rec: &Recorder) {
    let mut rows: Vec<_> = rec.totals().into_iter().collect();
    rows.sort_by_key(|row| std::cmp::Reverse(row.1.self_ns));
    eprintln!(
        "{:<34} {:>8} {:>12} {:>12}",
        "span", "count", "total_s", "self_s"
    );
    for (name, t) in rows {
        eprintln!(
            "{name:<34} {:>8} {:>12.6} {:>12.6}",
            t.count,
            t.total_s(),
            t.self_s()
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The host loop runs at both ends of the run; `host.calib_ms` is the
    // median of all ten timings.
    let mut calib = stats::host_calibration_ms();
    let steal_start = stats::host_steal_s();
    let mut gate = Gate::default();
    let mut rec = Recorder::new();
    let result = if args.trace {
        traced(&args, &mut rec, &mut gate)
    } else {
        untraced(&args, &mut gate)
    };
    let steal_s = stats::host_steal_s() - steal_start;
    let calib_start_ms = stats::median(&calib).expect("five timings");
    let calib_end = stats::host_calibration_ms();
    let calib_end_ms = stats::median(&calib_end).expect("five timings");
    calib.extend(calib_end);
    let calib_ms = stats::median(&calib).expect("ten timings");
    let result = result.map(|mut m| {
        if args.trace {
            m.put("host.calib_ms", calib_ms, "ms");
        }
        m
    });
    let metrics = match result {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        print_span_summary(&rec);
        let path = PathBuf::from(format!(
            "perfbench/trace-out/{}-seed{}.jsonl",
            args.workload, args.seed
        ));
        match rec.write_jsonl(&path) {
            Ok(()) => eprintln!("spans: {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    for failure in &gate.failures {
        eprintln!("FAILED: {failure}");
    }
    let correct = gate.failures.is_empty();
    for (name, value, unit) in metrics.iter() {
        println!("{name:<40} {value:>16.6} {unit}");
    }
    println!("{:<40} {:>16.6} ratio", "failed_share", gate.failed_share());
    println!(
        "{:<40} {calib_ms:>16.6} ms (start {calib_start_ms:.3}, end {calib_end_ms:.3})",
        "host.calib_ms"
    );
    println!("{:<40} {steal_s:>16.6} s", "host.steal_s");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        gate.attempted,
        gate.failures.len(),
        metrics.to_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
