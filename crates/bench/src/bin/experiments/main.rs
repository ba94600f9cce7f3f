//! The harness binary: the experiment tables, the micro-bench fixtures, the
//! scale tier and the CSV sweeps, one subcommand each.
//!
//! ```text
//! cargo run -p dcl_bench --bin experiments --release -- [--json <out.json>] [ids…]
//! cargo run -p dcl_bench --bin experiments --release -- bench [--json <out.json>] [--check|--check-warn <baseline.json>] [suites…]
//! cargo run -p dcl_bench --bin experiments --release -- scale [--json <out.json>] [--quick]
//! cargo run -p dcl_bench --bin experiments --release -- sweep
//! ```
//!
//! Without a subcommand it runs the registered experiment tables (E1–E15)
//! and prints them. Optional ids select experiments by registry id
//! (`E12 E13`); without ids every experiment runs. `--json <out.json>`
//! additionally records the chosen tables, with the same machine-profile
//! header as `BENCH_scale.json`, so a run can be diffed row by row against
//! the committed baseline; `--json BENCH_experiments.json` with no ids
//! regenerates it. The experiment list comes from
//! [`dcl_bench::experiment_defs`] and the JSON from
//! [`dcl_runner::baseline_json`]. The experiments are deterministic (fixed
//! seeds, derandomized algorithms), so everything except the wall-clock
//! fields is reproducible bit for bit on any machine;
//! `tests/experiments_schema.rs` pins the rows against the committed file.
//!
//! `bench` times the [`dcl_bench::micro`] fixtures (optionally only the
//! named suites, e.g. `bench_kernels`) and prints one line per row;
//! `--json BENCH_bench.json` regenerates the committed baseline.
//! `--check <baseline>` instead reports each row against a committed
//! baseline and exits non-zero when one is slower than
//! [`CHECK_TOLERANCE`]× its committed value; `--check-warn` is the
//! CI-friendly variant — same report, exit 0 — because shared runners are
//! noisy enough that a hard gate on wall-clock would flake.
//!
//! `scale` records the scale tier (`BENCH_scale.json`, see [`scale`]) and
//! `sweep` prints the CSV round-complexity series (see [`sweep`]).

mod scale;
mod sweep;

use dcl_bench::micro::{self, BenchRow, CHECK_TOLERANCE};
use dcl_runner::{baseline_json, MachineProfile};
use std::time::Instant;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let subcommand = match args.first().map(String::as_str) {
        Some("bench" | "scale" | "sweep") => Some(args.remove(0)),
        _ => None,
    };
    match subcommand.as_deref() {
        Some("bench") => bench(args),
        Some("scale") => {
            let json_out = take_value(&mut args, "--json");
            let before = args.len();
            args.retain(|a| a != "--quick");
            let quick = args.len() < before;
            require_known(&args, &[], "scale argument");
            scale::run(json_out.as_deref(), quick);
        }
        Some("sweep") => {
            require_known(&args, &[], "sweep argument");
            sweep::run();
        }
        _ => experiments(args),
    }
}

/// Removes `flag <value>` from `args` and returns the value.
fn take_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 == args.len() {
        eprintln!("{flag} needs a path");
        std::process::exit(2);
    }
    let value = args.remove(i + 1);
    args.remove(i);
    Some(value)
}

/// Exits with status 2 unless every selector is one of `known`.
fn require_known(selectors: &[String], known: &[&str], what: &str) {
    let unknown: Vec<&String> = selectors
        .iter()
        .filter(|w| !known.contains(&w.as_str()))
        .collect();
    if !unknown.is_empty() {
        eprintln!("unknown {what}(s) {unknown:?}; known {what}s: {known:?}");
        std::process::exit(2);
    }
}

fn experiments(mut args: Vec<String>) {
    let json_out = take_value(&mut args, "--json");
    let defs = dcl_bench::experiment_defs();
    let known: Vec<&str> = defs.iter().map(|d| d.id).collect();
    require_known(&args, &known, "experiment id");

    println!("# Experiment report — deterministic distributed coloring reproduction\n");
    let started = Instant::now();
    let mut tables = Vec::new();
    for def in defs {
        if args.is_empty() || args.iter().any(|w| w == def.id) {
            let t = Instant::now();
            let table = (def.run)();
            let ms = t.elapsed().as_secs_f64() * 1e3;
            println!("{}", table.render());
            tables.push((table, ms));
        }
    }
    if let Some(out_path) = json_out {
        let j = baseline_json(
            "bench_experiments/v1",
            &MachineProfile::current(),
            started.elapsed().as_secs_f64() * 1e3,
            &tables,
        );
        std::fs::write(&out_path, &j).expect("write experiments baseline json");
        eprintln!("wrote {out_path}");
    }
}

fn bench(mut args: Vec<String>) {
    let json_out = take_value(&mut args, "--json");
    let (baseline, hard) = match (
        take_value(&mut args, "--check"),
        take_value(&mut args, "--check-warn"),
    ) {
        (Some(path), None) => (Some(path), true),
        (None, warn) => (warn, false),
        (Some(_), Some(_)) => {
            eprintln!("--check and --check-warn are exclusive");
            std::process::exit(2);
        }
    };
    let committed = baseline.as_ref().map(|path| {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("read committed baseline {path}: {e}"));
        micro::parse_baseline(&text)
    });
    let mut benches = micro::micro_benches();
    let mut suites: Vec<&str> = benches.iter().map(|b| b.suite).collect();
    suites.dedup();
    require_known(&args, &suites, "bench suite");

    let started = Instant::now();
    let rows: Vec<BenchRow> = benches
        .iter_mut()
        .filter(|b| args.is_empty() || args.iter().any(|s| s == b.suite))
        .map(micro::time_bench)
        .collect();
    let total_ms = started.elapsed().as_secs_f64() * 1e3;

    if let Some(out_path) = json_out {
        let j = micro::bench_json(&MachineProfile::current(), total_ms, &rows);
        std::fs::write(&out_path, j).expect("write bench baseline json");
        eprintln!("wrote {out_path}");
    }
    let (Some(path), Some(committed)) = (baseline, committed) else {
        for r in &rows {
            println!(
                "{:<50} {:>14.1} ns/iter ({} iters)",
                r.id, r.ns_per_iter, r.iters
            );
        }
        return;
    };
    let report = micro::check_against(&rows, &committed);
    for line in &report.lines {
        println!("{line}");
    }
    println!(
        "checked {} rows against {path}: {} regression(s) over {CHECK_TOLERANCE}x, {} new, {} committed row(s) not timed",
        rows.len(),
        report.regressions,
        report.new,
        report.untimed
    );
    if hard && report.regressions > 0 {
        std::process::exit(1);
    }
}
