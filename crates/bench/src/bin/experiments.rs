//! Runs the registered experiment tables (E1–E15) and prints them. Run
//! with:
//!
//! ```text
//! cargo run -p dcl_bench --bin experiments --release -- [--json <out.json>] [ids…]
//! ```
//!
//! Optional ids select experiments by registry id (`E12 E13`); without
//! ids every experiment runs. `--json <out.json>` additionally records the
//! chosen tables, with the same machine-profile header as
//! `BENCH_scale.json`, so a run can be diffed row by row against the
//! committed baseline; `--json BENCH_experiments.json` with no ids
//! regenerates it.
//!
//! The experiment list comes from [`dcl_bench::experiment_defs`] and the
//! JSON from [`dcl_runner::baseline_json`]. The experiments are
//! deterministic (fixed seeds, derandomized algorithms), so everything
//! except the wall-clock fields is reproducible bit for bit on any
//! machine; `tests/experiments_schema.rs` pins the rows against the
//! committed file.

use dcl_runner::{baseline_json, MachineProfile};
use std::time::Instant;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json_out = match args.iter().position(|a| a == "--json") {
        Some(i) if i + 1 < args.len() => {
            let out = args.remove(i + 1);
            args.remove(i);
            Some(out)
        }
        Some(_) => {
            eprintln!("--json needs an output path");
            std::process::exit(2);
        }
        None => None,
    };
    let defs = dcl_bench::experiment_defs();
    let unknown: Vec<&String> = args
        .iter()
        .filter(|w| !defs.iter().any(|d| d.id == w.as_str()))
        .collect();
    if !unknown.is_empty() {
        let known: Vec<&str> = defs.iter().map(|d| d.id).collect();
        eprintln!("unknown experiment id(s) {unknown:?}; known ids: {known:?}");
        std::process::exit(2);
    }

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
