//! Records the remaining criterion suites — everything except the scale
//! tier, which `scale_baseline` already covers in `BENCH_scale.json` — to a
//! machine-readable committed baseline, `BENCH_bench.json`, with the same
//! machine-profile header as the other `BENCH_*.json` files.
//!
//! ```text
//! cargo run -p dcl_bench --bin bench_baseline --release -- [out.json]
//! cargo run -p dcl_bench --bin bench_baseline --release -- --check[-warn] [baseline.json]
//! ```
//!
//! Each entry re-times one representative workload of a criterion suite in
//! `benches/` (same instance parameters, same driver calls) with the shim's
//! calibration strategy: one warm-up call sizes a batch of roughly 20 ms,
//! and the batch average is recorded. Wall-clock numbers are only
//! comparable within one machine profile; the profile header says which.
//!
//! `--check` re-times everything and compares row by row against the
//! committed baseline (default `BENCH_bench.json`) instead of writing:
//! a row slower than `CHECK_TOLERANCE`× its committed value is reported,
//! and the process exits non-zero. `--check-warn` is the CI-friendly
//! variant — same report, exit 0 — because shared runners are noisy enough
//! that a hard gate on wall-clock would flake.

use dcl_bench::{gnp_instance, regular_instance};
use std::fmt::Write as _;
use std::time::Instant;

/// `--check` flags a row when `new > CHECK_TOLERANCE × committed`.
/// Generous on purpose: the committed numbers come from one quiet machine,
/// and the check exists to catch order-of-magnitude mistakes (a cache that
/// never hits, an accidentally quadratic loop), not percent-level noise.
const CHECK_TOLERANCE: f64 = 3.0;

struct BenchRow {
    suite: &'static str,
    id: String,
    ns_per_iter: f64,
    iters: u64,
}

/// Calibrated timing: one warm-up call, then a batch sized to ~20 ms
/// (capped at 1000 iterations), averaged.
fn time_bench<O, F: FnMut() -> O>(
    suite: &'static str,
    id: impl Into<String>,
    mut f: F,
) -> BenchRow {
    let t0 = Instant::now();
    std::hint::black_box(f());
    let once = t0.elapsed().max(std::time::Duration::from_nanos(20));
    let iters = (20_000_000u128 / once.as_nanos()).clamp(1, 1000) as u64;
    let t1 = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    BenchRow {
        suite,
        id: id.into(),
        ns_per_iter: t1.elapsed().as_nanos() as f64 / iters as f64,
        iters,
    }
}

/// Parses `id -> ns_per_iter` out of a committed baseline. The committed
/// layout is one row object per line, so line-oriented matching suffices.
fn parse_baseline(text: &str) -> Vec<(String, f64)> {
    let mut rows = Vec::new();
    for line in text.lines() {
        let Some(id_at) = line.find("\"id\": \"") else {
            continue;
        };
        let id = &line[id_at + 7..];
        let Some(id_end) = id.find('"') else { continue };
        let Some(ns_at) = line.find("\"ns_per_iter\": ") else {
            continue;
        };
        let ns = &line[ns_at + 15..];
        let Some(ns_end) = ns.find(',') else { continue };
        if let Ok(v) = ns[..ns_end].trim().parse::<f64>() {
            rows.push((id[..id_end].to_string(), v));
        }
    }
    rows
}

/// Compares freshly timed rows against the committed baseline. Returns the
/// number of regressions (rows slower than [`CHECK_TOLERANCE`]× committed).
fn check_against(rows: &[BenchRow], baseline_path: &str) -> usize {
    let text = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("read committed baseline {baseline_path}: {e}"));
    let committed = parse_baseline(&text);
    let mut regressions = 0;
    let mut missing = 0;
    for row in rows {
        match committed.iter().find(|(id, _)| *id == row.id) {
            Some((_, old)) => {
                let ratio = row.ns_per_iter / old;
                let verdict = if ratio > CHECK_TOLERANCE {
                    regressions += 1;
                    "REGRESSION"
                } else {
                    "ok"
                };
                println!(
                    "{verdict:>10}  {:<50} {:>12.1} ns committed, {:>12.1} ns now ({:.2}x)",
                    row.id, old, row.ns_per_iter, ratio
                );
            }
            None => {
                missing += 1;
                println!(
                    "{:>10}  {:<50} {:>12} committed, {:>12.1} ns now",
                    "NEW", row.id, "-", row.ns_per_iter
                );
            }
        }
    }
    println!(
        "checked {} rows against {baseline_path}: {} regression(s) over {CHECK_TOLERANCE}x, {} new",
        rows.len(),
        regressions,
        missing
    );
    regressions
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let check_warn = args.iter().any(|a| a == "--check-warn");
    let path_arg = args.iter().find(|a| !a.starts_with("--")).cloned();
    let started = Instant::now();
    let mut rows: Vec<BenchRow> = Vec::new();

    // --- bench_baselines ---------------------------------------------------
    {
        use dcl_coloring::baselines;
        let inst = gnp_instance(96, 8.0 / 96.0, 11);
        rows.push(time_bench(
            "bench_baselines",
            "baselines/johansson/96",
            || baselines::johansson(&inst, 7),
        ));
        rows.push(time_bench("bench_baselines", "baselines/greedy/96", || {
            baselines::greedy(&inst)
        }));
    }

    // --- bench_congest -----------------------------------------------------
    {
        use dcl_coloring::congest_coloring::{color_list_instance, CongestColoringConfig};
        use dcl_coloring::instance::ListInstance;
        use dcl_graphs::generators;
        let inst = regular_instance(64, 6, 5);
        rows.push(time_bench(
            "bench_congest",
            "theorem_1_1/n_sweep/64",
            || color_list_instance(&inst, &CongestColoringConfig::default()),
        ));
        let hcube = ListInstance::degree_plus_one(generators::hypercube(6));
        rows.push(time_bench(
            "bench_congest",
            "theorem_1_1/d_sweep/hcube6",
            || color_list_instance(&hcube, &CongestColoringConfig::default()),
        ));
    }

    // --- bench_partial -----------------------------------------------------
    {
        use dcl_coloring::linial::linial_from_ids;
        use dcl_coloring::partial::{partial_coloring, PartialConfig};
        use dcl_congest::bfs::build_bfs_forest;
        use dcl_congest::network::Network;
        let inst = gnp_instance(96, 8.0 / 96.0, 1);
        rows.push(time_bench("bench_partial", "lemma_2_1/96", || {
            let n = inst.graph().n();
            let mut net = Network::with_default_cap(inst.graph(), inst.color_space());
            let forest = build_bfs_forest(&mut net);
            let lin = linial_from_ids(&mut net);
            partial_coloring(
                &mut net,
                &forest,
                &inst,
                &vec![true; n],
                &lin.colors,
                lin.palette,
                PartialConfig::default(),
            )
        }));
    }

    // --- bench_derand ------------------------------------------------------
    {
        use dcl_derand::seed::PartialSeed;
        use dcl_derand::slice::SliceFamily;
        let fam = SliceFamily::new(10, 14);
        let mut seed = PartialSeed::new(fam.seed_len());
        for i in (0..fam.seed_len()).step_by(2) {
            seed.fix(i, i % 4 == 0);
        }
        let fx = fam.forms_for(&seed, 0b1011001101);
        let fy = fam.forms_for(&seed, 0b0111010010);
        rows.push(time_bench("bench_derand", "joint_coin_probs", || {
            fam.joint_coin_probs_forms(&fx, 9000, &fy, 4000)
        }));
        rows.push(time_bench("bench_derand", "prob_lt", || {
            fam.prob_lt_forms(&fx, 9000)
        }));
        rows.push(time_bench("bench_derand", "forms_for", || {
            fam.forms_for(&seed, 0b1011001101)
        }));
    }

    // --- bench_decomp ------------------------------------------------------
    {
        use dcl_coloring::instance::ListInstance;
        use dcl_congest::network::Network;
        use dcl_decomp::coloring::{color_via_decomposition, DecompColoringConfig};
        use dcl_decomp::rg::{decompose, RgConfig};
        use dcl_graphs::generators;
        let g = generators::gnp(128, 6.0 / 128.0, 2);
        rows.push(time_bench("bench_decomp", "rg_decomposition/128", || {
            let mut net = Network::with_default_cap(&g, 64);
            decompose(&mut net, &RgConfig::default())
        }));
        let inst = ListInstance::degree_plus_one(generators::cluster_chain(8, 8, 0.5, 2));
        rows.push(time_bench("bench_decomp", "corollary_1_2/8", || {
            color_via_decomposition(&inst, &DecompColoringConfig::default())
        }));
    }

    // --- bench_clique ------------------------------------------------------
    {
        use dcl_clique::coloring::{clique_color, CliqueColoringConfig};
        let inst = gnp_instance(64, 8.0 / 64.0, 4);
        rows.push(time_bench("bench_clique", "theorem_1_3/64", || {
            clique_color(&inst, &CliqueColoringConfig::default())
        }));
    }

    // --- bench_mpc ---------------------------------------------------------
    {
        use dcl_mpc::coloring::{mpc_color_linear, mpc_color_sublinear};
        let inst = regular_instance(48, 4, 6);
        rows.push(time_bench("bench_mpc", "theorem_1_4_linear/4", || {
            mpc_color_linear(&inst)
        }));
        rows.push(time_bench("bench_mpc", "theorem_1_5_sublinear/0.5", || {
            mpc_color_sublinear(&inst, 0.5)
        }));
    }

    // --- bench_tools -------------------------------------------------------
    {
        use dcl_mpc::machine::Mpc;
        use dcl_mpc::tools;
        let items: Vec<u64> = (0..500u64).map(|i| (i * 2_654_435_761) % 99_991).collect();
        rows.push(time_bench(
            "bench_tools",
            "section_5_tools/sort/500",
            || {
                let mut mpc = Mpc::new(8, 512);
                tools::sort(&mut mpc, tools::scatter(8, &items))
            },
        ));
        rows.push(time_bench(
            "bench_tools",
            "section_5_tools/prefix/500",
            || {
                let mut mpc = Mpc::new(8, 512);
                let dist = tools::scatter(8, &items);
                tools::prefix_sums(&mut mpc, &dist, |a, b| a.wrapping_add(*b))
            },
        ));
        let a: Vec<(u64, u64)> = items.iter().map(|&x| (x % 101, x % 300)).collect();
        let bset: Vec<(u64, u64)> = items.iter().map(|&x| (x % 101, (x / 7) % 300)).collect();
        rows.push(time_bench(
            "bench_tools",
            "section_5_tools/set_difference/500",
            || {
                let mut mpc = Mpc::new(8, 512);
                tools::set_difference(&mut mpc, &tools::scatter(8, &a), &tools::scatter(8, &bset))
            },
        ));
    }

    // --- bench_kernels ------------------------------------------------------
    // Each kernel timed once. The digit-DP workload matches the
    // bench_derand rows above. The edge_shares row times whole slice
    // windows of `edge_shares_cached` from a fresh cache, as the Lemma 2.6
    // driver runs them per edge, and records the time per call.
    {
        use dcl_bench::edge_window::EdgeShareWindow;
        use dcl_derand::seed::PartialSeed;
        use dcl_derand::slice::SliceFamily;
        use dcl_kernels::digit_dp;
        let fam = SliceFamily::new(10, 14);
        let mut seed = PartialSeed::new(fam.seed_len());
        for i in (0..fam.seed_len()).step_by(2) {
            seed.fix(i, i % 4 == 0);
        }
        let (x, y) = (0b1011001101u64, 0b0111010010u64);
        let fx = fam.forms_for(&seed, x);
        let fy = fam.forms_for(&seed, y);
        let scores: Vec<f64> = (0..4096u64)
            .map(|i| (i.wrapping_mul(2_654_435_761) % 100_000) as f64 / 3.0)
            .collect();
        rows.push(time_bench(
            "bench_kernels",
            "kernels/digit_dp/joint_coin_probs",
            || digit_dp::joint_coin_probs_override(&fx, None, 9000, &fy, None, 4000),
        ));
        let mut window = EdgeShareWindow::new();
        let mut row = time_bench("bench_kernels", "kernels/digit_dp/edge_shares", || {
            window.run()
        });
        row.ns_per_iter /= f64::from(EdgeShareWindow::EVALS);
        rows.push(row);
        rows.push(time_bench("bench_kernels", "kernels/argmin/4096", || {
            dcl_sim::argmin_f64(None, scores.len(), |i| scores[i])
        }));
    }

    // The scale-tier suite (bench_scale, including its delta_scale group) is
    // covered by `scale_baseline` / BENCH_scale.json, not here.

    // --- Check mode: compare, report, exit — nothing is (over)written. -----
    if check || check_warn {
        let baseline = path_arg.unwrap_or_else(|| String::from("BENCH_bench.json"));
        let regressions = check_against(&rows, &baseline);
        if regressions > 0 && check {
            std::process::exit(1);
        }
        return;
    }

    // --- Emit JSON. --------------------------------------------------------
    let out_path = path_arg.unwrap_or_else(|| String::from("BENCH_bench.json"));
    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(j, "  \"schema\": \"bench_bench/v1\",");
    let _ = writeln!(
        j,
        "  \"machine\": {},",
        dcl_runner::MachineProfile::current().json_object()
    );
    let _ = writeln!(
        j,
        "  \"total_ms\": {:.1},",
        started.elapsed().as_secs_f64() * 1e3
    );
    let _ = writeln!(j, "  \"benches\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            j,
            "    {{ \"suite\": \"{}\", \"id\": \"{}\", \"ns_per_iter\": {:.1}, \"iters\": {} }}{comma}",
            r.suite, r.id, r.ns_per_iter, r.iters
        );
    }
    let _ = writeln!(j, "  ]");
    let _ = writeln!(j, "}}");
    std::fs::write(&out_path, &j).expect("write bench baseline json");
    println!("{j}");
    eprintln!("wrote {out_path}");
}
