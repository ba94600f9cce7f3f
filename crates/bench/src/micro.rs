//! The micro-bench fixtures: one small, fixed workload per timed result of
//! the paper (Lemma 2.1, the Lemma 2.6 digit DP, Theorem 1.1 on the n- and
//! D-sweeps, Corollary 1.2, Theorems 1.3–1.5, the Section 5 MPC tools and
//! the baselines), defined once here and timed by
//! `experiments bench`, which records them in the `BENCH_bench.json`
//! layout.
//!
//! [`micro_benches`] returns data only: building a fixture constructs its
//! instance, and [`time_bench`] runs it. Each fixture belongs to a suite
//! (`bench_congest`, `bench_kernels`, …), the unit `experiments bench`
//! selects by. Wall-clock numbers are only comparable within one machine
//! profile; the `BENCH_bench.json` header says which.

use crate::edge_window::EdgeShareWindow;
use crate::{gnp_instance, regular_instance};
use dcl_clique::coloring::{clique_color, CliqueColoringConfig};
use dcl_coloring::baselines;
use dcl_coloring::congest_coloring::{color_list_instance, CongestColoringConfig};
use dcl_coloring::instance::ListInstance;
use dcl_coloring::linial::linial_from_ids;
use dcl_coloring::partial::{partial_coloring, PartialConfig};
use dcl_congest::bfs::build_bfs_forest;
use dcl_congest::network::Network;
use dcl_decomp::coloring::{color_via_decomposition, DecompColoringConfig};
use dcl_decomp::rg::{decompose, RgConfig};
use dcl_derand::seed::PartialSeed;
use dcl_derand::slice::{BitForm, SliceFamily};
use dcl_graphs::generators;
use dcl_kernels::digit_dp;
use dcl_mpc::coloring::{mpc_color_linear, mpc_color_sublinear};
use dcl_mpc::machine::Mpc;
use dcl_mpc::tools;
use dcl_runner::MachineProfile;
use std::fmt::Write as _;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// `--check` flags a row when `new > CHECK_TOLERANCE × committed`.
/// Generous on purpose: the committed numbers come from one quiet machine,
/// and the check exists to catch order-of-magnitude mistakes (a cache that
/// never hits, an accidentally quadratic loop), not percent-level noise.
pub const CHECK_TOLERANCE: f64 = 3.0;

/// One registered fixture.
pub struct MicroBench {
    /// Suite the fixture belongs to (`"bench_kernels"`, …).
    pub suite: &'static str,
    /// Stable row id, as recorded in `BENCH_bench.json`.
    pub id: String,
    /// Operations one `run` performs; the recorded time is per operation.
    pub calls: u32,
    /// Runs the workload once.
    pub run: Box<dyn FnMut()>,
}

/// One timed row of the `bench_bench/v1` layout.
#[derive(Debug)]
pub struct BenchRow {
    /// Suite of the fixture.
    pub suite: &'static str,
    /// Row id of the fixture.
    pub id: String,
    /// Wall clock per operation.
    pub ns_per_iter: f64,
    /// Runs in the timed batch.
    pub iters: u64,
}

/// Collects fixtures, each tagged with the suite set last.
struct Registry {
    suite: &'static str,
    benches: Vec<MicroBench>,
}

impl Registry {
    fn add<O>(
        &mut self,
        id: impl Into<String>,
        mut f: impl FnMut() -> O + 'static,
    ) -> &mut MicroBench {
        self.benches.push(MicroBench {
            suite: self.suite,
            id: id.into(),
            calls: 1,
            run: Box::new(move || {
                black_box(f());
            }),
        });
        self.benches.last_mut().expect("just pushed")
    }
}

/// The Lemma 2.6 digit-DP fixture the `bench_derand` and `bench_kernels`
/// rows share: a `b = 14`, `m = 10` family with every other seed bit fixed
/// and the forms of two distinct inputs.
struct DigitDpFixture {
    fam: SliceFamily,
    seed: PartialSeed,
    fx: Vec<BitForm>,
    fy: Vec<BitForm>,
}

impl DigitDpFixture {
    const X: u64 = 0b1011001101;
    const Y: u64 = 0b0111010010;

    fn new() -> Self {
        let fam = SliceFamily::new(10, 14);
        let mut seed = PartialSeed::new(fam.seed_len());
        for i in (0..fam.seed_len()).step_by(2) {
            seed.fix(i, i % 4 == 0);
        }
        let fx = fam.forms_for(&seed, Self::X);
        let fy = fam.forms_for(&seed, Self::Y);
        DigitDpFixture { fam, seed, fx, fy }
    }
}

/// Every fixture, grouped by suite, in the row order of `BENCH_bench.json`.
pub fn micro_benches() -> Vec<MicroBench> {
    let mut r = Registry {
        suite: "bench_baselines",
        benches: Vec::new(),
    };

    // E9 context: the randomized trial coloring and greedy.
    for n in [96usize, 192] {
        let inst = Rc::new(gnp_instance(n, 8.0 / n as f64, 11));
        let i = Rc::clone(&inst);
        r.add(format!("baselines/johansson/{n}"), move || {
            baselines::johansson(&i, 7)
        });
        r.add(format!("baselines/greedy/{n}"), move || {
            baselines::greedy(&inst)
        });
    }

    // E4: the full Theorem 1.1 coloring across the n- and D-sweeps.
    r.suite = "bench_congest";
    let n_sweep = [32usize, 64, 128].map(|n| (format!("n_sweep/{n}"), regular_instance(n, 6, 5)));
    let d_sweep = [
        ("d_sweep/ring64", generators::ring(64)),
        ("d_sweep/hcube6", generators::hypercube(6)),
    ]
    .map(|(id, g)| (id.to_string(), ListInstance::degree_plus_one(g)));
    for (id, inst) in n_sweep.into_iter().chain(d_sweep) {
        r.add(format!("theorem_1_1/{id}"), move || {
            color_list_instance(&inst, &CongestColoringConfig::default())
        });
    }

    // E2/E3: one Lemma 2.1 partial coloring, the derandomized core.
    r.suite = "bench_partial";
    for n in [48usize, 96, 192] {
        let inst = gnp_instance(n, 8.0 / n as f64, 1);
        r.add(format!("lemma_2_1/{n}"), move || {
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
        });
    }

    // E10 support: the conditional-probability digit DP and the form
    // updates of the Lemma 2.6 inner loop.
    r.suite = "bench_derand";
    let dp = Rc::new(DigitDpFixture::new());
    let d = Rc::clone(&dp);
    r.add("joint_coin_probs", move || {
        d.fam.joint_coin_probs_forms(&d.fx, 9000, &d.fy, 4000)
    });
    let d = Rc::clone(&dp);
    r.add("prob_lt", move || d.fam.prob_lt_forms(&d.fx, 9000));
    let d = Rc::clone(&dp);
    r.add("forms_for", move || {
        d.fam.forms_for(&d.seed, DigitDpFixture::X)
    });

    // E5: the network decomposition and the full Corollary 1.2 coloring.
    r.suite = "bench_decomp";
    for n in [64usize, 128, 256] {
        let g = generators::gnp(n, 6.0 / n as f64, 2);
        r.add(format!("rg_decomposition/{n}"), move || {
            let mut net = Network::with_default_cap(&g, 64);
            decompose(&mut net, &RgConfig::default())
        });
    }
    for k in [8usize, 16] {
        let inst = ListInstance::degree_plus_one(generators::cluster_chain(k, 8, 0.5, 2));
        r.add(format!("corollary_1_2/{k}"), move || {
            color_via_decomposition(&inst, &DecompColoringConfig::default())
        });
    }

    // E6: the Theorem 1.3 CONGESTED CLIQUE coloring.
    r.suite = "bench_clique";
    for n in [32usize, 64, 96] {
        let inst = gnp_instance(n, 8.0 / n as f64, 4);
        r.add(format!("theorem_1_3/{n}"), move || {
            clique_color(&inst, &CliqueColoringConfig::default())
        });
    }

    // E7/E8: the MPC colorings, linear and sublinear memory.
    r.suite = "bench_mpc";
    for deg in [4usize, 8] {
        let inst = regular_instance(48, deg, 6);
        r.add(format!("theorem_1_4_linear/{deg}"), move || {
            mpc_color_linear(&inst)
        });
    }
    let inst = Rc::new(regular_instance(48, 4, 6));
    for alpha in [0.5f64, 0.7] {
        let inst = Rc::clone(&inst);
        r.add(format!("theorem_1_5_sublinear/{alpha:.1}"), move || {
            mpc_color_sublinear(&inst, alpha)
        });
    }

    // E11: the Section 5 MPC toolbox. The runs enforce the send/receive
    // budgets, so a fixture that outgrows its machines panics.
    r.suite = "bench_tools";
    for n in [500usize, 2000] {
        let items: Rc<Vec<u64>> = Rc::new(
            (0..n as u64)
                .map(|i| (i * 2_654_435_761) % 99_991)
                .collect(),
        );
        let it = Rc::clone(&items);
        r.add(format!("section_5_tools/sort/{n}"), move || {
            let mut mpc = Mpc::new(8, 512);
            tools::sort(&mut mpc, tools::scatter(8, &it))
        });
        let it = Rc::clone(&items);
        r.add(format!("section_5_tools/prefix/{n}"), move || {
            let mut mpc = Mpc::new(8, 512);
            let dist = tools::scatter(8, &it);
            tools::prefix_sums(&mut mpc, &dist, |a, b| a.wrapping_add(*b))
        });
        // 101 distinct keys: set_difference partitions by key, so the key
        // space must be wide enough that no machine's receive volume breaks
        // the O(S)-word budget at n = 2000. It sorts 2n three-word triples,
        // so S must scale with the input too.
        let a: Vec<(u64, u64)> = items.iter().map(|&x| (x % 101, x % 300)).collect();
        let b: Vec<(u64, u64)> = items.iter().map(|&x| (x % 101, (x / 7) % 300)).collect();
        let s = (6 * n / 8).max(512);
        r.add(format!("section_5_tools/set_difference/{n}"), move || {
            let mut mpc = Mpc::new(8, s);
            tools::set_difference(&mut mpc, &tools::scatter(8, &a), &tools::scatter(8, &b))
        });
    }

    // The kernels: the digit DP on the `bench_derand` fixture (so
    // `kernels/digit_dp/joint_coin_probs` reads against `joint_coin_probs`),
    // whole slice windows of `edge_shares_cached` from a fresh cache timed
    // per call, and the candidate argmin.
    r.suite = "bench_kernels";
    r.add("kernels/digit_dp/joint_coin_probs", move || {
        digit_dp::joint_coin_probs_override(&dp.fx, None, 9000, &dp.fy, None, 4000)
    });
    let mut window = EdgeShareWindow::new();
    r.add("kernels/digit_dp/edge_shares", move || window.run())
        .calls = EdgeShareWindow::EVALS;
    let scores: Vec<f64> = (0..4096u64)
        .map(|i| (i.wrapping_mul(2_654_435_761) % 100_000) as f64 / 3.0)
        .collect();
    r.add("kernels/argmin/4096", move || {
        dcl_sim::argmin_f64(None, scores.len(), |i| scores[i])
    });

    r.benches
}

/// Times one fixture: one warm-up run sizes a batch of roughly 20 ms
/// (capped at 1000 runs), and the batch average per operation is recorded.
pub fn time_bench(bench: &mut MicroBench) -> BenchRow {
    let t0 = Instant::now();
    (bench.run)();
    let once = t0.elapsed().max(Duration::from_nanos(20));
    let iters = (20_000_000u128 / once.as_nanos()).clamp(1, 1000) as u64;
    let t1 = Instant::now();
    for _ in 0..iters {
        (bench.run)();
    }
    BenchRow {
        suite: bench.suite,
        id: bench.id.clone(),
        ns_per_iter: t1.elapsed().as_nanos() as f64 / iters as f64 / f64::from(bench.calls),
        iters,
    }
}

/// Parses `id -> ns_per_iter` out of a committed baseline. The committed
/// layout is one row object per line, so line-oriented matching suffices.
pub fn parse_baseline(text: &str) -> Vec<(String, f64)> {
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

/// A fresh timing run compared row by row against a committed baseline.
#[derive(Debug)]
pub struct CheckReport {
    /// One line per timed row: `ok`, `REGRESSION` or `NEW`, with both times.
    pub lines: Vec<String>,
    /// Rows slower than [`CHECK_TOLERANCE`]× their committed value.
    pub regressions: usize,
    /// Timed rows the baseline does not have.
    pub new: usize,
    /// Committed rows that were not timed.
    pub untimed: usize,
}

/// Compares freshly timed rows against the committed `(id, ns_per_iter)`
/// pairs of [`parse_baseline`].
pub fn check_against(rows: &[BenchRow], committed: &[(String, f64)]) -> CheckReport {
    let mut report = CheckReport {
        lines: Vec::new(),
        regressions: 0,
        new: 0,
        untimed: committed
            .iter()
            .filter(|(id, _)| !rows.iter().any(|r| r.id == *id))
            .count(),
    };
    for row in rows {
        let line = match committed.iter().find(|(id, _)| *id == row.id) {
            Some((_, old)) => {
                let ratio = row.ns_per_iter / old;
                let verdict = if ratio > CHECK_TOLERANCE {
                    report.regressions += 1;
                    "REGRESSION"
                } else {
                    "ok"
                };
                format!(
                    "{verdict:>10}  {:<50} {:>12.1} ns committed, {:>12.1} ns now ({:.2}x)",
                    row.id, old, row.ns_per_iter, ratio
                )
            }
            None => {
                report.new += 1;
                format!(
                    "{:>10}  {:<50} {:>12} committed, {:>12.1} ns now",
                    "NEW", row.id, "-", row.ns_per_iter
                )
            }
        };
        report.lines.push(line);
    }
    report
}

/// The `bench_bench/v1` document: machine profile, total wall clock, and
/// one row object per line.
pub fn bench_json(profile: &MachineProfile, total_ms: f64, rows: &[BenchRow]) -> String {
    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(j, "  \"schema\": \"bench_bench/v1\",");
    let _ = writeln!(j, "  \"machine\": {},", profile.json_object());
    let _ = writeln!(j, "  \"total_ms\": {total_ms:.1},");
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
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed() -> Vec<(String, f64)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_bench.json");
        let text = std::fs::read_to_string(path).expect("read BENCH_bench.json");
        parse_baseline(&text)
    }

    #[test]
    fn registry_covers_the_committed_baseline_once() {
        let benches = micro_benches();
        let ids: Vec<&str> = benches.iter().map(|b| b.id.as_str()).collect();
        for (i, id) in ids.iter().enumerate() {
            assert!(!ids[..i].contains(id), "fixture {id} registered twice");
        }
        let committed = committed();
        assert!(!committed.is_empty(), "BENCH_bench.json has no rows");
        for (id, _) in &committed {
            assert!(
                ids.contains(&id.as_str()),
                "committed row {id} has no fixture"
            );
        }
    }

    #[test]
    fn check_counts_regressed_new_and_untimed_rows() {
        let row = |id: &str, ns_per_iter| BenchRow {
            suite: "s",
            id: id.into(),
            ns_per_iter,
            iters: 1,
        };
        let json = bench_json(
            &MachineProfile::current(),
            1.0,
            &[row("a", 10.0), row("b", 10.0), row("c", 10.0)],
        );
        let slower = 10.0 * (CHECK_TOLERANCE + 1.0);
        let timed = [row("a", 20.0), row("b", slower), row("d", 1.0)];
        let report = check_against(&timed, &parse_baseline(&json));
        assert_eq!((report.regressions, report.new, report.untimed), (1, 1, 1));
        assert_eq!(report.lines.len(), timed.len());
    }

    #[cfg_attr(
        debug_assertions,
        ignore = "runs every fixture; run with cargo test --release"
    )]
    #[test]
    fn every_fixture_runs() {
        for mut b in micro_benches() {
            (b.run)();
        }
    }
}
