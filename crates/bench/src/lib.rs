//! Experiment harness: workloads and the experiment implementations (E1–E15
//! of `DESIGN.md` §4, including the E12/E13 bandwidth sweeps enabled by
//! `dcl_sim::ExecConfig`, the E14 transport-tier overhead table, and the
//! E15 service-tier overhead table), plus the wall-clock fixtures of
//! [`micro`].
//!
//! The paper is a theory paper without an empirical section, so every
//! quantitative claim (potential invariants, progress guarantees, round
//! bounds, memory bounds) is turned into an experiment here. The
//! `experiments` binary prints one table per experiment and, under
//! `--json`, records them in the `BENCH_experiments.json` layout;
//! `DESIGN.md` §4 lists the paper claim each one tests. Its subcommands
//! cover the rest of the harness: `experiments bench` times the
//! [`micro::micro_benches`] fixtures (`BENCH_bench.json`),
//! `experiments scale` records the scale tier (`BENCH_scale.json`), and
//! `experiments sweep` prints CSV round-complexity series.
//!
//! The pipeline-level experiments (E4–E9, E12, E13) are declarative
//! [`dcl_runner::Runner`] programs over the [`dcl_runner::Scenario`]
//! adapters; the lemma-level experiments (E1–E3, E4b, E10, E11) probe
//! algorithm internals below the scenario surface and keep calling those
//! entry points directly. [`Table`] (and the baseline JSON it serializes
//! to) lives in `dcl_runner::table` and is re-exported here; row content is
//! bit-identical to the pre-runner harness, pinned against the committed
//! `BENCH_experiments.json` by `tests/experiments_schema.rs`.
//!
//! # Profiling recipe
//!
//! The hot loops live in `dcl_kernels` (`DESIGN.md` §8); to see where a
//! pipeline spends its time:
//!
//! ```text
//! # Kernel wall clock (the BENCH_bench.json fixtures, one suite each):
//! cargo run --release -p dcl_bench --bin experiments -- bench bench_kernels
//! cargo run --release -p dcl_bench --bin experiments -- bench bench_congest
//!
//! # Sampling profile of a real workload (needs samply or flamegraph
//! # installed; debug symbols stay on in the release profile):
//! cargo build --release -p dcl_bench --bin experiments
//! samply record ./target/release/experiments       # or:
//! flamegraph -- ./target/release/experiments
//!
//! # Let the autovectorizer use the recording machine's full ISA:
//! RUSTFLAGS=-Ctarget-cpu=native cargo run --release -p dcl_bench \
//!     --bin experiments -- bench bench_kernels
//! ```
//!
//! Numbers are only comparable within one machine profile; the committed
//! `BENCH_*.json` headers record `hardware_threads`/`os`/`arch` for
//! exactly that reason.

#![forbid(unsafe_code)]

use dcl_clique::scenario::CliqueScenario;
use dcl_coloring::baselines;
use dcl_coloring::congest_coloring::{color_list_instance, CongestColoringConfig};
use dcl_coloring::derand_step::accuracy_bits;
use dcl_coloring::instance::ListInstance;
use dcl_coloring::linial::linial_from_ids;
use dcl_coloring::partial::{partial_coloring, ConflictResolution, PartialConfig};
use dcl_coloring::prefix::{randomized_one_bit_step, PrefixState};
use dcl_coloring::scenario::CongestScenario;
use dcl_congest::bfs::build_bfs_forest;
use dcl_congest::network::Network;
use dcl_decomp::scenario::DecompScenario;
use dcl_delta::scenario::DeltaScenario;
use dcl_graphs::{generators, metrics, validation, Graph};
use dcl_mpc::scenario::{MpcLinearScenario, MpcSublinearScenario};
use dcl_runner::{CapSpec, GraphSpec, Runner};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub use dcl_runner::Table;

pub mod edge_window;
pub mod micro;

/// Standard experiment instance: G(n,p) with (Δ+1) lists.
pub fn gnp_instance(n: usize, p: f64, seed: u64) -> ListInstance {
    ListInstance::degree_plus_one(generators::gnp(n, p, seed))
}

/// Standard experiment instance: near-d-regular with (Δ+1) lists.
pub fn regular_instance(n: usize, d: usize, seed: u64) -> ListInstance {
    ListInstance::degree_plus_one(generators::random_regular(n, d, seed))
}

fn f(x: f64) -> String {
    format!("{x:.3}")
}

fn diameter_str(g: &Graph) -> String {
    metrics::diameter(g)
        .map(|x| x.to_string())
        .unwrap_or_else(|| "-".into())
}

/// Looks up a required extra of a report, panicking with the key on absence
/// (the scenario adapters publish fixed extra sets, so a miss is a bug).
fn extra(report: &dcl_runner::Report, key: &str) -> u64 {
    report
        .extra(key)
        .unwrap_or_else(|| panic!("scenario '{}' has no extra '{key}'", report.scenario))
}

/// E1 — Lemma 2.2: the randomized one-bit extension does not increase the
/// expected potential (exact coins, fully independent randomness).
pub fn e1_randomized_potential(trials: u64) -> Table {
    let mut t = Table::new(
        "E1 (Lemma 2.2): randomized one-bit step, E[sum Phi] non-increasing",
        &[
            "graph",
            "n",
            "Phi_before",
            "mean_Phi_after",
            "max_seen",
            "trials",
        ],
    );
    for (name, g) in [
        ("gnp(96,0.08)", generators::gnp(96, 0.08, 3)),
        ("regular(96,6)", generators::random_regular(96, 6, 3)),
        ("ring(96)", generators::ring(96)),
    ] {
        let inst = ListInstance::degree_plus_one(g);
        let n = inst.graph().n();
        let base = PrefixState::new(&inst, &vec![true; n]);
        let before = base.total_potential();
        let mut sum = 0.0;
        let mut max_seen = f64::MIN;
        for tr in 0..trials {
            let mut state = base.clone();
            let mut rng = StdRng::seed_from_u64(tr);
            let (_, after) = randomized_one_bit_step(&mut state, &inst, &mut rng);
            sum += after;
            max_seen = max_seen.max(after);
        }
        t.row(vec![
            name.to_string(),
            n.to_string(),
            f(before),
            f(sum / trials as f64),
            f(max_seen),
            trials.to_string(),
        ]);
    }
    t
}

/// E2 — Lemma 2.3 / Lemma 2.6: each derandomized phase increases the
/// potential by at most `n/⌈log C⌉` (driven by ε = 2^{-b}).
pub fn e2_phase_budget() -> Table {
    let mut t = Table::new(
        "E2 (Lemmas 2.3+2.6): per-phase potential increase vs budget n/ceil(logC)",
        &[
            "graph",
            "n",
            "b_bits",
            "budget",
            "max_phase_increase",
            "final_Phi",
            "2n",
        ],
    );
    for (name, g) in [
        ("gnp(80,0.1)", generators::gnp(80, 0.1, 7)),
        ("regular(80,8)", generators::random_regular(80, 8, 7)),
    ] {
        let inst = ListInstance::degree_plus_one(g);
        let n = inst.graph().n();
        let mut net = Network::with_default_cap(inst.graph(), inst.color_space());
        let forest = build_bfs_forest(&mut net);
        let lin = linial_from_ids(&mut net);
        let out = partial_coloring(
            &mut net,
            &forest,
            &inst,
            &vec![true; n],
            &lin.colors,
            lin.palette,
            PartialConfig::default(),
        );
        let budget = n as f64 / f64::from(inst.color_bits());
        t.row(vec![
            name.to_string(),
            n.to_string(),
            out.accuracy_bits.to_string(),
            f(budget),
            f(out.trace.max_increase()),
            f(*out.trace.values.last().unwrap()),
            f(2.0 * n as f64),
        ]);
    }
    t
}

/// E3 — Lemma 2.1: at least 1/8 of the nodes get colored; rounds scale with
/// `D · log C · seed_len`.
pub fn e3_partial_coloring() -> Table {
    let mut t = Table::new(
        "E3 (Lemma 2.1): fraction colored per invocation and round cost",
        &[
            "graph",
            "n",
            "D",
            "colored",
            "fraction",
            "rounds",
            "seed_bits",
            "eligible",
        ],
    );
    for (name, g) in [
        ("gnp(64,0.1)", generators::gnp(64, 0.1, 1)),
        ("gnp(128,0.06)", generators::gnp(128, 0.06, 1)),
        ("regular(128,6)", generators::random_regular(128, 6, 1)),
        ("grid(8x16)", generators::grid(8, 16)),
    ] {
        let inst = ListInstance::degree_plus_one(g.clone());
        let n = inst.graph().n();
        let mut net = Network::with_default_cap(inst.graph(), inst.color_space());
        let forest = build_bfs_forest(&mut net);
        let lin = linial_from_ids(&mut net);
        let before = net.rounds();
        let out = partial_coloring(
            &mut net,
            &forest,
            &inst,
            &vec![true; n],
            &lin.colors,
            lin.palette,
            PartialConfig::default(),
        );
        let d = metrics::diameter(&g)
            .map(|x| x.to_string())
            .unwrap_or_else(|| "-".into());
        t.row(vec![
            name.to_string(),
            n.to_string(),
            d,
            out.colored.len().to_string(),
            f(out.colored.len() as f64 / n as f64),
            (net.rounds() - before).to_string(),
            out.seed_len.to_string(),
            out.eligible_count.to_string(),
        ]);
    }
    t
}

/// E4 — Theorem 1.1: full coloring; scaling in n, Δ, D; `O(log n)`
/// iterations. Three declarative `Runner` sweeps (one per series) over the
/// CONGEST scenario.
pub fn e4_theorem_11() -> Table {
    let mut t = Table::new(
        "E4 (Theorem 1.1): CONGEST (degree+1)-list coloring -- scaling",
        &[
            "series", "graph", "n", "Delta", "D", "rounds", "iters", "proper",
        ],
    );
    let congest = CongestScenario::default();
    let mut push_series = |series: &str, graphs: Vec<GraphSpec>| {
        let sweep = Runner::new(&congest).graphs(graphs).run();
        for (spec, cell) in sweep.iter() {
            let r = cell.report();
            t.row(vec![
                series.to_string(),
                spec.label.clone(),
                spec.graph.n().to_string(),
                spec.graph.max_degree().to_string(),
                diameter_str(&spec.graph),
                r.metrics.rounds.to_string(),
                extra(r, "iterations").to_string(),
                r.proper.to_string(),
            ]);
        }
    };
    push_series(
        "n-sweep",
        [32usize, 64, 128, 256]
            .into_iter()
            .map(|n| GraphSpec::regular(n, 6, 5))
            .collect(),
    );
    push_series(
        "Delta-sweep",
        [3usize, 6, 12, 24]
            .into_iter()
            .map(|d| GraphSpec::regular(96, d, 5))
            .collect(),
    );
    push_series(
        "D-sweep",
        vec![
            GraphSpec::ring(128),
            GraphSpec::grid(8, 16),
            GraphSpec::hypercube(7),
        ],
    );
    t
}

/// E4b — Theorem 1.1 with custom color spaces: scaling in C.
pub fn e4b_color_space() -> Table {
    let mut t = Table::new(
        "E4b (Theorem 1.1): scaling in the color space C (same graph)",
        &["C", "log2C", "rounds", "iters", "proper"],
    );
    let g = generators::random_regular(96, 6, 9);
    for shift in [0u64, 3, 6, 9] {
        // Lists spread over a larger space: color i -> i << shift.
        let lists: Vec<Vec<u64>> = g
            .nodes()
            .map(|v| (0..=g.degree(v) as u64).map(|i| i << shift).collect())
            .collect();
        let c = ((g.max_degree() as u64) << shift) + 1;
        let inst = ListInstance::new(g.clone(), c, lists.clone()).unwrap();
        let r = color_list_instance(&inst, &CongestColoringConfig::default());
        let ok = validation::check_list_coloring(&g, &lists, &r.colors).is_none();
        t.row(vec![
            c.to_string(),
            inst.color_bits().to_string(),
            r.metrics.rounds.to_string(),
            r.iterations.to_string(),
            ok.to_string(),
        ]);
    }
    t
}

/// E5 — Theorem 3.1 + Corollary 1.2: decomposition quality and the
/// decomposition-based coloring on large-diameter graphs. Two parallel
/// `Runner` sweeps (decomposition scenario + Theorem 1.1 reference) over
/// the same graph specs, zipped per cell.
pub fn e5_decomposition() -> Table {
    let mut t = Table::new(
        "E5 (Thm 3.1 + Cor 1.2): decomposition (alpha,beta,kappa) and rounds vs Theorem 1.1",
        &[
            "graph",
            "n",
            "D",
            "alpha",
            "beta",
            "kappa",
            "decomp_rounds",
            "color_rounds",
            "thm11_rounds",
        ],
    );
    let graphs = || {
        vec![
            GraphSpec::cluster_chain(12, 8, 0.5, 2),
            GraphSpec::cluster_chain(24, 8, 0.5, 2),
            GraphSpec::gnp(96, 0.07, 2),
            GraphSpec::ring(128),
        ]
    };
    let decomp = Runner::new(&DecompScenario::default())
        .graphs(graphs())
        .run();
    let congest = Runner::new(&CongestScenario::default())
        .graphs(graphs())
        .run();
    for ((spec, dec_cell), ref_cell) in decomp.iter().zip(&congest.cells) {
        let dec = dec_cell.report();
        assert!(
            dec.proper,
            "{}: decomposition coloring must be proper",
            spec.label
        );
        t.row(vec![
            spec.label.clone(),
            spec.graph.n().to_string(),
            diameter_str(&spec.graph),
            extra(dec, "alpha").to_string(),
            extra(dec, "beta").to_string(),
            extra(dec, "kappa").to_string(),
            extra(dec, "decomposition_rounds").to_string(),
            extra(dec, "coloring_rounds").to_string(),
            ref_cell.report().metrics.rounds.to_string(),
        ]);
    }
    t
}

/// E6 — Theorem 1.3: clique rounds are diameter-free and far below CONGEST
/// on high-diameter graphs. Clique and CONGEST `Runner` sweeps over the
/// same graph specs, zipped per cell.
pub fn e6_clique() -> Table {
    let mut t = Table::new(
        "E6 (Theorem 1.3): CONGESTED CLIQUE vs CONGEST rounds",
        &[
            "graph",
            "n",
            "Delta",
            "D",
            "clique_rounds",
            "iters",
            "collected",
            "congest_rounds",
        ],
    );
    let graphs = || {
        vec![
            GraphSpec::ring(48),
            GraphSpec::ring(96),
            GraphSpec::gnp(48, 0.15, 4),
            GraphSpec::gnp(96, 0.08, 4),
            GraphSpec::regular(96, 8, 4),
        ]
    };
    let clique = Runner::new(&CliqueScenario::default())
        .graphs(graphs())
        .run();
    let congest = Runner::new(&CongestScenario::default())
        .graphs(graphs())
        .run();
    for ((spec, cl_cell), ref_cell) in clique.iter().zip(&congest.cells) {
        let cl = cl_cell.report();
        assert!(cl.proper, "{}: clique coloring must be proper", spec.label);
        t.row(vec![
            spec.label.clone(),
            spec.graph.n().to_string(),
            spec.graph.max_degree().to_string(),
            diameter_str(&spec.graph),
            cl.metrics.rounds.to_string(),
            extra(cl, "iterations").to_string(),
            extra(cl, "collected_nodes").to_string(),
            ref_cell.report().metrics.rounds.to_string(),
        ]);
    }
    t
}

/// E7 — Theorem 1.4: MPC linear memory — rounds vs Δ, memory compliance.
/// One `Runner` sweep of the linear-memory scenario over the Δ series.
pub fn e7_mpc_linear() -> Table {
    let mut t = Table::new(
        "E7 (Theorem 1.4): MPC linear memory -- rounds and memory",
        &[
            "graph",
            "n",
            "Delta",
            "rounds",
            "iters",
            "machines",
            "S_words",
            "max_storage",
        ],
    );
    let sweep = Runner::new(&MpcLinearScenario)
        .graphs(
            [3usize, 6, 12]
                .into_iter()
                .map(|d| GraphSpec::regular(64, d, 6)),
        )
        .run();
    for (spec, cell) in sweep.iter() {
        let r = cell.report();
        assert!(r.proper, "{}: MPC coloring must be proper", spec.label);
        t.row(vec![
            spec.label.clone(),
            spec.graph.n().to_string(),
            spec.graph.max_degree().to_string(),
            r.metrics.rounds.to_string(),
            extra(r, "iterations").to_string(),
            extra(r, "machines").to_string(),
            extra(r, "memory_words").to_string(),
            extra(r, "max_storage_words").to_string(),
        ]);
    }
    t
}

/// E8 — Theorem 1.5 + Lemma 4.2: MPC sublinear memory — α sweep. One
/// single-cell `Runner` per α (the memory exponent is a scenario parameter,
/// not a sweep axis).
pub fn e8_mpc_sublinear() -> Table {
    let mut t = Table::new(
        "E8 (Theorem 1.5 + Lemma 4.2): MPC sublinear memory -- alpha sweep",
        &[
            "graph",
            "alpha",
            "rounds",
            "iters",
            "finisher_iters",
            "machines",
            "S_words",
            "max_storage",
        ],
    );
    for alpha in [0.4f64, 0.5, 0.6, 0.8] {
        let scenario = MpcSublinearScenario::new(alpha);
        let sweep = Runner::new(&scenario)
            .graph(GraphSpec::gnp(64, 0.1, 8))
            .run();
        let (spec, cell) = sweep.iter().next().expect("one cell");
        let r = cell.report();
        assert!(r.proper, "alpha {alpha}: MPC coloring must be proper");
        t.row(vec![
            spec.label.clone(),
            format!("{alpha:.1}"),
            r.metrics.rounds.to_string(),
            extra(r, "iterations").to_string(),
            extra(r, "finisher_iterations").to_string(),
            extra(r, "machines").to_string(),
            extra(r, "memory_words").to_string(),
            extra(r, "max_storage_words").to_string(),
        ]);
    }
    t
}

/// E9 — deterministic (ours) vs randomized (Johansson) baseline. The
/// deterministic side is a `Runner` sweep; the randomized/greedy baselines
/// are not scenarios (they are comparison oracles) and run directly on the
/// per-cell graphs.
pub fn e9_baselines() -> Table {
    let mut t = Table::new(
        "E9: deterministic Theorem 1.1 vs randomized trial coloring [Joh99]",
        &[
            "graph",
            "n",
            "det_rounds",
            "det_iters",
            "rand_rounds",
            "rand_iters",
            "greedy_colors",
        ],
    );
    let sweep = Runner::new(&CongestScenario::default())
        .graphs([
            GraphSpec::gnp(96, 0.08, 11),
            GraphSpec::regular(128, 6, 11),
            GraphSpec::grid(8, 12),
        ])
        .run();
    for (spec, cell) in sweep.iter() {
        let det = cell.report();
        assert!(
            det.proper,
            "{}: Theorem 1.1 coloring must be proper",
            spec.label
        );
        let inst = ListInstance::degree_plus_one(spec.graph.clone());
        let rand = baselines::johansson(&inst, 99);
        let greedy = baselines::greedy(&inst);
        assert_eq!(validation::check_proper(&spec.graph, &rand.colors), None);
        t.row(vec![
            spec.label.clone(),
            spec.graph.n().to_string(),
            det.metrics.rounds.to_string(),
            extra(det, "iterations").to_string(),
            rand.metrics.rounds.to_string(),
            rand.iterations.to_string(),
            validation::count_colors(&greedy).to_string(),
        ]);
    }
    t
}

/// E10 — ablations: coin accuracy, MIS vs MIS-avoidance, seed length vs
/// the paper's Theorem 2.4 bound.
pub fn e10_ablation() -> Table {
    let mut t = Table::new(
        "E10: ablations -- accuracy bits, conflict resolution, seed length",
        &[
            "variant",
            "b_bits",
            "seed_bits",
            "paper_seed_bound",
            "colored_frac",
            "max_phase_inc",
            "budget",
        ],
    );
    let g = generators::gnp(80, 0.1, 13);
    let inst = ListInstance::degree_plus_one(g.clone());
    let n = inst.graph().n();
    for (variant, resolution, extra) in [
        ("MIS (paper)", ConflictResolution::Mis, 0u32),
        ("MIS, b+3", ConflictResolution::Mis, 3),
        ("AvoidMIS (Sec. 4)", ConflictResolution::AvoidMis, 0),
    ] {
        let mut net = Network::with_default_cap(inst.graph(), inst.color_space());
        let forest = build_bfs_forest(&mut net);
        let lin = linial_from_ids(&mut net);
        let out = partial_coloring(
            &mut net,
            &forest,
            &inst,
            &vec![true; n],
            &lin.colors,
            lin.palette,
            PartialConfig {
                resolution,
                extra_accuracy_bits: extra,
            },
        );
        // The paper's Theorem 2.4 seed bound: 2·max(log K, b).
        let log_k = 64 - lin.palette.saturating_sub(1).leading_zeros();
        let paper = 2 * log_k.max(out.accuracy_bits);
        let budget = n as f64 / f64::from(inst.color_bits());
        t.row(vec![
            variant.to_string(),
            out.accuracy_bits.to_string(),
            out.seed_len.to_string(),
            paper.to_string(),
            f(out.colored.len() as f64 / n as f64),
            f(out.trace.max_increase()),
            f(budget),
        ]);
    }
    let b_required = accuracy_bits(inst.graph().max_degree(), inst.color_bits(), 1);
    t.row(vec![
        "required b (ref)".to_string(),
        b_required.to_string(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);
    t
}

/// E12 — the paper's headline axis: Theorem 1.1 (CONGEST) and Theorem 1.3
/// (CONGESTED CLIQUE) round/bit counts as a function of the bandwidth cap,
/// swept over `cap_bits ∈ {⌈log₂ n⌉, …, 8·⌈log₂ n⌉}`. Below the default
/// two-word cap, word-sized payloads (conditional-expectation shares,
/// routed records) fragment and the round counts grow; total bits stay
/// essentially flat because fragmentation moves the same payload in more,
/// smaller messages.
pub fn e12_bandwidth_sweep() -> Table {
    let mut t = Table::new(
        "E12 (Thms 1.1+1.3): rounds and bits vs bandwidth cap (n=96, Delta=6)",
        &[
            "cap_bits",
            "x_log_n",
            "congest_rounds",
            "congest_msgs",
            "congest_bits",
            "clique_rounds",
            "clique_bits",
            "proper",
        ],
    );
    // ⌈log₂ 96⌉ = 7 — CapSpec::LogN resolves to {7, 14, 28, 56} bits.
    let congest = Runner::new(&CongestScenario::default())
        .graph(GraphSpec::regular(96, 6, 5))
        .caps(CapSpec::log_n_sweep())
        .run();
    let clique = Runner::new(&CliqueScenario::default())
        .graph(GraphSpec::regular(96, 6, 5))
        .caps(CapSpec::log_n_sweep())
        .run();
    for (congest_cell, clique_cell) in congest.cells.iter().zip(&clique.cells) {
        let co = congest_cell.report();
        let cl = clique_cell.report();
        t.row(vec![
            congest_cell.cap_bits.expect("swept cap").to_string(),
            congest_cell.cap.to_string(),
            co.metrics.rounds.to_string(),
            co.metrics.messages.to_string(),
            co.metrics.bits.to_string(),
            cl.metrics.rounds.to_string(),
            cl.metrics.bits.to_string(),
            (co.proper && cl.proper).to_string(),
        ]);
    }
    t
}

/// E13 — Δ-coloring under bandwidth limits (the Halldórsson–Maus regime,
/// `dcl_delta`): rounds/messages/bits of the full pipeline — obstruction
/// detection, Theorem 1.1 phase, Kempe overflow elimination — as a function
/// of the cap, on the same instance as the E12 sweep. One Δ-regular and one
/// expander workload; the latter exercises the chain-flip path.
pub fn e13_delta_coloring() -> Table {
    let mut t = Table::new(
        "E13 (Delta-coloring, HM24): rounds and bits vs bandwidth cap (Delta colors)",
        &[
            "graph",
            "cap_bits",
            "x_log_n",
            "rounds",
            "messages",
            "bits",
            "overflow",
            "kempe_flips",
            "valid",
        ],
    );
    let sweep = Runner::new(&DeltaScenario::default())
        .graphs([GraphSpec::regular(96, 6, 5), GraphSpec::expander(64, 4, 1)])
        .caps(CapSpec::log_n_sweep())
        .run();
    for (spec, cell) in sweep.iter() {
        // Generator graphs are not Brooks obstructions; cell.report()
        // panics with the cell coordinates if one ever were.
        let r = cell.report();
        t.row(vec![
            spec.label.clone(),
            cell.cap_bits.expect("swept cap").to_string(),
            cell.cap.to_string(),
            r.metrics.rounds.to_string(),
            r.metrics.messages.to_string(),
            r.metrics.bits.to_string(),
            extra(r, "overflow_nodes").to_string(),
            extra(r, "kempe_flips").to_string(),
            r.valid().to_string(),
        ]);
    }
    t
}

/// E14 — transport-tier overhead: the identical CONGEST conversation
/// shipped through both transport tiers (in-memory reference, real
/// localhost sockets). Model observables — inboxes, rounds, messages,
/// bits — are bit-identical per the determinism contract (`DESIGN.md` §7);
/// what varies is the physical layer the socket tier meters: frames,
/// payload bytes, wire bytes (frame headers plus handshakes and
/// end-of-round markers), and MTU-sized packets at the model cap.
pub fn e14_transport_overhead() -> Table {
    use dcl_sim::TransportSpec;

    let mut t = Table::new(
        "E14 (transport tier): byte overhead per tier -- identical model observables",
        &[
            "graph",
            "transport",
            "rounds",
            "messages",
            "model_bits",
            "frames",
            "payload_bytes",
            "wire_bytes",
            "packets",
            "matches_local",
        ],
    );

    /// Per-round inboxes of one scripted conversation.
    type History = Vec<Vec<Vec<(usize, u64)>>>;

    /// Three unicast rounds plus one broadcast over `spec`, returning every
    /// inbox plus the accumulated metrics and byte-level statistics.
    fn conversation(
        g: &Graph,
        spec: dcl_sim::TransportSpec,
    ) -> (
        History,
        dcl_congest::Metrics,
        Option<dcl_sim::TransportStats>,
    ) {
        let exec = dcl_sim::ExecConfig::default().with_transport(spec);
        let mut net = Network::from_exec(g, 100, &exec);
        let mut history = Vec::new();
        for r in 0..3u64 {
            history.push(net.round(|v| {
                g.neighbors(v)
                    .iter()
                    .filter(|&&u| !(v as u64 + u as u64 + r).is_multiple_of(3))
                    .map(|&u| (u, (v as u64 * 131 + u as u64 + r) % 97))
                    .collect::<Vec<_>>()
            }));
        }
        history.push(net.broadcast_round(|v| (v % 4 != 0).then_some(v as u64)));
        (history, net.metrics(), net.transport_stats().copied())
    }

    for (label, g) in [
        ("regular(96,6)", generators::random_regular(96, 6, 5)),
        ("expander(64,4)", generators::expander(64, 4, 1)),
    ] {
        let (ref_history, ref_metrics, ref_stats) = conversation(&g, TransportSpec::Local);
        assert!(ref_stats.is_none(), "the local tier has no byte layer");
        for spec in TransportSpec::all() {
            let (history, metrics, stats) = conversation(&g, spec);
            let matches_local = history == ref_history && metrics == ref_metrics;
            let (frames, payload_bytes, wire_bytes, packets) = match stats {
                Some(s) => (
                    s.frames.to_string(),
                    s.payload_bytes.to_string(),
                    s.wire_bytes.to_string(),
                    s.packets.to_string(),
                ),
                None => {
                    let dash = || "-".to_string();
                    (dash(), dash(), dash(), dash())
                }
            };
            t.row(vec![
                label.to_string(),
                spec.to_string(),
                metrics.rounds.to_string(),
                metrics.messages.to_string(),
                metrics.bits.to_string(),
                frames,
                payload_bytes,
                wire_bytes,
                packets,
                matches_local.to_string(),
            ]);
        }
    }
    t
}

/// E15 — service-tier overhead: every registered scenario shipped through
/// the `dcl_service` request/response protocol over real localhost TCP,
/// against direct `run_protected` calls. The served outcomes are
/// bit-identical to direct execution at every worker count (the
/// `matches_direct` column — the service determinism contract, `DESIGN.md`
/// §10); what the service adds is the byte overhead metered here: request
/// bytes up (graph edge list + knobs, framing included), response bytes
/// down (the full `Report` wire form), per-request averages. Byte totals
/// are exact deterministic counts — both sides' encoders are — so the rows
/// recompute bit-identically like every other committed table.
pub fn e15_service_overhead() -> Table {
    use dcl_service::{
        build_scenario, outcome_matches_direct, scenario_names, Server, ServiceClient,
        ServiceConfig,
    };

    let mut t = Table::new(
        "E15 (service tier): request/response byte overhead -- served results bit-identical to direct runs",
        &[
            "graph",
            "n",
            "m",
            "workers",
            "requests",
            "req_bytes",
            "resp_bytes",
            "req_bytes/req",
            "resp_bytes/req",
            "matches_direct",
        ],
    );
    for (label, g) in [
        ("gnp(48,0.15)", generators::gnp(48, 0.15, 7)),
        ("regular(96,6)", generators::random_regular(96, 6, 5)),
        ("gnp(192,0.05)", generators::gnp(192, 0.05, 7)),
    ] {
        for workers in [1usize, 2, 4] {
            let server = Server::bind(ServiceConfig::default().with_workers(workers))
                .expect("bind loopback");
            let addr = server.local_addr().expect("bound address");
            let mut handle = server.start();
            let mut client = ServiceClient::connect(addr).expect("connect");
            let exec = dcl_sim::ExecConfig::default();
            let ids: Vec<(u64, &str)> = scenario_names()
                .into_iter()
                .map(|name| (client.submit(name, &g, &exec).expect("submit"), name))
                .collect();
            let mut matches_direct = true;
            for (id, name) in ids {
                let served = client.wait(id);
                let scenario = build_scenario(name).expect("registered");
                let direct = dcl_runner::run_protected(scenario.as_ref(), &g, &exec);
                matches_direct &= outcome_matches_direct(&served, &direct);
            }
            // Counters snapshot *before* close, so the goodbye exchange
            // (whose read timing is up to the scheduler) never shifts a row.
            let stats = client.stats();
            client.close().expect("clean drain");
            handle.shutdown();
            let requests = stats.requests;
            t.row(vec![
                label.to_string(),
                g.n().to_string(),
                g.m().to_string(),
                workers.to_string(),
                requests.to_string(),
                stats.bytes_sent.to_string(),
                stats.bytes_received.to_string(),
                (stats.bytes_sent / requests).to_string(),
                (stats.bytes_received / requests).to_string(),
                matches_direct.to_string(),
            ]);
        }
    }
    t
}

/// E11 — Section 5 toolbox: constant-round sort/prefix/set-difference.
pub fn e11_mpc_tools() -> Table {
    use dcl_mpc::machine::Mpc;
    use dcl_mpc::tools;
    let mut t = Table::new(
        "E11 (Section 5): sort / prefix sums / set difference -- rounds at scale",
        &[
            "N",
            "machines",
            "S_words",
            "sort_rounds",
            "prefix_rounds",
            "setdiff_rounds",
        ],
    );
    for (n_items, machines, s) in [(200usize, 4usize, 128usize), (800, 8, 256), (3200, 16, 512)] {
        let items: Vec<u64> = (0..n_items as u64)
            .map(|i| (i * 2_654_435_761) % 100_000)
            .collect();
        let mut mpc = Mpc::new(machines, s);
        let _ = tools::sort(&mut mpc, tools::scatter(machines, &items));
        let sort_rounds = mpc.rounds();

        let mut mpc2 = Mpc::new(machines, s);
        let dist = tools::scatter(machines, &items);
        let _ = tools::prefix_sums(&mut mpc2, &dist, |a, b| a.wrapping_add(*b));
        let prefix_rounds = mpc2.rounds();

        let mut mpc3 = Mpc::new(machines, s);
        let a: Vec<(u64, u64)> = items.iter().map(|&x| (x % 7, x % 500)).collect();
        let b: Vec<(u64, u64)> = items.iter().map(|&x| (x % 7, (x / 3) % 500)).collect();
        let _ = tools::set_difference(
            &mut mpc3,
            &tools::scatter(machines, &a),
            &tools::scatter(machines, &b),
        );
        let setdiff_rounds = mpc3.rounds();

        t.row(vec![
            n_items.to_string(),
            machines.to_string(),
            s.to_string(),
            sort_rounds.to_string(),
            prefix_rounds.to_string(),
            setdiff_rounds.to_string(),
        ]);
    }
    t
}

/// One registered experiment: the id every tool addresses it by (matching
/// the `"id"` field of `BENCH_experiments.json`) and its table function.
pub struct ExperimentDef {
    /// Stable experiment id (`"E1"` … `"E15"`, with `"E4b"`).
    pub id: &'static str,
    /// Runs the experiment and returns its table.
    pub run: fn() -> Table,
}

/// The registry of all experiments, in report order. The `experiments` bin
/// (text report and `--json` baseline alike) iterates this one list, so
/// registering a new experiment (e.g. for a new scenario) is a single entry
/// here.
pub fn experiment_defs() -> Vec<ExperimentDef> {
    vec![
        ExperimentDef {
            id: "E1",
            run: || e1_randomized_potential(300),
        },
        ExperimentDef {
            id: "E2",
            run: e2_phase_budget,
        },
        ExperimentDef {
            id: "E3",
            run: e3_partial_coloring,
        },
        ExperimentDef {
            id: "E4",
            run: e4_theorem_11,
        },
        ExperimentDef {
            id: "E4b",
            run: e4b_color_space,
        },
        ExperimentDef {
            id: "E5",
            run: e5_decomposition,
        },
        ExperimentDef {
            id: "E6",
            run: e6_clique,
        },
        ExperimentDef {
            id: "E7",
            run: e7_mpc_linear,
        },
        ExperimentDef {
            id: "E8",
            run: e8_mpc_sublinear,
        },
        ExperimentDef {
            id: "E9",
            run: e9_baselines,
        },
        ExperimentDef {
            id: "E10",
            run: e10_ablation,
        },
        ExperimentDef {
            id: "E11",
            run: e11_mpc_tools,
        },
        ExperimentDef {
            id: "E12",
            run: e12_bandwidth_sweep,
        },
        ExperimentDef {
            id: "E13",
            run: e13_delta_coloring,
        },
        ExperimentDef {
            id: "E14",
            run: e14_transport_overhead,
        },
        ExperimentDef {
            id: "E15",
            run: e15_service_overhead,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_stable_and_match_their_titles() {
        let defs = experiment_defs();
        let ids: Vec<&str> = defs.iter().map(|d| d.id).collect();
        assert_eq!(
            ids,
            vec![
                "E1", "E2", "E3", "E4", "E4b", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12",
                "E13", "E14", "E15"
            ]
        );
        // The baseline JSON derives each id from the table title's leading
        // token; spot-check that the registry agrees on a cheap experiment.
        let e11 = defs.iter().find(|d| d.id == "E11").unwrap();
        let title = (e11.run)().title;
        assert_eq!(title.split_whitespace().next(), Some("E11"));
    }

    #[test]
    fn e1_runs_and_shows_non_increase() {
        let t = e1_randomized_potential(50);
        assert_eq!(t.rows.len(), 3);
        for row in &t.rows {
            let before: f64 = row[2].parse().unwrap();
            let after: f64 = row[3].parse().unwrap();
            assert!(after <= before * 1.10, "{before} -> {after}");
        }
    }

    #[test]
    fn e12_smaller_caps_cost_more_rounds_never_correctness() {
        let t = e12_bandwidth_sweep();
        assert_eq!(t.rows.len(), 4);
        for row in &t.rows {
            assert_eq!(row[7], "true", "coloring must stay proper at every cap");
        }
        // Rounds are non-increasing as the cap widens, strictly cheaper from
        // the tightest cap to the widest, in both models.
        let congest: Vec<u64> = t.rows.iter().map(|r| r[2].parse().unwrap()).collect();
        let clique: Vec<u64> = t.rows.iter().map(|r| r[5].parse().unwrap()).collect();
        for w in congest.windows(2) {
            assert!(
                w[0] >= w[1],
                "congest rounds increased with the cap: {congest:?}"
            );
        }
        for w in clique.windows(2) {
            assert!(
                w[0] >= w[1],
                "clique rounds increased with the cap: {clique:?}"
            );
        }
        assert!(
            congest[0] > congest[3],
            "sweep should show a bandwidth cost"
        );
        assert!(clique[0] > clique[3], "sweep should show a bandwidth cost");
    }

    #[test]
    fn e13_delta_coloring_stays_valid_and_monotone_in_the_cap() {
        let t = e13_delta_coloring();
        assert_eq!(t.rows.len(), 8, "two graphs x four caps");
        for row in &t.rows {
            assert_eq!(row[8], "true", "Δ-coloring must stay valid at every cap");
        }
        for graph_rows in t.rows.chunks(4) {
            let rounds: Vec<u64> = graph_rows.iter().map(|r| r[3].parse().unwrap()).collect();
            for w in rounds.windows(2) {
                assert!(w[0] >= w[1], "rounds increased with the cap: {rounds:?}");
            }
            assert!(
                rounds[0] > rounds[3],
                "sweep should show a bandwidth cost: {rounds:?}"
            );
        }
    }

    #[test]
    fn e11_rounds_do_not_grow_with_n() {
        let t = e11_mpc_tools();
        let first: u64 = t.rows[0][3].parse().unwrap();
        let last: u64 = t.rows[t.rows.len() - 1][3].parse().unwrap();
        assert!(last <= 4 * first, "sort rounds grew: {first} -> {last}");
    }
}
