//! The declarative sweep harness: a [`Runner`] drives one [`Scenario`] over
//! a graph-family × bandwidth-cap × backend grid and collects per-cell
//! [`Report`]s.
//!
//! This owns the loops the experiment bins used to hand-roll: pick graphs
//! with the [`GraphSpec`] constructors (labels match the experiment-table
//! conventions), caps with [`CapSpec`] (absolute bits or multiples of
//! `⌈log₂ n⌉`, the paper's sweep axis), backends with
//! [`dcl_par::Backend`], transport tiers with [`TransportSpec`], and read
//! the grid back from [`Sweep`].

use crate::error::{run_protected, RunError};
use crate::scenario::{Report, Scenario};
use dcl_graphs::{generators, Graph};
use dcl_par::Backend;
use dcl_sim::{BandwidthCap, ExecConfig, TransportSpec};
use std::fmt;

/// A labelled input graph of a sweep. The constructors mirror
/// [`dcl_graphs::generators`] and produce the label strings the committed
/// experiment tables use (`"regular(96,6)"`, `"gnp(64,0.1)"`, …).
#[derive(Debug, Clone)]
pub struct GraphSpec {
    /// Display label of the family instance.
    pub label: String,
    /// The graph itself.
    pub graph: Graph,
}

impl GraphSpec {
    /// An arbitrary graph under an explicit label.
    pub fn new(label: impl Into<String>, graph: Graph) -> Self {
        GraphSpec {
            label: label.into(),
            graph,
        }
    }

    /// `G(n, p)` with a fixed seed — label `gnp(n,p)`.
    pub fn gnp(n: usize, p: f64, seed: u64) -> Self {
        GraphSpec::new(format!("gnp({n},{p})"), generators::gnp(n, p, seed))
    }

    /// Near-`d`-regular random graph — label `regular(n,d)`.
    pub fn regular(n: usize, d: usize, seed: u64) -> Self {
        GraphSpec::new(
            format!("regular({n},{d})"),
            generators::random_regular(n, d, seed),
        )
    }

    /// Cycle — label `ring(n)`.
    pub fn ring(n: usize) -> Self {
        GraphSpec::new(format!("ring({n})"), generators::ring(n))
    }

    /// Grid — label `grid(rows x cols)`.
    pub fn grid(rows: usize, cols: usize) -> Self {
        GraphSpec::new(format!("grid({rows}x{cols})"), generators::grid(rows, cols))
    }

    /// Hypercube — label `hypercube(d)`.
    pub fn hypercube(d: u32) -> Self {
        GraphSpec::new(format!("hypercube({d})"), generators::hypercube(d))
    }

    /// Star — label `star(n)`.
    pub fn star(n: usize) -> Self {
        GraphSpec::new(format!("star({n})"), generators::star(n))
    }

    /// Union of `d` random perfect matchings — label `expander(n,d)`.
    pub fn expander(n: usize, d: usize, seed: u64) -> Self {
        GraphSpec::new(
            format!("expander({n},{d})"),
            generators::expander(n, d, seed),
        )
    }

    /// Chain of `k` dense clusters of `size` nodes — label `chain(k x size)`.
    pub fn cluster_chain(k: usize, size: usize, p: f64, seed: u64) -> Self {
        GraphSpec::new(
            format!("chain({k}x{size})"),
            generators::cluster_chain(k, size, p, seed),
        )
    }
}

/// One bandwidth-cap point of a sweep, resolved per graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapSpec {
    /// The model's default cap (`ExecConfig { cap: None }`).
    ModelDefault,
    /// An absolute cap in bits.
    Bits(u32),
    /// `mult · ⌈log₂ n⌉` bits — the sweep axis of experiments E12/E13.
    LogN(u32),
}

impl CapSpec {
    /// The cap sweep of the paper's headline experiments:
    /// `{1, 2, 4, 8} · ⌈log₂ n⌉`.
    pub fn log_n_sweep() -> Vec<CapSpec> {
        [1, 2, 4, 8].into_iter().map(CapSpec::LogN).collect()
    }

    /// Resolves the spec against a graph; `None` means the model default.
    pub fn resolve(&self, graph: &Graph) -> Option<BandwidthCap> {
        match *self {
            CapSpec::ModelDefault => None,
            CapSpec::Bits(bits) => Some(BandwidthCap::new(bits)),
            CapSpec::LogN(mult) => {
                let n = graph.n().max(2);
                let log_n = usize::BITS - (n - 1).leading_zeros();
                Some(BandwidthCap::new(mult * log_n))
            }
        }
    }
}

impl fmt::Display for CapSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CapSpec::ModelDefault => write!(f, "default"),
            CapSpec::Bits(bits) => write!(f, "{bits}b"),
            CapSpec::LogN(mult) => write!(f, "{mult}x"),
        }
    }
}

/// One cell of a finished sweep grid.
#[derive(Debug)]
pub struct Cell {
    /// Index of the input graph in [`Sweep::graphs`].
    pub graph: usize,
    /// The cap point this cell ran at.
    pub cap: CapSpec,
    /// The resolved cap in bits (`None` = model default).
    pub cap_bits: Option<u32>,
    /// The backend this cell ran on.
    pub backend: Backend,
    /// The transport tier this cell's messages travelled over.
    pub transport: TransportSpec,
    /// The scenario's result.
    pub outcome: Result<Report, RunError>,
}

impl Cell {
    /// The report, panicking with a labelled message on error cells. For
    /// sweeps whose scenarios are total on the chosen inputs (all the
    /// experiment tables), this is the one-liner accessor.
    pub fn report(&self) -> &Report {
        match &self.outcome {
            Ok(report) => report,
            Err(e) => panic!(
                "sweep cell (graph {}, cap {}) failed: {e}",
                self.graph, self.cap
            ),
        }
    }
}

/// The result grid of [`Runner::run`]: every (graph, cap, backend,
/// transport) cell in deterministic order — graphs outermost, then caps,
/// then backends, then transports.
#[derive(Debug)]
pub struct Sweep {
    /// [`Scenario::name`] of the swept scenario.
    pub scenario: String,
    /// The input graphs, in insertion order.
    pub graphs: Vec<GraphSpec>,
    /// All result cells, in (graph, cap, backend, transport) lexicographic
    /// order.
    pub cells: Vec<Cell>,
}

impl Sweep {
    /// The input graph a cell ran on.
    pub fn graph(&self, cell: &Cell) -> &GraphSpec {
        &self.graphs[cell.graph]
    }

    /// Iterates `(graph spec, cell)` pairs in grid order.
    pub fn iter(&self) -> impl Iterator<Item = (&GraphSpec, &Cell)> {
        self.cells.iter().map(move |c| (self.graph(c), c))
    }
}

/// Builder-style driver for sweeping one [`Scenario`] over graphs × caps ×
/// backends × transports.
///
/// Defaults: no graphs (add at least one), the model-default cap, the
/// sequential backend, the in-memory [`TransportSpec::Local`] tier, panics
/// propagate. The grid runs in deterministic order (graphs outermost,
/// transports innermost); every cell constructs a fresh [`ExecConfig`], so
/// results are bit-identical to calling the underlying entry point directly
/// with the same knobs (property-tested in `tests/runner_equivalence.rs` at
/// the workspace root) and bit-identical across transport tiers
/// (property-tested in `tests/transport_oracle.rs`).
///
/// # Examples
///
/// ```
/// use dcl_runner::{CapSpec, GraphSpec, Model, Report, Runner, RunError, Scenario};
/// use dcl_graphs::Graph;
/// use dcl_sim::{ExecConfig, SimMetrics};
///
/// /// A toy scenario: color everything 0 (proper only on edgeless graphs).
/// struct Constant;
/// impl Scenario for Constant {
///     fn name(&self) -> &str {
///         "constant"
///     }
///     fn model(&self) -> Model {
///         Model::Congest
///     }
///     fn run(&self, g: &Graph, _: &ExecConfig) -> Result<Report, RunError> {
///         let colors = vec![0; g.n()];
///         Ok(Report::build("constant", Model::Congest, g, 1, colors, SimMetrics::default()))
///     }
/// }
///
/// let sweep = Runner::new(&Constant)
///     .graph(GraphSpec::ring(8))
///     .caps(CapSpec::log_n_sweep())
///     .run();
/// assert_eq!(sweep.cells.len(), 4, "one graph x four caps x one backend");
/// assert!(sweep.cells.iter().all(|c| !c.report().proper), "rings reject constant colorings");
/// ```
pub struct Runner<'a> {
    scenario: &'a dyn Scenario,
    graphs: Vec<GraphSpec>,
    caps: Vec<CapSpec>,
    backends: Vec<Backend>,
    transports: Vec<TransportSpec>,
    catch_panics: bool,
}

impl<'a> Runner<'a> {
    /// Starts a sweep of `scenario` with the default single-cell axes.
    pub fn new(scenario: &'a dyn Scenario) -> Self {
        Runner {
            scenario,
            graphs: Vec::new(),
            caps: vec![CapSpec::ModelDefault],
            backends: vec![Backend::Sequential],
            transports: vec![TransportSpec::Local],
            catch_panics: false,
        }
    }

    /// Adds one input graph.
    #[must_use]
    pub fn graph(mut self, spec: GraphSpec) -> Self {
        self.graphs.push(spec);
        self
    }

    /// Adds a batch of input graphs.
    #[must_use]
    pub fn graphs<I: IntoIterator<Item = GraphSpec>>(mut self, specs: I) -> Self {
        self.graphs.extend(specs);
        self
    }

    /// Replaces the cap axis (default: the model default only).
    #[must_use]
    pub fn caps<I: IntoIterator<Item = CapSpec>>(mut self, caps: I) -> Self {
        self.caps = caps.into_iter().collect();
        assert!(!self.caps.is_empty(), "cap axis must be non-empty");
        self
    }

    /// Replaces the backend axis (default: sequential only).
    #[must_use]
    pub fn backends<I: IntoIterator<Item = Backend>>(mut self, backends: I) -> Self {
        self.backends = backends.into_iter().collect();
        assert!(!self.backends.is_empty(), "backend axis must be non-empty");
        self
    }

    /// Replaces the transport axis (default: the in-memory local tier
    /// only). Every tier must produce bit-identical reports; sweeping the
    /// axis is how `tests/transport_oracle.rs` proves it.
    #[must_use]
    pub fn transports<I: IntoIterator<Item = TransportSpec>>(mut self, transports: I) -> Self {
        self.transports = transports.into_iter().collect();
        assert!(
            !self.transports.is_empty(),
            "transport axis must be non-empty"
        );
        self
    }

    /// Converts panics (budget violations, progress-bug safety nets) into
    /// [`RunError`] cells via [`run_protected`] instead of unwinding.
    #[must_use]
    pub fn catch_panics(mut self, yes: bool) -> Self {
        self.catch_panics = yes;
        self
    }

    /// Runs the full grid and returns the per-cell reports.
    ///
    /// # Panics
    ///
    /// Panics if no graph was added — like the cap/backend axes, an empty
    /// axis is a builder mistake caught at the source rather than a silent
    /// empty sweep.
    pub fn run(self) -> Sweep {
        assert!(
            !self.graphs.is_empty(),
            "sweep has no input graphs — add at least one with .graph()/.graphs()"
        );
        let mut cells = Vec::with_capacity(
            self.graphs.len() * self.caps.len() * self.backends.len() * self.transports.len(),
        );
        for (graph_index, spec) in self.graphs.iter().enumerate() {
            for &cap in &self.caps {
                let resolved = cap.resolve(&spec.graph);
                for &backend in &self.backends {
                    for &transport in &self.transports {
                        let mut exec = ExecConfig::default()
                            .with_backend(backend)
                            .with_transport(transport);
                        if let Some(c) = resolved {
                            exec = exec.with_cap(c);
                        }
                        let outcome = if self.catch_panics {
                            run_protected(self.scenario, &spec.graph, &exec)
                        } else {
                            self.scenario.run(&spec.graph, &exec)
                        };
                        cells.push(Cell {
                            graph: graph_index,
                            cap,
                            cap_bits: resolved.map(|c| c.bits()),
                            backend,
                            transport,
                            outcome,
                        });
                    }
                }
            }
        }
        Sweep {
            scenario: self.scenario.name().to_string(),
            graphs: self.graphs,
            cells,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Model;
    use dcl_sim::SimMetrics;

    /// Greedy sequential coloring as a stand-in scenario: enough structure
    /// to test the grid mechanics without depending on the pipeline crates.
    struct Greedy;

    impl Scenario for Greedy {
        fn name(&self) -> &str {
            "greedy-test"
        }
        fn model(&self) -> Model {
            Model::Congest
        }
        fn run(&self, g: &Graph, exec: &ExecConfig) -> Result<Report, RunError> {
            let mut colors = vec![0u64; g.n()];
            for v in 0..g.n() {
                let used: Vec<u64> = g
                    .neighbors(v)
                    .iter()
                    .filter(|&&u| u < v)
                    .map(|&u| colors[u])
                    .collect();
                colors[v] = (0..).find(|c| !used.contains(c)).unwrap();
            }
            let palette = g.max_degree() as u64 + 1;
            let metrics = SimMetrics {
                rounds: exec.cap.map_or(1, |c| u64::from(c.bits())),
                ..Default::default()
            };
            Ok(Report::build(
                self.name(),
                self.model(),
                g,
                palette,
                colors,
                metrics,
            ))
        }
    }

    #[test]
    fn grid_order_is_graphs_then_caps_then_backends_then_transports() {
        let sweep = Runner::new(&Greedy)
            .graphs([GraphSpec::ring(8), GraphSpec::ring(16)])
            .caps([CapSpec::Bits(8), CapSpec::Bits(16)])
            .backends([Backend::Sequential, Backend::Parallel(2)])
            .run();
        assert_eq!(sweep.cells.len(), 8);
        let order: Vec<(usize, Option<u32>, bool)> = sweep
            .cells
            .iter()
            .map(|c| (c.graph, c.cap_bits, c.backend.is_parallel()))
            .collect();
        assert_eq!(
            order,
            vec![
                (0, Some(8), false),
                (0, Some(8), true),
                (0, Some(16), false),
                (0, Some(16), true),
                (1, Some(8), false),
                (1, Some(8), true),
                (1, Some(16), false),
                (1, Some(16), true),
            ]
        );
        assert!(
            sweep
                .cells
                .iter()
                .all(|c| c.transport == TransportSpec::Local),
            "the default transport axis is the local tier only"
        );
    }

    #[test]
    fn transport_axis_is_innermost() {
        let sweep = Runner::new(&Greedy)
            .graph(GraphSpec::ring(8))
            .caps([CapSpec::Bits(8), CapSpec::Bits(16)])
            .transports([TransportSpec::Local, TransportSpec::Tcp])
            .run();
        let order: Vec<(Option<u32>, TransportSpec)> = sweep
            .cells
            .iter()
            .map(|c| (c.cap_bits, c.transport))
            .collect();
        assert_eq!(
            order,
            vec![
                (Some(8), TransportSpec::Local),
                (Some(8), TransportSpec::Tcp),
                (Some(16), TransportSpec::Local),
                (Some(16), TransportSpec::Tcp),
            ]
        );
    }

    #[test]
    fn cap_specs_resolve_against_each_graph() {
        let g96 = generators::ring(96);
        let g8 = generators::ring(8);
        assert_eq!(CapSpec::ModelDefault.resolve(&g96), None);
        assert_eq!(CapSpec::Bits(13).resolve(&g96).unwrap().bits(), 13);
        assert_eq!(
            CapSpec::LogN(2).resolve(&g96).unwrap().bits(),
            14,
            "⌈log₂ 96⌉ = 7"
        );
        assert_eq!(CapSpec::LogN(1).resolve(&g8).unwrap().bits(), 3);
        assert_eq!(
            CapSpec::log_n_sweep(),
            vec![
                CapSpec::LogN(1),
                CapSpec::LogN(2),
                CapSpec::LogN(4),
                CapSpec::LogN(8)
            ]
        );
        assert_eq!(CapSpec::LogN(4).to_string(), "4x");
        assert_eq!(CapSpec::ModelDefault.to_string(), "default");
        assert_eq!(CapSpec::Bits(64).to_string(), "64b");
    }

    #[test]
    fn graph_spec_labels_match_the_table_conventions() {
        assert_eq!(GraphSpec::gnp(64, 0.1, 1).label, "gnp(64,0.1)");
        assert_eq!(GraphSpec::gnp(96, 0.08, 3).label, "gnp(96,0.08)");
        assert_eq!(GraphSpec::regular(96, 6, 5).label, "regular(96,6)");
        assert_eq!(GraphSpec::grid(8, 16).label, "grid(8x16)");
        assert_eq!(GraphSpec::cluster_chain(12, 8, 0.5, 2).label, "chain(12x8)");
        assert_eq!(GraphSpec::expander(64, 4, 1).label, "expander(64,4)");
        assert_eq!(GraphSpec::hypercube(7).label, "hypercube(7)");
        assert_eq!(GraphSpec::ring(128).label, "ring(128)");
        assert_eq!(GraphSpec::star(21).label, "star(21)");
    }

    #[test]
    #[should_panic(expected = "no input graphs")]
    fn running_without_graphs_fails_fast() {
        let _ = Runner::new(&Greedy).run();
    }

    #[test]
    fn sweep_exposes_graphs_and_reports() {
        let sweep = Runner::new(&Greedy).graph(GraphSpec::ring(9)).run();
        assert_eq!(sweep.scenario, "greedy-test");
        let (spec, cell) = sweep.iter().next().unwrap();
        assert_eq!(spec.label, "ring(9)");
        let report = cell.report();
        assert!(report.proper);
        assert!(report.within_palette());
        assert_eq!(report.colors_used, 3, "odd ring needs 3 colors");
    }
}
