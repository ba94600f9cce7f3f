//! Seeded workload inputs. Everything the program sees is generated here
//! from the `--seed` argument: equal seeds give identical inputs.

use dcl_graphs::{generators, Graph};
use dcl_service::Request;
use dcl_sim::ExecConfig;

/// Theorem 1.1 graphs per pass and their power-law parameters. Several
/// graphs per run keep one seed's graph (its BFS height and Δ move the
/// round count by up to ~15%) from setting the figures alone.
pub const THM11_GRAPHS: usize = 6;
pub const THM11_N: usize = 5000;
pub const THM11_GAMMA: f64 = 2.5;
pub const THM11_AVG_DEGREE: f64 = 4.0;

/// Clique/MPC graph sets per pass and their sizes.
pub const CLIQUE_MPC_SETS: usize = 16;
/// Sets the traced run of `clique-mpc` measures layer by layer.
pub const CLIQUE_MPC_TRACED_SETS: usize = 6;
pub const CLIQUE_N: usize = 128;
pub const MPC_N: usize = 384;
/// Expected degree of every clique/MPC gnp graph (`p = degree / n`).
pub const CLIQUE_MPC_DEGREE: f64 = 8.0;

/// Share of heavy `clique` requests in the service mix, in percent.
pub const SERVE_CLIQUE_PERCENT: u64 = 5;
/// Expected degree of every service-mix graph.
pub const SERVE_DEGREE: f64 = 3.0;

/// SplitMix64: a tiny seeded generator, so the benchmark needs no
/// dependency to draw its inputs.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// Independent generator seed number `index` of stream `stream` under the
/// workload seed.
pub fn sub_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut mix = SplitMix::new(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
    for _ in 0..=index {
        mix.next_u64();
    }
    mix.next_u64()
}

/// The `thm11-powerlaw` cycle: `power_law(5000, 2.5, 4.0, ·)` graphs.
pub fn thm11_graphs(seed: u64) -> Vec<Graph> {
    (0..THM11_GRAPHS as u64)
        .map(|i| {
            generators::power_law(THM11_N, THM11_GAMMA, THM11_AVG_DEGREE, sub_seed(seed, 1, i))
        })
        .collect()
}

/// One `clique-mpc` graph set: the Theorem 1.3 graph and the MPC graph.
#[derive(Debug, Clone)]
pub struct CliqueMpcSet {
    pub clique: Graph,
    pub mpc: Graph,
}

pub fn clique_mpc_sets(seed: u64, sets: usize, clique_n: usize, mpc_n: usize) -> Vec<CliqueMpcSet> {
    let gnp = |n: usize, s: u64| generators::gnp(n, CLIQUE_MPC_DEGREE / n as f64, s);
    (0..sets as u64)
        .map(|i| CliqueMpcSet {
            clique: gnp(clique_n, sub_seed(seed, 2, i)),
            mpc: gnp(mpc_n, sub_seed(seed, 3, i)),
        })
        .collect()
}

/// The `serve-mix` request list: all six scenarios on small gnp graphs
/// (n 32–128), with [`SERVE_CLIQUE_PERCENT`]% heavy `clique` requests on
/// n 24–32. Requests run sequentially on the server's workers; ids are
/// `0..count`.
///
/// Every block of 100 requests holds exactly 5 `clique` requests and 19 of
/// each other scenario, in seeded order: with drawn proportions the median
/// latency moved with each seed's share of light requests, since it sits
/// where the light scenarios give way to the heavy ones.
pub fn serve_mix(seed: u64, count: usize) -> Vec<Request> {
    const LIGHT: [&str; 5] = ["congest", "decomp", "mpc-linear", "mpc-sublinear", "delta"];
    let light_each = (100 - SERVE_CLIQUE_PERCENT as usize) / LIGHT.len();
    let mut block: Vec<&str> = vec!["clique"; SERVE_CLIQUE_PERCENT as usize];
    for name in LIGHT {
        block.extend(std::iter::repeat_n(name, light_each));
    }
    let mut rng = SplitMix::new(sub_seed(seed, 4, 0));
    let mut order = Vec::new();
    (0..count as u64)
        .map(|id| {
            if order.is_empty() {
                order = block.clone();
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.range(0, i as u64) as usize);
                }
            }
            let scenario = order.pop().expect("refilled above");
            let n = if scenario == "clique" {
                rng.range(24, 32)
            } else {
                rng.range(32, 128)
            } as usize;
            let graph = generators::gnp(n, SERVE_DEGREE / n as f64, rng.next_u64());
            Request::for_graph(id, scenario, &graph, &ExecConfig::default())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_identical_inputs() {
        assert_eq!(serve_mix(7, 200), serve_mix(7, 200));
        assert_eq!(thm11_graphs(7), thm11_graphs(7));
        let (a, b) = (clique_mpc_sets(7, 2, 32, 64), clique_mpc_sets(7, 2, 32, 64));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.clique, y.clique);
            assert_eq!(x.mpc, y.mpc);
        }
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        assert_ne!(serve_mix(7, 50), serve_mix(8, 50));
        assert_ne!(thm11_graphs(7)[0], thm11_graphs(8)[0]);
        let (a, b) = (clique_mpc_sets(7, 1, 32, 64), clique_mpc_sets(8, 1, 32, 64));
        assert_ne!(a[0].clique, b[0].clique);
        assert_ne!(a[0].mpc, b[0].mpc);
        // Graphs within one cycle differ from each other too.
        let cycle = thm11_graphs(7);
        assert_ne!(cycle[0], cycle[1]);
    }

    #[test]
    fn serve_mix_covers_every_scenario_with_a_heavy_clique_tail() {
        let mix = serve_mix(1, 2000);
        for name in dcl_service::scenario_names() {
            assert!(mix.iter().any(|r| r.scenario == name), "{name} missing");
        }
        for block in mix.chunks(100) {
            for name in dcl_service::scenario_names() {
                let count = block.iter().filter(|r| r.scenario == name).count();
                let want = if name == "clique" { 5 } else { 19 };
                assert_eq!(count, want, "{name} in a block of 100");
            }
        }
        let cliques: Vec<&Request> = mix.iter().filter(|r| r.scenario == "clique").collect();
        assert!(cliques.iter().all(|r| (24..=32).contains(&r.n)));
        assert!(mix
            .iter()
            .filter(|r| r.scenario != "clique")
            .all(|r| (32..=128).contains(&r.n)));
        assert!(mix.iter().enumerate().all(|(i, r)| r.id == i as u64));
    }
}
