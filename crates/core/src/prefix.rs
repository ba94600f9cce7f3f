//! Bitwise candidate-color selection (Section 2) and Algorithm 1.
//!
//! Every node `u` maintains a bit prefix `s_ℓ(u)` of its eventual candidate
//! color, extended by one bit per phase over `⌈log₂ C⌉` phases. The candidate
//! set `L_ℓ(u)` (colors of `L(u)` starting with `s_ℓ(u)`) is a contiguous
//! range of the sorted list, so `k₀/k₁` splits are binary searches. The
//! *conflict graph* `G_ℓ` keeps exactly the edges whose endpoints share a
//! prefix; it is maintained incrementally, one real communication round per
//! phase (nodes exchange their latest bit).

use crate::instance::ListInstance;
use dcl_graphs::NodeId;
use rand::Rng;

/// Central state of the prefix-extension process for one partial-coloring
/// attempt (the per-node fields are exactly what each node would store in a
/// faithful message-passing deployment; see `DESIGN.md` §2).
#[derive(Debug, Clone)]
pub struct PrefixState {
    /// Total number of phases = `⌈log₂ C⌉`.
    c_bits: u32,
    /// Phases completed so far.
    prefix_len: u32,
    /// Participating nodes.
    active: Vec<bool>,
    /// Candidate range start (index into the node's sorted list).
    lo: Vec<usize>,
    /// Candidate range end (exclusive).
    hi: Vec<usize>,
    /// Prefix value chosen so far (high bits of the eventual color).
    prefix: Vec<u64>,
    /// Adjacency of the current conflict graph `G_ℓ` (only meaningful for
    /// active nodes; always a subset of the instance graph's adjacency).
    conflict_adj: Vec<Vec<NodeId>>,
}

/// The `k₀/k₁` split of a node's candidate set for the next phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Split {
    /// Number of candidate colors whose next bit is 0.
    pub k0: usize,
    /// Number of candidate colors whose next bit is 1.
    pub k1: usize,
}

impl PrefixState {
    /// Initializes the state for the active nodes of `instance`.
    ///
    /// # Panics
    ///
    /// Panics if the mask length differs from `n` or an active node has an
    /// empty list.
    pub fn new(instance: &ListInstance, active: &[bool]) -> Self {
        let g = instance.graph();
        let n = g.n();
        assert_eq!(active.len(), n, "mask length must equal n");
        let mut conflict_adj = vec![Vec::new(); n];
        for v in g.nodes() {
            if !active[v] {
                continue;
            }
            assert!(
                !instance.list(v).is_empty(),
                "active node {v} has an empty list"
            );
            conflict_adj[v] = g
                .neighbors(v)
                .iter()
                .copied()
                .filter(|&u| active[u])
                .collect();
        }
        PrefixState {
            c_bits: instance.color_bits(),
            prefix_len: 0,
            active: active.to_vec(),
            lo: vec![0; n],
            hi: (0..n)
                .map(|v| if active[v] { instance.list(v).len() } else { 0 })
                .collect(),
            prefix: vec![0; n],
            conflict_adj,
        }
    }

    /// Number of phases in total (`⌈log₂ C⌉`).
    pub fn total_phases(&self) -> u32 {
        self.c_bits
    }

    /// Whether all bits have been fixed.
    pub fn is_complete(&self) -> bool {
        self.prefix_len == self.c_bits
    }

    /// Whether `v` participates.
    pub fn is_active(&self, v: NodeId) -> bool {
        self.active[v]
    }

    /// Bit position (from the most significant of the `⌈log₂ C⌉`-bit color
    /// representation) fixed by the next phase.
    fn next_bit_pos(&self) -> u32 {
        self.c_bits - 1 - self.prefix_len
    }

    /// Current candidate count `|L_ℓ(v)|`.
    pub fn candidate_count(&self, v: NodeId) -> usize {
        self.hi[v] - self.lo[v]
    }

    /// The `k₀/k₁` split of `v`'s candidates on the next bit.
    ///
    /// # Panics
    ///
    /// Panics if the process is complete or `v` is inactive.
    pub fn split(&self, instance: &ListInstance, v: NodeId) -> Split {
        assert!(!self.is_complete(), "all bits already fixed");
        assert!(self.active[v], "split queried for inactive node {v}");
        let pos = self.next_bit_pos();
        let list = instance.list(v);
        let range = &list[self.lo[v]..self.hi[v]];
        // Candidates share the chosen prefix above `pos`, so they are
        // partitioned by bit `pos`: all 0-bit colors precede all 1-bit ones.
        let boundary = range.partition_point(|&c| c >> pos & 1 == 0);
        Split {
            k0: boundary,
            k1: range.len() - boundary,
        }
    }

    /// Extends `v`'s prefix by `bit`, narrowing the candidate range.
    ///
    /// # Panics
    ///
    /// Panics if the chosen side is empty (Algorithm 1 never does this) or
    /// `v` is inactive.
    pub fn extend(&mut self, instance: &ListInstance, v: NodeId, bit: bool) {
        let split = self.split(instance, v);
        let boundary = self.lo[v] + split.k0;
        if bit {
            assert!(
                split.k1 > 0,
                "node {v} extended into an empty candidate set"
            );
            self.lo[v] = boundary;
        } else {
            assert!(
                split.k0 > 0,
                "node {v} extended into an empty candidate set"
            );
            self.hi[v] = boundary;
        }
        self.prefix[v] = (self.prefix[v] << 1) | u64::from(bit);
    }

    /// Remaining bits still to be fixed.
    pub fn remaining_bits(&self) -> u32 {
        self.c_bits - self.prefix_len
    }

    /// Candidate counts per `width`-bit digit value (length `2^width`):
    /// entry `d` is the number of candidate colors whose next `width` bits
    /// equal `d`. Generalizes [`PrefixState::split`] (CONGESTED CLIQUE
    /// batching, Theorem 1.3).
    ///
    /// # Panics
    ///
    /// Panics if fewer than `width` bits remain or `v` is inactive.
    pub fn split_digits(&self, instance: &ListInstance, v: NodeId, width: u32) -> Vec<usize> {
        assert!(
            width >= 1 && width <= self.remaining_bits(),
            "digit width out of range"
        );
        assert!(self.active[v], "split queried for inactive node {v}");
        let shift = self.c_bits - self.prefix_len - width;
        let list = instance.list(v);
        let range = &list[self.lo[v]..self.hi[v]];
        let mask = (1u64 << width) - 1;
        let mut counts = vec![0usize; 1 << width];
        let mut start = 0usize;
        for d in 0..(1u64 << width) {
            let end = range.partition_point(|&c| (c >> shift) & mask <= d);
            counts[d as usize] = end - start;
            start = end;
        }
        counts
    }

    /// Extends `v`'s prefix by the `width`-bit value `digit`.
    ///
    /// # Panics
    ///
    /// Panics if the chosen digit class is empty.
    pub fn extend_digit(&mut self, instance: &ListInstance, v: NodeId, width: u32, digit: u64) {
        assert!(
            width >= 1 && width <= self.remaining_bits(),
            "digit width out of range"
        );
        let shift = self.c_bits - self.prefix_len - width;
        let list = instance.list(v);
        let range = &list[self.lo[v]..self.hi[v]];
        let mask = (1u64 << width) - 1;
        let start = range.partition_point(|&c| (c >> shift) & mask < digit);
        let end = range.partition_point(|&c| (c >> shift) & mask <= digit);
        assert!(end > start, "node {v} extended into an empty candidate set");
        self.hi[v] = self.lo[v] + end;
        self.lo[v] += start;
        self.prefix[v] = (self.prefix[v] << width) | digit;
    }

    /// Marks the phase finished and drops conflict edges whose endpoints
    /// chose different bits (the callers are responsible for charging the
    /// one exchange round on their network).
    pub fn finish_phase(&mut self) {
        self.finish_phase_digits(1);
    }

    /// Multi-bit variant of [`PrefixState::finish_phase`].
    pub fn finish_phase_digits(&mut self, width: u32) {
        self.prefix_len += width;
        let prefix = &self.prefix;
        let active = &self.active;
        for v in 0..self.conflict_adj.len() {
            if active[v] {
                let pv = prefix[v];
                self.conflict_adj[v].retain(|&u| prefix[u] == pv);
            }
        }
    }

    /// Conflict-graph neighbors of `v` (current `G_ℓ`).
    pub fn conflict_neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.conflict_adj[v]
    }

    /// Conflict degree `deg_ℓ(v)`.
    pub fn conflict_degree(&self, v: NodeId) -> usize {
        self.conflict_adj[v].len()
    }

    /// All conflict edges `(u, v)` with `u < v` between active nodes.
    pub fn conflict_edges(&self) -> Vec<(NodeId, NodeId)> {
        let mut edges = Vec::new();
        for v in 0..self.conflict_adj.len() {
            if self.active[v] {
                for &u in &self.conflict_adj[v] {
                    if v < u {
                        edges.push((v, u));
                    }
                }
            }
        }
        edges
    }

    /// The potential `Φ_ℓ(v) = deg_ℓ(v) / |L_ℓ(v)|`.
    pub fn potential(&self, v: NodeId) -> f64 {
        self.conflict_degree(v) as f64 / self.candidate_count(v) as f64
    }

    /// The global potential `Σ_v Φ_ℓ(v)` over active nodes.
    pub fn total_potential(&self) -> f64 {
        (0..self.active.len())
            .filter(|&v| self.active[v])
            .map(|v| self.potential(v))
            .sum()
    }

    /// The single candidate color after all phases.
    ///
    /// # Panics
    ///
    /// Panics if the process is incomplete, the node is inactive, or the
    /// candidate set is not a singleton (cannot happen when every phase went
    /// through [`PrefixState::extend`]).
    pub fn candidate_color(&self, instance: &ListInstance, v: NodeId) -> u64 {
        assert!(self.is_complete(), "prefix selection still running");
        assert!(
            self.active[v],
            "candidate color queried for inactive node {v}"
        );
        assert_eq!(
            self.candidate_count(v),
            1,
            "candidate set of node {v} is not a singleton"
        );
        instance.list(v)[self.lo[v]]
    }

    /// The MIS-avoidance keep rule of Section 4, applied to the completed
    /// selection: an active node keeps its candidate color if it has no
    /// conflict, or if its single conflict partner is matched (conflict
    /// degree 1) with a smaller id or has further conflicts. Returns the
    /// kept `(node, color)` pairs in node order.
    ///
    /// # Panics
    ///
    /// Panics if the process is incomplete (see
    /// [`PrefixState::candidate_color`]).
    pub fn mis_avoidance_keeps(&self, instance: &ListInstance) -> Vec<(NodeId, u64)> {
        (0..self.active.len())
            .filter(|&v| {
                self.active[v]
                    && match self.conflict_neighbors(v) {
                        [] => true,
                        [w] => self.conflict_degree(*w) > 1 || v > *w,
                        _ => false,
                    }
            })
            .map(|v| (v, self.candidate_color(instance, v)))
            .collect()
    }
}

/// One phase of Algorithm 1 with *fully independent* exact-probability coins
/// (`p_u = k₁(u)/|L_{ℓ-1}(u)|`, realized exactly via `Rng::gen_ratio`).
/// Used for the Lemma 2.2 experiments and as the randomized reference.
///
/// Returns the potential before and after the phase.
pub fn randomized_one_bit_step<R: Rng>(
    state: &mut PrefixState,
    instance: &ListInstance,
    rng: &mut R,
) -> (f64, f64) {
    let before = state.total_potential();
    let n = instance.graph().n();
    for v in 0..n {
        if !state.is_active(v) {
            continue;
        }
        let split = state.split(instance, v);
        let total = split.k0 + split.k1;
        let bit = rng.gen_ratio(split.k1 as u32, total as u32);
        state.extend(instance, v, bit);
    }
    state.finish_phase();
    (before, state.total_potential())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcl_graphs::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_instance() -> ListInstance {
        let g = generators::ring(6);
        ListInstance::degree_plus_one(g)
    }

    #[test]
    fn initial_state_has_full_lists_and_graph_conflicts() {
        let inst = small_instance();
        let state = PrefixState::new(&inst, &[true; 6]);
        assert_eq!(state.total_phases(), 2); // C = 3 → 2 bits
        for v in 0..6 {
            assert_eq!(state.candidate_count(v), 3);
            assert_eq!(state.conflict_degree(v), 2);
        }
        // Φ_0 = 2/3 per node.
        assert!((state.total_potential() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn split_partitions_by_bit() {
        let inst = small_instance(); // lists {0,1,2}, 2 bits: 00, 01, 10
        let state = PrefixState::new(&inst, &[true; 6]);
        let s = state.split(&inst, 0);
        // First bit (MSB): colors {0,1} have 0, color {2} has 1.
        assert_eq!(s, Split { k0: 2, k1: 1 });
    }

    #[test]
    fn extend_narrows_range_and_tracks_prefix() {
        let inst = small_instance();
        let mut state = PrefixState::new(&inst, &[true; 6]);
        state.extend(&inst, 0, false); // candidates {0, 1}
        assert_eq!(state.candidate_count(0), 2);
        for v in 1..6 {
            state.extend(&inst, v, true); // candidates {2}
            assert_eq!(state.candidate_count(v), 1);
        }
        state.finish_phase();
        // Node 0 chose bit 0, all others bit 1 → node 0 has no conflicts.
        assert_eq!(state.conflict_degree(0), 0);
        // Nodes 1..6 all kept each other where adjacent.
        assert_eq!(state.conflict_degree(2), 2);
    }

    #[test]
    #[should_panic(expected = "empty candidate set")]
    fn extend_into_empty_side_panics() {
        let g = generators::path(2);
        // Lists {0,1} over C=4 (2 bits): both colors have MSB 0.
        let inst = ListInstance::new(g, 4, vec![vec![0, 1], vec![0, 1]]).unwrap();
        let mut state = PrefixState::new(&inst, &[true; 2]);
        state.extend(&inst, 0, true);
    }

    #[test]
    fn candidate_color_after_all_phases() {
        let g = generators::path(2);
        let inst = ListInstance::new(g, 4, vec![vec![1, 2], vec![0, 3]]).unwrap();
        let mut state = PrefixState::new(&inst, &[true; 2]);
        // Node 0: bits of 1 = 01, of 2 = 10. Choose 1 → color 2.
        state.extend(&inst, 0, true);
        // Node 1: bits of 0 = 00, of 3 = 11. Choose 0 → color 0.
        state.extend(&inst, 1, false);
        state.finish_phase();
        state.extend(&inst, 0, false);
        state.extend(&inst, 1, false);
        state.finish_phase();
        assert!(state.is_complete());
        assert_eq!(state.candidate_color(&inst, 0), 2);
        assert_eq!(state.candidate_color(&inst, 1), 0);
    }

    #[test]
    fn conflict_edges_symmetric_subset_of_graph() {
        let g = generators::gnp(20, 0.3, 5);
        let inst = ListInstance::degree_plus_one(g);
        let mut state = PrefixState::new(&inst, &[true; 20]);
        let mut rng = StdRng::seed_from_u64(1);
        while !state.is_complete() {
            randomized_one_bit_step(&mut state, &inst, &mut rng);
        }
        for (u, v) in state.conflict_edges() {
            assert!(inst.graph().has_edge(u, v));
        }
    }

    #[test]
    fn randomized_steps_preserve_nonempty_candidates() {
        for seed in 0..10 {
            let g = generators::gnp(24, 0.25, seed);
            let inst = ListInstance::degree_plus_one(g);
            let mut state = PrefixState::new(&inst, &[true; 24]);
            let mut rng = StdRng::seed_from_u64(seed);
            while !state.is_complete() {
                randomized_one_bit_step(&mut state, &inst, &mut rng);
            }
            for v in 0..24 {
                assert_eq!(state.candidate_count(v), 1);
                // The candidate is a real list color.
                let c = state.candidate_color(&inst, v);
                assert!(inst.list(v).contains(&c));
            }
        }
    }

    #[test]
    fn expected_potential_does_not_increase_on_average() {
        // Statistical check of Lemma 2.2: averaged over many runs the
        // potential after one phase is at most the potential before
        // (up to sampling noise).
        let g = generators::gnp(30, 0.2, 3);
        let inst = ListInstance::degree_plus_one(g);
        let base = PrefixState::new(&inst, &[true; 30]);
        let before = base.total_potential();
        let trials = 400;
        let mut sum_after = 0.0;
        for t in 0..trials {
            let mut state = base.clone();
            let mut rng = StdRng::seed_from_u64(t);
            let (_, after) = randomized_one_bit_step(&mut state, &inst, &mut rng);
            sum_after += after;
        }
        let mean_after = sum_after / trials as f64;
        assert!(
            mean_after <= before * 1.05,
            "mean potential after ({mean_after}) should not exceed before ({before})"
        );
    }

    #[test]
    fn inactive_nodes_are_ignored() {
        let inst = small_instance();
        let mut active = vec![true; 6];
        active[3] = false;
        let state = PrefixState::new(&inst, &active);
        assert!(!state.is_active(3));
        assert!(!state.conflict_neighbors(2).contains(&3));
        assert!(!state.conflict_neighbors(4).contains(&3));
    }
}
