//! Linial's color reduction: from any proper `m`-coloring to an
//! `O(Δ² log² m)`-ish coloring in one round per step, `O(log* m)` steps
//! \[Lin92\].
//!
//! We use the algebraic formulation: a color `c ∈ [m]` written in base `q`
//! (for a prime `q`) with `d` digits is a polynomial `p_c` of degree `< d`
//! over `F_q`. If `q > Δ·d`, every node can pick an evaluation point
//! `x ∈ F_q` at which its polynomial differs from all of its neighbors'
//! polynomials (two distinct polynomials of degree `< d` agree on fewer than
//! `d` points, so at most `Δ·(d−1) < q` points are "bad"). The pair
//! `(x, p_c(x)) ∈ [q²]` is then a proper coloring with `q²` colors. The step
//! iterates while it strictly shrinks the palette.
//!
//! The routine operates on an arbitrary *subgraph* given by an explicit
//! (symmetric) adjacency restricted to `active` nodes; communication is
//! metered on the enclosing CONGEST [`Network`] (the subgraph's edges are a
//! subset of the communication graph's).

use dcl_congest::network::Network;
use dcl_graphs::NodeId;

/// Result of [`linial_coloring`].
#[derive(Debug, Clone)]
pub struct LinialOutcome {
    /// The computed proper coloring (only meaningful for active nodes).
    pub colors: Vec<u64>,
    /// Size of the final palette (colors are `< palette`).
    pub palette: u64,
    /// Number of reduction steps (= communication rounds) used.
    pub steps: u32,
}

/// Chooses the step parameters for palette size `m` and max degree `delta`:
/// the smallest prime `q` with `q > delta · d` where `d = max(2, digits of
/// m−1 in base q)`; `d ≥ 2` keeps `q = Θ(Δ log_Δ m)` and guarantees
/// progress.
fn step_parameters(palette: u64, delta: u64) -> (u64, u32) {
    let mut q = 2u64;
    loop {
        q = next_prime(q);
        let d = digits(palette, q).max(2);
        if q > delta * u64::from(d) {
            return (q, d);
        }
        q += 1;
    }
}

/// Deterministic Miller–Rabin primality test, exact for all `u64` inputs
/// (uses the standard 12-base witness set).
fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    let mut d = n - 1;
    let mut r = 0u32;
    while d.is_multiple_of(2) {
        d /= 2;
        r += 1;
    }
    'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = pow_mod(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..r - 1 {
            x = mul_mod(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Smallest prime `≥ n`. Panics if no prime `≥ n` fits in `u64` (never
/// happens for `n ≤ 2^63`).
fn next_prime(n: u64) -> u64 {
    let mut candidate = n.max(2);
    loop {
        if is_prime(candidate) {
            return candidate;
        }
        candidate = candidate
            .checked_add(1)
            .expect("prime search overflowed u64");
    }
}

fn mul_mod(a: u64, b: u64, m: u64) -> u64 {
    ((u128::from(a) * u128::from(b)) % u128::from(m)) as u64
}

fn pow_mod(mut base: u64, mut exp: u64, m: u64) -> u64 {
    let mut acc = 1u64 % m;
    base %= m;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base, m);
        }
        base = mul_mod(base, base, m);
        exp >>= 1;
    }
    acc
}

/// Number of base-`q` digits needed for values in `[palette]` (at least 1).
fn digits(palette: u64, q: u64) -> u32 {
    let mut d = 1u32;
    let mut span = q;
    while span < palette {
        span = span.saturating_mul(q);
        d += 1;
    }
    d
}

/// Evaluates the polynomial whose coefficients are the base-`q` digits of
/// `color` at point `x`, over `F_q`.
fn poly_eval(color: u64, q: u64, x: u64) -> u64 {
    let mut c = color;
    let mut acc = 0u64;
    let mut power = 1u64;
    while c > 0 || power == 1 {
        let digit = c % q;
        acc = (acc + digit * power) % q;
        c /= q;
        power = power * x % q;
        if c == 0 {
            break;
        }
    }
    acc
}

/// Runs Linial color reduction on the subgraph `(active, adj)` starting from
/// the proper coloring `input_colors` with palette `input_palette`, until the
/// palette stops shrinking.
///
/// Costs one communication round per step.
///
/// # Panics
///
/// Panics if `adj`/`active`/`input_colors` lengths differ from `n`, or if
/// the input coloring is not proper on the subgraph.
pub fn linial_coloring(
    net: &mut Network<'_>,
    adj: &[Vec<NodeId>],
    active: &[bool],
    input_colors: &[u64],
    input_palette: u64,
) -> LinialOutcome {
    let n = net.graph().n();
    assert_eq!(adj.len(), n, "adjacency length must equal n");
    assert_eq!(active.len(), n, "mask length must equal n");
    assert_eq!(input_colors.len(), n, "color vector length must equal n");
    for v in 0..n {
        if active[v] {
            for &u in &adj[v] {
                assert!(
                    !active[u] || input_colors[u] != input_colors[v],
                    "input coloring not proper: nodes {u} and {v} share color"
                );
            }
        }
    }
    let delta = (0..n)
        .filter(|&v| active[v])
        .map(|v| adj[v].iter().filter(|&&u| active[u]).count())
        .max()
        .unwrap_or(0) as u64;

    let mut colors = input_colors.to_vec();
    let mut palette = input_palette;
    let mut steps = 0u32;

    if delta == 0 {
        // No edges: a single color class suffices; no communication needed.
        for v in 0..n {
            if active[v] {
                colors[v] = 0;
            }
        }
        return LinialOutcome {
            colors,
            palette: 1,
            steps: 0,
        };
    }

    loop {
        let (q, d) = step_parameters(palette, delta);
        if q * q >= palette {
            break; // no further progress possible
        }
        // One round: everyone announces its current color.
        let inboxes =
            net.fragmented_broadcast_round(|v| if active[v] { Some(colors[v]) } else { None });
        let mut next = colors.clone();
        for v in 0..n {
            if !active[v] {
                continue;
            }
            let neighbor_colors: Vec<u64> = inboxes[v]
                .iter()
                .filter(|(u, _)| adj[v].contains(u) && active[*u])
                .map(|&(_, c)| c)
                .collect();
            // Find an evaluation point where v's polynomial differs from
            // every neighbor's. Fewer than Δ·d points are bad, and q > Δ·d.
            let x = (0..q)
                .find(|&x| {
                    let own = poly_eval(colors[v], q, x);
                    neighbor_colors.iter().all(|&c| poly_eval(c, q, x) != own)
                })
                .expect("q > delta*d guarantees a good evaluation point");
            next[v] = x * q + poly_eval(colors[v], q, x);
        }
        colors = next;
        palette = q * q;
        steps += 1;
        debug_assert!(d >= 1);
    }
    LinialOutcome {
        colors,
        palette,
        steps,
    }
}

/// Convenience: Linial coloring of the whole communication graph starting
/// from the unique node ids (`ψ(v) = v`, palette `n`).
pub fn linial_from_ids(net: &mut Network<'_>) -> LinialOutcome {
    let g = net.graph();
    let n = g.n();
    let adj: Vec<Vec<NodeId>> = (0..n).map(|v| g.neighbors(v).to_vec()).collect();
    let ids: Vec<u64> = (0..n as u64).collect();
    linial_coloring(net, &adj, &vec![true; n], &ids, n.max(1) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcl_graphs::validation::check_proper;
    use dcl_graphs::{generators, Graph};

    fn full_adj(g: &Graph) -> Vec<Vec<NodeId>> {
        (0..g.n()).map(|v| g.neighbors(v).to_vec()).collect()
    }

    fn proper_on_subgraph(adj: &[Vec<NodeId>], active: &[bool], colors: &[u64]) -> bool {
        (0..adj.len()).filter(|&v| active[v]).all(|v| {
            adj[v]
                .iter()
                .filter(|&&u| active[u])
                .all(|&u| colors[u] != colors[v])
        })
    }

    #[test]
    fn primality_matches_trial_division() {
        fn trial(n: u64) -> bool {
            if n < 2 {
                return false;
            }
            let mut d = 2;
            while d * d <= n {
                if n.is_multiple_of(d) {
                    return false;
                }
                d += 1;
            }
            true
        }
        for n in 0..2000u64 {
            assert_eq!(is_prime(n), trial(n), "disagreement at {n}");
        }
    }

    #[test]
    fn primality_on_large_known_values() {
        assert!(is_prime(2_147_483_647)); // 2^31 - 1
        assert!(!is_prime(2_147_483_649));
        assert!(is_prime(1_000_000_007));
        assert!(!is_prime(1_000_000_007u64 * 998_244_353));
    }

    #[test]
    fn next_prime_finds_smallest() {
        assert_eq!(next_prime(0), 2);
        assert_eq!(next_prime(14), 17);
        assert_eq!(next_prime(17), 17);
        assert_eq!(next_prime(90), 97);
    }

    #[test]
    fn digits_and_poly_eval() {
        assert_eq!(digits(8, 2), 3);
        assert_eq!(digits(9, 2), 4);
        assert_eq!(digits(5, 5), 1);
        assert_eq!(digits(26, 5), 3);
        // color 11 = 2·5 + 1 base 5 → p(x) = 1 + 2x; p(3) = 7 mod 5 = 2.
        assert_eq!(poly_eval(11, 5, 3), 2);
        assert_eq!(poly_eval(0, 5, 4), 0);
    }

    #[test]
    fn reduces_palette_and_stays_proper() {
        for seed in 0..5 {
            let g = generators::gnp(60, 0.08, seed);
            let mut net = Network::with_default_cap(&g, 64);
            let out = linial_from_ids(&mut net);
            assert!(check_proper(&g, &out.colors).is_none(), "seed {seed}");
            assert!(out.palette < 60 || g.max_degree() * g.max_degree() >= 30);
            assert!(out.colors.iter().all(|&c| c < out.palette));
        }
    }

    #[test]
    fn palette_is_poly_delta() {
        // On a bounded-degree graph the final palette must not depend on n
        // (once n exceeds the fixpoint palette).
        let mid = generators::ring(500);
        let large = generators::ring(2000);
        let mut net_m = Network::with_default_cap(&mid, 64);
        let mut net_l = Network::with_default_cap(&large, 64);
        let pal_m = linial_from_ids(&mut net_m).palette;
        let pal_l = linial_from_ids(&mut net_l).palette;
        assert_eq!(pal_m, pal_l, "palette should depend on Δ only");
        assert!(pal_l <= 121, "Δ=2 palette should be small, got {pal_l}");
    }

    #[test]
    fn steps_grow_very_slowly() {
        // log*-type behavior: going from n=16 to n=4096 adds at most a
        // couple of steps.
        let g1 = generators::random_regular(16, 3, 1);
        let g2 = generators::random_regular(4096, 3, 1);
        let mut n1 = Network::with_default_cap(&g1, 64);
        let mut n2 = Network::with_default_cap(&g2, 64);
        let s1 = linial_from_ids(&mut n1).steps;
        let s2 = linial_from_ids(&mut n2).steps;
        assert!(s2 <= s1 + 3, "steps grew too fast: {s1} -> {s2}");
    }

    #[test]
    fn respects_active_mask_and_sub_adjacency() {
        let g = generators::complete(8);
        // Subgraph: only even nodes, and only a ring among them.
        let active: Vec<bool> = (0..8).map(|v| v % 2 == 0).collect();
        let mut adj = vec![Vec::new(); 8];
        let evens = [0usize, 2, 4, 6];
        for i in 0..4 {
            let (a, b) = (evens[i], evens[(i + 1) % 4]);
            adj[a].push(b);
            adj[b].push(a);
        }
        let ids: Vec<u64> = (0..8).collect();
        let mut net = Network::with_default_cap(&g, 64);
        let out = linial_coloring(&mut net, &adj, &active, &ids, 8);
        assert!(proper_on_subgraph(&adj, &active, &out.colors));
        // Inactive nodes keep their input colors untouched.
        assert_eq!(out.colors[1], 1);
    }

    #[test]
    fn isolated_subgraph_collapses_to_one_color() {
        let g = generators::path(5);
        let adj = vec![Vec::new(); 5];
        let ids: Vec<u64> = (0..5).collect();
        let mut net = Network::with_default_cap(&g, 64);
        let out = linial_coloring(&mut net, &adj, &[true; 5], &ids, 5);
        assert_eq!(out.palette, 1);
        assert_eq!(out.steps, 0);
        assert!(out.colors.iter().all(|&c| c == 0));
    }

    #[test]
    #[should_panic(expected = "not proper")]
    fn rejects_improper_input() {
        let g = generators::path(2);
        let adj = full_adj(&g);
        let mut net = Network::with_default_cap(&g, 64);
        let _ = linial_coloring(&mut net, &adj, &[true; 2], &[3, 3], 8);
    }

    #[test]
    fn round_cost_equals_steps() {
        let g = generators::random_regular(100, 4, 2);
        let mut net = Network::with_default_cap(&g, 64);
        let before = net.rounds();
        let out = linial_from_ids(&mut net);
        assert_eq!(net.rounds() - before, u64::from(out.steps));
    }
}
