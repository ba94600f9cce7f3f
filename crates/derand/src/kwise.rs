//! k-wise independent hash families via polynomials over a prime field.
//!
//! This is the classic construction behind the paper's Theorem 2.4
//! (\[Vad12\]): a uniformly random polynomial of degree `k − 1` over `F_p`
//! evaluates k-wise independently and uniformly on `F_p`. Selecting the
//! polynomial consumes `k · ⌈log₂ p⌉` random bits, matching the theorem's
//! `k · max{a, b}` seed length up to the constant from rounding `p` to a
//! prime.
//!
//! Outputs are reduced from `[p]` to `[2^b]` by truncation, which perturbs
//! each output probability by at most `2^b / p`; callers pick `p ≥ 2^{b + g}`
//! to fold the perturbation into the ε-slack of Lemma 2.3 (see
//! [`PolyFamily::with_guard_bits`]).

/// Deterministic Miller–Rabin primality test, exact for all `u64` inputs
/// (uses the standard 12-base witness set).
#[must_use]
pub fn is_prime(n: u64) -> bool {
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

/// Smallest prime `≥ n`.
///
/// # Panics
///
/// Panics if no prime `≥ n` fits in `u64` (never happens for `n ≤ 2^63`).
#[must_use]
pub fn next_prime(n: u64) -> u64 {
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

/// Parameters of a k-wise independent family `h: [N] → [2^b]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolyFamily {
    prime: u64,
    k: usize,
    out_bits: u32,
}

impl PolyFamily {
    /// Family with independence degree `k`, input domain `[domain]`, output
    /// `[2^out_bits]`, and prime chosen as the smallest prime at least
    /// `max(domain, 2^{out_bits + guard_bits})`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `domain == 0`, or `out_bits + guard_bits ≥ 63`.
    pub fn with_guard_bits(k: usize, domain: u64, out_bits: u32, guard_bits: u32) -> Self {
        assert!(k >= 1, "independence degree must be at least 1");
        assert!(domain >= 1, "domain must be nonempty");
        assert!(
            out_bits + guard_bits < 63,
            "output plus guard bits must fit in u64"
        );
        let floor = 1u64 << (out_bits + guard_bits);
        let prime = next_prime(domain.max(floor));
        PolyFamily { prime, k, out_bits }
    }

    /// Family with the default 20 guard bits (truncation bias ≤ 2⁻²⁰).
    pub fn new(k: usize, domain: u64, out_bits: u32) -> Self {
        Self::with_guard_bits(k, domain, out_bits, 20)
    }

    /// The field prime.
    pub fn prime(&self) -> u64 {
        self.prime
    }

    /// Seed length in bits: `k · ⌈log₂ p⌉`.
    pub fn seed_len(&self) -> usize {
        self.k * (64 - self.prime.leading_zeros()) as usize
    }

    /// Draws a hash function from `seed_value` (expanded via splitmix64 into
    /// the `k` coefficients; a convenience front-end for experiments —
    /// conceptually this consumes [`PolyFamily::seed_len`] random bits).
    pub fn hash_from_u64(&self, seed_value: u64) -> PolyHash {
        let mut state = seed_value;
        let mut coeffs = Vec::with_capacity(self.k);
        for _ in 0..self.k {
            state = splitmix64(state);
            coeffs.push(state % self.prime);
        }
        PolyHash {
            family: *self,
            coeffs,
        }
    }
}

/// A drawn member of a [`PolyFamily`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolyHash {
    family: PolyFamily,
    coeffs: Vec<u64>,
}

impl PolyHash {
    /// Evaluates the polynomial at `x` over `F_p` (full field value).
    pub fn eval_field(&self, x: u64) -> u64 {
        let p = self.family.prime;
        let x = x % p;
        // Horner's rule.
        let mut acc = 0u64;
        for &c in self.coeffs.iter().rev() {
            acc = (mul_mod(acc, x, p) + c) % p;
        }
        acc
    }

    /// Evaluates the hash into `[2^out_bits]` by truncation.
    pub fn eval(&self, x: u64) -> u64 {
        self.eval_field(x) & ((1 << self.family.out_bits) - 1)
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn pairwise_independence_over_field_exhaustive() {
        // k = 2 over F_5: for x ≠ y the map (c0, c1) → (h(x), h(y)) is a
        // bijection, so the joint distribution over all 25 polynomials is
        // uniform on [5]².
        let family = PolyFamily {
            prime: 5,
            k: 2,
            out_bits: 3,
        };
        for x in 0u64..5 {
            for y in 0u64..5 {
                if x == y {
                    continue;
                }
                let mut histogram = [[0u32; 5]; 5];
                for c0 in 0..5u64 {
                    for c1 in 0..5u64 {
                        let h = PolyHash {
                            family,
                            coeffs: vec![c0, c1],
                        };
                        histogram[h.eval_field(x) as usize][h.eval_field(y) as usize] += 1;
                    }
                }
                for row in &histogram {
                    assert!(row.iter().all(|&c| c == 1));
                }
            }
        }
    }

    #[test]
    fn three_wise_independence_over_field_exhaustive() {
        let family = PolyFamily {
            prime: 3,
            k: 3,
            out_bits: 2,
        };
        let mut histogram = std::collections::HashMap::new();
        for c0 in 0..3u64 {
            for c1 in 0..3u64 {
                for c2 in 0..3u64 {
                    let h = PolyHash {
                        family,
                        coeffs: vec![c0, c1, c2],
                    };
                    let key = (h.eval_field(0), h.eval_field(1), h.eval_field(2));
                    *histogram.entry(key).or_insert(0u32) += 1;
                }
            }
        }
        assert_eq!(histogram.len(), 27);
        assert!(histogram.values().all(|&c| c == 1));
    }

    #[test]
    fn seed_bit_front_end_matches_width() {
        let fam = PolyFamily::with_guard_bits(2, 100, 4, 3);
        // prime ≥ max(100, 128) → 131 → width 8 bits → seed 16 bits.
        assert_eq!(fam.prime(), 131);
        assert_eq!(fam.seed_len(), 16);
    }

    #[test]
    fn hash_from_u64_is_deterministic() {
        let fam = PolyFamily::new(4, 1000, 8);
        let h1 = fam.hash_from_u64(99);
        let h2 = fam.hash_from_u64(99);
        for x in 0..50 {
            assert_eq!(h1.eval(x), h2.eval(x));
        }
    }

    #[test]
    fn truncated_outputs_in_range() {
        let fam = PolyFamily::new(2, 1 << 20, 10);
        let h = fam.hash_from_u64(7);
        for x in 0..2000 {
            assert!(h.eval(x) < 1024);
        }
    }
}
