//! Fragmentation and bit-accounting arithmetic.
//!
//! Both entry points ([`bit_len`], [`fragments`]) are exact integer
//! formulas, written as `const fn`s because the wire cost model calls them
//! from `const` contexts.

/// Bit length of a `u64` value (at least 1, so that the value 0 still
/// occupies a bit on the wire). Moved verbatim from `dcl_sim::wire`,
/// now `const`.
#[must_use]
pub const fn bit_len(v: u64) -> u32 {
    let len = 64 - v.leading_zeros();
    if len == 0 {
        1
    } else {
        len
    }
}

/// Number of `cap`-bit physical messages a `bits`-bit logical payload
/// occupies (at least 1 — even zero-width payloads take a message). Moved
/// verbatim from `dcl_sim::cap::BandwidthCap::fragments`.
///
/// `cap` must be positive (`BandwidthCap` guarantees this upstream).
#[must_use]
pub const fn fragments(cap: u32, bits: u32) -> u32 {
    let f = bits.div_ceil(cap);
    if f == 0 {
        1
    } else {
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_len_basics() {
        assert_eq!(bit_len(0), 1);
        assert_eq!(bit_len(1), 1);
        assert_eq!(bit_len(2), 2);
        assert_eq!(bit_len(255), 8);
        assert_eq!(bit_len(256), 9);
        assert_eq!(bit_len(u64::MAX), 64);
    }

    #[test]
    fn fragments_round_up() {
        assert_eq!(fragments(7, 1), 1);
        assert_eq!(fragments(7, 7), 1);
        assert_eq!(fragments(7, 8), 2);
        assert_eq!(fragments(7, 64), 10);
        assert_eq!(fragments(7, 0), 1);
    }
}
