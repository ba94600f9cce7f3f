//! Per-message bandwidth caps.
//!
//! The bandwidth cap is the defining parameter of the paper's models — the
//! entire question of *Efficient Deterministic Distributed Coloring with
//! Small Bandwidth* is what coloring costs as a function of it. [`BandwidthCap`]
//! makes it a first-class value: every simulator stores one, every charged
//! collective consults it, and the experiment harness sweeps it
//! (`dcl_bench::e12_bandwidth_sweep`).

use crate::wire::bit_len;

/// A per-message bandwidth cap in bits (always positive).
///
/// Beyond the plain bound, the cap knows how *oversized logical payloads*
/// fragment: a `W`-bit payload occupies [`BandwidthCap::fragments`]` = ⌈W /
/// cap⌉` physical messages, and a synchronous round that carries such a
/// payload stretches to that many sub-rounds. The fragment-aware round and
/// charge APIs (`Network::fragmented_round`, the `*_charged` tree
/// collectives) use this to stay *runnable* at small caps — at any cap that
/// already fits every message, fragmentation is the identity and all costs
/// are unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BandwidthCap {
    bits: u32,
}

impl BandwidthCap {
    /// A cap of `bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0`.
    #[must_use]
    pub fn new(bits: u32) -> Self {
        assert!(bits > 0, "bandwidth cap must be positive");
        BandwidthCap { bits }
    }

    /// The paper's default cap for `n` nodes and color space `[C]`:
    /// `2 · max(64, ⌈log₂ n⌉, ⌈log₂ C⌉)` bits — two machine words of
    /// `O(log max(n, C))` bits, matching the assumption that a color name
    /// fits in `O(1)` messages (`DESIGN.md` §2.2).
    #[must_use]
    pub fn default_for(n: usize, color_space: u64) -> Self {
        BandwidthCap::new(2 * 64u32.max(bit_len(n as u64)).max(bit_len(color_space)))
    }

    /// The default CONGESTED CLIQUE / word-model cap: two 64-bit words.
    #[must_use]
    pub fn two_words() -> Self {
        BandwidthCap::new(128)
    }

    /// The cap in bits.
    #[must_use]
    pub const fn bits(self) -> u32 {
        self.bits
    }

    /// Whether a `bits`-bit payload fits in one message.
    #[must_use]
    pub const fn fits(self, bits: u32) -> bool {
        bits <= self.bits
    }

    /// Number of cap-sized physical messages a `bits`-bit logical payload
    /// occupies (at least 1 — even zero-width payloads take a message).
    /// The arithmetic lives in [`dcl_kernels::bits::fragments`] (an exact
    /// integer formula).
    #[must_use]
    pub const fn fragments(self, bits: u32) -> u32 {
        dcl_kernels::bits::fragments(self.bits, bits)
    }
}

impl std::fmt::Display for BandwidthCap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} bits", self.bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_cap_is_two_words_for_word_sized_parameters() {
        // Pins the DESIGN.md §2.2 formula: for every u64-representable n and
        // C the dominant term is the 64-bit machine word.
        assert_eq!(BandwidthCap::default_for(8, 8).bits(), 128);
        assert_eq!(BandwidthCap::default_for(1 << 20, 1 << 40).bits(), 128);
        assert_eq!(BandwidthCap::default_for(8, u64::MAX).bits(), 128);
        assert_eq!(BandwidthCap::two_words().bits(), 128);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_cap_rejected() {
        let _ = BandwidthCap::new(0);
    }

    #[test]
    fn fragments_round_up() {
        let cap = BandwidthCap::new(7);
        assert_eq!(cap.fragments(1), 1);
        assert_eq!(cap.fragments(7), 1);
        assert_eq!(cap.fragments(8), 2);
        assert_eq!(cap.fragments(64), 10);
        assert_eq!(cap.fragments(0), 1);
        assert!(cap.fits(7));
        assert!(!cap.fits(8));
    }

    #[test]
    fn display_formats_bits() {
        assert_eq!(BandwidthCap::new(12).to_string(), "12 bits");
    }
}
