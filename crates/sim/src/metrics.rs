//! Unified cost counters for every simulated model.

use crate::cap::BandwidthCap;
use crate::wire::Wire;

/// Cost counters accumulated by a simulator.
///
/// All three models meter the same quantities; only the *unit* of `bits`
/// differs (literal bits in CONGEST and the clique; machine words in MPC,
/// where `dcl_mpc` converts on read-out).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimMetrics {
    /// Number of synchronous rounds elapsed.
    pub rounds: u64,
    /// Total number of messages delivered.
    pub messages: u64,
    /// Total number of bits delivered (words in MPC).
    pub bits: u64,
    /// Largest single message observed, in bits.
    pub max_message_bits: u32,
}

impl SimMetrics {
    /// Accounts one message of `bits` bits under the model's cap.
    ///
    /// # Panics
    ///
    /// Panics if `bits` exceeds the cap; `model` names the model in the
    /// message ("CONGEST", "clique", …).
    pub fn account(&mut self, cap: BandwidthCap, bits: u32, model: &str) {
        assert!(
            cap.fits(bits),
            "message of {bits} bits exceeds {model} cap of {} bits",
            cap.bits()
        );
        self.messages += 1;
        self.bits += u64::from(bits);
        self.max_message_bits = self.max_message_bits.max(bits);
    }

    /// Accounts one logical payload of `bits` bits, fragmenting it into
    /// `⌈bits / cap⌉` physical messages if it exceeds the cap. Returns the
    /// fragment count (the number of sub-rounds the payload occupies on its
    /// link). For payloads that fit the cap this is exactly [`account`].
    ///
    /// [`account`]: SimMetrics::account
    pub fn account_fragmented(&mut self, cap: BandwidthCap, bits: u32) -> u32 {
        self.account_fragmented_many(cap, 1, bits)
    }

    /// Bulk form of [`account_fragmented`]: accounts `count` logical
    /// payloads of `bits_each` bits in `O(1)` (charged collectives call
    /// this with edge counts in the hundreds of thousands per seed bit).
    /// Returns the per-payload fragment count; both forms share this one
    /// implementation, so stepped and charged metering cannot drift apart.
    ///
    /// [`account_fragmented`]: SimMetrics::account_fragmented
    pub fn account_fragmented_many(
        &mut self,
        cap: BandwidthCap,
        count: u64,
        bits_each: u32,
    ) -> u32 {
        let fragments = cap.fragments(bits_each);
        self.messages += count * u64::from(fragments);
        self.bits += count * u64::from(bits_each);
        if count > 0 {
            self.max_message_bits = self.max_message_bits.max(bits_each.min(cap.bits()));
        }
        fragments
    }
}

/// Metrics cross the wire as their four counters in declaration order, so a
/// served `Report` carries the same rounds/messages/bits accounting a local
/// run would produce (`dcl_service` relies on this for its bit-identical
/// service-vs-direct pins).
impl Wire for SimMetrics {
    fn wire_bits(&self) -> u32 {
        self.rounds.wire_bits()
            + self.messages.wire_bits()
            + self.bits.wire_bits()
            + self.max_message_bits.wire_bits()
    }
    fn wire_encode(&self, out: &mut Vec<u8>) {
        self.rounds.wire_encode(out);
        self.messages.wire_encode(out);
        self.bits.wire_encode(out);
        self.max_message_bits.wire_encode(out);
    }
    fn wire_decode(buf: &mut &[u8]) -> Option<Self> {
        Some(SimMetrics {
            rounds: u64::wire_decode(buf)?,
            messages: u64::wire_decode(buf)?,
            bits: u64::wire_decode(buf)?,
            max_message_bits: u32::wire_decode(buf)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_wire_impl_roundtrips() {
        let m = SimMetrics {
            rounds: 7,
            messages: 1 << 40,
            bits: u64::MAX,
            max_message_bits: 4096,
        };
        let mut bytes = Vec::new();
        m.wire_encode(&mut bytes);
        let mut view = bytes.as_slice();
        assert_eq!(SimMetrics::wire_decode(&mut view), Some(m));
        assert!(view.is_empty());
        // Truncation surfaces as a typed decode failure, not a panic.
        assert_eq!(
            SimMetrics::wire_decode(&mut &bytes[..bytes.len() - 1]),
            None
        );
    }

    #[test]
    fn account_meters_and_enforces() {
        let cap = BandwidthCap::new(16);
        let mut m = SimMetrics::default();
        m.account(cap, 10, "test");
        m.account(cap, 16, "test");
        assert_eq!(m.messages, 2);
        assert_eq!(m.bits, 26);
        assert_eq!(m.max_message_bits, 16);
    }

    #[test]
    #[should_panic(expected = "exceeds demo cap")]
    fn account_panics_over_cap() {
        let mut m = SimMetrics::default();
        m.account(BandwidthCap::new(4), 5, "demo");
    }

    #[test]
    fn fragmented_accounting_matches_plain_when_fitting() {
        let cap = BandwidthCap::new(64);
        let mut plain = SimMetrics::default();
        let mut frag = SimMetrics::default();
        plain.account(cap, 40, "x");
        assert_eq!(frag.account_fragmented(cap, 40), 1);
        assert_eq!(plain, frag);
    }

    #[test]
    fn fragmented_accounting_splits_oversized_payloads() {
        let cap = BandwidthCap::new(7);
        let mut m = SimMetrics::default();
        assert_eq!(m.account_fragmented(cap, 17), 3);
        assert_eq!(m.messages, 3);
        assert_eq!(m.bits, 17);
        assert_eq!(m.max_message_bits, 7);
    }

    #[test]
    fn bulk_fragmented_accounting_equals_repeated_single_payloads() {
        let cap = BandwidthCap::new(7);
        let mut bulk = SimMetrics::default();
        let mut single = SimMetrics::default();
        assert_eq!(bulk.account_fragmented_many(cap, 5, 17), 3);
        for _ in 0..5 {
            single.account_fragmented(cap, 17);
        }
        assert_eq!(bulk, single);
        // A zero-count charge leaves everything untouched.
        let before = bulk;
        bulk.account_fragmented_many(cap, 0, 1000);
        assert_eq!(bulk, before);
    }
}
