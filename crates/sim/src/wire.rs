//! Message size accounting and the byte codec of the transport tier.
//!
//! Every payload sent through the simulator implements [`Wire`], reporting
//! the number of bits its encoding occupies on an edge. Integer payloads are
//! charged their *value's* bit length (the standard convention: a value in
//! `[C]` fits in `⌈log₂ C⌉` bits), floats are charged one 64-bit word, and
//! composite payloads are charged the sum of their parts.
//!
//! Since the transport tier (`DESIGN.md` §7), `Wire` is also the *codec*:
//! [`Wire::wire_encode`] / [`Wire::wire_decode`] turn a payload into the
//! self-delimiting byte string the socket transport
//! ([`crate::transport::TcpTransport`]) ships inside length-prefixed frames. The encoding is deterministic and
//! round-trips exactly (`decode(encode(x)) == x`, property-tested in
//! `crates/sim/tests/proptest_wire.rs`). Integers use LEB128 varints, so the
//! physical width tracks the value's [`Wire::wire_bits`] width up to the
//! `O(1)`-bit-per-value overhead any self-delimiting code must pay over the
//! information-theoretic widths the cost model charges.

/// Number of bits a message payload occupies on the wire, plus the byte
/// codec used when the payload crosses a real transport link.
pub trait Wire {
    /// Encoded width of `self` in bits (at least 1) — the quantity the cost
    /// model charges against the bandwidth cap.
    fn wire_bits(&self) -> u32;

    /// Appends the deterministic, self-delimiting byte encoding of `self`
    /// to `out` (the payload of a transport frame).
    fn wire_encode(&self, out: &mut Vec<u8>);

    /// Decodes one value from the front of `buf`, advancing it past the
    /// consumed bytes. Returns `None` on malformed or truncated input
    /// (never panics): transports surface that as a typed framing error.
    fn wire_decode(buf: &mut &[u8]) -> Option<Self>
    where
        Self: Sized;
}

/// Bit length of a `u64` value (at least 1, so that the value 0 still
/// occupies a bit on the wire). Re-exported from `dcl_kernels::bits`.
pub use dcl_kernels::bits::bit_len;

/// Appends the LEB128 varint encoding of `v` (1–10 bytes) to `out`.
pub fn encode_varint(v: u64, out: &mut Vec<u8>) {
    let mut v = v;
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decodes a LEB128 varint from the front of `buf`, advancing it. Returns
/// `None` on truncation or a value wider than 64 bits.
pub fn decode_varint(buf: &mut &[u8]) -> Option<u64> {
    let mut v = 0u64;
    for (i, &byte) in buf.iter().enumerate() {
        if i >= 10 || (i == 9 && byte > 1) {
            return None; // wider than u64
        }
        v |= u64::from(byte & 0x7f) << (7 * i);
        if byte & 0x80 == 0 {
            *buf = &buf[i + 1..];
            return Some(v);
        }
    }
    None // truncated
}

macro_rules! impl_wire_uint {
    ($($t:ty),*) => {
        $(impl Wire for $t {
            fn wire_bits(&self) -> u32 {
                bit_len(*self as u64)
            }
            fn wire_encode(&self, out: &mut Vec<u8>) {
                encode_varint(*self as u64, out);
            }
            fn wire_decode(buf: &mut &[u8]) -> Option<Self> {
                <$t>::try_from(decode_varint(buf)?).ok()
            }
        })*
    };
}

impl_wire_uint!(u8, u16, u32, u64, usize);

impl Wire for bool {
    fn wire_bits(&self) -> u32 {
        1
    }
    fn wire_encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn wire_decode(buf: &mut &[u8]) -> Option<Self> {
        match u8::wire_decode(buf)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl Wire for f64 {
    fn wire_bits(&self) -> u32 {
        64
    }
    fn wire_encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn wire_decode(buf: &mut &[u8]) -> Option<Self> {
        let bytes: [u8; 8] = buf.get(..8)?.try_into().ok()?;
        *buf = &buf[8..];
        Some(f64::from_bits(u64::from_le_bytes(bytes)))
    }
}

impl Wire for () {
    fn wire_bits(&self) -> u32 {
        1
    }
    fn wire_encode(&self, _out: &mut Vec<u8>) {}
    fn wire_decode(_buf: &mut &[u8]) -> Option<Self> {
        Some(())
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn wire_bits(&self) -> u32 {
        self.0.wire_bits() + self.1.wire_bits()
    }
    fn wire_encode(&self, out: &mut Vec<u8>) {
        self.0.wire_encode(out);
        self.1.wire_encode(out);
    }
    fn wire_decode(buf: &mut &[u8]) -> Option<Self> {
        Some((A::wire_decode(buf)?, B::wire_decode(buf)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn wire_bits(&self) -> u32 {
        self.0.wire_bits() + self.1.wire_bits() + self.2.wire_bits()
    }
    fn wire_encode(&self, out: &mut Vec<u8>) {
        self.0.wire_encode(out);
        self.1.wire_encode(out);
        self.2.wire_encode(out);
    }
    fn wire_decode(buf: &mut &[u8]) -> Option<Self> {
        Some((
            A::wire_decode(buf)?,
            B::wire_decode(buf)?,
            C::wire_decode(buf)?,
        ))
    }
}

impl<A: Wire, B: Wire, C: Wire, D: Wire> Wire for (A, B, C, D) {
    fn wire_bits(&self) -> u32 {
        self.0.wire_bits() + self.1.wire_bits() + self.2.wire_bits() + self.3.wire_bits()
    }
    fn wire_encode(&self, out: &mut Vec<u8>) {
        self.0.wire_encode(out);
        self.1.wire_encode(out);
        self.2.wire_encode(out);
        self.3.wire_encode(out);
    }
    fn wire_decode(buf: &mut &[u8]) -> Option<Self> {
        Some((
            A::wire_decode(buf)?,
            B::wire_decode(buf)?,
            C::wire_decode(buf)?,
            D::wire_decode(buf)?,
        ))
    }
}

/// Strings cross the wire as a length-prefixed UTF-8 byte run (scenario
/// names and error details in the `dcl_service` protocol). Charged the
/// length prefix plus 8 bits per byte; decode validates UTF-8 and rejects
/// length prefixes promising more bytes than remain, like `Vec<T>`.
impl Wire for String {
    fn wire_bits(&self) -> u32 {
        bit_len(self.len() as u64) + 8 * self.len() as u32
    }
    fn wire_encode(&self, out: &mut Vec<u8>) {
        encode_varint(self.len() as u64, out);
        out.extend_from_slice(self.as_bytes());
    }
    fn wire_decode(buf: &mut &[u8]) -> Option<Self> {
        let len = usize::try_from(decode_varint(buf)?).ok()?;
        if len > buf.len() {
            return None; // corrupt prefix must not trigger a huge allocation
        }
        let text = std::str::from_utf8(&buf[..len]).ok()?.to_string();
        *buf = &buf[len..];
        Some(text)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn wire_bits(&self) -> u32 {
        1 + self.as_ref().map_or(0, Wire::wire_bits)
    }
    fn wire_encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.wire_encode(out);
            }
        }
    }
    fn wire_decode(buf: &mut &[u8]) -> Option<Self> {
        match u8::wire_decode(buf)? {
            0 => Some(None),
            1 => Some(Some(T::wire_decode(buf)?)),
            _ => None,
        }
    }
}

/// Variable-length payloads (e.g. an adjacency list shipped during the
/// `dcl_delta` obstruction detection) are charged a length prefix of
/// `bit_len(len)` bits plus the sum of their elements' widths. Lists wider
/// than the cap rely on the `fragmented_*` round variants.
impl<T: Wire> Wire for Vec<T> {
    fn wire_bits(&self) -> u32 {
        bit_len(self.len() as u64) + self.iter().map(Wire::wire_bits).sum::<u32>()
    }
    fn wire_encode(&self, out: &mut Vec<u8>) {
        encode_varint(self.len() as u64, out);
        for item in self {
            item.wire_encode(out);
        }
    }
    fn wire_decode(buf: &mut &[u8]) -> Option<Self> {
        let len = usize::try_from(decode_varint(buf)?).ok()?;
        // A length prefix can never promise more elements than there are
        // bytes left (every element encodes to at least one byte except
        // `()`, which has no reason to travel in bulk) — reject early so a
        // corrupt prefix cannot trigger a huge allocation.
        if len > buf.len() && std::mem::size_of::<T>() > 0 {
            return None;
        }
        let mut out = Vec::with_capacity(len.min(buf.len().max(1)));
        for _ in 0..len {
            out.push(T::wire_decode(buf)?);
        }
        Some(out)
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
    fn composite_widths_sum() {
        assert_eq!((3u32, 4u32).wire_bits(), 2 + 3);
        assert_eq!((true, 1u8, 7u16).wire_bits(), 1 + 1 + 3);
        assert_eq!(Some(3u32).wire_bits(), 1 + 2);
        assert_eq!(None::<u32>.wire_bits(), 1);
    }

    #[test]
    fn float_is_one_word() {
        assert_eq!(1.5f64.wire_bits(), 64);
    }

    #[test]
    fn vec_is_length_prefixed_sum() {
        assert_eq!(Vec::<u32>::new().wire_bits(), 1);
        assert_eq!(vec![3u32, 4u32].wire_bits(), 2 + 2 + 3);
        assert_eq!(vec![0u8; 5].wire_bits(), 3 + 5);
    }

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(value: T) {
        let mut bytes = Vec::new();
        value.wire_encode(&mut bytes);
        let mut buf = bytes.as_slice();
        assert_eq!(T::wire_decode(&mut buf), Some(value));
        assert!(buf.is_empty(), "decode must consume the whole encoding");
    }

    #[test]
    fn string_wire_impl_roundtrips_and_rejects_corruption() {
        roundtrip(String::new());
        roundtrip(String::from("mpc-sublinear"));
        roundtrip(String::from("Δ-coloring — ünïcode"));
        assert_eq!("ab".to_string().wire_bits(), 2 + 16);
        // Length prefix promising more bytes than remain.
        let mut bytes = Vec::new();
        encode_varint(100, &mut bytes);
        bytes.push(b'x');
        assert_eq!(String::wire_decode(&mut bytes.as_slice()), None);
        // Invalid UTF-8 payload.
        let mut bytes = Vec::new();
        encode_varint(2, &mut bytes);
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        assert_eq!(String::wire_decode(&mut bytes.as_slice()), None);
    }

    #[test]
    fn encode_decode_roundtrips() {
        roundtrip(0u64);
        roundtrip(u64::MAX);
        roundtrip(127u8);
        roundtrip(128u16);
        roundtrip(usize::MAX);
        roundtrip(true);
        roundtrip(());
        roundtrip(-1.5f64);
        roundtrip((3u32, 4u64));
        roundtrip((1u8, 2u16, 3u32));
        roundtrip((1u8, 2u16, 3u32, 4u64));
        roundtrip(Some(vec![(7u64, 9u64)]));
        roundtrip(None::<u32>);
        roundtrip(vec![0u64, 1, u64::MAX]);
        roundtrip(Vec::<bool>::new());
    }

    #[test]
    fn varints_are_minimal_and_reject_garbage() {
        let mut out = Vec::new();
        encode_varint(300, &mut out);
        assert_eq!(out, vec![0xac, 0x02]);
        let mut buf = out.as_slice();
        assert_eq!(decode_varint(&mut buf), Some(300));
        // Truncated input.
        let mut buf: &[u8] = &[0x80];
        assert_eq!(decode_varint(&mut buf), None);
        // 11-byte varint (wider than u64).
        let mut buf: &[u8] = &[0x80; 11];
        assert_eq!(decode_varint(&mut buf), None);
    }

    #[test]
    fn decode_rejects_out_of_range_and_corrupt_values() {
        // 300 does not fit u8.
        let mut bytes = Vec::new();
        encode_varint(300, &mut bytes);
        assert_eq!(u8::wire_decode(&mut bytes.as_slice()), None);
        // bool must be 0 or 1.
        assert_eq!(bool::wire_decode(&mut [7u8].as_slice()), None);
        // Option tag must be 0 or 1.
        assert_eq!(Option::<u8>::wire_decode(&mut [9u8].as_slice()), None);
        // A Vec length prefix promising more elements than bytes remain.
        let mut bytes = Vec::new();
        encode_varint(1000, &mut bytes);
        assert_eq!(Vec::<u64>::wire_decode(&mut bytes.as_slice()), None);
        // Truncated f64.
        assert_eq!(f64::wire_decode(&mut [0u8; 4].as_slice()), None);
    }
}
