//! Partially fixed random seeds.
//!
//! The method of conditional expectations (Lemma 2.6) walks through the bits
//! of a shared random seed, fixing one bit at a time. [`PartialSeed`] tracks
//! which bits have been fixed and to what value; the remaining bits are
//! understood to be uniformly random and independent.

/// A seed of `len` bits, each either fixed to a boolean or still free.
///
/// # Examples
///
/// ```
/// use dcl_derand::seed::PartialSeed;
///
/// let mut s = PartialSeed::new(4);
/// assert_eq!(s.free_count(), 4);
/// s.fix(2, true);
/// assert_eq!(s.get(2), Some(true));
/// assert_eq!(s.get(0), None);
/// assert_eq!(s.free_count(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialSeed {
    bits: Vec<Option<bool>>,
}

impl PartialSeed {
    /// A fully free seed of `len` bits.
    pub fn new(len: usize) -> Self {
        PartialSeed {
            bits: vec![None; len],
        }
    }

    /// A fully fixed seed taken from the low bits of `value`
    /// (bit `i` of the seed = bit `i` of `value`).
    ///
    /// # Panics
    ///
    /// Panics if `len > 64`.
    pub fn from_u64(len: usize, value: u64) -> Self {
        assert!(len <= 64, "from_u64 supports at most 64 bits");
        PartialSeed {
            bits: (0..len).map(|i| Some(value >> i & 1 == 1)).collect(),
        }
    }

    /// Number of bits in the seed.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the seed has zero bits.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// The value of bit `i`, or `None` if still free.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn get(&self, i: usize) -> Option<bool> {
        self.bits[i]
    }

    /// Fixes bit `i` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or bit `i` was already fixed (fixing a
    /// bit twice indicates a bug in the derandomization schedule).
    pub fn fix(&mut self, i: usize, value: bool) {
        assert!(self.bits[i].is_none(), "seed bit {i} fixed twice");
        self.bits[i] = Some(value);
    }

    /// Number of still-free bits.
    pub fn free_count(&self) -> usize {
        self.bits.iter().filter(|b| b.is_none()).count()
    }

    /// Whether every bit has been fixed.
    pub fn is_complete(&self) -> bool {
        self.free_count() == 0
    }

    /// Indices of still-free bits, in increasing order.
    pub fn free_indices(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.bits[i].is_none())
            .collect()
    }

    /// The `len`-bit window starting at `start`, packed as `(fixed, values)`
    /// bitsets: bit `k` of `fixed` is set iff seed bit `start + k` is fixed,
    /// and then bit `k` of `values` holds its value (0 for free bits).
    ///
    /// This is the SoA view of one hash-family slice: `SliceFamily::bit_form`
    /// reduces to two AND-parity operations on it instead of `m + 1`
    /// per-bit `Option` reads.
    ///
    /// # Panics
    ///
    /// Panics if the window exceeds the seed or is wider than 64 bits.
    pub fn packed(&self, start: usize, len: usize) -> (u64, u64) {
        assert!(len <= 64, "packed window wider than 64 bits");
        let mut fixed = 0u64;
        let mut values = 0u64;
        for (k, bit) in self.bits[start..start + len].iter().enumerate() {
            if let Some(v) = *bit {
                fixed |= 1 << k;
                if v {
                    values |= 1 << k;
                }
            }
        }
        (fixed, values)
    }

    /// Enumerates all completions of this seed, calling `f` with each fully
    /// fixed seed. Intended for brute-force reference computations in tests.
    ///
    /// # Panics
    ///
    /// Panics if more than 24 bits are free (2²⁴ completions).
    pub fn for_each_completion<F: FnMut(&PartialSeed)>(&self, mut f: F) {
        let free = self.free_indices();
        assert!(free.len() <= 24, "too many free bits to enumerate");
        let mut work = self.clone();
        for assignment in 0u64..(1u64 << free.len()) {
            for (j, &idx) in free.iter().enumerate() {
                work.bits[idx] = Some(assignment >> j & 1 == 1);
            }
            f(&work);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fix_and_query() {
        let mut s = PartialSeed::new(3);
        s.fix(0, true);
        s.fix(2, false);
        assert_eq!(s.get(0), Some(true));
        assert_eq!(s.get(1), None);
        assert_eq!(s.get(2), Some(false));
        assert_eq!(s.free_indices(), vec![1]);
        assert!(!s.is_complete());
        s.fix(1, true);
        assert!(s.is_complete());
    }

    #[test]
    #[should_panic(expected = "fixed twice")]
    fn double_fix_panics() {
        let mut s = PartialSeed::new(2);
        s.fix(0, true);
        s.fix(0, false);
    }

    #[test]
    fn from_u64_sets_low_bits() {
        let s = PartialSeed::from_u64(5, 0b10110);
        assert_eq!(s.get(0), Some(false));
        assert_eq!(s.get(1), Some(true));
        assert_eq!(s.get(2), Some(true));
        assert_eq!(s.get(3), Some(false));
        assert_eq!(s.get(4), Some(true));
    }

    #[test]
    fn completion_enumeration_covers_all() {
        let mut s = PartialSeed::new(3);
        s.fix(1, true);
        let mut seen = Vec::new();
        s.for_each_completion(|c| {
            let v: u64 = (0..3).map(|i| (c.get(i).unwrap() as u64) << i).sum();
            seen.push(v);
        });
        seen.sort_unstable();
        assert_eq!(seen, vec![0b010, 0b011, 0b110, 0b111]);
    }

    #[test]
    fn packed_matches_per_bit_reads() {
        let mut s = PartialSeed::new(10);
        s.fix(0, true);
        s.fix(3, false);
        s.fix(4, true);
        s.fix(9, true);
        for (start, len) in [(0, 10), (2, 5), (8, 2), (5, 0)] {
            let (fixed, values) = s.packed(start, len);
            for k in 0..len {
                match s.get(start + k) {
                    Some(v) => {
                        assert_eq!(fixed >> k & 1, 1, "bit {k} of window {start}+{len}");
                        assert_eq!(values >> k & 1 == 1, v);
                    }
                    None => {
                        assert_eq!(fixed >> k & 1, 0);
                        assert_eq!(values >> k & 1, 0);
                    }
                }
            }
            assert_eq!(fixed >> len, 0);
            assert_eq!(values >> len, 0);
        }
    }
}
