//! Bloom filters over dictionary values (§5, "Further Optimizing the
//! Global-Dictionaries").
//!
//! *"To further reduce the situations where a (sub-)dictionary needs to be
//! loaded into memory, we additionally keep Bloom-filters for each
//! dictionary. With these Bloom-filters one can quickly check whether
//! certain values are present in a dictionary at all."*
//!
//! Keys are inserted as 64-bit hashes; the `k` probe positions derive from
//! the two hash halves (Kirsch–Mitzenmacher double hashing).

use pd_common::wire::{Decode, Encode, Reader};
use pd_common::{fx_hash64, Error, HeapSize, Result};
use std::hash::Hash;

/// A fixed-size Bloom filter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    words: Box<[u64]>,
    /// Number of probe positions per key.
    k: u32,
    /// Total bit count (power of two).
    bits: u64,
}

impl BloomFilter {
    /// Create a filter sized for `expected_keys` at roughly
    /// `bits_per_key` bits each (10 bits/key ≈ 1% false positives).
    pub fn new(expected_keys: usize, bits_per_key: usize) -> Self {
        let bits = (expected_keys.max(1) * bits_per_key.max(1)).next_power_of_two() as u64;
        let bits = bits.max(64);
        // Optimal k = ln(2) * bits/keys, clamped to a sane range.
        let k = ((bits as f64 / expected_keys.max(1) as f64) * std::f64::consts::LN_2)
            .round()
            .clamp(1.0, 16.0) as u32;
        BloomFilter { words: vec![0u64; (bits / 64) as usize].into_boxed_slice(), k, bits }
    }

    /// Insert a key.
    pub fn insert<T: Hash + ?Sized>(&mut self, key: &T) {
        let h = fx_hash64(key);
        let (h1, h2) = (h as u32 as u64, h >> 32);
        for i in 0..u64::from(self.k) {
            let bit = (h1.wrapping_add(i.wrapping_mul(h2 | 1))) & (self.bits - 1);
            self.words[(bit / 64) as usize] |= 1 << (bit % 64);
        }
    }

    /// May `key` be present? `false` is definitive; `true` may be a false
    /// positive.
    pub fn may_contain<T: Hash + ?Sized>(&self, key: &T) -> bool {
        let h = fx_hash64(key);
        let (h1, h2) = (h as u32 as u64, h >> 32);
        (0..u64::from(self.k)).all(|i| {
            let bit = (h1.wrapping_add(i.wrapping_mul(h2 | 1))) & (self.bits - 1);
            self.words[(bit / 64) as usize] & (1 << (bit % 64)) != 0
        })
    }

    /// Total bits in the filter.
    pub fn bit_count(&self) -> u64 {
        self.bits
    }
}

impl HeapSize for BloomFilter {
    fn heap_bytes(&self) -> usize {
        self.words.len() * 8
    }
}

// Wire codec: filters travel inside shard metadata (`Load`/`Attach` acks),
// so the decode side must uphold the invariants every probe relies on —
// `bits` a power of two ≥ 64 (the probe mask is `bits - 1`), `k` in the
// constructor's clamp range, and exactly `bits / 64` words (probes index
// words unchecked-by-construction). Corrupt bytes are an `Err`, never a
// panic or an out-of-bounds probe.
impl Encode for BloomFilter {
    fn encode(&self, out: &mut Vec<u8>) {
        self.bits.encode(out);
        self.k.encode(out);
        self.words.encode(out);
    }
}

impl Decode for BloomFilter {
    fn decode(r: &mut Reader<'_>) -> Result<BloomFilter> {
        let bits = r.u64()?;
        if !bits.is_power_of_two() || bits < 64 {
            return Err(Error::Data(format!(
                "wire: bloom bit count {bits} is not a power of two ≥ 64"
            )));
        }
        let k = u32::decode(r)?;
        if !(1..=16).contains(&k) {
            return Err(Error::Data(format!("wire: bloom probe count {k} outside 1..=16")));
        }
        let words = Box::<[u64]>::decode(r)?;
        if words.len() as u64 != bits / 64 {
            return Err(Error::Data(format!(
                "wire: bloom with {bits} bits carries {} words (need {})",
                words.len(),
                bits / 64
            )));
        }
        Ok(BloomFilter { words, k, bits })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::new(1000, 10);
        for i in 0..1000u64 {
            f.insert(&i);
        }
        for i in 0..1000u64 {
            assert!(f.may_contain(&i), "false negative for {i}");
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)] // 10k+ iterations: minutes under the interpreter
    fn false_positive_rate_is_low() {
        let mut f = BloomFilter::new(10_000, 10);
        for i in 0..10_000u64 {
            f.insert(&i);
        }
        let fp = (10_000..110_000u64).filter(|i| f.may_contain(i)).count();
        let rate = fp as f64 / 100_000.0;
        assert!(rate < 0.05, "false positive rate {rate}");
    }

    #[test]
    fn string_keys() {
        let mut f = BloomFilter::new(100, 10);
        f.insert("la redoute");
        f.insert("voyages sncf");
        assert!(f.may_contain("la redoute"));
        assert!(!f.may_contain("definitely-absent-search-term-xyz"));
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let f = BloomFilter::new(100, 10);
        assert!(!f.may_contain(&1u64));
    }

    #[test]
    fn codec_round_trips_and_rejects_corruption() {
        let mut f = BloomFilter::new(100, 10);
        for i in 0..100u64 {
            f.insert(&i);
        }
        let bytes = pd_common::wire::to_bytes(&f);
        let back: BloomFilter = pd_common::wire::from_bytes(&bytes).unwrap();
        assert_eq!(back, f);
        // Truncations error, never panic.
        for cut in 0..bytes.len().min(64) {
            assert!(pd_common::wire::from_bytes::<BloomFilter>(&bytes[..cut]).is_err());
        }
        // An invalid bit count (mask would be wrong) is rejected.
        let mut bad = bytes.clone();
        bad[0] = 63; // u64 LE: bits = 63, not a power of two
        assert!(pd_common::wire::from_bytes::<BloomFilter>(&bad).is_err());
    }

    #[test]
    fn degenerate_sizes_survive() {
        let mut f = BloomFilter::new(0, 0);
        f.insert(&1u64);
        assert!(f.may_contain(&1u64));
        assert!(f.bit_count() >= 64);
    }
}
