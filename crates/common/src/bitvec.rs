//! A packed bit vector.
//!
//! Backs the 1-bit element encoding of §3 ("in case there are two distinct
//! values a bit-set suffices; resulting in ⌈n/8⌉ bytes") and the row
//! selection masks used when evaluating `WHERE` clauses chunk by chunk.

use crate::mem::HeapSize;

/// A growable, packed vector of bits.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    pub fn new() -> Self {
        BitVec::default()
    }

    /// A bit vector of `len` bits, all set to `value`.
    pub fn filled(len: usize, value: bool) -> Self {
        let word = if value { u64::MAX } else { 0 };
        let mut v = BitVec { words: vec![word; len.div_ceil(64)], len };
        v.clear_tail();
        v
    }

    /// A bit vector of `len` bits over already-packed words (bit `i` is bit
    /// `i % 64` of word `i / 64`) — how mask builders emit 64 rows per
    /// store instead of one [`BitVec::push`] per row. Bits at positions
    /// `>= len` in the final word are cleared. Panics unless `words` holds
    /// exactly `len.div_ceil(64)` words.
    pub fn from_words(words: Vec<u64>, len: usize) -> Self {
        assert_eq!(words.len(), len.div_ceil(64), "word count does not match {len} bits");
        let mut v = BitVec { words, len };
        v.clear_tail();
        v
    }

    pub fn with_capacity(bits: usize) -> Self {
        BitVec { words: Vec::with_capacity(bits.div_ceil(64)), len: 0 }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    pub fn push(&mut self, bit: bool) {
        let word = self.len / 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[word] |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Read bit `i`. Panics if out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of bounds (len {})", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    #[inline]
    pub fn set(&mut self, i: usize, bit: bool) {
        assert!(i < self.len, "bit index {i} out of bounds (len {})", self.len);
        let mask = 1u64 << (i % 64);
        if bit {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `self &= other`. Both vectors must have equal length.
    pub fn and_assign(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "bitvec length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// `self |= other`. Both vectors must have equal length.
    pub fn or_assign(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "bitvec length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Flip every bit.
    pub fn negate(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.clear_tail();
    }

    /// `true` if no bit is set.
    pub fn none(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// `true` if every bit is set.
    pub fn all(&self) -> bool {
        self.count_ones() == self.len
    }

    /// Iterate over all bits in order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// The backing 64-bit words, least-significant bit first within each
    /// word. Bits at positions `>= len()` in the final word are zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Iterate over the indices of set bits.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &w)| {
            let base = wi * 64;
            let mut rem = w;
            std::iter::from_fn(move || {
                if rem == 0 {
                    return None;
                }
                let bit = rem.trailing_zeros() as usize;
                rem &= rem - 1;
                Some(base + bit)
            })
        })
    }

    /// Zero any bits in the final partial word beyond `len` so that
    /// `count_ones` / `none` stay correct after `negate` / `filled`.
    fn clear_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut v = BitVec::with_capacity(iter.size_hint().0);
        for b in iter {
            v.push(b);
        }
        v
    }
}

impl HeapSize for BitVec {
    fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_set_roundtrip() {
        let mut v = BitVec::new();
        for i in 0..200 {
            v.push(i % 3 == 0);
        }
        assert_eq!(v.len(), 200);
        for i in 0..200 {
            assert_eq!(v.get(i), i % 3 == 0, "bit {i}");
        }
        v.set(1, true);
        assert!(v.get(1));
        v.set(0, false);
        assert!(!v.get(0));
    }

    #[test]
    fn filled_and_counts() {
        let ones = BitVec::filled(130, true);
        assert_eq!(ones.count_ones(), 130);
        assert!(ones.all());
        assert!(!ones.none());
        let zeros = BitVec::filled(130, false);
        assert_eq!(zeros.count_ones(), 0);
        assert!(zeros.none());
    }

    #[test]
    fn from_words_matches_pushed_bits_and_clears_the_tail() {
        let pushed: BitVec = (0..70).map(|i| i % 3 == 0).collect();
        let dirty_tail = pushed.words()[1] | (u64::MAX << 6);
        let packed = BitVec::from_words(vec![pushed.words()[0], dirty_tail], 70);
        assert_eq!(packed, pushed);
        assert_eq!(packed.count_ones(), pushed.count_ones());
        assert!(BitVec::from_words(Vec::new(), 0).is_empty());
    }

    #[test]
    fn negate_respects_length() {
        let mut v = BitVec::filled(70, true);
        v.negate();
        assert!(v.none());
        v.negate();
        assert_eq!(v.count_ones(), 70);
        assert!(v.all());
    }

    #[test]
    fn boolean_algebra() {
        let a: BitVec = (0..100).map(|i| i % 2 == 0).collect();
        let b: BitVec = (0..100).map(|i| i % 3 == 0).collect();
        let mut and = a.clone();
        and.and_assign(&b);
        let mut or = a.clone();
        or.or_assign(&b);
        for i in 0..100 {
            assert_eq!(and.get(i), i % 2 == 0 && i % 3 == 0);
            assert_eq!(or.get(i), i % 2 == 0 || i % 3 == 0);
        }
    }

    #[test]
    fn iter_ones_matches_get() {
        let v: BitVec = (0..300).map(|i| i % 7 == 1).collect();
        let ones: Vec<usize> = v.iter_ones().collect();
        let expect: Vec<usize> = (0..300).filter(|i| i % 7 == 1).collect();
        assert_eq!(ones, expect);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        BitVec::filled(8, false).get(8);
    }

    #[test]
    fn empty_vector_behaviour() {
        let v = BitVec::new();
        assert!(v.is_empty());
        assert!(v.none());
        assert!(v.all()); // vacuously true
        assert_eq!(v.iter_ones().count(), 0);
    }
}
