//! Frame-of-reference packing: the compressed integer dictionary
//! ("OptDicts", §3).
//!
//! An integer dictionary is sorted and distinct, so every entry is at least
//! its first. Each is stored as its offset from that minimum, in the fewest
//! bits that hold the largest offset (Goldstein, Ramakrishnan and Shaft,
//! "Compressing Relations and Indexes", ICDE 1998): a column of timestamps
//! three months wide needs 23 bits an entry, not 64.
//!
//! The offsets lie end to end in one byte array, lowest bit first. Entry
//! `id` starts at bit `id · width`; it is read by one unaligned
//! little-endian `u64` load at the byte holding that bit, a shift by the
//! bit's place in the byte, a mask and an add — O(1), as indexing the
//! sorted array is. Past its shift a load holds at least 57 bits, so a
//! width of 58 to 63 bits is stored as 64, and the array ends where the
//! last entry's load does: at most seven bytes past the offsets, and never
//! more than the sorted array's eight bytes an entry. An id is still a
//! position, so [`Packed::rank`] binary-searches, unpacking each probed
//! entry.
//!
//! The width is a function of the entries alone (their range), and so are
//! the bytes: a packed dictionary grown by merges equals the one a build of
//! its entries packs.

use crate::dict::{Merged, Sorted};
use pd_common::{Error, HeapSize, Result};
use std::cmp::Ordering;

/// Sorted, distinct integers as fixed-width offsets from the first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packed {
    /// The first entry; 0 when there is none.
    min: i64,
    /// Bits per offset: 1 to 57, or 64.
    width: u32,
    len: u32,
    /// The offsets, then zero bytes to the end of the last load ([`size`]).
    bytes: Box<[u8]>,
}

impl Packed {
    /// Pack integers that are **sorted and unique** (the global dictionary
    /// invariant, §2.3); anything else is an error.
    pub fn from_sorted(values: &[i64]) -> Result<Packed> {
        if values.windows(2).any(|pair| pair[0] >= pair[1]) {
            return Err(Error::Data("dictionary input must be sorted and unique".into()));
        }
        let (min, max) = match values {
            [] => (0, 0),
            [first, .., last] => (*first, *last),
            [only] => (*only, *only),
        };
        let mut packed = Packed {
            min,
            width: width_of(max.wrapping_sub(min) as u64),
            len: 0,
            bytes: Box::default(),
        };
        packed.push_all(values);
        Ok(packed)
    }

    /// Number of entries.
    pub fn len(&self) -> u32 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bits each entry's offset takes.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The entry with id `id`. Panics if out of range.
    #[inline]
    pub fn value(&self, id: u32) -> i64 {
        assert!(id < self.len, "id {id} out of range (len {})", self.len);
        let bit = id as usize * self.width as usize;
        let offset = (load(&self.bytes, bit / 8) >> (bit % 8)) & self.mask();
        self.min.wrapping_add(offset as i64)
    }

    /// Where `probe` stands among the entries, with
    /// [`slice::binary_search`]'s contract: `Ok(id)` of its entry, or
    /// `Err(id)` of the first entry above it.
    pub fn rank(&self, probe: i64) -> std::result::Result<u32, u32> {
        let (mut lo, mut hi) = (0, self.len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.value(mid).cmp(&probe) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// Every entry in id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = i64> + '_ {
        (0..self.len).map(|id| self.value(id))
    }

    /// Merge the sorted, distinct `batch` into this dictionary, which
    /// becomes their union, in order, with [`Sorted::merge`]'s ids and map.
    /// When every new entry sorts past the last one and its offset fits the
    /// width, the new offsets are written after the old ones and no id
    /// moves; otherwise the union is repacked.
    pub fn merge(&mut self, batch: &Sorted<i64>) -> Merged {
        let last = self.len.checked_sub(1).map(|id| self.value(id));
        let values = batch.values();
        let held = values.partition_point(|&v| last.is_some_and(|last| v <= last));
        let past = &values[held..];
        let fits = |v: &i64| last.is_some() && (v.wrapping_sub(self.min) as u64) <= self.mask();
        let ids: Option<Vec<u32>> = (values[..held].iter().map(|&v| self.rank(v).ok()))
            .chain((self.len..).take(past.len()).map(Some))
            .collect();
        if let Some(ids) = ids.filter(|_| past.last().is_none_or(fits)) {
            self.push_all(past);
            return Merged { ids, renumbered: None };
        }
        let mut union = Sorted { values: self.iter().collect() };
        let merged = union.merge(batch);
        *self = Packed::from_sorted(union.values()).expect("a merge stays sorted and unique");
        merged
    }

    /// Write the offsets of `values` — above every entry, within the width
    /// — after the last one: from the byte the last offset ends in, eight
    /// bytes at a time.
    fn push_all(&mut self, values: &[i64]) {
        let len = self.len + values.len() as u32;
        let end = self.len as usize * self.width as usize;
        let mut bytes = std::mem::take(&mut self.bytes).into_vec();
        // Past the offsets every byte is zero: the last one's high bits too.
        let (mut pending, mut bits) = (bytes.get(end / 8).map_or(0, |&b| u128::from(b)), end % 8);
        bytes.truncate(end / 8);
        bytes.reserve_exact(size(len, self.width) - bytes.len());
        for &v in values {
            pending |= u128::from(v.wrapping_sub(self.min) as u64) << bits;
            bits += self.width as usize;
            if bits >= 64 {
                bytes.extend_from_slice(&(pending as u64).to_le_bytes());
                (pending, bits) = (pending >> 64, bits - 64);
            }
        }
        bytes.extend_from_slice(&pending.to_le_bytes()[..bits.div_ceil(8)]);
        bytes.resize(size(len, self.width), 0);
        self.bytes = bytes.into_boxed_slice();
        self.len = len;
    }

    fn mask(&self) -> u64 {
        u64::MAX >> (64 - self.width)
    }
}

impl HeapSize for Packed {
    fn heap_bytes(&self) -> usize {
        self.bytes.len()
    }
}

/// The bits an offset up to `range` takes: at least one, and 64 where a
/// load past its shift could not hold them.
fn width_of(range: u64) -> u32 {
    match u64::BITS - range.leading_zeros() {
        0 => 1,
        width @ 1..=57 => width,
        _ => 64,
    }
}

/// Bytes `len` offsets of `width` bits take: up to the end of the eight the
/// last one is loaded from.
fn size(len: u32, width: u32) -> usize {
    len.checked_sub(1).map_or(0, |last| last as usize * width as usize / 8 + 8)
}

/// The eight bytes from `at`, little-endian.
#[inline]
fn load(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("eight bytes"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packed(values: &[i64]) -> Packed {
        Packed::from_sorted(values).unwrap()
    }

    #[test]
    fn widths_follow_the_range_not_the_values() {
        assert_eq!(packed(&[]).width(), 1);
        assert_eq!(packed(&[i64::MIN]).width(), 1);
        assert_eq!(packed(&[1_300_000_000, 1_300_000_001]).width(), 1);
        assert_eq!(packed(&[-5, 2]).width(), 3);
        assert_eq!(packed(&[0, (1 << 57) - 1]).width(), 57);
        assert_eq!(packed(&[0, 1 << 57]).width(), 64, "58 bits are stored as 64");
        assert_eq!(packed(&[i64::MIN, i64::MAX]).width(), 64);
        // Offsets from the minimum: 2^23 seconds past a large epoch.
        let ts = [1_293_840_000, 1_293_840_000 + (1 << 23) - 1];
        assert_eq!(packed(&ts).width(), 23);
    }

    #[test]
    fn every_width_reads_back_what_it_packed() {
        for width in [1u32, 2, 7, 8, 9, 23, 31, 33, 56, 57, 58, 63, 64] {
            let top = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
            let mut values: Vec<i64> =
                (0..37u64).map(|i| (i * (top / 37)) as i64).map(|v| v.wrapping_add(-7)).collect();
            values.push((top as i64).wrapping_add(-7));
            values.sort_unstable();
            values.dedup();
            let dict = packed(&values);
            assert_eq!(dict.len() as usize, values.len());
            assert!(dict.iter().eq(values.iter().copied()), "width {width}");
            for (id, &v) in values.iter().enumerate() {
                assert_eq!(dict.rank(v), Ok(id as u32), "width {width}");
            }
            let offsets = (values.len() * dict.width() as usize).div_ceil(8);
            assert!((offsets..offsets + 8).contains(&dict.heap_bytes()), "width {width}");
            assert!(dict.heap_bytes() <= values.len() * 8, "width {width}");
        }
    }

    #[test]
    fn ranks_absent_probes_like_binary_search() {
        let values = [-40, -3, 0, 7, 1 << 40];
        let dict = packed(&values);
        for probe in [i64::MIN, -41, -40, -4, 1, 8, 1 << 40, (1 << 40) + 1, i64::MAX] {
            let want = values.binary_search(&probe).map(|i| i as u32).map_err(|i| i as u32);
            assert_eq!(dict.rank(probe), want, "{probe}");
        }
        assert_eq!(packed(&[]).rank(5), Err(0));
    }

    #[test]
    fn merging_past_the_end_within_the_width_writes_in_place() {
        let mut dict = packed(&[10, 20, 30]);
        let sorted = |v: &[i64]| Sorted::from_sorted(v.to_vec()).unwrap();
        let merged = dict.merge(&sorted(&[20, 31, 40]));
        assert_eq!((merged.ids, merged.renumbered), (vec![1, 3, 4], None));
        assert_eq!(dict, packed(&[10, 20, 30, 31, 40]));
        // Past the width: repacked wider, still no id moved.
        let merged = dict.merge(&sorted(&[1 << 20]));
        assert_eq!((merged.ids, merged.renumbered), (vec![5], None));
        assert_eq!(dict, packed(&[10, 20, 30, 31, 40, 1 << 20]));
        // Below or among the entries: repacked, and old ids move.
        let merged = dict.merge(&sorted(&[-1, 25]));
        assert_eq!(merged.ids, [0, 3]);
        assert_eq!(merged.renumbered.as_deref(), Some(&[1, 2, 4, 5, 6, 7][..]));
        assert_eq!(dict, packed(&[-1, 10, 20, 25, 30, 31, 40, 1 << 20]));
        // An empty dictionary takes a batch whole.
        let mut empty = packed(&[]);
        assert_eq!(empty.merge(&sorted(&[3, 9])).ids, [0, 1]);
        assert_eq!(empty, packed(&[3, 9]));
    }

    #[test]
    fn unsorted_input_is_refused() {
        assert!(Packed::from_sorted(&[2, 1]).is_err());
        assert!(Packed::from_sorted(&[1, 1]).is_err());
    }

    /// The padding after the last offset is not an entry.
    #[test]
    #[should_panic(expected = "out of range")]
    fn an_id_past_the_end_panics() {
        packed(&[1, 2]).value(2);
    }
}
