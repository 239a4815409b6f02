//! Element arrays: the per-chunk sequence of chunk-ids.
//!
//! §3 "Optimize Encoding of Elements in Columns": *"If there is only 1
//! distinct value, we only need the size of the chunk [...]. In case there
//! are two distinct values a bit-set suffices [...]. We complete the picture
//! by using 1, 2, and 4 bytes per chunk-id for the cases of at most 2^8,
//! 2^16, and 2^32 distinct values."*
//!
//! [`ElementsMode::Basic`] forces the flat 32-bit representation the paper's
//! "Basic" configuration uses; [`ElementsMode::Optimized`] applies the
//! ladder above — and its 1/2/4-byte rungs to chunk dictionaries too, by
//! the range of their global-ids ([`crate::ChunkDict`]).

use pd_common::{BitVec, Error, HeapSize, Result};
use pd_compress::varint;

/// How to encode element arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ElementsMode {
    /// Always 32 bits per chunk-id ("Basic" in the paper's tables).
    Basic,
    /// Adaptive 0-bit / bit-set / u8 / u16 / u32, and chunk dictionaries
    /// as 1/2/4-byte offsets from their first id ("OptCols").
    #[default]
    Optimized,
}

/// A read-only sequence of chunk-ids with an adaptive representation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Elements {
    /// Every row holds chunk-id 0 (one distinct value in the chunk).
    Const { len: usize },
    /// Two distinct values: chunk-ids 0/1 as a bit-set.
    Bits(BitVec),
    /// Up to 2^8 distinct values.
    U8(Box<[u8]>),
    /// Up to 2^16 distinct values.
    U16(Box<[u16]>),
    /// Up to 2^32 distinct values.
    U32(Box<[u32]>),
}

impl Elements {
    /// Encode `ids` (chunk-ids) given the chunk-dictionary cardinality.
    ///
    /// `distinct` must be an upper bound: every id must be `< distinct`.
    pub fn encode(ids: &[u32], distinct: u32, mode: ElementsMode) -> Elements {
        debug_assert!(ids.iter().all(|&id| id < distinct.max(1)));
        if mode == ElementsMode::Basic {
            return Elements::U32(ids.into());
        }
        match distinct {
            0 | 1 => Elements::Const { len: ids.len() },
            2 => Elements::Bits(ids.iter().map(|&id| id == 1).collect()),
            3..=0x100 => Elements::U8(ids.iter().map(|&id| id as u8).collect()),
            0x101..=0x1_0000 => Elements::U16(ids.iter().map(|&id| id as u16).collect()),
            _ => Elements::U32(ids.into()),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Elements::Const { len } => *len,
            Elements::Bits(b) => b.len(),
            Elements::U8(v) => v.len(),
            Elements::U16(v) => v.len(),
            Elements::U32(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Chunk-id at `row`.
    #[inline]
    pub fn get(&self, row: usize) -> u32 {
        match self {
            Elements::Const { len } => {
                assert!(row < *len, "row {row} out of bounds (len {len})");
                0
            }
            Elements::Bits(b) => b.get(row) as u32,
            Elements::U8(v) => v[row] as u32,
            Elements::U16(v) => v[row] as u32,
            Elements::U32(v) => v[row],
        }
    }

    /// Iterate over all chunk-ids in row order.
    pub fn iter(&self) -> ElementsIter<'_> {
        ElementsIter { elements: self, row: 0 }
    }

    /// Borrow the underlying code storage without copying.
    ///
    /// The group-by kernels dispatch on this view once per chunk and then
    /// run a monomorphized inner loop over the raw codes, instead of paying
    /// a representation match per row ([`Elements::get`]).
    #[inline]
    pub fn codes(&self) -> CodesView<'_> {
        match self {
            Elements::Const { len } => CodesView::Const { len: *len },
            Elements::Bits(b) => CodesView::Bits(b),
            Elements::U8(v) => CodesView::U8(v),
            Elements::U16(v) => CodesView::U16(v),
            Elements::U32(v) => CodesView::U32(v),
        }
    }

    /// Serialize for the compressed storage layer. Layout:
    /// `tag:u8, varint(len), payload`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len() + 8);
        match self {
            Elements::Const { len } => {
                out.push(0);
                varint::write_u64(&mut out, *len as u64);
            }
            Elements::Bits(b) => {
                out.push(1);
                varint::write_u64(&mut out, b.len() as u64);
                let mut byte = 0u8;
                for (i, bit) in b.iter().enumerate() {
                    byte |= (bit as u8) << (i % 8);
                    if i % 8 == 7 {
                        out.push(byte);
                        byte = 0;
                    }
                }
                if b.len() % 8 != 0 {
                    out.push(byte);
                }
            }
            Elements::U8(v) => {
                out.push(2);
                varint::write_u64(&mut out, v.len() as u64);
                out.extend_from_slice(v);
            }
            Elements::U16(v) => {
                out.push(3);
                varint::write_u64(&mut out, v.len() as u64);
                for &x in v.iter() {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            Elements::U32(v) => {
                out.push(4);
                varint::write_u64(&mut out, v.len() as u64);
                for &x in v.iter() {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
        }
        out
    }

    /// Inverse of [`Elements::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Elements> {
        let tag = *bytes.first().ok_or_else(|| Error::Data("elements: empty buffer".into()))?;
        let mut pos = 1;
        let len = varint::read_u64(bytes, &mut pos)? as usize;
        let need = |n: usize| -> Result<&[u8]> {
            bytes.get(pos..pos + n).ok_or_else(|| Error::Data("elements: truncated payload".into()))
        };
        match tag {
            0 => Ok(Elements::Const { len }),
            1 => {
                let payload = need(len.div_ceil(8))?;
                let mut bits = BitVec::with_capacity(len);
                for i in 0..len {
                    bits.push(payload[i / 8] >> (i % 8) & 1 == 1);
                }
                Ok(Elements::Bits(bits))
            }
            2 => Ok(Elements::U8(need(len)?.into())),
            3 => {
                let payload = need(len * 2)?;
                Ok(Elements::U16(
                    payload
                        .chunks_exact(2)
                        .map(|c| u16::from_le_bytes(c.try_into().expect("2 bytes")))
                        .collect(),
                ))
            }
            4 => {
                let payload = need(len * 4)?;
                Ok(Elements::U32(
                    payload
                        .chunks_exact(4)
                        .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
                        .collect(),
                ))
            }
            t => Err(Error::Data(format!("elements: unknown tag {t}"))),
        }
    }

    /// Name of the representation, for diagnostics and bench output.
    pub fn repr_name(&self) -> &'static str {
        match self {
            Elements::Const { .. } => "const",
            Elements::Bits(_) => "bitset",
            Elements::U8(_) => "u8",
            Elements::U16(_) => "u16",
            Elements::U32(_) => "u32",
        }
    }
}

impl HeapSize for Elements {
    fn heap_bytes(&self) -> usize {
        match self {
            // §3: "we only need the size of the chunk" — O(1) overhead.
            Elements::Const { .. } => 0,
            Elements::Bits(b) => b.heap_bytes(),
            Elements::U8(v) => v.heap_bytes(),
            Elements::U16(v) => v.len() * 2,
            Elements::U32(v) => v.len() * 4,
        }
    }
}

/// A borrowed, zero-copy view of one chunk's element codes.
///
/// Obtained from [`Elements::codes`]; every variant indexes in O(1), so a
/// kernel can `match` once and keep the hot loop free of dispatch.
#[derive(Clone, Copy)]
pub enum CodesView<'a> {
    /// Every row holds code 0.
    Const {
        len: usize,
    },
    /// Two distinct values, packed bits.
    Bits(&'a BitVec),
    U8(&'a [u8]),
    U16(&'a [u16]),
    U32(&'a [u32]),
}

impl CodesView<'_> {
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            CodesView::Const { len } => *len,
            CodesView::Bits(b) => b.len(),
            CodesView::U8(v) => v.len(),
            CodesView::U16(v) => v.len(),
            CodesView::U32(v) => v.len(),
        }
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Code at `row` (no bounds check beyond the underlying storage's).
    #[inline(always)]
    pub fn get(&self, row: usize) -> u32 {
        match self {
            CodesView::Const { .. } => 0,
            CodesView::Bits(b) => b.get(row) as u32,
            CodesView::U8(v) => v[row] as u32,
            CodesView::U16(v) => v[row] as u32,
            CodesView::U32(v) => v[row],
        }
    }
}

/// Iterator over chunk-ids.
pub struct ElementsIter<'a> {
    elements: &'a Elements,
    row: usize,
}

impl Iterator for ElementsIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.row >= self.elements.len() {
            return None;
        }
        let id = self.elements.get(self.row);
        self.row += 1;
        Some(id)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.elements.len() - self.row;
        (rem, Some(rem))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids_with_distinct(distinct: u32, len: usize) -> Vec<u32> {
        (0..len).map(|i| (i as u32 * 7 + 3) % distinct.max(1)).collect()
    }

    #[test]
    fn ladder_picks_expected_representation() {
        let cases = [
            (1u32, "const"),
            (2, "bitset"),
            (3, "u8"),
            (256, "u8"),
            (257, "u16"),
            (65_536, "u16"),
            (65_537, "u32"),
        ];
        for (distinct, expected) in cases {
            let ids = ids_with_distinct(distinct, 100);
            let e = Elements::encode(&ids, distinct, ElementsMode::Optimized);
            assert_eq!(e.repr_name(), expected, "distinct={distinct}");
        }
    }

    #[test]
    fn basic_mode_always_u32() {
        let e = Elements::encode(&[0, 0, 0], 1, ElementsMode::Basic);
        assert_eq!(e.repr_name(), "u32");
    }

    #[test]
    fn get_and_iter_agree_across_reprs() {
        for distinct in [1u32, 2, 5, 300, 70_000] {
            let ids = ids_with_distinct(distinct, 500);
            let e = Elements::encode(&ids, distinct, ElementsMode::Optimized);
            assert_eq!(e.len(), 500);
            for (row, &expect) in ids.iter().enumerate() {
                assert_eq!(e.get(row), expect, "distinct={distinct} row={row}");
            }
            let collected: Vec<u32> = e.iter().collect();
            assert_eq!(collected, ids);
        }
    }

    #[test]
    fn memory_footprint_matches_paper_ladder() {
        let n = 10_000usize;
        let const_e = Elements::encode(&vec![0; n], 1, ElementsMode::Optimized);
        assert_eq!(const_e.heap_bytes(), 0);

        let bits = Elements::encode(&ids_with_distinct(2, n), 2, ElementsMode::Optimized);
        // ⌈n/8⌉ bytes, rounded up to whole 64-bit words.
        assert!(bits.heap_bytes() <= n / 8 + 8, "bitset used {}", bits.heap_bytes());

        let u8s = Elements::encode(&ids_with_distinct(200, n), 200, ElementsMode::Optimized);
        assert_eq!(u8s.heap_bytes(), n);

        let basic = Elements::encode(&ids_with_distinct(200, n), 200, ElementsMode::Basic);
        assert_eq!(basic.heap_bytes(), n * 4);
    }

    #[test]
    fn serialization_round_trips_all_reprs() {
        for distinct in [1u32, 2, 17, 1000, 100_000] {
            for len in [0usize, 1, 7, 8, 9, 255] {
                let ids = ids_with_distinct(distinct, len);
                let e = Elements::encode(&ids, distinct, ElementsMode::Optimized);
                let bytes = e.to_bytes();
                let back = Elements::from_bytes(&bytes).expect("decode");
                assert_eq!(back, e, "distinct={distinct} len={len}");
            }
        }
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(Elements::from_bytes(&[]).is_err());
        assert!(Elements::from_bytes(&[9, 4]).is_err());
        assert!(Elements::from_bytes(&[2, 100]).is_err()); // claims 100 bytes, has none
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn const_get_checks_bounds() {
        Elements::Const { len: 3 }.get(3);
    }
}
