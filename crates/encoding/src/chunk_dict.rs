//! Chunk dictionaries: the second indirection of §2.3.
//!
//! Per chunk, the global-ids occurring in that chunk are stored sorted; the
//! *chunk-id* of a value is its index in this array. [`ChunkDict::get`]
//! (array access) and [`ChunkDict::id_of`] (binary search) translate
//! between the two id spaces.
//!
//! OptCols ([`ElementsMode::Optimized`]) stores the ids as offsets from the
//! chunk's first one, in 1 or 2 bytes where the range `last − first` fits
//! them: §3's element ladder, applied to the range instead of the count. A
//! chunk of 2 000 rows partitioned on other columns holds ids spread over a
//! few thousand, not four billion. A wider range stores the ids themselves,
//! 4 bytes each, as Basic and Chunks always do: an offset saves nothing at
//! four bytes. Reads go through [`ChunkIds`], a borrowed view that callers
//! dispatch on once per chunk ([`with_ids!`](crate::with_ids)), and
//! searches run over the native offset slice.
//!
//! What is specific to chunks lives here too: the set tests chunk skipping
//! runs against a restriction's global-ids, the renumbering an append's
//! merge makes, and a serialization over global ids that is the same for
//! every width.

use crate::elements::ElementsMode;
use pd_common::{Error, HeapSize, Result};
use pd_compress::varint;
use std::cmp::Ordering;
use std::ops::ControlFlow;

/// Sorted global-ids present in one chunk; chunk-id = index. Its `len` is
/// the chunk's distinct count (the `n` of §2.3; group-by count arrays are
/// sized by it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkDict(Repr);

/// The ids' storage. Offsets are from `first`; the `u32` form holds the
/// ids themselves.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Repr {
    U8(u32, Box<[u8]>),
    U16(u32, Box<[u16]>),
    U32(Box<[u32]>),
}

/// A borrowed view of a chunk dictionary's ids: the first id and the
/// offsets from it, or the ids themselves. `Copy`, so a kernel can match on
/// it once per chunk ([`with_ids!`](crate::with_ids)).
#[derive(Debug, Clone, Copy)]
pub enum ChunkIds<'a> {
    U8(u32, &'a [u8]),
    U16(u32, &'a [u16]),
    U32(&'a [u32]),
}

/// Dispatch once on a [`ChunkIds`] view's width, monomorphize the body:
/// `$id` is a closure from chunk-id (`usize`) to global-id.
#[macro_export]
macro_rules! with_ids {
    ($view:expr, |$id:ident| $body:expr) => {
        match $view {
            $crate::ChunkIds::U8(first, offsets) => {
                let $id = move |cid: usize| first + u32::from(offsets[cid]);
                $body
            }
            $crate::ChunkIds::U16(first, offsets) => {
                let $id = move |cid: usize| first + u32::from(offsets[cid]);
                $body
            }
            $crate::ChunkIds::U32(ids) => {
                let $id = move |cid: usize| ids[cid];
                $body
            }
        }
    };
}

impl<'a> ChunkIds<'a> {
    /// Number of ids (the chunk's distinct count).
    #[inline]
    pub fn len(self) -> usize {
        match self {
            ChunkIds::U8(_, v) => v.len(),
            ChunkIds::U16(_, v) => v.len(),
            ChunkIds::U32(v) => v.len(),
        }
    }

    #[inline]
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// The global-id of chunk-id `cid`. Panics if out of range.
    #[inline]
    pub fn get(self, cid: u32) -> u32 {
        with_ids!(self, |id| id(cid as usize))
    }

    /// Every global-id, by chunk-id; a loop that reads them all dispatches
    /// once instead ([`with_ids!`](crate::with_ids)).
    pub fn iter(self) -> impl DoubleEndedIterator<Item = u32> + ExactSizeIterator + Clone + 'a {
        (0..self.len() as u32).map(move |cid| self.get(cid))
    }
}

impl ChunkDict {
    /// Build from strictly ascending global-ids, stored as `mode` says:
    /// offsets in the narrowest width their range fits under OptCols, the
    /// ids in 4 bytes each otherwise.
    pub fn from_sorted(ids: Vec<u32>, mode: ElementsMode) -> Result<ChunkDict> {
        if ids.windows(2).any(|pair| pair[0] >= pair[1]) {
            return Err(Error::Data("chunk dict: ids must be sorted and unique".into()));
        }
        let range = match (mode, ids.first(), ids.last()) {
            (ElementsMode::Optimized, Some(&first), Some(&last)) => Some((first, last - first)),
            _ => None,
        };
        Ok(ChunkDict(match range {
            Some((first, 0..=0xff)) => {
                Repr::U8(first, ids.iter().map(|&id| (id - first) as u8).collect())
            }
            Some((first, 0x100..=0xffff)) => {
                Repr::U16(first, ids.iter().map(|&id| (id - first) as u16).collect())
            }
            _ => Repr::U32(ids.into_boxed_slice()),
        }))
    }

    /// The ids, as a view to dispatch on.
    #[inline]
    pub fn ids(&self) -> ChunkIds<'_> {
        match &self.0 {
            Repr::U8(first, offsets) => ChunkIds::U8(*first, offsets),
            Repr::U16(first, offsets) => ChunkIds::U16(*first, offsets),
            Repr::U32(ids) => ChunkIds::U32(ids),
        }
    }

    /// Number of ids (the chunk's distinct count).
    pub fn len(&self) -> u32 {
        self.ids().len() as u32
    }

    pub fn is_empty(&self) -> bool {
        self.ids().is_empty()
    }

    /// The global-id of chunk-id `cid`. Panics if out of range.
    #[inline]
    pub fn get(&self, cid: u32) -> u32 {
        self.ids().get(cid)
    }

    /// The first and last global-ids; `None` for no ids.
    pub fn bounds(&self) -> Option<(u32, u32)> {
        let last = self.len().checked_sub(1)?;
        Some((self.get(0), self.get(last)))
    }

    /// The chunk-id of the first id `>= gid` (the length if none is): a
    /// `partition_point` over the stored offsets.
    pub fn lower_bound(&self, gid: u32) -> u32 {
        fn below<T: Copy + Into<u32>>(first: u32, offsets: &[T], gid: u32) -> usize {
            gid.checked_sub(first).map_or(0, |gid| offsets.partition_point(|&o| o.into() < gid))
        }
        (match self.ids() {
            ChunkIds::U8(first, offsets) => below(first, offsets, gid),
            ChunkIds::U16(first, offsets) => below(first, offsets, gid),
            ChunkIds::U32(ids) => below(0, ids, gid),
        }) as u32
    }

    /// The chunk-id of `gid`, if this chunk holds it.
    pub fn id_of(&self, gid: u32) -> Option<u32> {
        let at = self.lower_bound(gid);
        (at < self.len() && self.get(at) == gid).then_some(at)
    }

    /// The chunk-ids of those of `sorted_ids` this chunk holds, ascending,
    /// each handed to `hit` until it breaks: binary searches when
    /// `sorted_ids` is much the smaller side, one merge of the two sorted
    /// lists otherwise.
    pub fn for_each_held(
        &self,
        sorted_ids: &[u32],
        mut hit: impl FnMut(u32) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let len = self.len() as usize;
        if sorted_ids.len() * 8 < len {
            return sorted_ids.iter().filter_map(|&gid| self.id_of(gid)).try_for_each(hit);
        }
        with_ids!(self.ids(), |id| {
            let (mut cid, mut j) = (0usize, 0usize);
            while cid < len && j < sorted_ids.len() {
                match id(cid).cmp(&sorted_ids[j]) {
                    Ordering::Less => cid += 1,
                    Ordering::Greater => j += 1,
                    Ordering::Equal => {
                        hit(cid as u32)?;
                        (cid, j) = (cid + 1, j + 1);
                    }
                }
            }
        });
        ControlFlow::Continue(())
    }

    /// Does any of `sorted_global_ids` occur in this chunk? This is the
    /// §2.4 skipping test for `IN` restrictions.
    pub fn contains_any(&self, sorted_global_ids: &[u32]) -> bool {
        self.for_each_held(sorted_global_ids, |_| ControlFlow::Break(())).is_break()
    }

    /// Does every row-value possibility of this chunk lie inside
    /// `sorted_global_ids`? Used to detect *fully active* chunks whose
    /// results can be served from the chunk-result cache (§6: "we also
    /// cache results for chunks which are fully active").
    pub fn subset_of(&self, sorted_global_ids: &[u32]) -> bool {
        let mut wanted = sorted_global_ids.iter();
        with_ids!(self.ids(), |id| (0..self.len() as usize)
            .all(|cid| wanted.by_ref().find(|&&w| w >= id(cid)) == Some(&id(cid))))
    }

    /// Renumber every global-id through `map` (old id → new id), a merge's
    /// strictly increasing map: the ids stay sorted and every chunk-id
    /// keeps its value. Gaps only grow, so the width does too, and the two
    /// ends decide it: offsets whose new range still fits are rewritten in
    /// place, others widen. The result is the dictionary the mapped ids
    /// build.
    pub fn renumber(&mut self, map: &[u32]) {
        let Some((lo, hi)) = self.bounds() else { return };
        let (first, last) = (map[lo as usize], map[hi as usize]);
        let to = |offset: u32| map[(lo + offset) as usize] - first;
        match &mut self.0 {
            Repr::U8(at, offsets) if last - first <= 0xff => {
                offsets.iter_mut().for_each(|o| *o = to(u32::from(*o)) as u8);
                *at = first;
            }
            Repr::U16(at, offsets) if last - first <= 0xffff => {
                offsets.iter_mut().for_each(|o| *o = to(u32::from(*o)) as u16);
                *at = first;
            }
            Repr::U32(ids) => ids.iter_mut().for_each(|id| *id = map[*id as usize]),
            _ => {
                let ids = self.ids().iter().map(|id| map[id as usize]).collect();
                *self = ChunkDict::from_sorted(ids, ElementsMode::Optimized)
                    .expect("a monotone map keeps ids sorted");
            }
        }
        debug_assert_eq!(self.bounds(), Some((first, last)));
    }

    /// Serialize as delta varints over the global-ids (dense ascending ids
    /// compress to ~1 byte each): the same bytes for every width.
    pub fn to_bytes(&self) -> Vec<u8> {
        let len = self.len() as usize;
        let mut out = Vec::with_capacity(len + 8);
        varint::write_u64(&mut out, len as u64);
        let mut prev = 0u32;
        with_ids!(self.ids(), |id| (0..len).for_each(|cid| {
            varint::write_u64(&mut out, u64::from(id(cid) - prev));
            prev = id(cid);
        }));
        out
    }

    /// Inverse of [`ChunkDict::to_bytes`], stored as `mode` says.
    pub fn from_bytes(bytes: &[u8], mode: ElementsMode) -> Result<ChunkDict> {
        let mut pos = 0;
        let len = varint::read_u64(bytes, &mut pos)? as usize;
        let mut ids = Vec::with_capacity(len.min(1 << 20));
        let mut prev = 0u64;
        for i in 0..len {
            let delta = varint::read_u64(bytes, &mut pos)?;
            if i > 0 && delta == 0 {
                return Err(Error::Data("chunk dict: zero delta".into()));
            }
            prev += delta;
            if prev > u64::from(u32::MAX) {
                return Err(Error::Data("chunk dict: id overflow".into()));
            }
            ids.push(prev as u32);
        }
        ChunkDict::from_sorted(ids, mode)
    }
}

impl HeapSize for ChunkDict {
    fn heap_bytes(&self) -> usize {
        match &self.0 {
            Repr::U8(_, offsets) => offsets.len(),
            Repr::U16(_, offsets) => offsets.len() * 2,
            Repr::U32(ids) => ids.len() * 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ElementsMode::{Basic, Optimized};

    fn dict(ids: &[u32]) -> ChunkDict {
        ChunkDict::from_sorted(ids.to_vec(), Optimized).unwrap()
    }

    fn width(d: &ChunkDict) -> usize {
        d.heap_bytes() / d.len().max(1) as usize
    }

    #[test]
    fn paper_figure1_chunk0() {
        // Figure 1: chunk 0 holds global-ids {1, 2, 4, 5, 12}.
        let d = dict(&[1, 2, 4, 5, 12]);
        assert_eq!(d.len(), 5);
        assert_eq!(d.id_of(4), Some(2));
        assert_eq!(d.id_of(9), None); // "la redoute" not in chunk 0
        assert_eq!(d.get(3), 5);
        assert_eq!(d.bounds(), Some((1, 12)));
    }

    #[test]
    fn paper_query_example_active_chunks() {
        // §2.4: global-ids (9, 11); 9 in no chunk, 11 only in chunk 2.
        let ch0 = dict(&[1, 2, 4, 5, 12]);
        let ch1 = dict(&[0, 1, 5, 6, 7]);
        let ch2 = dict(&[1, 3, 5, 10, 11]);
        let restriction = [9u32, 11];
        assert!(!ch0.contains_any(&restriction));
        assert!(!ch1.contains_any(&restriction));
        assert!(ch2.contains_any(&restriction));
    }

    #[test]
    fn contains_any_small_and_large_probe_paths() {
        let d = dict(&(0..1000).map(|i| i * 3).collect::<Vec<_>>());
        // Small probe (binary-search path).
        assert!(d.contains_any(&[999 * 3]));
        assert!(!d.contains_any(&[1]));
        // Large probe (merge path).
        let probe: Vec<u32> = (0..500).map(|i| i * 2 + 1).collect();
        assert_eq!(d.contains_any(&probe), probe.iter().any(|p| p % 3 == 0));
    }

    #[test]
    fn subset_detection_for_fully_active_chunks() {
        let d = dict(&[2, 4, 6]);
        assert!(d.subset_of(&[1, 2, 3, 4, 5, 6]));
        assert!(d.subset_of(&[2, 4, 6]));
        assert!(!d.subset_of(&[2, 4]));
        assert!(!d.subset_of(&[]));
        assert!(dict(&[]).subset_of(&[])); // vacuous
    }

    #[test]
    fn widths_follow_the_range_not_the_count() {
        let base = 4_000_000_000u32;
        assert_eq!(width(&dict(&[base, base + 255])), 1);
        assert_eq!(width(&dict(&[base, base + 256])), 2);
        assert_eq!(width(&dict(&[7, 7 + 65_535])), 2);
        assert_eq!(width(&dict(&[7, 7 + 65_536])), 4);
        assert_eq!(width(&dict(&[u32::MAX])), 1);
        let basic = ChunkDict::from_sorted(vec![base, base + 1], Basic).unwrap();
        assert_eq!(width(&basic), 4, "Basic keeps 4 bytes an id");
        assert_eq!(basic.get(1), base + 1);
    }

    #[test]
    fn renumbering_rewrites_in_place_or_widens() {
        let map: Vec<u32> = (0..300).map(|id| id * 2).collect();
        let mut d = dict(&[10, 20, 100]);
        d.renumber(&map);
        assert_eq!((d.clone(), width(&d)), (dict(&[20, 40, 200]), 1));
        d.renumber(&map);
        assert_eq!((d.clone(), width(&d)), (dict(&[40, 80, 400]), 2), "widened");
        let mut basic = ChunkDict::from_sorted(vec![1, 2], Basic).unwrap();
        basic.renumber(&map);
        assert_eq!(basic, ChunkDict::from_sorted(vec![2, 4], Basic).unwrap());
    }

    #[test]
    fn unsorted_input_rejected() {
        assert!(ChunkDict::from_sorted(vec![3, 1], Optimized).is_err());
        assert!(ChunkDict::from_sorted(vec![1, 1], Basic).is_err());
    }

    #[test]
    fn serialization_round_trips() {
        for ids in [vec![], vec![0], vec![5, 100, 101, 4000], (0..2000).collect::<Vec<u32>>()] {
            for mode in [Basic, Optimized] {
                let d = ChunkDict::from_sorted(ids.clone(), mode).unwrap();
                let back = ChunkDict::from_bytes(&d.to_bytes(), mode).unwrap();
                assert_eq!(back, d);
            }
        }
    }

    /// The delta-varint layout over global ids, byte for byte: what Table 3
    /// compresses, whatever width the ids are stored in.
    #[test]
    fn every_width_serializes_to_the_same_pinned_bytes() {
        let cases: [(&[u32], &[u8]); 3] = [
            (&[], &[0]),
            (&[5, 7, 300], &[3, 5, 2, 0xa5, 0x02]),
            (&[1, 70_000], &[2, 1, 0xef, 0xa2, 0x04]),
        ];
        for (ids, bytes) in cases {
            for mode in [Basic, Optimized] {
                let d = ChunkDict::from_sorted(ids.to_vec(), mode).unwrap();
                assert_eq!(d.to_bytes(), bytes, "{ids:?} {mode:?}");
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)] // 10k+ iterations: minutes under the interpreter
    fn dense_ids_serialize_compactly() {
        let d = dict(&(0..10_000).collect::<Vec<u32>>());
        // Delta encoding: ~1 byte per id.
        assert!(d.to_bytes().len() < 10_100);
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(ChunkDict::from_bytes(&[], Optimized).is_err());
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, 3);
        varint::write_u64(&mut buf, 1);
        varint::write_u64(&mut buf, 0); // zero delta → duplicate
        varint::write_u64(&mut buf, 1);
        assert!(ChunkDict::from_bytes(&buf, Optimized).is_err());
    }
}
