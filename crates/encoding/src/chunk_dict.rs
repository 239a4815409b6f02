//! Chunk dictionaries: the second indirection of §2.3.
//!
//! Per chunk, the global-ids occurring in that chunk are stored sorted; the
//! *chunk-id* of a value is its index in this array. The sortedness gives
//! the two operations chunk skipping needs: `chunk_id_of(global_id)` (binary
//! search) and the reverse `global_id_of(chunk_id)` (array access), plus
//! cheap set-intersection tests against the global-ids of a restriction.

use pd_common::{Error, HeapSize, Result};
use pd_compress::varint;

/// Sorted global-ids present in one chunk; chunk-id = index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkDict {
    global_ids: Box<[u32]>,
}

impl ChunkDict {
    /// Build from the sorted, deduplicated global-ids of a chunk.
    pub fn from_sorted(global_ids: Vec<u32>) -> Result<Self> {
        for pair in global_ids.windows(2) {
            if pair[0] >= pair[1] {
                return Err(Error::Data("chunk dictionary must be sorted and unique".into()));
            }
        }
        Ok(ChunkDict { global_ids: global_ids.into_boxed_slice() })
    }

    /// Number of distinct values in the chunk (the `n` of §2.3; group-by
    /// count arrays are sized by this).
    pub fn len(&self) -> u32 {
        self.global_ids.len() as u32
    }

    pub fn is_empty(&self) -> bool {
        self.global_ids.is_empty()
    }

    /// Chunk-id of `global_id`, if the value occurs in this chunk.
    #[inline]
    pub fn chunk_id_of(&self, global_id: u32) -> Option<u32> {
        self.global_ids.binary_search(&global_id).ok().map(|i| i as u32)
    }

    /// Global-id for a chunk-id. Panics if out of range.
    #[inline]
    pub fn global_id_of(&self, chunk_id: u32) -> u32 {
        self.global_ids[chunk_id as usize]
    }

    /// Does any of `sorted_global_ids` occur in this chunk? This is the
    /// §2.4 skipping test for `IN` restrictions; both sides sorted makes it
    /// a merge scan.
    pub fn contains_any(&self, sorted_global_ids: &[u32]) -> bool {
        if self.global_ids.is_empty() || sorted_global_ids.is_empty() {
            return false;
        }
        // Galloping merge: whichever side is much smaller drives binary
        // searches into the other.
        if sorted_global_ids.len() * 8 < self.global_ids.len() {
            return sorted_global_ids.iter().any(|id| self.chunk_id_of(*id).is_some());
        }
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.global_ids.len() && j < sorted_global_ids.len() {
            match self.global_ids[i].cmp(&sorted_global_ids[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }

    /// Does every row-value possibility of this chunk lie inside
    /// `sorted_global_ids`? Used to detect *fully active* chunks whose
    /// results can be served from the chunk-result cache (§6: "we also
    /// cache results for chunks which are fully active").
    pub fn subset_of(&self, sorted_global_ids: &[u32]) -> bool {
        let mut j = 0usize;
        'outer: for &id in self.global_ids.iter() {
            while j < sorted_global_ids.len() {
                match sorted_global_ids[j].cmp(&id) {
                    std::cmp::Ordering::Less => j += 1,
                    std::cmp::Ordering::Equal => continue 'outer,
                    std::cmp::Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }

    /// Smallest global-id in the chunk, if non-empty.
    pub fn min_global_id(&self) -> Option<u32> {
        self.global_ids.first().copied()
    }

    /// Largest global-id in the chunk, if non-empty.
    pub fn max_global_id(&self) -> Option<u32> {
        self.global_ids.last().copied()
    }

    /// Iterate global-ids ascending (chunk-id order).
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.global_ids.iter().copied()
    }

    /// The sorted global-ids, indexed by chunk-id. Row masks turn a
    /// global-id interval into a chunk-id interval with two
    /// `partition_point`s over this slice.
    pub fn global_ids(&self) -> &[u32] {
        &self.global_ids
    }

    /// Renumber every global-id through `map` (old id → new id). The map
    /// a dictionary merge makes is monotone, so the ids stay sorted and
    /// every chunk-id keeps its value.
    pub fn renumber(&mut self, map: &[u32]) {
        self.global_ids.iter_mut().for_each(|id| *id = map[*id as usize]);
        debug_assert!(self.global_ids.windows(2).all(|pair| pair[0] < pair[1]));
    }

    /// Serialize as delta varints (dense ascending ids compress to ~1
    /// byte each).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.global_ids.len() + 8);
        varint::write_u64(&mut out, self.global_ids.len() as u64);
        let mut prev = 0u32;
        for &id in self.global_ids.iter() {
            varint::write_u64(&mut out, u64::from(id - prev));
            prev = id;
        }
        out
    }

    /// Inverse of [`ChunkDict::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<ChunkDict> {
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
        ChunkDict::from_sorted(ids)
    }
}

impl HeapSize for ChunkDict {
    fn heap_bytes(&self) -> usize {
        self.global_ids.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dict(ids: &[u32]) -> ChunkDict {
        ChunkDict::from_sorted(ids.to_vec()).unwrap()
    }

    #[test]
    fn paper_figure1_chunk0() {
        // Figure 1: chunk 0 holds global-ids {1, 2, 4, 5, 12}.
        let d = dict(&[1, 2, 4, 5, 12]);
        assert_eq!(d.len(), 5);
        assert_eq!(d.chunk_id_of(4), Some(2));
        assert_eq!(d.chunk_id_of(9), None); // "la redoute" not in chunk 0
        assert_eq!(d.global_id_of(3), 5);
        assert_eq!(d.min_global_id(), Some(1));
        assert_eq!(d.max_global_id(), Some(12));
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
    fn unsorted_input_rejected() {
        assert!(ChunkDict::from_sorted(vec![3, 1]).is_err());
        assert!(ChunkDict::from_sorted(vec![1, 1]).is_err());
    }

    #[test]
    fn serialization_round_trips() {
        for ids in [vec![], vec![0], vec![5, 100, 101, 4000], (0..2000).collect::<Vec<u32>>()] {
            let d = ChunkDict::from_sorted(ids).unwrap();
            let back = ChunkDict::from_bytes(&d.to_bytes()).unwrap();
            assert_eq!(back, d);
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
        assert!(ChunkDict::from_bytes(&[]).is_err());
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, 3);
        varint::write_u64(&mut buf, 1);
        varint::write_u64(&mut buf, 0); // zero delta → duplicate
        varint::write_u64(&mut buf, 1);
        assert!(ChunkDict::from_bytes(&buf).is_err());
    }
}
