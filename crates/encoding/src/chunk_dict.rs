//! Chunk dictionaries: the second indirection of §2.3.
//!
//! Per chunk, the global-ids occurring in that chunk are stored sorted; the
//! *chunk-id* of a value is its index in this array. That is the array a
//! global dictionary is, over global-ids: a chunk dictionary is a
//! [`Sorted<u32>`], whose `id_of(&global_id)` (binary search) and
//! `values()[chunk_id]` (array access) translate between the two id spaces.
//! What is specific to chunks lives here: the set tests chunk skipping runs
//! against a restriction's global-ids, the renumbering an append's merge
//! makes, and a compact serialization.

use crate::dict::Sorted;
use pd_common::{Error, Result};
use pd_compress::varint;
use std::cmp::Ordering;

/// Sorted global-ids present in one chunk; chunk-id = index. Its `len` is
/// the chunk's distinct count (the `n` of §2.3; group-by count arrays are
/// sized by it).
pub type ChunkDict = Sorted<u32>;

impl ChunkDict {
    /// Does any of `sorted_global_ids` occur in this chunk? This is the
    /// §2.4 skipping test for `IN` restrictions; both sides sorted makes it
    /// a merge scan.
    pub fn contains_any(&self, sorted_global_ids: &[u32]) -> bool {
        let ids = self.values();
        if ids.is_empty() || sorted_global_ids.is_empty() {
            return false;
        }
        // Galloping merge: whichever side is much smaller drives binary
        // searches into the other.
        if sorted_global_ids.len() * 8 < ids.len() {
            return sorted_global_ids.iter().any(|id| self.id_of(id).is_some());
        }
        let (mut i, mut j) = (0usize, 0usize);
        while i < ids.len() && j < sorted_global_ids.len() {
            match ids[i].cmp(&sorted_global_ids[j]) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => return true,
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
        'outer: for &id in self.values() {
            while j < sorted_global_ids.len() {
                match sorted_global_ids[j].cmp(&id) {
                    Ordering::Less => j += 1,
                    Ordering::Equal => continue 'outer,
                    Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }

    /// Renumber every global-id through `map` (old id → new id). The map
    /// a dictionary merge makes is monotone, so the ids stay sorted and
    /// every chunk-id keeps its value.
    pub fn renumber(&mut self, map: &[u32]) {
        self.values.iter_mut().for_each(|id| *id = map[*id as usize]);
        debug_assert!(self.values.windows(2).all(|pair| pair[0] < pair[1]));
    }

    /// Serialize as delta varints (dense ascending ids compress to ~1
    /// byte each).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.values().len() + 8);
        varint::write_u64(&mut out, self.values().len() as u64);
        let mut prev = 0u32;
        for &id in self.values() {
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
        assert_eq!(d.id_of(&4), Some(2));
        assert_eq!(d.id_of(&9), None); // "la redoute" not in chunk 0
        assert_eq!(d.values()[3], 5);
        assert_eq!(d.values().first(), Some(&1));
        assert_eq!(d.values().last(), Some(&12));
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
