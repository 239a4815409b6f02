//! Sub-dictionaries (§5, "Further Optimizing the Global-Dictionaries").
//!
//! *"Even with the trie data-structure [...] these dictionaries still can be
//! huge in practice. When only few chunks are active for a query, there is
//! actually no need to have the entire dictionary in memory. To this end, we
//! split a dictionary up into sub-dictionaries. One of these representing
//! the most frequent values, each of the others representing values from
//! several chunks combined."*
//!
//! [`SubDictIndex`] partitions a column's global-ids into a *hot*
//! sub-dictionary (most frequent values, always resident) plus one group per
//! run of `chunks_per_group` chunks. Each group carries a Bloom filter so
//! membership probes for absent values do not force a load, and a byte cost
//! so the store can account for how many dictionary bytes a query pulled
//! from disk (feeding the Figure 5 experiment).

use pd_common::{FxHashSet, HeapSize};
use pd_encoding::BloomFilter;

/// Tuning knobs for [`SubDictIndex::build`].
#[derive(Debug, Clone, Copy)]
pub struct SubDictLayout {
    /// Fraction of the dictionary (by frequency rank) held in the
    /// always-resident hot sub-dictionary.
    pub hot_fraction: f64,
    /// How many chunks share one group sub-dictionary.
    pub chunks_per_group: usize,
    /// Bloom filter sizing per group.
    pub bloom_bits_per_key: usize,
}

impl Default for SubDictLayout {
    fn default() -> Self {
        SubDictLayout { hot_fraction: 0.01, chunks_per_group: 8, bloom_bits_per_key: 10 }
    }
}

/// One group sub-dictionary covering a contiguous chunk range.
#[derive(Debug, Clone)]
pub struct SubDictGroup {
    /// First chunk covered (inclusive).
    pub chunk_lo: u32,
    /// Last chunk covered (exclusive).
    pub chunk_hi: u32,
    /// Sorted global-ids stored in this group (hot ids excluded).
    pub ids: Vec<u32>,
    /// Estimated bytes to load this group from disk.
    pub bytes: usize,
    /// Filter over the group's global-ids.
    pub bloom: BloomFilter,
}

/// The sub-dictionary split of one column.
#[derive(Debug, Clone)]
pub struct SubDictIndex {
    /// Sorted global-ids of the always-resident hot sub-dictionary.
    pub hot_ids: Vec<u32>,
    /// Bytes of the hot sub-dictionary.
    pub hot_bytes: usize,
    /// Chunk-range groups, ascending by `chunk_lo`.
    pub groups: Vec<SubDictGroup>,
}

impl SubDictIndex {
    /// Build the split.
    ///
    /// * `chunk_ids[c]` — the global-ids occurring in chunk `c` (any order),
    /// * `freq[g]` — total occurrence count of global-id `g`,
    /// * `byte_size(g)` — storage bytes of the value with global-id `g`.
    pub fn build(
        chunk_ids: &[Vec<u32>],
        freq: &[u64],
        mut byte_size: impl FnMut(u32) -> usize,
        layout: SubDictLayout,
    ) -> SubDictIndex {
        let dict_len = freq.len();
        let hot_count = ((dict_len as f64 * layout.hot_fraction).ceil() as usize).min(dict_len);
        // Top `hot_count` ids by frequency (ties by id for determinism).
        let mut by_freq: Vec<u32> = (0..dict_len as u32).collect();
        by_freq.sort_unstable_by_key(|&g| (std::cmp::Reverse(freq[g as usize]), g));
        let mut hot_ids: Vec<u32> = by_freq[..hot_count].to_vec();
        hot_ids.sort_unstable();
        let hot_set: FxHashSet<u32> = hot_ids.iter().copied().collect();
        let hot_bytes = hot_ids.iter().map(|&g| byte_size(g)).sum();

        let group_span = layout.chunks_per_group.max(1);
        let mut groups = Vec::with_capacity(chunk_ids.len().div_ceil(group_span));
        for (gi, span) in chunk_ids.chunks(group_span).enumerate() {
            let mut ids: Vec<u32> =
                span.iter().flatten().copied().filter(|g| !hot_set.contains(g)).collect();
            ids.sort_unstable();
            ids.dedup();
            let mut bloom = BloomFilter::new(ids.len(), layout.bloom_bits_per_key);
            for &g in &ids {
                bloom.insert(&g);
            }
            let bytes = ids.iter().map(|&g| byte_size(g)).sum();
            groups.push(SubDictGroup {
                chunk_lo: (gi * group_span) as u32,
                chunk_hi: ((gi * group_span + span.len()) as u32),
                ids,
                bytes,
                bloom,
            });
        }
        SubDictIndex { hot_ids, hot_bytes, groups }
    }

    /// Indices of the groups covering any of `active_chunks`.
    pub fn groups_for_chunks<'a>(
        &'a self,
        active_chunks: &'a [u32],
    ) -> impl Iterator<Item = usize> + 'a {
        self.groups.iter().enumerate().filter_map(move |(i, g)| {
            active_chunks.iter().any(|&c| c >= g.chunk_lo && c < g.chunk_hi).then_some(i)
        })
    }

    /// Dictionary bytes that must be loaded to serve a query touching
    /// `active_chunks` (the hot sub-dictionary is already resident).
    pub fn bytes_for_chunks(&self, active_chunks: &[u32]) -> usize {
        self.groups_for_chunks(active_chunks).map(|i| self.groups[i].bytes).sum()
    }

    /// Is `global_id` possibly stored outside the hot set? `false` means
    /// no group needs loading for this id.
    pub fn may_need_group_load(&self, global_id: u32) -> bool {
        if self.hot_ids.binary_search(&global_id).is_ok() {
            return false;
        }
        self.groups.iter().any(|g| g.bloom.may_contain(&global_id))
    }
}

impl HeapSize for SubDictIndex {
    fn heap_bytes(&self) -> usize {
        self.hot_ids.len() * 4
            + self.groups.iter().map(|g| g.ids.len() * 4 + g.bloom.heap_bytes()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4 chunks over a 100-value dictionary; value g occurs in chunk g % 4
    /// and ids 0..5 are everywhere (hot candidates).
    fn fixture() -> (Vec<Vec<u32>>, Vec<u64>) {
        let mut chunk_ids: Vec<Vec<u32>> = vec![Vec::new(); 4];
        let mut freq = vec![0u64; 100];
        for g in 0..100u32 {
            chunk_ids[(g % 4) as usize].push(g);
            freq[g as usize] = 1;
        }
        for g in 0..5u32 {
            for c in chunk_ids.iter_mut() {
                if !c.contains(&g) {
                    c.push(g);
                }
            }
            freq[g as usize] = 1000;
        }
        (chunk_ids, freq)
    }

    #[test]
    fn hot_set_captures_most_frequent() {
        let (chunks, freq) = fixture();
        let layout =
            SubDictLayout { hot_fraction: 0.05, chunks_per_group: 2, ..Default::default() };
        let idx = SubDictIndex::build(&chunks, &freq, |_| 10, layout);
        assert_eq!(idx.hot_ids, vec![0, 1, 2, 3, 4]);
        assert_eq!(idx.hot_bytes, 50);
        // Hot ids never require a group load.
        for g in 0..5u32 {
            assert!(!idx.may_need_group_load(g));
        }
    }

    #[test]
    fn groups_cover_all_chunks_without_overlap() {
        let (chunks, freq) = fixture();
        let idx = SubDictIndex::build(
            &chunks,
            &freq,
            |_| 1,
            SubDictLayout { chunks_per_group: 3, ..Default::default() },
        );
        assert_eq!(idx.groups.len(), 2); // chunks 0..3 and 3..4
        assert_eq!((idx.groups[0].chunk_lo, idx.groups[0].chunk_hi), (0, 3));
        assert_eq!((idx.groups[1].chunk_lo, idx.groups[1].chunk_hi), (3, 4));
    }

    #[test]
    fn few_active_chunks_load_few_bytes() {
        let (chunks, freq) = fixture();
        let layout =
            SubDictLayout { hot_fraction: 0.05, chunks_per_group: 1, ..Default::default() };
        let idx = SubDictIndex::build(&chunks, &freq, |_| 7, layout);
        let all: Vec<u32> = (0..4).collect();
        let full = idx.bytes_for_chunks(&all);
        let one = idx.bytes_for_chunks(&[2]);
        assert!(one < full / 2, "one-chunk load {one} vs full {full}");
        assert_eq!(idx.bytes_for_chunks(&[]), 0);
    }

    #[test]
    fn bloom_has_no_false_negatives_for_group_ids() {
        let (chunks, freq) = fixture();
        let idx = SubDictIndex::build(&chunks, &freq, |_| 1, SubDictLayout::default());
        for g in 5..100u32 {
            assert!(idx.may_need_group_load(g), "id {g} must probe a group");
        }
    }

    #[test]
    fn group_ids_exclude_hot_and_are_sorted() {
        let (chunks, freq) = fixture();
        let layout =
            SubDictLayout { hot_fraction: 0.05, chunks_per_group: 2, ..Default::default() };
        let idx = SubDictIndex::build(&chunks, &freq, |_| 1, layout);
        for g in &idx.groups {
            assert!(g.ids.windows(2).all(|w| w[0] < w[1]));
            for id in &g.ids {
                assert!(idx.hot_ids.binary_search(id).is_err());
            }
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let idx = SubDictIndex::build(&[], &[], |_| 1, SubDictLayout::default());
        assert!(idx.hot_ids.is_empty());
        assert!(idx.groups.is_empty());
        assert_eq!(idx.bytes_for_chunks(&[0, 1, 2]), 0);
    }
}
