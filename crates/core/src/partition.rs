//! Composite range partitioning (§2.2).
//!
//! *"the user chooses an ordered set of fields [...]. At the start the data
//! is seen as one large chunk. Successively, the largest chunk is split into
//! two (ideally evenly balanced) chunks. For such a split the chosen fields
//! are considered in the given order. The first field with at least two
//! remaining distinct values is used to essentially do a range split [...].
//! The iteration is stopped once no chunk with more rows than a given
//! threshold, e.g., 50'000, exists. This 'heaviest first' splitting
//! generally leads to very evenly distributed chunk sizes."*
//!
//! The splitter works on the *global-ids* of the partition fields: ids are
//! rank-order isomorphic to the values (§2.3 dictionaries are sorted), so a
//! range split on ids is a range split on values.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// The result of partitioning: a row permutation and chunk boundaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partitioning {
    /// `row_order[new_position] = original_row_index`.
    pub row_order: Vec<u32>,
    /// Chunk `c` holds new positions `chunk_starts[c] .. chunk_starts[c+1]`;
    /// length is `chunk_count() + 1`.
    pub chunk_starts: Vec<u32>,
}

impl Partitioning {
    /// Trivial partitioning: one chunk, original order.
    pub fn single_chunk(n_rows: usize) -> Partitioning {
        Partitioning {
            row_order: (0..n_rows as u32).collect(),
            chunk_starts: vec![0, n_rows as u32],
        }
    }

    pub fn chunk_count(&self) -> usize {
        self.chunk_starts.len() - 1
    }

    /// The new-position range of chunk `c`.
    pub fn chunk_range(&self, c: usize) -> std::ops::Range<usize> {
        self.chunk_starts[c] as usize..self.chunk_starts[c + 1] as usize
    }

    /// Row count of the largest chunk.
    pub fn max_chunk_rows(&self) -> usize {
        (0..self.chunk_count()).map(|c| self.chunk_range(c).len()).max().unwrap_or(0)
    }

    /// Extend with appended rows, kept in arrival order: the permutation
    /// gains identity entries (appended row `i` stays at position
    /// `old_rows + i`) and each length in `chunk_lens` becomes one new
    /// chunk. Appended data is *not* re-partitioned — the composite range
    /// invariant holds only for the chunks built at import time.
    pub fn append_identity_chunks(&mut self, chunk_lens: &[usize]) {
        for &len in chunk_lens {
            let start = self.row_order.len() as u32;
            self.row_order.extend(start..start + len as u32);
            self.chunk_starts.push(self.row_order.len() as u32);
        }
    }
}

/// Partition `n_rows` rows by the ordered `key_columns` (global-ids per
/// partition field, in original row order), stopping once every chunk is at
/// most `max_chunk_rows` (or unsplittable).
pub fn partition(key_columns: &[&[u32]], n_rows: usize, max_chunk_rows: usize) -> Partitioning {
    if n_rows == 0 {
        return Partitioning { row_order: Vec::new(), chunk_starts: vec![0] };
    }
    let max_chunk_rows = max_chunk_rows.max(1);
    if key_columns.is_empty() || n_rows <= max_chunk_rows {
        return Partitioning::single_chunk(n_rows);
    }

    // Work chunks as index vectors; a max-heap drives heaviest-first.
    let mut chunks: Vec<Vec<u32>> = vec![(0..n_rows as u32).collect()];
    let mut heap: BinaryHeap<(usize, Reverse<usize>)> = BinaryHeap::new();
    heap.push((n_rows, Reverse(0)));

    while let Some((size, Reverse(idx))) = heap.pop() {
        if size <= max_chunk_rows {
            // Heaviest chunk is small enough — all others are too.
            heap.push((size, Reverse(idx)));
            break;
        }
        // Unsplittable chunks (one distinct value in every key field) are
        // kept as they are and not re-queued.
        if let Some((left, right)) = split_chunk(&chunks[idx], key_columns) {
            heap.push((left.len(), Reverse(idx)));
            heap.push((right.len(), Reverse(chunks.len())));
            chunks[idx] = left;
            chunks.push(right);
        }
    }

    // Restore the original (import) row order within each chunk.
    for chunk in &mut chunks {
        chunk.sort_unstable();
    }
    // Deterministic chunk order: by the lexicographically smallest key
    // tuple occurring in the chunk. Rows are compared in place, so no key
    // tuple is collected.
    let compare = |a: &u32, b: &u32| {
        let mut fields = key_columns.iter().map(|col| col[*a as usize].cmp(&col[*b as usize]));
        fields.find(|o| o.is_ne()).unwrap_or(Ordering::Equal)
    };
    let smallest: Vec<u32> = (chunks.iter())
        .map(|rows| *rows.iter().min_by(|a, b| compare(a, b)).expect("chunks are non-empty"))
        .collect();
    let mut order: Vec<usize> = (0..chunks.len()).collect();
    order.sort_by(|&a, &b| compare(&smallest[a], &smallest[b]));

    let mut row_order = Vec::with_capacity(n_rows);
    let mut chunk_starts = Vec::with_capacity(chunks.len() + 1);
    chunk_starts.push(0u32);
    for &c in &order {
        row_order.extend_from_slice(&chunks[c]);
        chunk_starts.push(row_order.len() as u32);
    }
    Partitioning { row_order, chunk_starts }
}

/// Split one chunk by the first key field with ≥ 2 distinct values,
/// choosing the value boundary closest to the middle. Returns `None` if
/// every field is constant within the chunk.
fn split_chunk(rows: &[u32], key_columns: &[&[u32]]) -> Option<(Vec<u32>, Vec<u32>)> {
    for col in key_columns {
        let first_id = col[rows[0] as usize];
        if rows.iter().all(|&r| col[r as usize] == first_id) {
            continue;
        }
        // Sort row indices by this field's id (stable to preserve the
        // original order inside each side).
        let mut sorted: Vec<u32> = rows.to_vec();
        sorted.sort_by_key(|&r| col[r as usize]);

        // Candidate split positions are value boundaries; pick the one
        // closest to the middle.
        let mid = sorted.len() / 2;
        let mut best: Option<usize> = None;
        // Scan outward from the middle for the nearest boundary.
        for delta in 0..sorted.len() {
            for pos in [mid.saturating_sub(delta), (mid + delta).min(sorted.len() - 1)] {
                if pos == 0 || pos >= sorted.len() {
                    continue;
                }
                if col[sorted[pos - 1] as usize] != col[sorted[pos] as usize] {
                    best = Some(pos);
                    break;
                }
            }
            if best.is_some() {
                break;
            }
        }
        let cut = best.expect("field has >= 2 distinct values, a boundary exists");
        let right = sorted.split_off(cut);
        return Some((sorted, right));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Checks structural invariants and returns per-chunk row lists.
    fn validate(p: &Partitioning, n_rows: usize) -> Vec<Vec<u32>> {
        assert_eq!(p.row_order.len(), n_rows);
        let mut seen = vec![false; n_rows];
        for &r in &p.row_order {
            assert!(!seen[r as usize], "row {r} appears twice");
            seen[r as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "permutation must cover all rows");
        assert_eq!(p.chunk_starts[0], 0);
        assert_eq!(*p.chunk_starts.last().unwrap() as usize, n_rows);
        (0..p.chunk_count()).map(|c| p.row_order[p.chunk_range(c)].to_vec()).collect()
    }

    #[test]
    fn single_chunk_when_small() {
        let ids: Vec<u32> = (0..10).collect();
        let p = partition(&[&ids], 10, 50);
        assert_eq!(p.chunk_count(), 1);
        validate(&p, 10);
    }

    #[test]
    fn splits_until_threshold() {
        // 1000 rows, key = row % 100 (100 distinct values).
        let ids: Vec<u32> = (0..1000u32).map(|i| i % 100).collect();
        let p = partition(&[&ids], 1000, 64);
        validate(&p, 1000);
        assert!(p.max_chunk_rows() <= 64, "largest chunk {}", p.max_chunk_rows());
        // Balanced-ish: no chunk under a sixteenth of the threshold unless
        // forced (here values spread evenly, so chunks are healthy).
        assert!(p.chunk_count() >= 1000 / 64);
    }

    #[test]
    fn chunks_are_id_range_disjoint() {
        // After splitting on one field, chunks must occupy disjoint id
        // ranges of that field (it's a *range* partition).
        let ids: Vec<u32> = (0..500u32).map(|i| (i * 7) % 50).collect();
        let p = partition(&[&ids], 500, 60);
        let chunks = validate(&p, 500);
        let ranges: Vec<(u32, u32)> = chunks
            .iter()
            .map(|rows| {
                let vals: Vec<u32> = rows.iter().map(|&r| ids[r as usize]).collect();
                (*vals.iter().min().unwrap(), *vals.iter().max().unwrap())
            })
            .collect();
        let mut sorted = ranges.clone();
        sorted.sort();
        for pair in sorted.windows(2) {
            assert!(pair[0].1 < pair[1].0, "overlapping ranges {pair:?}");
        }
    }

    #[test]
    fn second_field_used_when_first_exhausted() {
        // First field constant; second field must drive the split.
        let first = vec![7u32; 400];
        let second: Vec<u32> = (0..400u32).map(|i| i % 20).collect();
        let p = partition(&[&first, &second], 400, 50);
        validate(&p, 400);
        assert!(p.chunk_count() > 1, "second field must enable splitting");
        assert!(p.max_chunk_rows() <= 50);
    }

    #[test]
    fn unsplittable_chunk_survives_oversized() {
        // A single dominant value cannot be split below the threshold.
        let mut ids = vec![0u32; 300];
        ids.extend([1u32, 2, 3]);
        let p = partition(&[&ids], 303, 100);
        validate(&p, 303);
        // The heavy id=0 chunk stays oversized but everything still works.
        assert!(p.max_chunk_rows() >= 300);
    }

    #[test]
    fn heaviest_first_balances_sizes() {
        // Uniform ids: sizes should end up within a factor ~2 of each other
        // (the bisector analysis the paper cites).
        let ids: Vec<u32> = (0..4096u32).collect();
        let p = partition(&[&ids], 4096, 300);
        let sizes: Vec<usize> = (0..p.chunk_count()).map(|c| p.chunk_range(c).len()).collect();
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        assert!(max <= 300);
        assert!(min * 4 >= max, "sizes too skewed: min={min} max={max}");
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let p = partition(&[], 0, 10);
        assert_eq!(p.chunk_count(), 0);
        let ids: Vec<u32> = vec![];
        let p = partition(&[&ids], 0, 10);
        assert_eq!(p.row_order.len(), 0);
        // No key columns: one big chunk regardless of threshold.
        let p = partition(&[], 100, 10);
        assert_eq!(p.chunk_count(), 1);
        validate(&p, 100);
    }

    #[test]
    fn chunk_order_follows_key_ranges() {
        let ids: Vec<u32> = (0..1000u32).map(|i| i % 10).collect();
        let p = partition(&[&ids], 1000, 200);
        let chunks = validate(&p, 1000);
        // Chunks sorted by their minimum id.
        let mins: Vec<u32> = chunks
            .iter()
            .map(|rows| rows.iter().map(|&r| ids[r as usize]).min().unwrap())
            .collect();
        let mut sorted = mins.clone();
        sorted.sort_unstable();
        assert_eq!(mins, sorted);
    }
}
