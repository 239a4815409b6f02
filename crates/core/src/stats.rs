//! Scan accounting: the numbers behind §6.
//!
//! The production section of the paper reports, over three months of
//! queries: *"On average 92.41% of underlying records were skipped and
//! 5.02% served from cached results, leaving only 2.66% to be scanned"*.
//! [`ScanStats`] captures exactly those quantities per query — every one
//! of them counted by the scan, none modeled — and aggregates across
//! queries.

use std::ops::AddAssign;
use std::time::Duration;

/// Per-query (or aggregated) scan statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanStats {
    pub chunks_total: usize,
    /// Chunks proven inactive by the chunk dictionaries.
    pub chunks_skipped: usize,
    /// Fully active chunks served from the chunk-result cache.
    pub chunks_cached: usize,
    /// Chunks actually scanned.
    pub chunks_scanned: usize,

    pub rows_total: u64,
    pub rows_skipped: u64,
    pub rows_cached: u64,
    pub rows_scanned: u64,

    /// Computation-tree subtrees (leaf shards or whole merge-server
    /// subtrees) pruned *before any network hop* because the shard
    /// metadata proved no row could match the restriction. Their rows are
    /// counted in `rows_skipped`/`chunks_skipped`; this counter records
    /// how many tree edges never carried the query at all.
    pub subtrees_pruned: usize,

    /// Chunks beneath pruned tree edges: when a parent's chunk-granular
    /// metadata (zone maps, Bloom filters) proves every chunk of a child
    /// dead and prunes the edge, the child's chunks are counted here. Like
    /// `subtrees_pruned` this is an annotation *outside* the
    /// skipped+cached+scanned balance — the same chunks still appear in
    /// `chunks_skipped`; this counter records that the proof happened
    /// remotely, before any frame was sent.
    pub chunks_pruned_remote: usize,

    /// Computation-tree nodes that answered from their own result cache
    /// instead of scanning / fanning out — in a distributed tree the root,
    /// the one node that remembers. A hit counts once even though it
    /// covers every shard beneath it — the counter records *nodes* that
    /// stopped the query, not rows (those land in `rows_cached`).
    pub worker_cache_hits: usize,

    /// Cells touched: scanned rows × columns accessed by the query (the
    /// unit of the paper's title).
    pub cells_scanned: u64,

    /// Wall-clock execution time (zero when aggregating unless added).
    pub elapsed: Duration,
}

impl ScanStats {
    /// Fraction of rows skipped (0 if the store is empty).
    pub fn skipped_fraction(&self) -> f64 {
        ratio(self.rows_skipped, self.rows_total)
    }

    /// Fraction of rows served from cached chunk results.
    pub fn cached_fraction(&self) -> f64 {
        ratio(self.rows_cached, self.rows_total)
    }

    /// Fraction of rows scanned.
    pub fn scanned_fraction(&self) -> f64 {
        ratio(self.rows_scanned, self.rows_total)
    }

    /// One-line summary in the paper's reporting style.
    pub fn summary(&self) -> String {
        format!(
            "chunks {}/{} skipped, {} cached, {} scanned | rows: {:.2}% skipped, {:.2}% cached, {:.2}% scanned | {} cells",
            self.chunks_skipped,
            self.chunks_total,
            self.chunks_cached,
            self.chunks_scanned,
            100.0 * self.skipped_fraction(),
            100.0 * self.cached_fraction(),
            100.0 * self.scanned_fraction(),
            self.cells_scanned,
        )
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl AddAssign<&ScanStats> for ScanStats {
    fn add_assign(&mut self, rhs: &ScanStats) {
        self.chunks_total += rhs.chunks_total;
        self.chunks_skipped += rhs.chunks_skipped;
        self.chunks_cached += rhs.chunks_cached;
        self.chunks_scanned += rhs.chunks_scanned;
        self.rows_total += rhs.rows_total;
        self.rows_skipped += rhs.rows_skipped;
        self.rows_cached += rhs.rows_cached;
        self.rows_scanned += rhs.rows_scanned;
        self.subtrees_pruned += rhs.subtrees_pruned;
        self.chunks_pruned_remote += rhs.chunks_pruned_remote;
        self.worker_cache_hits += rhs.worker_cache_hits;
        self.cells_scanned += rhs.cells_scanned;
        self.elapsed += rhs.elapsed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_sum_to_one() {
        let s = ScanStats {
            rows_total: 1000,
            rows_skipped: 900,
            rows_cached: 60,
            rows_scanned: 40,
            ..Default::default()
        };
        let total = s.skipped_fraction() + s.cached_fraction() + s.scanned_fraction();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(s.skipped_fraction(), 0.9);
    }

    #[test]
    fn empty_stats_are_calm() {
        let s = ScanStats::default();
        assert_eq!(s.skipped_fraction(), 0.0);
        assert!(s.summary().contains("0.00%"));
    }

    #[test]
    fn aggregation_adds_fields() {
        let mut total = ScanStats::default();
        let one = ScanStats {
            chunks_total: 10,
            chunks_skipped: 9,
            chunks_scanned: 1,
            rows_total: 100,
            rows_skipped: 90,
            rows_scanned: 10,
            cells_scanned: 30,
            elapsed: Duration::from_millis(5),
            ..Default::default()
        };
        total += &one;
        total += &one;
        assert_eq!(total.chunks_total, 20);
        assert_eq!(total.rows_scanned, 20);
        assert_eq!(total.cells_scanned, 60);
        assert_eq!(total.elapsed, Duration::from_millis(10));
    }
}
