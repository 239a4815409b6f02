//! The PowerDrill column-store — the paper's core contribution.
//!
//! The store imports a [`pd_data::Table`] once (partitioning and
//! dictionary-encoding it, §2.2–2.3) and then answers group-by SQL queries
//! by skipping inactive chunks (§2.4) and running tight counts-array loops
//! over the active ones. The §3 "key optimizations" that change the layout
//! are build options ([`BuildOptions`]: Basic → Chunks → OptCols →
//! OptDicts); the ladder's last two rungs are not: Zippy is a measurement
//! over any build, and Reorder is sorted input + OptDicts (a table sorted
//! by its partition fields, [`pd_data::Table::sorted_by`], then imported).
//!
//! Modules:
//!
//! - [`options`] — build configuration (one constructor per layout rung);
//! - [`partition`] — composite range partitioning, heaviest-chunk-first;
//! - [`column`](module@crate::column) — a stored column: global dict + per-chunk (chunk dict,
//!   elements);
//! - [`datastore`] — the import pipeline and column registry, including §5
//!   materialized virtual fields;
//! - [`skip`] — chunk activity analysis (skip / partial / fully active);
//! - [`exec`] — the query executor (dense-array group-by, aggregation
//!   states, HAVING/ORDER/LIMIT), with partial execution + merge for the
//!   distributed layer; the per-chunk inner loops are the dictionary-code
//!   kernels of `kernels` (filter masks as packed bit vectors built from
//!   the restriction's resolved dictionary ids, flat
//!   counts/sums arrays over raw `u32` codes), and the groups are the
//!   columns of `groups` — one table from a chunk kernel through the
//!   chunk-result cache and the fold to the ranking;
//! - [`scheduler`] — the persistent morsel-driven worker pool that scans
//!   active chunks in parallel ([`ExecContext::threads`], default =
//!   `EXEC_THREADS` or available parallelism) with results folded
//!   deterministically in task order; the chunk scan is its only caller
//!   (the distributed layer's fan-out asks its children in order on the
//!   calling thread);
//! - [`count_distinct`] — the §5 m-smallest-hashes sketch;
//! - [`cache`] — the chunk-result cache and its oldest-first bounded map (§6);
//! - [`stats`] — scan accounting (skipped / cached / scanned, cells);
//! - [`memory`] — the per-query memory reports behind Tables 1–4.

pub mod cache;
pub mod codec;
pub mod column;
pub mod count_distinct;
pub mod datastore;
pub mod exec;
pub(crate) mod groups;
pub(crate) mod kernels;
pub mod memory;
pub mod options;
pub mod partition;
pub mod scheduler;
pub mod skip;
pub mod stats;

pub use cache::{BoundedCache, ResultCache};

/// Dictionary→f64 translation tables built since process start (a
/// monotone, process-wide counter). The kernel bench asserts the
/// per-(column, chunk) memoization keeps this from scaling with the number
/// of float aggregates in a query.
pub fn float_table_builds() -> u64 {
    kernels::FLOAT_TABLE_BUILDS.load(std::sync::atomic::Ordering::Relaxed)
}
pub use column::{ColumnChunk, StoredColumn};
pub use count_distinct::KmvSketch;
pub use datastore::DataStore;
pub use exec::{
    execute, execute_partial, execute_partial_from, finalize, finalize_kept, query, ExecContext,
    QueryResult,
};
pub use groups::PartialResult;
pub use memory::{report_for_query, ColumnMemory, MemoryReport};
pub use options::{BuildOptions, DictMode, PartitionSpec};
pub use partition::Partitioning;
pub use skip::ChunkActivity;
pub use stats::ScanStats;
