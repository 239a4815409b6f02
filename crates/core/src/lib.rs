//! The PowerDrill column-store — the paper's core contribution.
//!
//! The store imports a [`pd_data::Table`] once (partitioning, reordering and
//! dictionary-encoding it, §2.2–2.3) and then answers group-by SQL queries
//! by skipping inactive chunks (§2.4) and running tight counts-array loops
//! over the active ones. The §3 "key optimizations" are all build options
//! ([`BuildOptions`]), so the evaluation ladder (Basic → Chunks → OptCols →
//! OptDicts → Zippy → Reorder) is expressible as six configurations of the
//! same store.
//!
//! Modules:
//!
//! - [`options`] — build configuration (one constructor per paper variant);
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
//!   deterministically in task order; the same pool serves the distributed
//!   layer's shard fan-out (waiting submitters help drain the queue, so
//!   nested fan-outs cannot deadlock);
//! - [`count_distinct`] — the §5 m-smallest-hashes sketch;
//! - [`cache`] — the chunk-result cache and its cost-aware bounded map (§6);
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

pub use cache::{cost_score, BoundedCache, ResultCache};
pub use kernels::KernelConfig;

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
    execute, execute_partial, execute_partial_seeded, finalize, query, ExecContext, QueryResult,
};
pub use groups::PartialResult;
pub use memory::{report_for_query, ColumnMemory, MemoryReport};
pub use options::{BuildOptions, DictMode, PartitionSpec};
pub use partition::Partitioning;
pub use scheduler::WorkerPool;
pub use skip::ChunkActivity;
pub use stats::ScanStats;
