//! # PowerDrill — "Processing a Trillion Cells per Mouse Click" in Rust
//!
//! A from-scratch reproduction of the column-store presented by Hall,
//! Bachmann, Büssow, Gănceanu and Nunkesser (Google) at VLDB 2012: an
//! in-memory, dictionary-encoded column-store whose composite range
//! partitioning lets interactive group-by queries *skip* most of the data
//! instead of scanning it.
//!
//! ```
//! use powerdrill::{BuildOptions, PowerDrill};
//! use powerdrill::data::{generate_logs, LogsSpec};
//!
//! // 1. Import a table (here: synthetic query logs shaped like the
//! //    paper's own — timestamp, table_name, latency, country, user).
//! //    Production uses 50'000-row chunks; this toy dataset uses 1'000.
//! let table = generate_logs(&LogsSpec::scaled(10_000));
//! let mut options = BuildOptions::production(&["country", "table_name"]);
//! options.partition.as_mut().unwrap().max_chunk_rows = 1_000;
//! let pd = PowerDrill::import(&table, &options).unwrap();
//!
//! // 2. Ask SQL questions. This is the paper's Query 1.
//! let (result, stats) = pd
//!     .sql("SELECT country, COUNT(*) as c FROM logs GROUP BY country ORDER BY c DESC LIMIT 10")
//!     .unwrap();
//! assert_eq!(result.columns, vec!["country", "c"]);
//!
//! // 3. Drill down — restrictions skip chunks via the chunk dictionaries.
//! let (_, stats2) = pd
//!     .sql("SELECT country, COUNT(*) as c FROM logs WHERE country = 'JP' GROUP BY country")
//!     .unwrap();
//! assert!(stats2.rows_skipped > 0);
//! assert_eq!(stats.rows_skipped, 0);
//! ```
//!
//! ## Parallel execution
//!
//! Queries run **morsel-parallel across chunks**: the paper's per-chunk
//! independence (immutable chunks, mergeable group states — the same
//! property §4 exploits across machines) is exploited across cores by a
//! persistent worker pool shared by every query (and by [`Cluster`]'s
//! shard fan-out). The [`ExecContext::threads`] knob controls the worker
//! count — `0` (the default) reads `EXEC_THREADS` or uses the machine's
//! available parallelism, `1` forces sequential execution — and results
//! are **bit-identical** at every setting: a chunk's partial merges
//! exactly in any order (each worker folds the chunks it scans into a fold
//! of its own, and the driver adds those up) and float sums are exact —
//! plain adds for a column on one binary grid that admits its rows
//! ([`common::Grid`]), a double-double pair backed by a superaccumulator
//! ([`common::FloatSum`]) otherwise —, so even `SUM`/`AVG` over floats do
//! not depend on how rows were chunked, threaded or sharded. A hand-off
//! has a price (waking a sleeping worker: tens of microseconds, and
//! unevenly so), and
//! only a scan that will repay it pays it: a store's scan goes to the pool
//! when at least 32 768 rows miss the chunk-result cache (0.1–0.2 ms of
//! scanning, at 3.3–6.3 ns a row and 0.1–0.6 µs a chunk), and stays on the
//! calling thread below that; an in-process [`Cluster`] only *offers* its
//! subtrees to the pool, and such a scan beneath is what wakes a worker
//! to take the offer up — a query answered from caches wakes nobody.
//!
//! The per-chunk inner loops are dictionary-code kernels
//! (`pd_core::kernels`): `WHERE` clauses become packed bit-vector masks
//! once per chunk — built from the restriction's resolved dictionary ids
//! by integer compares over the row codes wherever the skip pass could
//! resolve the leaf, from values only where it could not. Every chunk
//! then runs one set of kernels, whatever its query's shape: its mask,
//! `group_codes` (a number per row is its group — the paper's literal
//! `counts[elements[row]]++` over raw codes: dense keys' codes or
//! mixed-radix numbers, and otherwise the rank of the row's key tuple
//! among the passing rows'), one `accumulate` loop per aggregate slot, and
//! `GroupIndex::table`, folded through the chunk dictionaries without
//! materializing per-group values.
//!
//! ```
//! use powerdrill::{core::execute, sql, BuildOptions, DataStore, ExecContext};
//! use powerdrill::data::{generate_logs, LogsSpec};
//!
//! let table = generate_logs(&LogsSpec::scaled(5_000));
//! let store = DataStore::build(&table, &BuildOptions::production(&["country"])).unwrap();
//! let q = sql::plan("SELECT country, COUNT(*) c FROM logs GROUP BY country").unwrap();
//! let sequential = ExecContext { threads: 1, ..Default::default() };
//! let parallel = ExecContext { threads: 8, ..Default::default() };
//! let (a, _) = execute(&store, &q, &sequential).unwrap();
//! let (b, _) = execute(&store, &q, &parallel).unwrap();
//! assert_eq!(a, b); // bit-identical, not just approximately equal
//! ```
//!
//! The workspace crates are re-exported under topic names: [`common`],
//! [`compress`], [`encoding`], [`sql`], [`data`], [`core`], [`baselines`],
//! [`dist`].

#![forbid(unsafe_code)]

pub use pd_baselines as baselines;
pub use pd_common as common;
pub use pd_compress as compress;
pub use pd_core as core;
pub use pd_data as data;
pub use pd_dist as dist;
pub use pd_encoding as encoding;
pub use pd_sql as sql;

pub use pd_common::{DataType, Error, Result, Row, Schema, Value};
pub use pd_core::{
    query, BuildOptions, DataStore, ExecContext, PartitionSpec, QueryResult, ResultCache, ScanStats,
};
pub use pd_data::Table;
pub use pd_dist::{Cluster, ClusterConfig};

use std::sync::Arc;

/// The high-level handle: an imported dataset plus warm caches.
///
/// This is the single-machine equivalent of one PowerDrill server; for the
/// multi-machine setup see [`Cluster`].
pub struct PowerDrill {
    store: DataStore,
    ctx: ExecContext,
}

impl PowerDrill {
    /// Import `table` under `options`, with the chunk-result cache enabled.
    pub fn import(table: &Table, options: &BuildOptions) -> Result<PowerDrill> {
        let store = DataStore::build(table, options)?;
        // `threads` stays 0: one worker per available core.
        let ctx = ExecContext {
            result_cache: Some(Arc::new(ResultCache::new(1 << 16))),
            ..Default::default()
        };
        Ok(PowerDrill { store, ctx })
    }

    /// Import without caches (every query scans cold — useful for
    /// benchmarking the raw data structures).
    pub fn import_uncached(table: &Table, options: &BuildOptions) -> Result<PowerDrill> {
        Ok(PowerDrill { store: DataStore::build(table, options)?, ctx: ExecContext::default() })
    }

    /// Run a SQL query. Any table name in `FROM` refers to this dataset.
    pub fn sql(&self, sql: &str) -> Result<(QueryResult, ScanStats)> {
        pd_core::execute(&self.store, &pd_sql::plan(sql)?, &self.ctx)
    }

    /// The underlying store.
    pub fn store(&self) -> &DataStore {
        &self.store
    }

    /// Memory report for the columns a query touches (the paper's
    /// per-query memory metric).
    pub fn memory_for(&self, sql: &str) -> Result<pd_core::MemoryReport> {
        pd_core::memory::report_for_query(&self.store, sql)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_data::{generate_logs, LogsSpec};

    #[test]
    fn import_and_query() {
        let table = generate_logs(&LogsSpec::scaled(1_000));
        let pd = PowerDrill::import(&table, &BuildOptions::production(&["country"])).unwrap();
        let (result, _) = pd.sql("SELECT COUNT(*) FROM logs").unwrap();
        assert_eq!(result.rows[0].0[0], Value::Int(1_000));
    }

    #[test]
    fn repeated_queries_hit_caches() {
        let table = generate_logs(&LogsSpec::scaled(1_000));
        let mut options = BuildOptions::production(&["country", "table_name"]);
        if let Some(spec) = &mut options.partition {
            spec.max_chunk_rows = 100;
        }
        let pd = PowerDrill::import(&table, &options).unwrap();
        let sql = "SELECT country, COUNT(*) as c FROM logs GROUP BY country ORDER BY c DESC";
        let (a, cold) = pd.sql(sql).unwrap();
        let (b, warm) = pd.sql(sql).unwrap();
        assert_eq!(a, b);
        assert!(warm.rows_cached > 0, "second run served from cache: {}", warm.summary());
        assert!(cold.rows_cached == 0);
    }

    #[test]
    fn memory_report_is_per_query() {
        let table = generate_logs(&LogsSpec::scaled(1_000));
        let pd = PowerDrill::import(&table, &BuildOptions::basic()).unwrap();
        let narrow = pd.memory_for("SELECT country, COUNT(*) FROM logs GROUP BY country").unwrap();
        let wide = pd
            .memory_for("SELECT table_name, COUNT(*), SUM(latency) FROM logs GROUP BY table_name")
            .unwrap();
        assert!(narrow.total() < wide.total());
    }
}
