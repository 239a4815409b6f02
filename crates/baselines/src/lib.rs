//! The comparator backends of Table 1 (§2.5).
//!
//! The paper compares its data structures against three baselines, all of
//! which stream the data and aggregate with generic hash tables:
//!
//! - **CSV** ([`csv_backend`]) — a row-wise text format; the whole file is
//!   parsed for every query;
//! - **record-io** ([`recordio_backend`]) — a row-wise binary format; the
//!   whole file is decoded for every query;
//! - **Dremel-like** ([`dremel`]) — a streaming column-store: per-column
//!   compressed blocks, so only the queried columns are read, but every
//!   block is decompressed and scanned (no partitioning, no skipping, no
//!   dictionary group-by).
//!
//! All three share [`scan::scan_execute`], a deliberately "traditional"
//! row-at-a-time evaluator (expression interpreter + hash-table grouping).
//! It is also the row oracle the equivalence suites check the column-store
//! against, so it answers from the parsed query alone: it shares no
//! analysis, aggregation state, lowering or ranking with pd-core, only its
//! `QueryResult` type. Engine and baselines must agree bit for bit, so any
//! difference in the benches is pure execution strategy.
//!
//! [`io_model`] converts bytes streamed into modeled disk time (the paper
//! assumes "a streaming rate of at least 100 MB/second").

#![forbid(unsafe_code)]

pub mod csv_backend;
pub mod dremel;
pub mod io_model;
pub mod recordio_backend;
pub mod scan;

pub use csv_backend::CsvBackend;
pub use dremel::DremelBackend;
pub use io_model::IoModel;
pub use recordio_backend::RecordIoBackend;
pub use scan::BackendRun;

use pd_common::Result;

/// A query backend in the Table 1 comparison.
pub trait Backend {
    /// Stable name used in benchmark output ("CSV", "rec-io", "Dremel").
    fn name(&self) -> &'static str;

    /// Execute a SQL query, reporting the result plus streaming costs.
    fn execute(&self, sql: &str) -> Result<BackendRun>;

    /// Bytes this backend must hold/stream to answer `sql` — the "Memory"
    /// column of Table 1 (full data for row formats, touched columns for
    /// the columnar one).
    fn storage_bytes(&self, sql: &str) -> Result<usize>;
}
