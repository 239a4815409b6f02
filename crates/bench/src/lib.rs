//! Shared harness for the experiment binary and the micro-benchmarks.
//!
//! Every table and figure of the paper's evaluation has a regenerator in
//! [`experiments`]; `cargo run -p pd-bench --release --bin experiments --
//! all` reprints them all. Dataset size defaults to 500'000 rows (the paper
//! used 5 million; set `PD_ROWS=5000000` to match). The `benches/` targets
//! are plain binaries over [`harness::Bench`] — run them with
//! `cargo bench -p pd-bench`. [`residency`] is the one model kept for an
//! experiment: the §3/§5 two-layer payload cache and its eviction policies,
//! replayed against from outside the engine. [`codecs`] and [`subdict`] are
//! what the paper's §5 evaluates and the engine does not run: the codecs
//! Zippy is compared with, and the sub-dictionary split. [`workload`] is the
//! §6 traffic the experiments drive a cluster with: drill-down click
//! streams and their replay.

#![forbid(unsafe_code)]

pub mod codecs;
pub mod experiments;
pub mod harness;
pub mod residency;
pub mod subdict;
pub mod workload;

pub use harness::{
    fmt_duration, json_line, logs_table, mb, measure, measure_n, measure_stats, quick,
    rows_from_env, rows_from_env_or, Bench, Stats, TablePrinter,
};
