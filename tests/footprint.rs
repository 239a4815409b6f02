//! What a production store costs in memory, pinned per column: the bytes
//! of each column's global dictionary, chunk dictionaries and element
//! arrays over 40 000 generated log rows (the benchmark's size) and over
//! 400 000, in 2 000-row chunks (the benchmark's shape). Every count is
//! exact and repeats to the byte, so a footprint regression fails here in
//! one run, before any benchmark.

use powerdrill::core::{BuildOptions, DataStore};
use powerdrill::data::{generate_logs, LogsSpec};

/// Per column: global dictionary, chunk dictionaries and elements, in
/// bytes per row, each the measured count rounded up to the hundredth —
/// what a part may cost at most. The `timestamp` dictionary is distinct on
/// almost every row; packed to the 23 bits its 92-day range takes, it
/// costs 2.87 B/row where its `i64` array cost 7.99. Its chunk dictionaries
/// hold ~2 000 ids a chunk spread over fewer than 65 536, so each id is a
/// 2-byte offset from the chunk's first: 2.00 B/row where `u32` ids cost
/// 4.00.
const PINNED: [(&str, [f64; 3]); 5] = [
    ("country", [0.01, 0.01, 0.04]),
    ("latency", [1.13, 0.99, 1.78]),
    ("table_name", [0.43, 0.42, 1.23]),
    ("timestamp", [2.88, 2.00, 2.00]),
    ("user", [0.01, 0.01, 1.00]),
];

/// The store's bytes per row as measured (13.870; 17.309 while chunk
/// dictionaries held `u32` ids, 22.427 while integer dictionaries were
/// `i64` arrays too), and how far above it a change may go before it fails
/// here: 0.05 B/row, under half a percent.
const STORE_BYTES_PER_ROW: f64 = 13.87;
const SLACK: f64 = 0.05;

/// The same parts over 400 000 rows, rounded up alike. `timestamp` holds
/// ~392 000 distinct values there, so a 2 000-row chunk's ids span more
/// than a 2-byte offset holds and its chunk dictionaries are `u32` ids
/// again: 4.00 B/row. That is the known gap this pin records, not a goal;
/// narrowing those chunk dictionaries past 65 536 values lowers it.
const PINNED_AT_400_000: [(&str, [f64; 3]); 5] = [
    ("country", [0.01, 0.01, 0.01]),
    ("latency", [0.21, 0.86, 1.83]),
    ("table_name", [0.28, 0.52, 1.47]),
    ("timestamp", [2.81, 4.00, 2.00]),
    ("user", [0.01, 0.06, 1.00]),
];

/// The store's bytes per row over 400 000 rows as measured (15.006).
const STORE_BYTES_PER_ROW_AT_400_000: f64 = 15.01;

/// A production store over `rows` generated log rows in 2 000-row chunks,
/// checked against its per-column pins and its total.
fn pinned_store(rows: usize, pinned: [(&str, [f64; 3]); 5], store_bytes_per_row: f64) -> DataStore {
    let mut options = BuildOptions::production(&["country", "table_name"]);
    options.partition.as_mut().expect("production partitions").max_chunk_rows = 2_000;
    let store = DataStore::build(&generate_logs(&LogsSpec::scaled(rows)), &options).unwrap();
    let per_row = |bytes: usize| bytes as f64 / rows as f64;
    let mut names = store.column_names();
    names.sort();
    assert_eq!(names, pinned.map(|(name, _)| name), "every column is pinned");
    for (name, pinned) in pinned {
        let column = store.column(name).unwrap();
        let got = [column.dict_bytes(), column.chunk_dict_bytes(), column.elements_bytes()];
        for ((part, got), pinned) in ["dictionary", "chunk dictionaries", "elements"]
            .into_iter()
            .zip(got.map(per_row))
            .zip(pinned)
        {
            assert!(
                got <= pinned,
                "{rows} rows, {name} {part}: {got:.4} B/row, pinned at {pinned}"
            );
        }
    }
    let total = per_row(store.total_bytes());
    assert!(
        total <= store_bytes_per_row + SLACK,
        "{rows} rows, the store: {total:.4} B/row, pinned at {store_bytes_per_row} + {SLACK}"
    );
    store
}

#[test]
fn production_bytes_per_row_are_pinned_per_column() {
    const ROWS: usize = 40_000;
    let store = pinned_store(ROWS, PINNED, STORE_BYTES_PER_ROW);
    let per_row = |bytes: usize| bytes as f64 / ROWS as f64;
    let timestamp = store.column("timestamp").unwrap();
    let dict = per_row(timestamp.dict_bytes());
    assert!(dict <= 3.0, "the timestamp dictionary: {dict:.4} B/row");
    let chunk_dicts = per_row(timestamp.chunk_dict_bytes());
    assert!(chunk_dicts <= 2.01, "the timestamp chunk dictionaries: {chunk_dicts:.4} B/row");
}

#[test]
fn production_bytes_per_row_at_ten_times_the_rows_are_pinned_per_column() {
    pinned_store(400_000, PINNED_AT_400_000, STORE_BYTES_PER_ROW_AT_400_000);
}
