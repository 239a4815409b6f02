//! What a production store costs in memory, pinned per column: the bytes
//! of each column's global dictionary, chunk dictionaries and element
//! arrays over 40 000 generated log rows, in 2 000-row chunks (the
//! benchmark's shape). Every count is exact and repeats to the byte, so a
//! footprint regression fails here in one run, before any benchmark.

use powerdrill::core::{BuildOptions, DataStore};
use powerdrill::data::{generate_logs, LogsSpec};

const ROWS: usize = 40_000;

/// Per column: global dictionary, chunk dictionaries and elements, in
/// bytes per row, each the measured count rounded up to the hundredth —
/// what a part may cost at most. The `timestamp` dictionary is distinct on
/// almost every row; packed to the 23 bits its 92-day range takes, it
/// costs 2.87 B/row where its `i64` array cost 7.99.
const PINNED: [(&str, [f64; 3]); 5] = [
    ("country", [0.01, 0.01, 0.04]),
    ("latency", [1.13, 1.98, 1.78]),
    ("table_name", [0.43, 0.84, 1.23]),
    ("timestamp", [2.88, 4.00, 2.00]),
    ("user", [0.01, 0.03, 1.00]),
];

/// The store's bytes per row as measured (17.309; 22.427 while integer
/// dictionaries were `i64` arrays), and how far above it a change may go
/// before it fails here: 0.05 B/row, under a third of a percent.
const STORE_BYTES_PER_ROW: f64 = 17.31;
const SLACK: f64 = 0.05;

fn store() -> DataStore {
    let mut options = BuildOptions::production(&["country", "table_name"]);
    options.partition.as_mut().expect("production partitions").max_chunk_rows = 2_000;
    DataStore::build(&generate_logs(&LogsSpec::scaled(ROWS)), &options).unwrap()
}

#[test]
fn production_bytes_per_row_are_pinned_per_column() {
    let store = store();
    let per_row = |bytes: usize| bytes as f64 / ROWS as f64;
    let mut names = store.column_names();
    names.sort();
    assert_eq!(names, PINNED.map(|(name, _)| name), "every column is pinned");
    for (name, pinned) in PINNED {
        let column = store.column(name).unwrap();
        let got = [column.dict_bytes(), column.chunk_dict_bytes(), column.elements_bytes()];
        for ((part, got), pinned) in ["dictionary", "chunk dictionaries", "elements"]
            .into_iter()
            .zip(got.map(per_row))
            .zip(pinned)
        {
            assert!(got <= pinned, "{name} {part}: {got:.4} B/row, pinned at {pinned}");
        }
    }
    let timestamp = per_row(store.column("timestamp").unwrap().dict_bytes());
    assert!(timestamp <= 3.0, "the timestamp dictionary: {timestamp:.4} B/row");
    let total = per_row(store.total_bytes());
    assert!(
        total <= STORE_BYTES_PER_ROW + SLACK,
        "the store: {total:.4} B/row, pinned at {STORE_BYTES_PER_ROW} + {SLACK}"
    );
}
