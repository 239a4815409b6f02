//! Answer verification: after the clock stops, a sample of the answers is
//! re-derived by `pd_core::query` on a `BuildOptions::basic()` store (one
//! chunk, no partitioning, no caches, no cluster) and compared exactly.

use crate::stats::{fnv_str, Fnv};
use powerdrill::data::Table;
use powerdrill::{BuildOptions, DataStore, QueryResult, Result, ScanStats, Value};
use std::collections::BTreeMap;

/// One distinct query in this many is re-answered...
const SAMPLE_ONE_IN: u64 = 8;
/// ...up to this many per run, which keeps verification well under a
/// fifth of the run's wall time at full size.
const SAMPLE_MAX: usize = 64;

/// Every recorded answer must balance: skipped + cached + scanned rows are
/// all the rows that were there to look at.
pub fn balanced(stats: &ScanStats, rows: u64) -> bool {
    stats.rows_total == rows
        && stats.rows_skipped + stats.rows_cached + stats.rows_scanned == stats.rows_total
}

/// The deterministic sample of `sqls` (distinct texts) to re-answer: those
/// whose hash falls in the 1-in-8 class, smallest hashes first.
pub fn sample<'a>(sqls: impl Iterator<Item = &'a str>) -> Vec<&'a str> {
    let chosen: BTreeMap<u64, &str> =
        sqls.map(|sql| (fnv_str(sql), sql)).filter(|(hash, _)| hash % SAMPLE_ONE_IN == 0).collect();
    chosen.into_values().take(SAMPLE_MAX).collect()
}

/// The reference store over the first `rows` rows of `table`.
pub fn reference_store(table: &Table, rows: usize) -> Result<DataStore> {
    let prefix;
    let table = if rows == table.len() {
        table
    } else {
        prefix = crate::layers::slice(table, 0, rows);
        &prefix
    };
    DataStore::build(table, &BuildOptions::basic())
}

/// How many of `answers` differ from the reference engine's (an `Err`
/// from the reference counts as a difference). `Value` equality compares
/// floats by their bits.
pub fn mismatches(store: &DataStore, answers: &[(&str, &QueryResult)]) -> usize {
    answers
        .iter()
        .filter(|(sql, got)| match powerdrill::query(store, sql) {
            Ok((expect, _)) => {
                let same = expect == **got;
                if !same {
                    eprintln!("clickbench: answer differs from the reference engine: {sql}");
                }
                !same
            }
            Err(e) => {
                eprintln!("clickbench: reference engine failed on {sql}: {e}");
                true
            }
        })
        .count()
}

/// Fold one answer into a fingerprint: column names and every value, floats
/// by bits.
pub fn fold_answer(h: &mut Fnv, sql: &str, result: &QueryResult) {
    h.str(sql);
    for name in &result.columns {
        h.str(name);
    }
    for row in &result.rows {
        for value in row.values() {
            match value {
                Value::Null => h.u64(0),
                Value::Int(i) => h.u64(*i as u64),
                Value::Float(f) => h.u64(f.to_bits()),
                Value::Str(s) => h.str(s),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_is_deterministic_sparse_and_capped() {
        let sqls: Vec<String> = (0..4_000).map(|i| format!("SELECT {i} FROM logs")).collect();
        let a = sample(sqls.iter().map(String::as_str));
        let b = sample(sqls.iter().rev().map(String::as_str));
        assert_eq!(a, b, "order of arrival does not matter");
        assert_eq!(a.len(), SAMPLE_MAX);
        let few = sample(sqls[..400].iter().map(String::as_str));
        assert!(few.len() > 20 && few.len() < 100, "about one in eight: {}", few.len());
    }

    #[test]
    fn balance_is_checked_against_the_rows_served() {
        let stats = ScanStats {
            rows_total: 10,
            rows_skipped: 4,
            rows_cached: 5,
            rows_scanned: 1,
            ..Default::default()
        };
        assert!(balanced(&stats, 10));
        assert!(!balanced(&stats, 11));
        assert!(!balanced(&ScanStats { rows_scanned: 2, ..stats }, 10));
    }
}
