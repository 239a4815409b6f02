//! Per-query memory reports — the measurement behind Tables 1–4.
//!
//! §2.5: *"for Dremel and our own data-structures this reflects only the
//! columns present in the individual queries"*. A [`MemoryReport`] breaks a
//! set of columns down the way §3 discusses them: global dictionaries,
//! chunk dictionaries, and elements. (Tables 3–4's "Zippy" rows measure a
//! layer the engine does not have; `pd-bench` computes them from the
//! columns' serialized bytes.)

use crate::datastore::DataStore;
use pd_common::{HeapSize, Result};
use pd_sql::{plan, Expr};

/// Memory breakdown of one column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnMemory {
    pub name: String,
    pub dict_bytes: usize,
    pub chunk_dict_bytes: usize,
    pub elements_bytes: usize,
}

impl ColumnMemory {
    pub fn total(&self) -> usize {
        self.dict_bytes + self.chunk_dict_bytes + self.elements_bytes
    }

    /// The "Elements" subset Table 2 reports (elements + chunk dicts).
    pub fn elements_and_chunk_dicts(&self) -> usize {
        self.chunk_dict_bytes + self.elements_bytes
    }
}

/// Memory report over the columns a query touches.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MemoryReport {
    pub columns: Vec<ColumnMemory>,
}

impl MemoryReport {
    pub fn total(&self) -> usize {
        self.columns.iter().map(ColumnMemory::total).sum()
    }

    pub fn dict_bytes(&self) -> usize {
        self.columns.iter().map(|c| c.dict_bytes).sum()
    }

    pub fn elements_and_chunk_dicts(&self) -> usize {
        self.columns.iter().map(ColumnMemory::elements_and_chunk_dicts).sum()
    }
}

/// Columns (as expressions) touched by a SQL query: group keys, aggregate
/// arguments, filter fields.
pub fn query_columns(sql: &str) -> Result<Vec<Expr>> {
    let analyzed = plan(sql)?;
    let mut exprs: Vec<Expr> = Vec::new();
    let mut push = |e: &Expr| {
        if !exprs.contains(e) {
            exprs.push(e.clone());
        }
    };
    for k in &analyzed.keys {
        push(k);
    }
    for a in &analyzed.aggs {
        if let Some(arg) = &a.arg {
            push(arg);
        }
    }
    if let Some(filter) = &analyzed.filter {
        let mut names = Vec::new();
        filter.referenced_columns(&mut names);
        for n in names {
            push(&Expr::Column(n));
        }
    }
    Ok(exprs)
}

/// Uncompressed memory report for the columns touched by `sql`.
pub fn report_for_query(store: &DataStore, sql: &str) -> Result<MemoryReport> {
    let mut report = MemoryReport::default();
    for expr in query_columns(sql)? {
        let col = store.column_for_expr(&expr)?;
        report.columns.push(ColumnMemory {
            name: expr.canonical(),
            dict_bytes: col.dict.heap_bytes(),
            chunk_dict_bytes: col.chunk_dict_bytes(),
            elements_bytes: col.elements_bytes(),
        });
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{BuildOptions, PartitionSpec};
    use pd_data::{generate_logs, LogsSpec};

    const Q1: &str =
        "SELECT country, COUNT(*) as c FROM data GROUP BY country ORDER BY c DESC LIMIT 10;";
    const Q2: &str = "SELECT date(timestamp) as date, COUNT(*), SUM(latency) FROM data GROUP BY date ORDER BY date ASC LIMIT 10;";
    const Q3: &str =
        "SELECT table_name, COUNT(*) as c FROM data GROUP BY table_name ORDER BY c DESC LIMIT 10;";

    fn store(options: &BuildOptions) -> DataStore {
        let table = generate_logs(&LogsSpec::scaled(4_000));
        DataStore::build(&table, options).unwrap()
    }

    #[test]
    fn query_columns_cover_keys_aggs_filters() {
        let cols = query_columns(
            "SELECT country, SUM(latency) FROM data WHERE table_name = 'x' GROUP BY country",
        )
        .unwrap();
        let names: Vec<String> = cols.iter().map(Expr::canonical).collect();
        assert_eq!(names, vec!["country", "latency", "table_name"]);
    }

    #[test]
    fn q1_reports_only_country() {
        let s = store(&BuildOptions::basic());
        let r = report_for_query(&s, Q1).unwrap();
        assert_eq!(r.columns.len(), 1);
        assert_eq!(r.columns[0].name, "country");
        assert!(r.total() > 0);
    }

    #[test]
    fn q2_includes_virtual_field_and_latency() {
        let s = store(&BuildOptions::basic());
        let r = report_for_query(&s, Q2).unwrap();
        let names: Vec<&str> = r.columns.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["date(timestamp)", "latency"]);
    }

    #[test]
    fn optcols_shrinks_q1_dramatically() {
        // Table 2's headline: 80 KB suffice for the country column of 5M
        // rows once partitioned + optimized. Scaled down, the elements
        // bytes must collapse relative to Basic.
        let spec = PartitionSpec::new(&["country", "table_name"], 500);
        let basic = report_for_query(&store(&BuildOptions::basic()), Q1).unwrap();
        let opt = report_for_query(&store(&BuildOptions::optcols(spec)), Q1).unwrap();
        assert!(
            opt.elements_and_chunk_dicts() * 5 < basic.elements_and_chunk_dicts(),
            "optimized {} vs basic {}",
            opt.elements_and_chunk_dicts(),
            basic.elements_and_chunk_dicts()
        );
    }

    #[test]
    fn front_coding_shrinks_q3_dict() {
        let spec = PartitionSpec::new(&["country", "table_name"], 500);
        let sorted = report_for_query(&store(&BuildOptions::optcols(spec.clone())), Q3).unwrap();
        let front_coded = report_for_query(&store(&BuildOptions::optdicts(spec)), Q3).unwrap();
        assert!(
            front_coded.dict_bytes() < sorted.dict_bytes() / 2,
            "front-coded {} vs sorted {}",
            front_coded.dict_bytes(),
            sorted.dict_bytes()
        );
    }
}
