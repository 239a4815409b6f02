//! The CSV baseline: parse the whole file for every query.

use crate::io_model::IoModel;
use crate::scan::{prepare, scan_execute, BackendRun};
use crate::Backend;
use pd_common::{Result, Schema};
use pd_data::csv::read_csv;
use pd_data::Table;
use std::io::BufReader;

/// Holds the serialized CSV bytes; every query re-parses them, exactly as
/// the paper's CSV backend streams the file.
pub struct CsvBackend {
    schema: Schema,
    bytes: Vec<u8>,
    io: IoModel,
}

impl CsvBackend {
    pub fn new(table: &Table, io: IoModel) -> Result<CsvBackend> {
        let mut bytes = Vec::new();
        pd_data::csv::write_csv(table, &mut bytes)?;
        Ok(CsvBackend { schema: table.schema().clone(), bytes, io })
    }

    /// Size of the serialized file.
    pub fn file_bytes(&self) -> usize {
        self.bytes.len()
    }
}

impl Backend for CsvBackend {
    fn name(&self) -> &'static str {
        "CSV"
    }

    fn execute(&self, sql: &str) -> Result<BackendRun> {
        let plan = prepare(sql)?;
        // Row formats must parse everything: materialize via the CSV
        // reader, then stream rows through the scan executor.
        let table = read_csv(&mut BufReader::new(&self.bytes[..]), &self.schema)?;
        scan_execute(
            &self.schema,
            table.iter_rows().map(Ok),
            &plan,
            self.bytes.len() as u64,
            &self.io,
        )
    }

    fn storage_bytes(&self, _sql: &str) -> Result<usize> {
        // "For CSV and record-io the entire data size is reported, since
        // these are row-wise formats" (§2.5).
        Ok(self.bytes.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_common::Value;
    use pd_data::{generate_logs, LogsSpec};

    #[test]
    fn counts_match_direct_table_scan() {
        let table = generate_logs(&LogsSpec::scaled(500));
        let backend = CsvBackend::new(&table, IoModel::default()).unwrap();
        let run = backend.execute("SELECT COUNT(*) FROM data").unwrap();
        assert_eq!(run.result.rows[0].0[0], Value::Int(500));
        assert_eq!(run.bytes_streamed as usize, backend.file_bytes());
    }

    #[test]
    fn storage_is_whole_file_regardless_of_query() {
        let table = generate_logs(&LogsSpec::scaled(200));
        let backend = CsvBackend::new(&table, IoModel::default()).unwrap();
        let a = backend.storage_bytes("SELECT COUNT(*) FROM data").unwrap();
        let b =
            backend.storage_bytes("SELECT country, COUNT(*) FROM data GROUP BY country").unwrap();
        assert_eq!(a, b);
        assert_eq!(a, backend.file_bytes());
    }
}
