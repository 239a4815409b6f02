//! The record-io baseline: decode every binary record for every query.

use crate::io_model::IoModel;
use crate::scan::{prepare, scan_execute, BackendRun};
use crate::Backend;
use pd_common::{Result, Schema};
use pd_data::recordio::{write_recordio, RecordIoReader};
use pd_data::Table;

/// Holds the record-io bytes; queries stream records through the decoder.
pub struct RecordIoBackend {
    schema: Schema,
    bytes: Vec<u8>,
    io: IoModel,
}

impl RecordIoBackend {
    pub fn new(table: &Table, io: IoModel) -> Result<RecordIoBackend> {
        Ok(RecordIoBackend { schema: table.schema().clone(), bytes: write_recordio(table), io })
    }

    pub fn file_bytes(&self) -> usize {
        self.bytes.len()
    }
}

impl Backend for RecordIoBackend {
    fn name(&self) -> &'static str {
        "rec-io"
    }

    fn execute(&self, sql: &str) -> Result<BackendRun> {
        let plan = prepare(sql)?;
        let mut reader = RecordIoReader::new(&self.bytes)?;
        let rows = std::iter::from_fn(move || reader.next_record().transpose());
        scan_execute(&self.schema, rows, &plan, self.bytes.len() as u64, &self.io)
    }

    fn storage_bytes(&self, _sql: &str) -> Result<usize> {
        Ok(self.bytes.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_common::Value;
    use pd_data::{generate_logs, LogsSpec};

    #[test]
    fn agrees_with_csv_backend() {
        let table = generate_logs(&LogsSpec::scaled(400));
        let csv = crate::CsvBackend::new(&table, IoModel::default()).unwrap();
        let rio = RecordIoBackend::new(&table, IoModel::default()).unwrap();
        let sql = "SELECT country, COUNT(*) c, SUM(latency) FROM data GROUP BY country ORDER BY c DESC LIMIT 5";
        let a = csv.execute(sql).unwrap();
        let b = rio.execute(sql).unwrap();
        assert_eq!(a.result, b.result);
    }

    #[test]
    fn binary_format_is_smaller_than_csv() {
        let table = generate_logs(&LogsSpec::scaled(400));
        let csv = crate::CsvBackend::new(&table, IoModel::default()).unwrap();
        let rio = RecordIoBackend::new(&table, IoModel::default()).unwrap();
        // The paper's Table 1: rec-io 551 MB vs CSV 573 MB — close, binary
        // slightly smaller.
        assert!(rio.file_bytes() < csv.file_bytes());
    }

    #[test]
    fn filters_work() {
        let table = generate_logs(&LogsSpec::scaled(400));
        let rio = RecordIoBackend::new(&table, IoModel::default()).unwrap();
        let run = rio.execute("SELECT COUNT(*) FROM data WHERE country = 'US'").unwrap();
        let n = run.result.rows[0].0[0].as_int().unwrap();
        assert!(n > 0 && n < 400);
        assert_eq!(run.result.rows[0].0[0], Value::Int(n));
    }
}
