//! The Dremel-like baseline: a streaming column-store.
//!
//! Captures what the paper contrasts against (§1, §2.5): *"Dremel [...]
//! achieves this by streaming over petabytes of data in a highly
//! distributed and efficient manner"* — i.e. it reads **only the queried
//! columns** (columnar layout, generic compression) but performs **full
//! scans** of them: no import-time partitioning, no chunk skipping, no
//! dictionary-encoded group-by. Columns are stored as independently
//! compressed blocks; a query decompresses and decodes the touched columns
//! block by block and aggregates through the generic hash-table executor.

use crate::io_model::IoModel;
use crate::scan::{prepare, scan_execute, BackendRun, Plan};
use crate::Backend;
use pd_common::{DataType, Error, Result, Row, Schema, Value};
use pd_compress::{varint, CodecKind};
use pd_data::Table;

/// Rows per compressed block.
const BLOCK_ROWS: usize = 65_536;

/// One column stored as compressed blocks.
struct ColumnBlocks {
    dtype: DataType,
    /// Compressed payloads, each covering up to [`BLOCK_ROWS`] rows.
    blocks: Vec<Vec<u8>>,
    rows: usize,
}

/// The streaming column-store.
pub struct DremelBackend {
    schema: Schema,
    columns: Vec<ColumnBlocks>,
    io: IoModel,
    codec: CodecKind,
}

impl DremelBackend {
    pub fn new(table: &Table, io: IoModel) -> Result<DremelBackend> {
        let codec = CodecKind::Zippy;
        let mut columns = Vec::with_capacity(table.schema().len());
        for (idx, field) in table.schema().fields().iter().enumerate() {
            let raw = table.column(idx);
            let mut blocks = Vec::with_capacity(raw.len().div_ceil(BLOCK_ROWS));
            for chunk in raw.chunks(BLOCK_ROWS.max(1)) {
                let mut payload = Vec::new();
                for v in chunk {
                    encode_value(&mut payload, v);
                }
                blocks.push(codec.codec().compress(&payload));
            }
            columns.push(ColumnBlocks { dtype: field.data_type, blocks, rows: raw.len() });
        }
        Ok(DremelBackend { schema: table.schema().clone(), columns, io, codec })
    }

    /// Indices of the base columns `plan` touches.
    fn touched_columns(&self, plan: &Plan) -> Result<Vec<usize>> {
        let names = plan.base_columns();
        let mut idxs: Vec<usize> =
            names.iter().map(|n| self.schema.resolve(n)).collect::<Result<_>>()?;
        idxs.sort_unstable();
        idxs.dedup();
        Ok(idxs)
    }

    /// Decompress + decode one column entirely (the full scan).
    fn decode_column(&self, idx: usize) -> Result<Vec<Value>> {
        let col = &self.columns[idx];
        let codec = self.codec.codec();
        let mut out = Vec::with_capacity(col.rows);
        for block in &col.blocks {
            let payload = codec.decompress(block)?;
            let mut pos = 0;
            while pos < payload.len() {
                out.push(decode_value(&payload, &mut pos, col.dtype)?);
            }
        }
        if out.len() != col.rows {
            return Err(Error::Internal(format!(
                "column {idx} decoded {} rows, expected {}",
                out.len(),
                col.rows
            )));
        }
        Ok(out)
    }
}

impl Backend for DremelBackend {
    fn name(&self) -> &'static str {
        "Dremel"
    }

    fn execute(&self, sql: &str) -> Result<BackendRun> {
        let plan = prepare(sql)?;
        let touched = self.touched_columns(&plan)?;
        let bytes: u64 = touched
            .iter()
            .map(|&i| self.columns[i].blocks.iter().map(Vec::len).sum::<usize>() as u64)
            .sum();

        // Materialize only the touched columns; untouched ones yield NULL
        // (the scan executor never reads them).
        let rows = self.columns.first().map_or(0, |c| c.rows);
        let mut materialized: Vec<Option<Vec<Value>>> = vec![None; self.schema.len()];
        for &i in &touched {
            materialized[i] = Some(self.decode_column(i)?);
        }
        let row_iter = (0..rows).map(move |r| {
            Ok(Row(materialized
                .iter()
                .map(|c| c.as_ref().map_or(Value::Null, |col| col[r].clone()))
                .collect()))
        });
        scan_execute(&self.schema, row_iter, &plan, bytes, &self.io)
    }

    fn storage_bytes(&self, sql: &str) -> Result<usize> {
        // "for Dremel [...] this reflects only the columns present in the
        // individual queries" (§2.5).
        Ok(self
            .touched_columns(&prepare(sql)?)?
            .iter()
            .map(|&i| self.columns[i].blocks.iter().map(Vec::len).sum::<usize>())
            .sum())
    }
}

fn encode_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Int(x) => varint::write_i64(out, *x),
        Value::Float(x) => out.extend_from_slice(&x.to_le_bytes()),
        Value::Str(s) => {
            varint::write_u64(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Null => unreachable!("tables hold no NULLs"),
    }
}

fn decode_value(bytes: &[u8], pos: &mut usize, dtype: DataType) -> Result<Value> {
    match dtype {
        DataType::Int => Ok(Value::Int(varint::read_i64(bytes, pos)?)),
        DataType::Float => {
            let raw = bytes
                .get(*pos..*pos + 8)
                .ok_or_else(|| Error::Data("dremel: truncated float".into()))?;
            *pos += 8;
            Ok(Value::Float(f64::from_le_bytes(raw.try_into().expect("8 bytes"))))
        }
        DataType::Str => {
            let len = varint::read_u64(bytes, pos)? as usize;
            let raw = bytes
                .get(*pos..*pos + len)
                .ok_or_else(|| Error::Data("dremel: truncated string".into()))?;
            *pos += len;
            Ok(Value::Str(
                std::str::from_utf8(raw)
                    .map_err(|_| Error::Data("dremel: invalid UTF-8".into()))?
                    .to_owned(),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_data::{generate_logs, LogsSpec};

    fn backend(rows: usize) -> (Table, DremelBackend) {
        let table = generate_logs(&LogsSpec::scaled(rows));
        let backend = DremelBackend::new(&table, IoModel::default()).unwrap();
        (table, backend)
    }

    #[test]
    fn agrees_with_row_backends() {
        let (table, dremel) = backend(600);
        let csv = crate::CsvBackend::new(&table, IoModel::default()).unwrap();
        for sql in [
            "SELECT country, COUNT(*) c FROM data GROUP BY country ORDER BY c DESC LIMIT 10",
            "SELECT date(timestamp) d, COUNT(*), SUM(latency) FROM data GROUP BY d ORDER BY d ASC LIMIT 10",
            "SELECT table_name, COUNT(*) c FROM data GROUP BY table_name ORDER BY c DESC LIMIT 10",
            "SELECT country, COUNT(*) c FROM data WHERE latency > 400.0 GROUP BY country ORDER BY c DESC",
        ] {
            let a = dremel.execute(sql).unwrap();
            let b = csv.execute(sql).unwrap();
            assert_eq!(a.result, b.result, "query: {sql}");
        }
    }

    #[test]
    fn reads_only_touched_columns() {
        let (_, dremel) = backend(600);
        let narrow =
            dremel.storage_bytes("SELECT country, COUNT(*) FROM data GROUP BY country").unwrap();
        let wide = dremel
            .storage_bytes(
                "SELECT country, table_name, COUNT(*), SUM(latency) FROM data GROUP BY country, table_name",
            )
            .unwrap();
        assert!(narrow < wide, "narrow {narrow} vs wide {wide}");
        let run = dremel.execute("SELECT country, COUNT(*) FROM data GROUP BY country").unwrap();
        assert_eq!(run.bytes_streamed as usize, narrow);
    }

    #[test]
    fn columnar_compression_beats_row_formats() {
        let (table, dremel) = backend(2_000);
        let csv = crate::CsvBackend::new(&table, IoModel::default()).unwrap();
        let q3 =
            "SELECT table_name, COUNT(*) c FROM data GROUP BY table_name ORDER BY c DESC LIMIT 10";
        // Table 1: Dremel loads 90 MB where CSV streams 573 MB.
        assert!(dremel.storage_bytes(q3).unwrap() < csv.storage_bytes(q3).unwrap() / 2);
    }

    #[test]
    fn virtual_expressions_work() {
        let (_, dremel) = backend(300);
        let run = dremel
            .execute("SELECT hour(timestamp) h, COUNT(*) FROM data GROUP BY h ORDER BY h ASC")
            .unwrap();
        assert!(!run.result.rows.is_empty());
    }
}
