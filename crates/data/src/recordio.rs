//! record-io: a varint-framed binary row format.
//!
//! The paper's second row-wise baseline is "record-io (binary format based
//! on protocol buffers)". This module re-implements that idea with the same
//! wire primitives protocol buffers use: little-endian varints, zigzag
//! signed integers, length-prefixed byte strings.
//!
//! File layout:
//!
//! ```text
//! magic "PDRIO1"
//! varint(field_count) then per field: varint(name_len) name type:u8
//! varint(row_count)
//! per row: varint(record_len) record
//! per record, fields in schema order:
//!   Int   -> zigzag varint
//!   Float -> 8 bytes LE
//!   Str   -> varint(len) bytes
//! ```

use crate::table::Table;
use pd_common::{DataType, Error, Result, Row, Schema, Value};
use pd_compress::varint;

const MAGIC: &[u8; 6] = b"PDRIO1";

/// Serialize `table` into record-io bytes.
pub fn write_recordio(table: &Table) -> Vec<u8> {
    let mut out = Vec::with_capacity(table.len() * 16 + 64);
    out.extend_from_slice(MAGIC);
    let mut scratch = Vec::new();
    varint::write_u64(&mut scratch, table.schema().len() as u64);
    for f in table.schema().fields() {
        varint::write_u64(&mut scratch, f.name.len() as u64);
        scratch.extend_from_slice(f.name.as_bytes());
        scratch.push(type_tag(f.data_type));
    }
    varint::write_u64(&mut scratch, table.len() as u64);
    out.extend_from_slice(&scratch);

    let mut record = Vec::new();
    for i in 0..table.len() {
        record.clear();
        for (c, _) in table.schema().fields().iter().enumerate() {
            encode_value(&mut record, &table.column(c)[i]);
        }
        scratch.clear();
        varint::write_u64(&mut scratch, record.len() as u64);
        out.extend_from_slice(&scratch);
        out.extend_from_slice(&record);
    }
    out
}

/// Deserialize record-io bytes.
pub fn read_recordio(bytes: &[u8]) -> Result<Table> {
    let mut reader = RecordIoReader::new(bytes)?;
    let mut table = Table::new(reader.schema().clone());
    while let Some(row) = reader.next_record()? {
        table.push_row(row)?;
    }
    Ok(table)
}

/// Iterate over records without materializing a `Table` — the streaming
/// access pattern of the record-io baseline backend.
pub struct RecordIoReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    schema: Schema,
    remaining: usize,
}

impl<'a> RecordIoReader<'a> {
    pub fn new(bytes: &'a [u8]) -> Result<Self> {
        if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
            return Err(Error::Data("recordio: bad magic".into()));
        }
        let mut pos = MAGIC.len();
        let field_count = varint::read_u64(bytes, &mut pos)? as usize;
        if field_count > 10_000 {
            return Err(Error::Data("recordio: implausible field count".into()));
        }
        let mut fields = Vec::with_capacity(field_count);
        for _ in 0..field_count {
            let name_len = varint::read_u64(bytes, &mut pos)? as usize;
            let raw = bytes
                .get(pos..pos + name_len)
                .ok_or_else(|| Error::Data("recordio: truncated field name".into()))?;
            let name = std::str::from_utf8(raw)
                .map_err(|_| Error::Data("recordio: field name not UTF-8".into()))?
                .to_owned();
            pos += name_len;
            let tag = *bytes
                .get(pos)
                .ok_or_else(|| Error::Data("recordio: truncated type tag".into()))?;
            pos += 1;
            fields.push(pd_common::Field::new(name, tag_type(tag)?));
        }
        let schema = Schema::new(fields)?;
        let remaining = varint::read_u64(bytes, &mut pos)? as usize;
        Ok(RecordIoReader { bytes, pos, schema, remaining })
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Read the next record, or `None` at end of stream.
    pub fn next_record(&mut self) -> Result<Option<Row>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        let record_len = varint::read_u64(self.bytes, &mut self.pos)? as usize;
        let end = self
            .pos
            .checked_add(record_len)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| Error::Data("recordio: truncated record".into()))?;
        let mut values = Vec::with_capacity(self.schema.len());
        for f in self.schema.fields() {
            values.push(decode_value(self.bytes, &mut self.pos, f.data_type, end)?);
        }
        if self.pos != end {
            return Err(Error::Data("recordio: record length mismatch".into()));
        }
        Ok(Some(Row(values)))
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
        Value::Null => unreachable!("tables reject NULL"),
    }
}

fn decode_value(bytes: &[u8], pos: &mut usize, dtype: DataType, end: usize) -> Result<Value> {
    match dtype {
        DataType::Int => Ok(Value::Int(varint::read_i64(bytes, pos)?)),
        DataType::Float => {
            let raw = bytes
                .get(*pos..*pos + 8)
                .filter(|_| *pos + 8 <= end)
                .ok_or_else(|| Error::Data("recordio: truncated float".into()))?;
            *pos += 8;
            Ok(Value::Float(f64::from_le_bytes(raw.try_into().expect("8 bytes"))))
        }
        DataType::Str => {
            let len = varint::read_u64(bytes, pos)? as usize;
            let raw = bytes
                .get(*pos..*pos + len)
                .filter(|_| *pos + len <= end)
                .ok_or_else(|| Error::Data("recordio: truncated string".into()))?;
            let s = std::str::from_utf8(raw)
                .map_err(|_| Error::Data("recordio: string not UTF-8".into()))?;
            *pos += len;
            Ok(Value::Str(s.to_owned()))
        }
    }
}

fn type_tag(dtype: DataType) -> u8 {
    match dtype {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Str => 2,
    }
}

fn tag_type(tag: u8) -> Result<DataType> {
    match tag {
        0 => Ok(DataType::Int),
        1 => Ok(DataType::Float),
        2 => Ok(DataType::Str),
        t => Err(Error::Data(format!("recordio: unknown type tag {t}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let schema =
            Schema::of(&[("ts", DataType::Int), ("name", DataType::Str), ("lat", DataType::Float)]);
        let mut t = Table::new(schema);
        for i in 0..50i64 {
            t.push_row(Row(vec![
                Value::Int(i * 1_000_003 - 7),
                Value::from(format!("tbl_{}", i % 7)),
                Value::Float(i as f64 * 0.75),
            ]))
            .unwrap();
        }
        t
    }

    #[test]
    fn round_trip() {
        let t = sample();
        let bytes = write_recordio(&t);
        let back = read_recordio(&bytes).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn streaming_reader_agrees() {
        let t = sample();
        let bytes = write_recordio(&t);
        let mut reader = RecordIoReader::new(&bytes).unwrap();
        assert_eq!(reader.schema(), t.schema());
        let mut n = 0;
        while let Some(row) = reader.next_record().unwrap() {
            assert_eq!(row, t.row(n));
            n += 1;
        }
        assert_eq!(n, t.len());
    }

    #[test]
    fn empty_table_round_trips() {
        let t = Table::new(Schema::of(&[("a", DataType::Int)]));
        let back = read_recordio(&write_recordio(&t)).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(read_recordio(b"NOTRIO....").is_err());
        assert!(read_recordio(b"").is_err());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let bytes = write_recordio(&sample());
        for cut in 0..bytes.len() {
            let _ = read_recordio(&bytes[..cut]);
        }
    }

    #[test]
    fn unicode_strings_survive() {
        let schema = Schema::of(&[("s", DataType::Str)]);
        let mut t = Table::new(schema);
        t.push_row(Row(vec![Value::from("karnevalskostüme 日本語")])).unwrap();
        let back = read_recordio(&write_recordio(&t)).unwrap();
        assert_eq!(back, t);
    }
}
