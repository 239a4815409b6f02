//! Coded columns: the one form in which rows enter a store.
//!
//! The paper's import (§2.3) is "build the global dictionary, then code
//! the rows". A [`TableDelta`] is that, done once by whoever holds the
//! rows: per column, a freshly built *sorted* dictionary over the batch's
//! distinct values plus one dictionary code per row. A shard's first rows
//! and every later batch travel in it, self-contained — the sender needs no
//! knowledge of the receiver. A new store is built from one as it stands
//! (the dictionaries become the store's); a resident store merges each
//! delta dictionary into its own sorted [`GlobalDict`]
//! ([`GlobalDict::merge`]), one entry at a time and not one row at a time,
//! without reshipping what is already resident.
//!
//! Wire strictness mirrors the rest of the codec surface: decoding
//! re-validates everything a consumer indexes by (schema agreement, code
//! bounds, row counts), so corrupt frames are an `Err`, never a panic or
//! an out-of-bounds dictionary lookup.

use crate::dict::{build_dict, GlobalDict};
use pd_common::wire::{Decode, Encode, Reader};
use pd_common::{Error, Result, Schema, Value};

/// One column's contribution to a delta batch: a sorted dictionary over
/// the batch's distinct values and one code per batch row.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDelta {
    /// Column name (must match the schema field at the same index).
    pub name: String,
    /// Sorted dictionary over the delta's distinct values only.
    pub dict: GlobalDict,
    /// One dictionary code per delta row, each `< dict.len()`.
    pub codes: Vec<u32>,
}

impl ColumnDelta {
    /// Build from raw row values (arrival order). Rejects empty input,
    /// nulls and mixed types, like [`build_dict`].
    pub fn from_values(name: &str, values: &[Value]) -> Result<ColumnDelta> {
        let (dict, codes) = build_dict(values)?;
        Ok(ColumnDelta { name: name.to_owned(), dict, codes })
    }
}

/// A batch of appended rows in columnar form, self-contained: the sender
/// needs no knowledge of any receiver's resident dictionaries.
#[derive(Debug, Clone, PartialEq)]
pub struct TableDelta {
    pub schema: Schema,
    /// Appended row count (every column carries exactly this many codes).
    pub rows: u64,
    /// One delta per schema field, in field order.
    pub columns: Vec<ColumnDelta>,
}

impl TableDelta {
    /// Build a delta from per-column value slices in schema field order.
    /// All columns must be non-empty and of equal length.
    pub fn from_columns(schema: Schema, columns: &[&[Value]]) -> Result<TableDelta> {
        if columns.len() != schema.fields().len() {
            return Err(Error::Data(format!(
                "delta: {} columns for a {}-field schema",
                columns.len(),
                schema.fields().len()
            )));
        }
        let rows = columns.first().map_or(0, |c| c.len());
        if rows == 0 {
            return Err(Error::Data("delta: cannot build an empty delta".into()));
        }
        let mut out = Vec::with_capacity(columns.len());
        for (field, values) in schema.fields().iter().zip(columns) {
            if values.len() != rows {
                return Err(Error::Data(format!(
                    "delta: column `{}` has {} rows, expected {rows}",
                    field.name,
                    values.len()
                )));
            }
            out.push(ColumnDelta::from_values(&field.name, values)?);
        }
        let delta = TableDelta { schema, rows: rows as u64, columns: out };
        delta.validate()?;
        Ok(delta)
    }

    /// Check every invariant a consumer indexes by. Construction and
    /// decoding both funnel through this, so a [`TableDelta`] in hand is
    /// always safe to apply.
    pub fn validate(&self) -> Result<()> {
        if self.rows == 0 {
            return Err(Error::Data("delta: zero rows".into()));
        }
        if self.columns.len() != self.schema.fields().len() {
            return Err(Error::Data(format!(
                "delta: {} columns for a {}-field schema",
                self.columns.len(),
                self.schema.fields().len()
            )));
        }
        for (field, column) in self.schema.fields().iter().zip(&self.columns) {
            if column.name != field.name {
                return Err(Error::Data(format!(
                    "delta: column `{}` does not match schema field `{}`",
                    column.name, field.name
                )));
            }
            if column.dict.data_type() != field.data_type {
                return Err(Error::Data(format!(
                    "delta: column `{}` dictionary is {}, schema says {}",
                    column.name,
                    column.dict.data_type(),
                    field.data_type
                )));
            }
            if column.codes.len() as u64 != self.rows {
                return Err(Error::Data(format!(
                    "delta: column `{}` has {} codes for {} rows",
                    column.name,
                    column.codes.len(),
                    self.rows
                )));
            }
            if let Some(bad) = column.codes.iter().find(|&&c| c >= column.dict.len()) {
                return Err(Error::Data(format!(
                    "delta: column `{}` code {bad} out of range (dict len {})",
                    column.name,
                    column.dict.len()
                )));
            }
        }
        Ok(())
    }
}

// --- wire codecs ------------------------------------------------------------

impl Encode for ColumnDelta {
    fn encode(&self, out: &mut Vec<u8>) {
        self.name.encode(out);
        self.dict.to_bytes().encode(out);
        self.codes.encode(out);
    }
}

impl Decode for ColumnDelta {
    fn decode(r: &mut Reader<'_>) -> Result<ColumnDelta> {
        let name = String::decode(r)?;
        let dict_bytes = Vec::<u8>::decode(r)?;
        let dict = GlobalDict::from_bytes(&dict_bytes)?;
        let codes = Vec::<u32>::decode(r)?;
        Ok(ColumnDelta { name, dict, codes })
    }
}

impl Encode for TableDelta {
    fn encode(&self, out: &mut Vec<u8>) {
        self.schema.encode(out);
        self.rows.encode(out);
        self.columns.encode(out);
    }
}

impl Decode for TableDelta {
    fn decode(r: &mut Reader<'_>) -> Result<TableDelta> {
        let delta = TableDelta {
            schema: Schema::decode(r)?,
            rows: r.u64()?,
            columns: Vec::<ColumnDelta>::decode(r)?,
        };
        delta.validate()?;
        Ok(delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_common::wire::{from_bytes, to_bytes};
    use pd_common::DataType;

    fn sample() -> TableDelta {
        let schema = Schema::of(&[
            ("country", DataType::Str),
            ("latency", DataType::Int),
            ("score", DataType::Float),
        ]);
        let countries: Vec<Value> =
            ["SG", "DE", "SG", "BR"].iter().map(|&s| Value::from(s)).collect();
        let latencies: Vec<Value> = [9i64, 120, 14, 9].iter().map(|&v| Value::Int(v)).collect();
        let scores: Vec<Value> =
            [0.5f64, -0.0, 0.5, 2.25].iter().map(|&v| Value::Float(v)).collect();
        TableDelta::from_columns(schema, &[&countries, &latencies, &scores]).unwrap()
    }

    #[test]
    fn from_columns_builds_sorted_dicts_and_codes() {
        let delta = sample();
        assert_eq!(delta.rows, 4);
        assert_eq!(delta.columns[0].dict.len(), 3, "BR, DE, SG");
        // Materialization inverts the encoding exactly.
        let values = |c: &ColumnDelta| -> Vec<Value> {
            c.codes.iter().map(|&code| c.dict.value(code)).collect()
        };
        let cols: Vec<Vec<Value>> = delta.columns.iter().map(values).collect();
        assert_eq!(cols[0][0], Value::from("SG"));
        assert_eq!(cols[1][1], Value::Int(120));
        assert_eq!(cols[2][1], Value::Float(-0.0));
    }

    #[test]
    fn from_columns_rejects_shape_mismatches() {
        let schema = Schema::of(&[("a", DataType::Int), ("b", DataType::Int)]);
        let a = [Value::Int(1), Value::Int(2)];
        let b = [Value::Int(3)];
        assert!(TableDelta::from_columns(schema.clone(), &[&a, &b]).is_err(), "ragged");
        assert!(TableDelta::from_columns(schema.clone(), &[&a]).is_err(), "missing column");
        assert!(TableDelta::from_columns(schema, &[&[], &[]]).is_err(), "empty");
        // A type mismatch against the schema is caught by validate().
        let str_schema = Schema::of(&[("a", DataType::Str)]);
        assert!(TableDelta::from_columns(str_schema, &[&a]).is_err(), "int data, str field");
    }

    #[test]
    fn wire_round_trip_is_bit_identical() {
        let delta = sample();
        let back: TableDelta = from_bytes(&to_bytes(&delta)).unwrap();
        assert_eq!(back, delta);
    }

    #[test]
    fn decode_rejects_corrupted_invariants() {
        let delta = sample();
        // Out-of-range code.
        let mut bad = delta.clone();
        bad.columns[1].codes[0] = 99;
        assert!(from_bytes::<TableDelta>(&to_bytes(&bad)).is_err(), "code out of range");
        // Row-count mismatch.
        let mut bad = delta.clone();
        bad.columns[0].codes.pop();
        assert!(from_bytes::<TableDelta>(&to_bytes(&bad)).is_err(), "short column");
        // Renamed column no longer matches the schema.
        let mut bad = delta.clone();
        bad.columns[0].name = "nope".into();
        assert!(from_bytes::<TableDelta>(&to_bytes(&bad)).is_err(), "name mismatch");
        // Truncations error, never panic.
        let bytes = to_bytes(&delta);
        for cut in 0..bytes.len() {
            assert!(from_bytes::<TableDelta>(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }
}
