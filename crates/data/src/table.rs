//! An in-memory, column-major table.
//!
//! `Table` is the exchange format between generators, file formats, the
//! baseline backends and the column-store import pipeline. It is
//! deliberately simple — a schema plus one `Vec<Value>` per column — and
//! *not* the paper's data structure; the whole point of the paper is what
//! the store does to this representation at import time.

#[cfg(test)]
use pd_common::DataType;
use pd_common::{Error, HeapSize, Result, Row, Schema, Value};
use std::cmp::Ordering;

/// A schema-validated, column-major table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    schema: Schema,
    columns: Vec<Vec<Value>>,
    rows: usize,
}

impl Table {
    pub fn new(schema: Schema) -> Self {
        let columns = (0..schema.len()).map(|_| Vec::new()).collect();
        Table { schema, columns, rows: 0 }
    }

    /// Build from full columns. All columns must have equal length and
    /// match the schema's types (`Null` is rejected).
    pub fn from_columns(schema: Schema, columns: Vec<Vec<Value>>) -> Result<Self> {
        if columns.len() != schema.len() {
            return Err(Error::Schema(format!(
                "expected {} columns, got {}",
                schema.len(),
                columns.len()
            )));
        }
        let rows = columns.first().map_or(0, Vec::len);
        for (i, col) in columns.iter().enumerate() {
            if col.len() != rows {
                return Err(Error::Schema(format!(
                    "column `{}` has {} rows, expected {rows}",
                    schema.field(i).name,
                    col.len()
                )));
            }
            for v in col {
                check_type(&schema, i, v)?;
            }
        }
        Ok(Table { schema, columns, rows })
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of cells (rows × columns) — the unit the paper's title
    /// counts.
    pub fn cells(&self) -> usize {
        self.rows * self.schema.len()
    }

    /// Append a row, validating arity and types.
    pub fn push_row(&mut self, row: Row) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(Error::Schema(format!(
                "row has {} values, schema has {} fields",
                row.len(),
                self.schema.len()
            )));
        }
        for (i, v) in row.0.iter().enumerate() {
            check_type(&self.schema, i, v)?;
        }
        for (col, v) in self.columns.iter_mut().zip(row.0) {
            col.push(v);
        }
        self.rows += 1;
        Ok(())
    }

    /// The column at `idx`.
    pub fn column(&self, idx: usize) -> &[Value] {
        &self.columns[idx]
    }

    /// The column named `name`.
    pub fn column_by_name(&self, name: &str) -> Result<&[Value]> {
        Ok(&self.columns[self.schema.resolve(name)?])
    }

    /// Materialize row `i`.
    pub fn row(&self, i: usize) -> Row {
        Row(self.columns.iter().map(|c| c[i].clone()).collect())
    }

    /// Iterate all rows (materializing each).
    pub fn iter_rows(&self) -> impl Iterator<Item = Row> + '_ {
        (0..self.rows).map(move |i| self.row(i))
    }

    /// A new table containing the rows selected by `indices`, in order.
    pub fn select_rows(&self, indices: &[usize]) -> Table {
        let columns =
            self.columns.iter().map(|c| indices.iter().map(|&i| c[i].clone()).collect()).collect();
        Table { schema: self.schema.clone(), columns, rows: indices.len() }
    }

    /// The rows ordered by `fields`, compared in turn by `Value` order —
    /// the order of a sorted dictionary's ids — with ties kept in input
    /// order: §3's lexicographic row reordering, done before an import.
    pub fn sorted_by(&self, fields: &[&str]) -> Result<Table> {
        let keys: Vec<&[Value]> =
            fields.iter().map(|name| self.column_by_name(name)).collect::<Result<_>>()?;
        let mut order: Vec<usize> = (0..self.rows).collect();
        order.sort_by(|&a, &b| {
            keys.iter()
                .map(|key| key[a].cmp(&key[b]))
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
        });
        Ok(self.select_rows(&order))
    }

    /// Split into `n` quasi-equal horizontal slices (used by sharding).
    pub fn split(&self, n: usize) -> Vec<Table> {
        let n = n.max(1);
        let per = self.rows.div_ceil(n);
        (0..n)
            .map(|s| {
                let lo = (s * per).min(self.rows);
                let hi = ((s + 1) * per).min(self.rows);
                let indices: Vec<usize> = (lo..hi).collect();
                self.select_rows(&indices)
            })
            .collect()
    }
}

impl HeapSize for Table {
    fn heap_bytes(&self) -> usize {
        self.columns.iter().map(|c| c.heap_bytes()).sum()
    }
}

fn check_type(schema: &Schema, idx: usize, v: &Value) -> Result<()> {
    let expected = schema.field(idx).data_type;
    match v.data_type() {
        Some(t) if t == expected => Ok(()),
        Some(t) => Err(Error::Type(format!(
            "column `{}` is {expected} but value `{v}` is {t}",
            schema.field(idx).name
        ))),
        None => {
            Err(Error::Type(format!("column `{}` does not accept NULL", schema.field(idx).name)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::of(&[("ts", DataType::Int), ("name", DataType::Str), ("lat", DataType::Float)])
    }

    fn sample() -> Table {
        let mut t = Table::new(schema());
        t.push_row(Row(vec![Value::Int(1), Value::from("a"), Value::Float(0.5)])).unwrap();
        t.push_row(Row(vec![Value::Int(2), Value::from("b"), Value::Float(1.5)])).unwrap();
        t.push_row(Row(vec![Value::Int(3), Value::from("a"), Value::Float(2.5)])).unwrap();
        t
    }

    #[test]
    fn push_and_read_back() {
        let t = sample();
        assert_eq!(t.len(), 3);
        assert_eq!(t.cells(), 9);
        assert_eq!(t.row(1), Row(vec![Value::Int(2), Value::from("b"), Value::Float(1.5)]));
        assert_eq!(t.column_by_name("name").unwrap()[2], Value::from("a"));
    }

    #[test]
    fn type_violations_rejected() {
        let mut t = Table::new(schema());
        let bad = Row(vec![Value::from("x"), Value::from("a"), Value::Float(0.0)]);
        assert!(t.push_row(bad).is_err());
        let nulls = Row(vec![Value::Null, Value::from("a"), Value::Float(0.0)]);
        assert!(t.push_row(nulls).is_err());
        let short = Row(vec![Value::Int(1)]);
        assert!(t.push_row(short).is_err());
        assert_eq!(t.len(), 0, "failed pushes must not mutate");
    }

    #[test]
    fn from_columns_validates_lengths() {
        let cols = vec![
            vec![Value::Int(1)],
            vec![Value::from("a"), Value::from("b")],
            vec![Value::Float(1.0)],
        ];
        assert!(Table::from_columns(schema(), cols).is_err());
    }

    #[test]
    fn select_rows_projects() {
        let t = sample();
        let picked = t.select_rows(&[2, 0]);
        assert_eq!(picked.len(), 2);
        assert_eq!(picked.row(0).get(0), &Value::Int(3));
        assert_eq!(picked.row(1).get(0), &Value::Int(1));
    }

    #[test]
    fn sorted_by_orders_lexicographically_and_keeps_ties_in_input_order() {
        let mut t = Table::new(schema());
        for (ts, name, lat) in [(4, "b", 0.5), (1, "a", 1.5), (3, "b", 0.5), (2, "a", -0.5)] {
            t.push_row(Row(vec![Value::Int(ts), Value::from(name), Value::Float(lat)])).unwrap();
        }
        let ts = |t: &Table| -> Vec<Value> { t.column(0).to_vec() };
        // `name` ties between rows 1, 3 and rows 0, 2: input order holds.
        assert_eq!(ts(&t.sorted_by(&["name"]).unwrap()), [1, 2, 4, 3].map(Value::Int));
        assert_eq!(ts(&t.sorted_by(&["lat", "name"]).unwrap()), [2, 4, 3, 1].map(Value::Int));
        assert_eq!(ts(&t.sorted_by(&["name", "ts"]).unwrap()), [1, 2, 3, 4].map(Value::Int));
        // No field: every row ties, the table is unchanged.
        assert_eq!(t.sorted_by(&[]).unwrap(), t);
        let sorted = t.sorted_by(&["name"]).unwrap();
        assert_eq!(sorted.len(), 4);
        assert_eq!(sorted.row(0), t.row(1), "whole rows move");
    }

    #[test]
    fn sorted_by_an_unknown_field_is_an_error() {
        assert!(sample().sorted_by(&["name", "nope"]).is_err());
    }

    #[test]
    fn split_covers_all_rows() {
        let t = sample();
        let parts = t.split(2);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts.iter().map(Table::len).sum::<usize>(), 3);
        let whole = t.split(1);
        assert_eq!(whole[0].len(), 3);
        let many = t.split(10);
        assert_eq!(many.iter().map(Table::len).sum::<usize>(), 3);
    }

    #[test]
    fn iter_rows_matches_row() {
        let t = sample();
        let rows: Vec<Row> = t.iter_rows().collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], t.row(0));
    }
}
