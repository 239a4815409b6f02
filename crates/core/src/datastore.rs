//! The import pipeline and column registry.
//!
//! The §2.2–2.3 import is three steps over dictionary codes: code every
//! column once (a sorted dictionary plus one code per row — a
//! [`TableDelta`], made by [`DataStore::build`] from a table or by whoever
//! shipped the rows), run the composite range partitioner over the
//! partition fields' codes, then encode every column against the resulting
//! chunk boundaries. [`DataStore::from_coded`] is the last two; an append
//! ([`DataStore::append_delta`]) takes the same coded columns. Rows keep
//! their input order within a chunk: §3's lexicographic reordering is a
//! sort of the table before its import ([`Table::sorted_by`]).
//!
//! §5 "Complex Expressions" lives here too: [`DataStore::column_for_expr`]
//! materializes arbitrary scalar expressions as *virtual fields* — stored
//! exactly like base columns (same chunk boundaries, same dictionary
//! machinery), keyed by the expression's canonical text, computed once and
//! reused by later queries. A field is evaluated once per distinct input
//! tuple, through `group_codes` (`kernels::eval_tuples`): per chunk at
//! first access, and over an append's delta rows only, whose values merge
//! into the field's sorted dictionary as a base column's do.

use crate::column::StoredColumn;
use crate::kernels::{self, SourceRun};
use crate::options::BuildOptions;
use crate::partition::{partition, Partitioning};
use pd_common::sync::RwLock;
use pd_common::{Error, HeapSize, Result, Schema, Value};
use pd_data::Table;
use pd_encoding::{build_dict, CodesView, ColumnDelta, GlobalDict, TableDelta};
use pd_sql::Expr;
use std::collections::BTreeMap;
use std::sync::Arc;

/// An imported, query-ready dataset.
pub struct DataStore {
    schema: Schema,
    options: BuildOptions,
    partitioning: Partitioning,
    columns: BTreeMap<String, Arc<StoredColumn>>,
    /// Materialized virtual fields, keyed by canonical expression text.
    virtuals: RwLock<BTreeMap<String, VirtualField>>,
    n_rows: usize,
}

/// A materialized virtual field: its column beside the expression that
/// computes it, which is what lets an append extend the column.
struct VirtualField {
    expr: Expr,
    column: Arc<StoredColumn>,
}

impl DataStore {
    /// Import `table` under `options`: code its columns once
    /// ([`TableDelta::from_columns`]), then [`DataStore::from_coded`].
    pub fn build(table: &Table, options: &BuildOptions) -> Result<DataStore> {
        let columns: Vec<&[Value]> = (0..table.schema().len()).map(|i| table.column(i)).collect();
        DataStore::from_coded(TableDelta::from_columns(table.schema().clone(), &columns)?, options)
    }

    /// Import rows that are already dictionary-coded — the form in which a
    /// shard's rows cross a wire — under `options`. The coded columns'
    /// dictionaries become the store's global dictionaries as they stand
    /// (a sorted dictionary's codes are the ranks an import assigns), so
    /// nothing is looked up again.
    pub fn from_coded(coded: TableDelta, options: &BuildOptions) -> Result<DataStore> {
        coded.validate()?;
        let TableDelta { schema, rows, columns } = coded;
        let n_rows = rows as usize;

        // 1. Partition on the partition fields' codes (original row order).
        let mut keys: Vec<&[u32]> = Vec::new();
        if let Some(spec) = &options.partition {
            for field in &spec.fields {
                keys.push(&columns[schema.resolve(field)?].codes);
            }
        }
        let max_rows = options.partition.as_ref().map_or(usize::MAX, |s| s.max_chunk_rows);
        let partitioning = if keys.is_empty() {
            Partitioning::single_chunk(n_rows)
        } else {
            partition(&keys, n_rows, max_rows)
        };

        // 2. Encode every column in the partitioning's row order.
        let mut stored = BTreeMap::new();
        for ColumnDelta { name, dict, codes } in columns {
            let permuted: Vec<u32> =
                partitioning.row_order.iter().map(|&r| codes[r as usize]).collect();
            let column = StoredColumn::from_global_ids(dict, &permuted, &partitioning, options)?;
            stored.insert(name, Arc::new(column));
        }

        Ok(DataStore {
            schema,
            options: options.clone(),
            partitioning,
            columns: stored,
            virtuals: RwLock::new(BTreeMap::new()),
            n_rows,
        })
    }

    /// Apply a delta batch in place (§4 freshness without a re-import).
    ///
    /// Each column's delta dictionary is merged into its global dictionary
    /// ([`pd_encoding::GlobalDict::merge`], entry by entry, never row by
    /// row), which stays sorted: every global dictionary is the one a build
    /// of all the rows would make, so a value range stays an id range
    /// (§2.3). Where the merge moves old ids, only the column's chunk
    /// dictionaries are renumbered, through its monotone old → new map;
    /// element arrays hold chunk-ids and are untouched (§2's double
    /// dictionary). The delta rows are encoded as *fresh chunks* in arrival
    /// order (bounded by the build threshold), so results folded across old
    /// and new chunks are bit-identical to a full re-import of the
    /// concatenated data. Materialized virtual fields grow the same way: the
    /// expression is evaluated over the delta rows only, once per distinct
    /// input tuple through `group_codes` (`kernels::eval_tuples`), its
    /// values merged into the field's dictionary, the same fresh chunks
    /// appended. A chunk's
    /// chunk-ids depend on its own rows alone, so anything keyed on a chunk
    /// and holding chunk-ids (the chunk-result cache) stays valid for every
    /// old chunk. A field that cannot be extended (the expression fails on a
    /// delta row, or yields a value its dictionary cannot hold) is dropped
    /// instead and rebuilt on next access.
    ///
    /// All or nothing: every check, and every virtual field's evaluation,
    /// happens before the first column is touched, so an `Err` leaves the
    /// store exactly as it was.
    pub fn append_delta(&mut self, delta: &TableDelta) -> Result<()> {
        if delta.schema != self.schema {
            return Err(Error::Schema("delta schema does not match the store schema".into()));
        }
        delta.validate()?;
        let rows = delta.rows as usize;
        let mut virtuals = self.virtuals.write();
        let staged: Vec<Option<(GlobalDict, Vec<u32>)>> =
            virtuals.values().map(|field| field.coded_delta(delta)).collect();

        // Nothing below fails. New chunk boundaries: arrival order, capped
        // at the import threshold so appended chunks stay prunable at the
        // same grain.
        let max_rows =
            self.options.partition.as_ref().map_or(usize::MAX, |s| s.max_chunk_rows).max(1);
        let mut chunk_lens = Vec::new();
        let mut remaining = rows;
        while remaining > 0 {
            let take = remaining.min(max_rows);
            chunk_lens.push(take);
            remaining -= take;
        }
        let options = &self.options;
        let append = |column: &mut Arc<StoredColumn>, dict: &GlobalDict, codes: &[u32]| {
            // A validated delta of the store's schema holds each base
            // column's type; a staged field's type was checked.
            (Arc::make_mut(column).append_coded(dict, codes, &chunk_lens, options))
                .expect("the dictionary's type")
        };

        for (field, coded) in self.schema.fields().iter().zip(&delta.columns) {
            let column = self.columns.get_mut(&field.name).expect("schemas are equal");
            append(column, &coded.dict, &coded.codes);
        }
        // A field with nothing staged could not be extended: it goes.
        *virtuals = std::mem::take(&mut *virtuals)
            .into_iter()
            .zip(staged)
            .filter_map(|((key, mut field), coded)| {
                let (dict, codes) = coded?;
                append(&mut field.column, &dict, &codes);
                Some((key, field))
            })
            .collect();
        self.partitioning.append_identity_chunks(&chunk_lens);
        self.n_rows += rows;

        let chunks = self.partitioning.chunk_count();
        debug_assert!(self.columns.values().all(|column| column.chunks.len() == chunks));
        debug_assert!(virtuals.values().all(|field| field.column.chunks.len() == chunks));
        Ok(())
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn options(&self) -> &BuildOptions {
        &self.options
    }

    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    pub fn chunk_count(&self) -> usize {
        self.partitioning.chunk_count()
    }

    /// Rows in chunk `c`.
    pub fn chunk_rows(&self, c: usize) -> usize {
        self.partitioning.chunk_range(c).len()
    }

    /// A base column by name.
    pub fn column(&self, name: &str) -> Result<Arc<StoredColumn>> {
        self.columns
            .get(name)
            .cloned()
            .ok_or_else(|| Error::Schema(format!("unknown column `{name}`")))
    }

    /// Names of base columns (schema order).
    pub fn column_names(&self) -> Vec<String> {
        self.schema.fields().iter().map(|f| f.name.clone()).collect()
    }

    /// Canonical names of materialized virtual fields.
    pub fn virtual_names(&self) -> Vec<String> {
        self.virtuals.read().keys().cloned().collect()
    }

    /// The stored column for an expression: a base column for bare
    /// references, otherwise the materialized virtual field (computing and
    /// storing it on first access — §5's "computed once, consecutive access
    /// can reuse the materialized data").
    pub fn column_for_expr(&self, expr: &Expr) -> Result<Arc<StoredColumn>> {
        if let Some(name) = expr.as_column() {
            return self.column(name);
        }
        let key = expr.canonical();
        if let Some(field) = self.virtuals.read().get(&key) {
            return Ok(field.column.clone());
        }
        let field = VirtualField { expr: expr.clone(), column: Arc::new(self.materialize(expr)?) };
        let mut guard = self.virtuals.write();
        // A racing query may have materialized it concurrently; keep the
        // first one so Arc identities stay stable.
        Ok(guard.entry(key).or_insert(field).column.clone())
    }

    /// Evaluate `expr` over every chunk, once per input tuple its rows hold
    /// (`kernels::eval_tuples`), code the values and encode them as a
    /// base column's codes are encoded.
    fn materialize(&self, expr: &Expr) -> Result<StoredColumn> {
        if self.n_rows == 0 {
            return Err(Error::Data("cannot materialize expressions over an empty store".into()));
        }
        let mut referenced = Vec::new();
        expr.referenced_columns(&mut referenced);
        let columns =
            referenced.iter().map(|name| self.column(name)).collect::<Result<Vec<_>>>()?;

        let (mut values, mut at) = (Vec::new(), Vec::with_capacity(self.n_rows));
        for c in 0..self.chunk_count() {
            let chunk_values: Vec<Vec<Value>> =
                columns.iter().map(|col| col.chunk_values(c)).collect();
            let sources: Vec<SourceRun<'_>> = (referenced.iter().zip(&columns).zip(&chunk_values))
                .map(|((name, col), values)| SourceRun {
                    name,
                    values,
                    codes: col.chunks[c].codes(),
                })
                .collect();
            kernels::eval_rows(expr, &sources, self.chunk_rows(c), true, &mut values, &mut at)?;
        }
        let (dict, codes) = coded(&values, &at)?;
        StoredColumn::from_global_ids(dict, &codes, &self.partitioning, &self.options)
    }

    /// Memory footprint of the named columns/virtual fields (Tables 1–4
    /// report per-query memory: "only the columns present in the individual
    /// queries").
    pub fn memory_of(&self, exprs: &[&Expr]) -> Result<usize> {
        let mut total = 0;
        for e in exprs {
            total += self.column_for_expr(e)?.heap_bytes();
        }
        Ok(total)
    }

    /// All stored bytes (base + virtual columns).
    pub fn total_bytes(&self) -> usize {
        self.columns.values().map(|c| c.heap_bytes()).sum::<usize>()
            + self.virtuals.read().values().map(|f| f.column.heap_bytes()).sum::<usize>()
    }
}

impl VirtualField {
    /// The field's values for the rows of `delta`, coded like a delta's
    /// base columns: a sorted dictionary and a code per row. `None` when
    /// the field cannot be extended by them: the expression fails on a
    /// row, or a value is not of the type its dictionary holds.
    fn coded_delta(&self, delta: &TableDelta) -> Option<(GlobalDict, Vec<u32>)> {
        let mut referenced = Vec::new();
        self.expr.referenced_columns(&mut referenced);
        let columns: Vec<&ColumnDelta> = (referenced.iter())
            .map(|name| delta.columns.iter().find(|column| column.name == *name))
            .collect::<Option<_>>()?;
        let entries: Vec<Vec<Value>> = (columns.iter())
            .map(|column| (0..column.dict.len()).map(|id| column.dict.value(id)).collect())
            .collect();
        let sources: Vec<SourceRun<'_>> = (referenced.iter().zip(&columns).zip(&entries))
            .map(|((name, column), values)| SourceRun {
                name,
                values,
                codes: CodesView::U32(&column.codes),
            })
            .collect();
        let (mut values, mut at) = (Vec::new(), Vec::with_capacity(delta.rows as usize));
        let rows = delta.rows as usize;
        kernels::eval_rows(&self.expr, &sources, rows, false, &mut values, &mut at).ok()?;
        // Mixed types and nulls are refused by the coding itself.
        let (dict, codes) = coded(&values, &at).ok()?;
        (dict.data_type() == self.column.data_type()).then_some((dict, codes))
    }
}

/// The sorted dictionary of `values` and, per row, the code of its value,
/// `values[at[row]]`.
fn coded(values: &[Value], at: &[u32]) -> Result<(GlobalDict, Vec<u32>)> {
    let (dict, ids) = build_dict(values)?;
    Ok((dict, at.iter().map(|&i| ids[i as usize]).collect()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::PartitionSpec;
    use pd_common::DataType;
    use pd_data::{generate_logs, LogsSpec};
    use pd_sql::{eval_expr, parse_query};

    fn small_store(options: &BuildOptions) -> (Table, DataStore) {
        let table = generate_logs(&LogsSpec::scaled(3_000));
        let store = DataStore::build(&table, options).unwrap();
        (table, store)
    }

    fn production_options() -> BuildOptions {
        BuildOptions::optdicts(PartitionSpec::new(&["country", "table_name"], 500))
    }

    #[test]
    fn reconstruction_matches_source_rows() {
        let (table, store) = small_store(&production_options());
        assert_eq!(store.n_rows(), table.len());
        // Every stored cell must equal the source cell of the permuted row:
        // "synchronously iterating over all columns reconstructs the
        // original rows" (§2.3).
        let p = store.partitioning().clone();
        for c in 0..store.chunk_count() {
            let range = p.chunk_range(c);
            for (i, pos) in range.enumerate() {
                let orig = p.row_order[pos] as usize;
                for field in store.schema().fields() {
                    let col = store.column(&field.name).unwrap();
                    let src_idx = table.schema().resolve(&field.name).unwrap();
                    assert_eq!(
                        col.value_at(c, i),
                        table.column(src_idx)[orig],
                        "chunk {c} row {i} field {}",
                        field.name
                    );
                }
            }
        }
    }

    #[test]
    fn partitioning_respects_threshold() {
        let (_, store) = small_store(&production_options());
        assert!(store.chunk_count() > 1);
        assert!(store.partitioning().max_chunk_rows() <= 500);
    }

    #[test]
    fn partition_fields_have_few_distinct_values_per_chunk() {
        // §3: "the corresponding fields country and table_name are in the
        // field order used for the partitioning, therefore each chunk has
        // relatively few distinct values for these fields".
        let (_, store) = small_store(&production_options());
        let country = store.column("country").unwrap();
        let avg_distinct: f64 = country.chunks.iter().map(|c| c.dict.len() as f64).sum::<f64>()
            / country.chunks.len() as f64;
        assert!(avg_distinct < 4.0, "avg distinct countries per chunk = {avg_distinct}");
    }

    #[test]
    fn reorder_improves_rle_runs() {
        let fields = ["country", "table_name"];
        let options = BuildOptions::optdicts(PartitionSpec::new(&fields, 500));
        let table = generate_logs(&LogsSpec::scaled(3_000));
        let plain = DataStore::build(&table, &options).unwrap();
        let sorted = DataStore::build(&table.sorted_by(&fields).unwrap(), &options).unwrap();
        let runs = |store: &DataStore| -> usize {
            let col = store.column("table_name").unwrap();
            col.chunks
                .iter()
                .map(|ch| {
                    let ids: Vec<u32> = ch.elements.iter().collect();
                    // Figure 3's cost: one (counter, value) pair per run.
                    1 + ids.windows(2).filter(|w| w[0] != w[1]).count()
                })
                .sum()
        };
        assert!(
            runs(&sorted) < runs(&plain),
            "reorder must reduce run count: {} vs {}",
            runs(&sorted),
            runs(&plain)
        );
    }

    #[test]
    fn virtual_field_materializes_once_and_reuses() {
        let (_, store) = small_store(&production_options());
        let q = parse_query("SELECT date(timestamp) FROM t GROUP BY date(timestamp)").unwrap();
        let expr = &q.group_by[0];
        let a = store.column_for_expr(expr).unwrap();
        let b = store.column_for_expr(expr).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second access must reuse the materialization");
        assert_eq!(store.virtual_names(), vec!["date(timestamp)".to_owned()]);
        // ~92 days of data → ~92 distinct dates.
        assert!(a.dict.len() <= 92 + 1, "dates = {}", a.dict.len());
        assert!(a.dict.len() >= 80, "dates = {}", a.dict.len());
    }

    #[test]
    fn virtual_field_values_are_correct() {
        let (table, store) = small_store(&production_options());
        let q = parse_query("SELECT hour(timestamp) FROM t GROUP BY hour(timestamp)").unwrap();
        let col = store.column_for_expr(&q.group_by[0]).unwrap();
        let p = store.partitioning();
        let ts_idx = table.schema().resolve("timestamp").unwrap();
        for c in 0..store.chunk_count() {
            for (i, pos) in p.chunk_range(c).enumerate() {
                let orig = p.row_order[pos] as usize;
                let ts = table.column(ts_idx)[orig].as_int().unwrap();
                let expect = ts.rem_euclid(86_400) / 3_600;
                assert_eq!(col.value_at(c, i), Value::Int(expect));
            }
        }
    }

    #[test]
    fn unknown_columns_error() {
        let (_, store) = small_store(&BuildOptions::basic());
        assert!(store.column("nope").is_err());
        let q = parse_query("SELECT date(nope) FROM t GROUP BY date(nope)").unwrap();
        assert!(store.column_for_expr(&q.group_by[0]).is_err());
    }

    #[test]
    fn basic_build_is_single_chunk() {
        let (_, store) = small_store(&BuildOptions::basic());
        assert_eq!(store.chunk_count(), 1);
        assert_eq!(store.chunk_rows(0), 3_000);
    }

    fn delta_of(table: &Table, rows: std::ops::Range<usize>) -> TableDelta {
        let sub = table.select_rows(&rows.collect::<Vec<_>>());
        let columns: Vec<&[Value]> = (0..sub.schema().len()).map(|i| sub.column(i)).collect();
        TableDelta::from_columns(sub.schema().clone(), &columns).unwrap()
    }

    #[test]
    fn append_delta_matches_full_rebuild_bit_identically() {
        let table = generate_logs(&LogsSpec::scaled(3_000));
        let options = production_options();
        let base = table.select_rows(&(0..2_700).collect::<Vec<_>>());
        let mut appended = DataStore::build(&base, &options).unwrap();
        appended.append_delta(&delta_of(&table, 2_700..2_850)).unwrap();
        appended.append_delta(&delta_of(&table, 2_850..3_000)).unwrap();
        let full = DataStore::build(&table, &options).unwrap();

        assert_eq!(appended.n_rows(), full.n_rows());
        for sql in [
            "SELECT country, COUNT(*) FROM t GROUP BY country",
            "SELECT table_name, SUM(latency) FROM t GROUP BY table_name",
            "SELECT country, MIN(user), MAX(user) FROM t GROUP BY country",
            "SELECT table_name, COUNT(*) FROM t WHERE country = 'DE' GROUP BY table_name",
        ] {
            let (a, _) = crate::exec::query(&appended, sql).unwrap();
            let (b, _) = crate::exec::query(&full, sql).unwrap();
            assert_eq!(a, b, "append vs rebuild diverged for `{sql}`");
        }
    }

    #[test]
    fn append_delta_ids_are_ranks_and_rows_stay_in_arrival_order() {
        let table = generate_logs(&LogsSpec::scaled(2_000));
        let options = production_options();
        let base = table.select_rows(&(0..1_500).collect::<Vec<_>>());
        let mut store = DataStore::build(&base, &options).unwrap();
        let before: Vec<_> =
            store.column_names().iter().map(|n| store.column(n).unwrap()).collect();
        let old_chunks = store.chunk_count();

        // Materialize two virtual fields, then append: both are extended in
        // place (the delta brings hours the base has seen and dates it has
        // not).
        let q = parse_query("SELECT COUNT(*) FROM t GROUP BY hour(timestamp), date(timestamp)");
        let exprs = q.unwrap().group_by;
        let virtuals_before: Vec<_> =
            exprs.iter().map(|e| store.column_for_expr(e).unwrap()).collect();
        assert_eq!(store.virtual_names().len(), 2);

        store.append_delta(&delta_of(&table, 1_500..2_000)).unwrap();
        assert_eq!(store.n_rows(), 2_000);
        assert_eq!(store.virtual_names(), ["date(timestamp)", "hour(timestamp)"]);
        let virtuals: Vec<_> = exprs.iter().map(|e| store.column_for_expr(e).unwrap()).collect();
        assert!(virtuals[1].dict.len() > virtuals_before[1].dict.len(), "new dates are merged in");

        // Every dictionary holds its old values and the new ones, sorted:
        // an id is a value's rank. Where a new value sorts before an old
        // one, that old value's id moved up — which this delta does to
        // some column.
        let after = store.column_names().into_iter().map(|n| store.column(&n).unwrap());
        let mut moved = 0;
        for (was, now) in before.iter().chain(&virtuals_before).zip(after.chain(virtuals.clone())) {
            let values: Vec<Value> = (0..now.dict.len()).map(|id| now.dict.value(id)).collect();
            assert!(values.windows(2).all(|pair| pair[0] < pair[1]), "ids are ranks");
            let old: Vec<u32> = (0..was.dict.len())
                .map(|id| now.dict.id_of(&was.dict.value(id)).expect("an old value stays"))
                .collect();
            assert!(old.iter().zip(0..).all(|(&now, was)| now >= was), "ids only move up");
            moved += usize::from(old.iter().zip(0..).any(|(&now, was)| now != was));
        }
        assert!(moved > 1, "the append must renumber old ids of some columns: {moved}");

        // Appended rows live in fresh chunks, in arrival order.
        let p = store.partitioning();
        let mut seen = 0usize;
        for c in old_chunks..store.chunk_count() {
            assert!(
                p.chunk_range(c).len()
                    <= store.options().partition.as_ref().unwrap().max_chunk_rows
            );
            for (i, _) in p.chunk_range(c).enumerate() {
                let src = 1_500 + seen + i;
                for field in store.schema().fields() {
                    let col = store.column(&field.name).unwrap();
                    let idx = table.schema().resolve(&field.name).unwrap();
                    assert_eq!(col.value_at(c, i), table.column(idx)[src]);
                }
                // ... and read each virtual field's expression of their
                // source row.
                let ts = [("timestamp", table.column(0)[src].clone())];
                for (expr, col) in exprs.iter().zip(&virtuals) {
                    assert_eq!(col.value_at(c, i), eval_expr(expr, &ts[..]).unwrap());
                }
            }
            seen += p.chunk_range(c).len();
        }
        assert_eq!(seen, 500);
    }

    #[test]
    fn append_delta_rejects_schema_mismatch() {
        let (_, mut store) = small_store(&production_options());
        let schema = pd_common::Schema::of(&[("other", pd_common::DataType::Int)]);
        let vals = [Value::Int(1)];
        let delta = TableDelta::from_columns(schema, &[&vals[..]]).unwrap();
        assert!(store.append_delta(&delta).is_err());
    }

    /// Every dictionary length of the store, base columns then virtual
    /// fields.
    fn dict_lens(store: &DataStore, virtuals: &[Expr]) -> Vec<u32> {
        let base = store.column_names().into_iter().map(|n| store.column(&n).unwrap());
        let virtuals = virtuals.iter().map(|e| store.column_for_expr(e).unwrap());
        base.chain(virtuals).map(|col| col.dict.len()).collect()
    }

    #[test]
    fn a_rejected_delta_changes_nothing_in_the_store() {
        let table = generate_logs(&LogsSpec::scaled(2_000));
        let base = table.select_rows(&(0..1_500).collect::<Vec<_>>());
        let mut store = DataStore::build(&base, &production_options()).unwrap();
        let date = parse_query("SELECT COUNT(*) FROM t GROUP BY date(timestamp)").unwrap().group_by;
        store.column_for_expr(&date[0]).unwrap();
        let before = (store.n_rows(), store.chunk_count(), dict_lens(&store, &date));

        // Each of these brings new values for the first columns and is
        // wrong only in its last: an append that stopped half way would
        // have grown the dictionaries before it.
        let good = delta_of(&table, 1_500..2_000);
        let last = good.columns.len() - 1;
        let mut bad_code = good.clone();
        bad_code.columns[last].codes[7] = u32::MAX;
        let mut short = good.clone();
        short.columns[last].codes.pop();
        let mut renamed = good.clone();
        renamed.columns[last].name = "other".into();
        for (what, delta) in [("code", bad_code), ("length", short), ("name", renamed)] {
            assert!(store.append_delta(&delta).is_err(), "{what}");
            let after = (store.n_rows(), store.chunk_count(), dict_lens(&store, &date));
            assert_eq!(after, before, "{what}: a rejected delta must change nothing");
            assert_eq!(store.virtual_names(), ["date(timestamp)"], "{what}");
        }
        store.append_delta(&good).unwrap();
        assert_eq!(store.n_rows(), 2_000);
    }

    #[test]
    fn a_virtual_field_that_cannot_be_extended_is_dropped_not_the_append() {
        let table = generate_logs(&LogsSpec::scaled(2_000));
        let base = table.select_rows(&(0..1_500).collect::<Vec<_>>());
        let mut store = DataStore::build(&base, &production_options()).unwrap();
        // An integer for every base row, a string for the delta's rows: the
        // field's integer dictionary cannot take those.
        let cut = table.column(0)[1_500..].iter().map(|v| v.as_int().unwrap()).min().unwrap();
        assert!(table.column(0)[..1_500].iter().all(|v| v.as_int().unwrap() < cut));
        let sql = format!(
            "SELECT COUNT(*) FROM t GROUP BY if(timestamp >= {cut}, 'late', 0), hour(timestamp)"
        );
        let exprs = parse_query(&sql).unwrap().group_by;
        assert_eq!(store.column_for_expr(&exprs[0]).unwrap().data_type(), DataType::Int);
        store.column_for_expr(&exprs[1]).unwrap();

        store.append_delta(&delta_of(&table, 1_500..2_000)).unwrap();
        assert_eq!(store.n_rows(), 2_000);
        assert_eq!(store.virtual_names(), ["hour(timestamp)"], "only the mixed field goes");
        // Its rebuild sees both types and fails, as a first touch would.
        assert!(store.column_for_expr(&exprs[0]).is_err());
        let hours = store.column_for_expr(&exprs[1]).unwrap();
        assert_eq!(hours.chunks.len(), store.chunk_count());
    }

    #[test]
    fn memory_of_reports_only_requested_columns() {
        let (_, store) = small_store(&production_options());
        let country = Expr::column("country");
        let table_name = Expr::column("table_name");
        let just_country = store.memory_of(&[&country]).unwrap();
        let both = store.memory_of(&[&country, &table_name]).unwrap();
        assert!(just_country > 0);
        assert!(both > just_country);
        assert!(store.total_bytes() > both);
    }
}
