//! Properties of the group table the chunk kernels fill: the fold is
//! insensitive to the order and grouping in which chunk tables arrive, the
//! id-domain ranking equals the value-domain one, and shared aggregate
//! slots finalize like unshared ones — `assert_eq!` on
//! [`pd_core::QueryResult`], whose float comparison is `total_cmp` (so a
//! flipped NaN payload or a `-0.0` vs `+0.0` would fail, not pass). What
//! the kernels compute is checked against the row oracle in the root
//! crate's `exec_correctness`.

use pd_common::rng::Rng;
use pd_common::{DataType, Row, Schema, Value};
use pd_core::{
    execute, execute_partial, finalize, BuildOptions, DataStore, ExecContext, PartitionSpec,
    QueryResult, StoredColumn,
};
use pd_data::Table;
use pd_encoding::TableDelta;
use pd_sql::{analyze, parse_query, AnalyzedQuery};

/// Did the appends that made `after` move an id `before`'s dictionary had?
/// Merges only ever move ids up, so one moved iff an old id now holds
/// another value.
fn renumbered(before: &StoredColumn, after: &StoredColumn) -> bool {
    (0..before.dict.len()).any(|id| after.dict.value(id) != before.dict.value(id))
}

/// A wide but finite spread, signed, with exact-decimal cases mixed in.
fn random_float(rng: &mut Rng) -> f64 {
    match rng.range_usize(0, 3) {
        0 => rng.range_i64_inclusive(-1_000, 1_000) as f64 * 0.25,
        1 => (rng.next_f64() - 0.5) * 1e6,
        _ => rng.next_f64() * 1e-3,
    }
}

fn run(store: &DataStore, analyzed: &AnalyzedQuery) -> QueryResult {
    let ctx = ExecContext { threads: 1, ..Default::default() };
    execute(store, analyzed, &ctx).unwrap().0
}

/// Three key columns of small cardinality, an int and a string measure,
/// and a float measure one row in five of which taints a double-double:
/// NaN, ±inf, `1e308` (two overflow), `-0.0`, and magnitudes 600 binades
/// apart.
fn grouped_table(rng: &mut Rng, rows: usize) -> Table {
    const TAINTING: [f64; 8] =
        [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e308, 1e308, -1e308, -0.0, 1e-300];
    let schema = Schema::of(&[
        ("k", DataType::Str),
        ("g", DataType::Str),
        ("h", DataType::Int),
        ("n", DataType::Int),
        ("s", DataType::Str),
        ("x", DataType::Float),
        ("r", DataType::Int),
    ]);
    let mut table = Table::new(schema);
    for _ in 0..rows {
        let x = if rng.chance(0.2) { *rng.pick(&TAINTING) } else { random_float(rng) };
        table
            .push_row(Row(vec![
                Value::from(format!("k{}", rng.range_usize(0, 7))),
                Value::from(format!("g{}", rng.range_usize(0, 4))),
                Value::Int(rng.range_i64_inclusive(0, 2)),
                Value::Int(rng.range_i64_inclusive(-500, 500)),
                Value::from(format!("s{:03}", rng.range_usize(0, 300))),
                Value::Float(x),
                Value::Int(rng.range_i64_inclusive(0, 99)),
            ]))
            .unwrap();
    }
    table
}

/// Every aggregate — `SUM(x)`, `AVG(x)` and `COUNT(*)` sharing slots — over
/// 0, 1, 2 and 3 keys, unmasked and under a random mask; high-cardinality
/// keys; `COUNT(*)` alone.
fn grouped_queries(rng: &mut Rng) -> Vec<String> {
    let aggs = "COUNT(*) c, COUNT(s) cs, SUM(n) sn, SUM(x) sx, AVG(x) ax, AVG(n) an, \
                MIN(n) mn, MAX(n) mxn, MIN(s) ms, MAX(s) mxs, MIN(x) mnx, MAX(x) mxx, \
                COUNT(DISTINCT s) d";
    let mut sqls = Vec::new();
    for keys in ["", "k", "g, h", "k, g, h"] {
        let select = if keys.is_empty() { aggs.to_owned() } else { format!("{keys}, {aggs}") };
        let group_by = if keys.is_empty() { String::new() } else { format!(" GROUP BY {keys}") };
        let t = rng.range_i64_inclusive(5, 95);
        sqls.push(format!("SELECT {select} FROM data{group_by}"));
        sqls.push(format!("SELECT {select} FROM data WHERE r < {t}{group_by}"));
    }
    // Keys whose dictionaries the appends renumber: the fold translates
    // cached and computed chunk tables through renumbered chunk
    // dictionaries.
    sqls.push("SELECT s, COUNT(*) c, SUM(x) sx, MAX(n) mx FROM data GROUP BY s".into());
    sqls.push("SELECT n, k, COUNT(*) c, MIN(s) ms FROM data WHERE r < 70 GROUP BY n, k".into());
    // COUNT(*) alone: the counts-array kernels, one and two keys.
    sqls.push("SELECT k, COUNT(*) c FROM data GROUP BY k ORDER BY c DESC LIMIT 3".into());
    sqls.push("SELECT g, h, COUNT(*) c FROM data WHERE r < 50 GROUP BY g, h".into());
    sqls
}

/// A store whose chunks are `batches` of `table`'s rows in that order: the
/// first is built, the rest appended (so every later batch tails the
/// dictionaries with the values it is first to bring).
fn store_of_batches(table: &Table, batches: &[Vec<usize>]) -> DataStore {
    let mut store = DataStore::build(&table.select_rows(&batches[0]), &BuildOptions::basic());
    for batch in &batches[1..] {
        let rows = table.select_rows(batch);
        let columns: Vec<&[Value]> = (0..rows.schema().len()).map(|i| rows.column(i)).collect();
        let delta = TableDelta::from_columns(rows.schema().clone(), &columns).unwrap();
        store.as_mut().unwrap().append_delta(&delta).unwrap();
    }
    store.unwrap()
}

#[test]
fn folds_of_chunk_tables_in_any_order_and_grouping_equal_the_one_build_result() {
    let mut rng = Rng::seed_from_u64(0xae41_0004);
    for case in 0..4 {
        let rows = rng.range_usize(200, 500);
        let table = grouped_table(&mut rng, rows);
        let sqls = grouped_queries(&mut rng);

        // The reference: one build, sorted dictionaries.
        let chunked = BuildOptions::optcols(PartitionSpec::new(&["k", "g"], 60));
        let reference = DataStore::build(&table, &chunked).unwrap();
        assert!(reference.chunk_count() > 3);

        // The same rows as chunks in row order, in reverse, and shuffled
        // into batches of random sizes.
        let in_order: Vec<Vec<usize>> =
            (0..rows).collect::<Vec<_>>().chunks(70).map(<[usize]>::to_vec).collect();
        let reversed: Vec<Vec<usize>> = in_order.iter().rev().cloned().collect();
        let mut shuffled: Vec<usize> = (0..rows).collect();
        for i in (1..rows).rev() {
            shuffled.swap(i, rng.range_usize(0, i + 1));
        }
        let mut random = Vec::new();
        while !shuffled.is_empty() {
            let take = rng.range_usize(1, 120).min(shuffled.len());
            random.push(shuffled.split_off(shuffled.len() - take));
        }
        let stores = [
            ("one build", reference),
            ("in order", store_of_batches(&table, &in_order)),
            ("reversed", store_of_batches(&table, &reversed)),
            ("random groupings", store_of_batches(&table, &random)),
        ];
        let tailed = &stores[2].1;
        let first = store_of_batches(&table, &reversed[..1]);
        assert!(
            (["n", "s", "x"].iter())
                .all(|c| renumbered(&first.column(c).unwrap(), &tailed.column(c).unwrap())),
            "appends must renumber the MIN/MAX arguments' old ids"
        );

        for sql in &sqls {
            let analyzed = analyze(&parse_query(sql).unwrap()).unwrap();
            let want = run(&stores[0].1, &analyzed);
            for (name, store) in &stores {
                let label = format!("case {case}, {name}: {sql}");
                assert_eq!(run(store, &analyzed), want, "{label}");
                // The value-keyed form of the same table, ranked as values.
                let ctx = ExecContext { threads: 1, ..Default::default() };
                let (partial, _) = execute_partial(store, &analyzed, &ctx).unwrap();
                assert_eq!(finalize(&analyzed, partial).unwrap(), want, "{label}");
            }
        }
    }
}

#[test]
fn shared_slots_finalize_to_the_cells_of_unshared_ones() {
    let mut rng = Rng::seed_from_u64(0xae41_0005);
    let table = grouped_table(&mut rng, 400);
    let chunked = BuildOptions::optcols(PartitionSpec::new(&["k"], 60));
    let store = DataStore::build(&table, &chunked).unwrap();
    for filter in ["", " WHERE r < 40"] {
        let cells = |aggs: &str| {
            let sql = format!("SELECT k, {aggs} FROM data{filter} GROUP BY k ORDER BY k ASC");
            let analyzed = analyze(&parse_query(&sql).unwrap()).unwrap();
            run(&store, &analyzed).rows
        };
        // One query whose SUM, AVG and COUNT share two slots ...
        let shared = cells("SUM(x) sx, AVG(x) ax, COUNT(*) c, AVG(n) an, COUNT(n) cn");
        // ... against one query per aggregate, sharing nothing.
        for (at, agg) in
            ["SUM(x) v", "AVG(x) v", "COUNT(*) v", "AVG(n) v", "COUNT(n) v"].into_iter().enumerate()
        {
            let alone = cells(agg);
            assert_eq!(alone.len(), shared.len());
            for (a, s) in alone.iter().zip(&shared) {
                assert_eq!((&a.0[0], &a.0[1]), (&s.0[0], &s.0[at + 1]), "{agg}{filter}");
            }
        }
    }
}
