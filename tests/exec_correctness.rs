//! Executor correctness: the store must agree with the row oracle
//! (`pd_baselines::scan`, which shares no aggregation, lowering or ranking
//! with the engine) on every supported query shape, under every build
//! variant of the §3 ladder, on every `Elements` representation, with and
//! without the §6 result cache — row for row, floats bit for bit.

use pd_baselines::scan;
use pd_common::rng::Rng;
use pd_common::{DataType, Row, Schema, Value};
use pd_core::{
    execute, execute_partial, finalize, query, BuildOptions, DataStore, ExecContext, PartitionSpec,
    QueryResult, ResultCache, StoredColumn,
};
use pd_data::{generate_logs, LogsSpec, Table};
use pd_encoding::TableDelta;
use pd_sql::{analyze, parse_query};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Did the appends that made `after` move an id `before`'s dictionary had?
/// Merges only ever move ids up, so one moved iff an old id now holds
/// another value.
fn renumbered(before: &StoredColumn, after: &StoredColumn) -> bool {
    (0..before.dict.len()).any(|id| after.dict.value(id) != before.dict.value(id))
}

/// The row oracle's answer.
fn oracle(table: &Table, sql: &str) -> QueryResult {
    scan::query(table, sql).unwrap_or_else(|e| panic!("oracle: {sql}: {e}"))
}

/// The §3 ladder, every partitioned rung on `spec`; the last rung is
/// OptDicts over the table sorted by the partition fields.
fn variants(table: &Table, spec: PartitionSpec) -> Vec<(&'static str, DataStore)> {
    let fields: Vec<&str> = spec.fields.iter().map(String::as_str).collect();
    let sorted = table.sorted_by(&fields).unwrap();
    [
        ("basic", table, BuildOptions::basic()),
        ("chunks", table, BuildOptions::chunked(spec.clone())),
        ("optcols", table, BuildOptions::optcols(spec.clone())),
        ("optdicts", table, BuildOptions::optdicts(spec.clone())),
        ("reorder", &sorted, BuildOptions::optdicts(spec)),
    ]
    .into_iter()
    .map(|(name, table, options)| (name, DataStore::build(table, &options).unwrap()))
    .collect()
}

fn check(table: &Table, stores: &[(&str, DataStore)], sql: &str) {
    let expected = oracle(table, sql);
    let analyzed = analyze(&parse_query(sql).unwrap()).unwrap();
    for (name, store) in stores {
        let (result, stats) = execute(store, &analyzed, &ExecContext::default())
            .unwrap_or_else(|e| panic!("{name}: {sql}: {e}"));
        assert_eq!(
            result,
            expected,
            "variant {name} disagrees with the oracle on {sql}\nstats: {}",
            stats.summary()
        );
        assert_eq!(
            stats.rows_skipped + stats.rows_cached + stats.rows_scanned,
            stats.rows_total,
            "row accounting must balance for {name}: {sql}"
        );
    }
}

fn build_all(table: &Table) -> Vec<(&'static str, DataStore)> {
    variants(table, PartitionSpec::new(&["country", "table_name"], 300))
}

#[test]
fn paper_queries_match_oracle_on_all_variants() {
    let table = generate_logs(&LogsSpec::scaled(2_500));
    let stores = build_all(&table);
    for sql in [
        "SELECT country, COUNT(*) as c FROM data GROUP BY country ORDER BY c DESC LIMIT 10;",
        "SELECT date(timestamp) as date, COUNT(*), SUM(latency) FROM data GROUP BY date ORDER BY date ASC LIMIT 10;",
        "SELECT table_name, COUNT(*) as c FROM data GROUP BY table_name ORDER BY c DESC LIMIT 10;",
    ] {
        check(&table, &stores, sql);
    }
}

#[test]
fn filters_match_oracle() {
    let table = generate_logs(&LogsSpec::scaled(2_000));
    let stores = build_all(&table);
    for sql in [
        "SELECT country, COUNT(*) c FROM data WHERE country = 'DE' GROUP BY country",
        "SELECT country, COUNT(*) c FROM data WHERE country IN ('DE','FR','JP') GROUP BY country ORDER BY c DESC",
        "SELECT country, COUNT(*) c FROM data WHERE country NOT IN ('US') GROUP BY country ORDER BY c DESC LIMIT 5",
        "SELECT country, COUNT(*) c FROM data WHERE latency > 500.0 GROUP BY country ORDER BY c DESC",
        "SELECT country, COUNT(*) c FROM data WHERE country = 'US' AND latency > 500.0 GROUP BY country",
        "SELECT country, COUNT(*) c FROM data WHERE country = 'US' OR country = 'DE' GROUP BY country",
        "SELECT country, COUNT(*) c FROM data WHERE NOT (country = 'US' OR country = 'DE') GROUP BY country ORDER BY c DESC LIMIT 3",
        "SELECT country, COUNT(*) c FROM data WHERE country = 'ZZ' GROUP BY country",
        "SELECT country, COUNT(*) c FROM data WHERE date(timestamp) IN ('2011-10-01','2011-10-02') GROUP BY country",
        "SELECT country, SUM(latency) s FROM data WHERE user != 'user_00003' GROUP BY country ORDER BY s DESC LIMIT 4",
        "SELECT country, COUNT(*) c FROM data WHERE latency BETWEEN 100.0 AND 400.0 GROUP BY country ORDER BY c DESC",
        // Two-column leaves are evaluated once per tuple of codes — alone
        // (the whole chunk's tuples) and under an AND whose cheap sibling
        // narrows the evaluation scope.
        "SELECT country, COUNT(*) c FROM data WHERE latency > timestamp - 1317427000 GROUP BY country ORDER BY c DESC",
        "SELECT country, COUNT(*) c FROM data WHERE country = 'US' AND latency > timestamp - 1317427000 GROUP BY country",
        "SELECT country, COUNT(*) c FROM data WHERE NOT (latency > timestamp - 1317427000) AND country != 'DE' GROUP BY country ORDER BY c DESC LIMIT 5",
        "SELECT country, COUNT(*) c FROM data WHERE country = 'US' OR latency > timestamp - 1317427000 GROUP BY country ORDER BY c DESC",
        "SELECT country, COUNT(*) c FROM data WHERE country = 'ZZ' OR (latency > timestamp - 1317427000 AND country != 'FR') GROUP BY country ORDER BY c DESC LIMIT 5",
        "SELECT country, COUNT(*) c FROM data WHERE timestamp NOT BETWEEN 1317427200 AND 1318427200 GROUP BY country ORDER BY c DESC LIMIT 5",
    ] {
        check(&table, &stores, sql);
    }
}

#[test]
fn aggregates_match_oracle() {
    let table = generate_logs(&LogsSpec::scaled(1_500));
    let stores = build_all(&table);
    for sql in [
        "SELECT country, SUM(latency) FROM data GROUP BY country",
        "SELECT country, MIN(latency), MAX(latency) FROM data GROUP BY country",
        "SELECT country, AVG(latency) FROM data GROUP BY country",
        "SELECT country, SUM(timestamp) FROM data GROUP BY country",
        "SELECT country, MIN(table_name), MAX(user) FROM data GROUP BY country",
        "SELECT COUNT(*), SUM(latency), MIN(timestamp), MAX(timestamp) FROM data",
        "SELECT COUNT(*) FROM data WHERE country = 'ZZ'",
        "SELECT COUNT(latency) FROM data",
    ] {
        check(&table, &stores, sql);
    }
}

#[test]
fn multi_key_group_by_matches_oracle() {
    let table = generate_logs(&LogsSpec::scaled(1_500));
    let stores = build_all(&table);
    for sql in [
        "SELECT country, user, COUNT(*) c FROM data GROUP BY country, user ORDER BY c DESC LIMIT 20",
        // The widest pair of the logs: still at most 1 500 × 10 chunk
        // groups, inside the dense limit.
        "SELECT table_name, user, COUNT(*) c FROM data GROUP BY table_name, user ORDER BY c DESC LIMIT 20",
        "SELECT country, date(timestamp) d, COUNT(*), SUM(latency) FROM data GROUP BY country, d ORDER BY country ASC LIMIT 30",
    ] {
        check(&table, &stores, sql);
    }

    // Keys whose chunk-dictionary sizes multiply past what the dense path
    // takes (2^16), and past a `u64`, where the sparse path ranks a prefix
    // of the keys before packing the next. Every row's keys are a function
    // of `k`, so each group holds several rows, which `n` and `x` tell
    // apart.
    let schema = Schema::of(&[
        ("country", DataType::Str),
        ("table_name", DataType::Str),
        ("a", DataType::Str),
        ("b", DataType::Int),
        ("c", DataType::Str),
        ("d", DataType::Int),
        ("e", DataType::Float),
        ("n", DataType::Int),
        ("x", DataType::Float),
    ]);
    let keyed = |rows: usize, distinct: usize, chunk_rows: usize| {
        let mut table = Table::new(schema.clone());
        for r in 0..rows {
            let k = r % distinct;
            table
                .push_row(Row(vec![
                    Value::from(["DE", "US"][r / chunk_rows % 2]),
                    Value::from(["t0", "t1"][r / (2 * chunk_rows) % 2]),
                    Value::from(format!("a{k:05}")),
                    // Multipliers prime to `distinct`: bijections of `k`.
                    Value::Int((k * 97 % distinct) as i64),
                    Value::from(format!("c{:05}", k * 4_099 % distinct)),
                    Value::Int((k * 1_009 % distinct) as i64 - 4_000),
                    Value::Float(k as f64 * 0.5 + 0.25),
                    Value::Int((r * 7 % 50) as i64),
                    Value::Float((r % 13) as f64 * 0.25),
                ]))
                .unwrap();
        }
        table
    };
    let product = |store: &DataStore, keys: &[&str], c: usize| -> u128 {
        keys.iter().map(|k| store.column(k).unwrap().chunks[c].dict.len() as u128).product()
    };
    let aggs = "COUNT(*) cnt, SUM(n), SUM(x), AVG(x), MIN(n), MAX(x), MIN(table_name), \
                COUNT(DISTINCT n)";
    let filters =
        ["", " WHERE n > 20", " WHERE country = 'DE'", " WHERE n > 20 AND country = 'US'"];

    // Two keys over 280 values each, in chunks of 300 rows: 78 400 > 2^16.
    let pair = keyed(1_200, 280, 300);
    let stores = build_all(&pair);
    for (name, store) in &stores {
        let chunks = 0..store.chunk_count();
        assert!(chunks.into_iter().any(|c| product(store, &["a", "b"], c) > 1 << 16), "{name}");
    }
    for filter in filters {
        for select in ["COUNT(*) cnt", aggs] {
            let sql =
                format!("SELECT a, b, {select} FROM data{filter} GROUP BY a, b ORDER BY a, b");
            check(&pair, &stores, &sql);
        }
    }

    // Five keys over 8 400 values each in one chunk: 8 400^5 > u64::MAX.
    let five = keyed(16_800, 8_400, 1);
    let spec = PartitionSpec::new(&["country", "table_name"], five.len());
    let stores = variants(&five, spec);
    for (name, store) in &stores {
        assert_eq!(store.chunk_count(), 1, "{name}");
        assert!(product(store, &["a", "b", "c", "d", "e"], 0) > u128::from(u64::MAX), "{name}");
    }
    for filter in filters {
        let sql = format!(
            "SELECT a, b, c, d, e, {aggs} FROM data{filter} GROUP BY a, b, c, d, e ORDER BY cnt DESC, a ASC"
        );
        check(&five, &stores, &sql);
    }
}

/// A masked chunk's kernels walk only the rows its mask passes: masks that
/// pass exactly one row of a chunk, none of it, all but one, and about
/// 2 % of every chunk, under 0, 1 and 2 keys and every aggregate kind.
#[test]
fn selective_masks_match_oracle() {
    // `r` numbers the rows and `g` is `r mod 50`.
    let schema = Schema::of(&[
        ("country", DataType::Str),
        ("table_name", DataType::Str),
        ("user", DataType::Str),
        ("latency", DataType::Float),
        ("n", DataType::Int),
        ("r", DataType::Int),
        ("g", DataType::Int),
    ]);
    let rows = 3_000usize;
    let column = |cell: &dyn Fn(usize) -> Value| (0..rows).map(cell).collect::<Vec<_>>();
    let n = |r: usize| (r * 13 % 101) as i64 - 50;
    let table = Table::from_columns(
        schema,
        vec![
            column(&|r| Value::from(["DE", "US", "FR", "JP", "BR", "IN"][r * 5 % 6])),
            column(&|r| Value::from(format!("t{:02}", r * 7 % 40))),
            column(&|r| Value::from(format!("u{:02}", r * 11 % 12))),
            column(&|r| Value::Float((r % 97) as f64 * 0.5)),
            column(&|r| Value::Int(n(r))),
            column(&|r| Value::Int(r as i64)),
            column(&|r| Value::Int((r % 50) as i64)),
        ],
    )
    .unwrap();
    let stores = build_all(&table);
    // One row of a chunk, none of it, all but one, 2 % of every chunk.
    let filters = [
        "r = 777".to_owned(),
        format!("r = 777 AND n != {}", n(777)),
        "r != 777".to_owned(),
        "g = 7".to_owned(),
    ];

    // Row 777's chunk holds more rows than it, and the first two filters
    // scan that chunk alone: its mask passes one row, then none.
    for (name, store) in &stores {
        let r = store.column("r").unwrap();
        let (c, _) = (0..store.chunk_count())
            .flat_map(|c| (0..store.chunk_rows(c)).map(move |row| (c, row)))
            .find(|&(c, row)| r.value_at(c, row) == Value::Int(777))
            .unwrap();
        assert!(store.chunk_rows(c) > 1, "{name}");
        for filter in &filters[..2] {
            let sql = format!("SELECT COUNT(*), SUM(n) FROM data WHERE {filter}");
            let (_, stats) = query(store, &sql).unwrap();
            assert_eq!(stats.chunks_scanned, 1, "{name}: {filter}");
            assert_eq!(stats.rows_scanned, store.chunk_rows(c) as u64, "{name}: {filter}");
        }
    }

    let aggs = "COUNT(*) cnt, SUM(n), SUM(latency), AVG(latency), MIN(n), MAX(latency), \
                MIN(table_name), MAX(user), COUNT(DISTINCT n)";
    for keys in ["", "country", "country, user"] {
        for select in ["COUNT(*) cnt", aggs] {
            for filter in &filters {
                let sql = match keys {
                    "" => format!("SELECT {select} FROM data WHERE {filter}"),
                    _ => {
                        format!("SELECT {keys}, {select} FROM data WHERE {filter} GROUP BY {keys}")
                    }
                };
                check(&table, &stores, &sql);
            }
        }
    }
}

/// At the `i64` extremes `SUM` wraps and `AVG` is the exact sum rounded
/// once, in the store as in the oracle.
#[test]
fn integer_sums_wrap_and_averages_are_exact_like_the_oracle() {
    let schema = Schema::of(&[("k", DataType::Str), ("v", DataType::Int)]);
    let mut table = Table::new(schema);
    let extremes = [("a", i64::MAX), ("a", i64::MAX), ("b", i64::MIN), ("b", i64::MIN)];
    let small = (0..100).map(|i| (["a", "b", "c"][i % 3], i as i64));
    for (k, v) in small.chain(extremes) {
        table.push_row(Row(vec![Value::from(k), Value::Int(v)])).unwrap();
    }
    let sql = "SELECT k, SUM(v) s, AVG(v) a, COUNT(v) n FROM data GROUP BY k ORDER BY k ASC";
    let stores = variants(&table, PartitionSpec::new(&["k"], 30));
    check(&table, &stores, sql);
}

#[test]
fn having_matches_oracle() {
    let table = generate_logs(&LogsSpec::scaled(1_500));
    let stores = build_all(&table);
    for sql in [
        "SELECT country, COUNT(*) as c FROM data GROUP BY country HAVING c > 50 ORDER BY c DESC",
        "SELECT country, COUNT(*) as c FROM data GROUP BY country HAVING COUNT(*) > 50 AND country != 'US' ORDER BY c DESC",
    ] {
        check(&table, &stores, sql);
    }
}

#[test]
fn single_key_count_beyond_dense_limit_is_exact() {
    // A single chunk whose key dictionary exceeds the dense-group limit
    // (2^16): its codes are not its groups, the rows' codes are ranked by
    // a sort, and the counts must still be exact.
    let distinct = 70_000i64;
    let schema = Schema::of(&[("id", DataType::Int)]);
    let mut t = pd_data::Table::new(schema);
    for i in 0..distinct {
        t.push_row(Row(vec![Value::Int(i)])).unwrap();
        if i % 7 == 0 {
            t.push_row(Row(vec![Value::Int(i)])).unwrap(); // every 7th id twice
        }
    }
    let store = DataStore::build(&t, &BuildOptions::basic()).unwrap();
    let (result, stats) = query(
        &store,
        "SELECT id, COUNT(*) c FROM data GROUP BY id ORDER BY c DESC, id ASC LIMIT 3",
    )
    .unwrap();
    assert_eq!(result.rows[0].0, vec![Value::Int(0), Value::Int(2)]);
    assert_eq!(result.rows[1].0, vec![Value::Int(7), Value::Int(2)]);
    assert_eq!(result.rows[2].0, vec![Value::Int(14), Value::Int(2)]);
    assert_eq!(stats.rows_scanned, t.len() as u64);
}

#[test]
fn count_distinct_is_exact_below_sketch_size() {
    let table = generate_logs(&LogsSpec::scaled(2_000));
    let store = DataStore::build(&table, &BuildOptions::basic()).unwrap();
    let sql =
        "SELECT country, COUNT(DISTINCT user) FROM data GROUP BY country ORDER BY country ASC";
    // With m larger than any group's distinct count the sketch is exact.
    let (result, _) = query(&store, sql).unwrap();
    assert_eq!(result, oracle(&table, sql));
}

#[test]
fn count_distinct_is_close_above_sketch_size() {
    let table = generate_logs(&LogsSpec::scaled(5_000));
    let store = DataStore::build(&table, &BuildOptions::basic()).unwrap();
    let analyzed =
        analyze(&parse_query("SELECT COUNT(DISTINCT table_name) FROM data").unwrap()).unwrap();
    let ctx = ExecContext { sketch_m: 256, ..Default::default() };
    let (result, _) = execute(&store, &analyzed, &ctx).unwrap();
    let exact = oracle(&table, "SELECT COUNT(DISTINCT table_name) FROM data").rows[0].0[0]
        .as_int()
        .unwrap() as f64;
    let est = result.rows[0].0[0].as_int().unwrap() as f64;
    let err = (est - exact).abs() / exact;
    assert!(err < 0.2, "estimate {est} vs exact {exact} (err {err:.3})");
}

#[test]
fn result_cache_preserves_results_and_hits() {
    let table = generate_logs(&LogsSpec::scaled(2_000));
    let store = DataStore::build(
        &table,
        &BuildOptions::optdicts(PartitionSpec::new(&["country", "table_name"], 300)),
    )
    .unwrap();
    let sql = "SELECT country, COUNT(*) as c FROM data WHERE country IN ('US','DE') GROUP BY country ORDER BY c DESC";
    let analyzed = analyze(&parse_query(sql).unwrap()).unwrap();

    let cache = Arc::new(ResultCache::new(1024));
    let ctx = ExecContext { result_cache: Some(cache.clone()), ..Default::default() };

    let (first, stats1) = execute(&store, &analyzed, &ctx).unwrap();
    let (second, stats2) = execute(&store, &analyzed, &ctx).unwrap();
    assert_eq!(first, second, "cache must not change results");
    assert_eq!(stats1.rows_cached, 0, "first run computes");
    assert!(stats2.rows_cached > 0, "second run hits the chunk-result cache");
    assert_eq!(stats2.rows_scanned + stats2.rows_cached + stats2.rows_skipped, stats2.rows_total);
    // And the result still matches the oracle.
    assert_eq!(second, oracle(&table, sql));
}

/// The drill dashboard of the repo's benchmark: 20 charts over four
/// dimensions (one of them an expression) and three global aggregates.
fn drill_charts(where_clause: &str) -> Vec<String> {
    let by_dim = [
        ("country", "COUNT(*) as c", "c DESC"),
        ("country", "COUNT(*) as c", "c ASC"),
        ("country", "COUNT(*) as c, SUM(latency) as s", "s DESC"),
        ("country", "COUNT(*) as c, AVG(latency) as a", "a DESC"),
        ("country", "MIN(latency) as mn, MAX(latency) as mx", "mx DESC"),
        ("country", "COUNT(DISTINCT user) as u", "u DESC"),
        ("table_name", "COUNT(*) as c", "c DESC"),
        ("table_name", "COUNT(*) as c", "c ASC"),
        ("table_name", "COUNT(*) as c, SUM(latency) as s", "s DESC"),
        ("user", "COUNT(*) as c", "c DESC"),
        ("user", "COUNT(*) as c", "c ASC"),
        ("user", "COUNT(*) as c, AVG(latency) as a", "a DESC"),
        ("user", "COUNT(*) as c, MAX(latency) as mx", "mx DESC"),
        ("date(timestamp)", "COUNT(*) as c", "c DESC"),
        ("date(timestamp)", "COUNT(*) as c", "k ASC"),
        ("date(timestamp)", "COUNT(*) as c, SUM(latency) as s", "s DESC"),
        ("date(timestamp)", "COUNT(*) as c, AVG(latency) as a", "a DESC"),
    ];
    let global = [
        "COUNT(*) as c, SUM(latency) as s, MIN(latency) as mn, MAX(latency) as mx",
        "COUNT(*) as c, AVG(latency) as a",
        "COUNT(DISTINCT table_name) as t",
    ];
    let grouped = by_dim.iter().map(|(dim, aggs, order)| {
        format!(
            "SELECT {dim} as k, {aggs} FROM logs{where_clause} GROUP BY {dim} \
             ORDER BY {order} LIMIT 10"
        )
    });
    grouped
        .chain(global.iter().map(|aggs| format!("SELECT {aggs} FROM logs{where_clause}")))
        .collect()
}

#[test]
fn kept_caches_across_appends_match_a_rebuild() {
    // One store takes 20 appends in place; two contexts — execute, and
    // finalize ∘ execute_partial — each keep one chunk-result cache across
    // all of them, never cleared. After every
    // append each must answer like a cacheless context on a store rebuilt
    // from the same rows, bit for bit.
    let table = generate_logs(&LogsSpec::scaled(3_000));
    let user = |r: usize| table.column(4)[r].as_str().unwrap().to_owned();
    let held_back = |r: &usize| {
        !(750..2_750).contains(r) || ["user_00003", "user_00007"].contains(&user(*r).as_str())
    };
    let (rest, mut served): (Vec<usize>, Vec<usize>) = (0..table.len()).partition(held_back);
    // Rows arrive alternately from the oldest and the newest left, so the
    // new dates sort before *and* after the resident ones: a date
    // dictionary rebuilt from scratch would renumber the old dates.
    let (mut oldest, mut newest) = (rest.iter(), rest.iter().rev());
    let arrivals: Vec<usize> = (0..rest.len())
        .map(|i| *if i % 2 == 0 { oldest.next() } else { newest.next() }.unwrap())
        .collect();

    let fields = ["country", "table_name"];
    let options = BuildOptions::optdicts(PartitionSpec::new(&fields, 250));
    let sorted = |rows: &[usize]| table.select_rows(rows).sorted_by(&fields).unwrap();
    let mut store = DataStore::build(&sorted(&served), &options).unwrap();
    let contexts: Vec<(bool, ExecContext)> = [false, true]
        .map(|via_partial| {
            let result_cache = Some(Arc::new(ResultCache::new(1 << 14)));
            (via_partial, ExecContext { threads: 1, result_cache, ..Default::default() })
        })
        .into();
    let answer = |store: &DataStore, sql: &str, via_partial: bool, ctx: &ExecContext| {
        let analyzed = analyze(&parse_query(sql).unwrap()).unwrap();
        if via_partial {
            let (partial, stats) = execute_partial(store, &analyzed, ctx).unwrap();
            (finalize(&analyzed, partial).unwrap(), stats)
        } else {
            execute(store, &analyzed, ctx).unwrap()
        }
    };

    let mut queries = drill_charts("");
    for restriction in [
        " WHERE country = 'DE'",
        " WHERE user = 'user_00003'",
        " WHERE date(timestamp) IN ('2011-10-01', '2011-12-30')",
    ] {
        queries.extend(drill_charts(restriction).into_iter().step_by(3));
    }
    // Warm every cache before the first append.
    for (via_partial, ctx) in &contexts {
        for sql in &queries {
            answer(&store, sql, *via_partial, ctx);
        }
    }
    let date = parse_query("SELECT COUNT(*) FROM logs GROUP BY date(timestamp)").unwrap();
    let before = [store.column("user").unwrap(), store.column_for_expr(&date.group_by[0]).unwrap()];

    let batch = arrivals.len().div_ceil(20);
    for (round, rows) in arrivals.chunks(batch).enumerate() {
        let delta = table.select_rows(rows);
        let columns: Vec<&[Value]> = (0..delta.schema().len()).map(|i| delta.column(i)).collect();
        let delta = pd_encoding::TableDelta::from_columns(delta.schema().clone(), &columns);
        store.append_delta(&delta.unwrap()).unwrap();
        served.extend(rows);
        let rebuilt = DataStore::build(&sorted(&served), &options).unwrap();

        for (i, sql) in queries.iter().enumerate() {
            let (want, _) = answer(&rebuilt, sql, false, &ExecContext::default());
            for (via_partial, ctx) in &contexts {
                let label = format!("round {round}, via partial {via_partial}: {sql}");
                let (got, stats) = answer(&store, sql, *via_partial, ctx);
                assert_eq!(got, want, "{label}");
                assert_eq!(
                    stats.rows_skipped + stats.rows_cached + stats.rows_scanned,
                    stats.rows_total,
                    "{label}"
                );
                if i < 20 {
                    // Unrestricted: every old chunk answers from the cache
                    // it filled before the append; at most the delta is
                    // read (an ORDER BY twin finds that cached too).
                    let old_rows = (served.len() - rows.len()) as u64;
                    assert!(stats.rows_cached >= old_rows, "{label}: {}", stats.summary());
                }
            }
        }
    }
    assert_eq!(served.len(), table.len());
    // The appends renumbered a base dictionary's old ids and a virtual
    // field's.
    assert!(renumbered(&before[0], &store.column("user").unwrap()));
    assert!(renumbered(&before[1], &store.column_for_expr(&date.group_by[0]).unwrap()));
}

#[test]
fn skipping_statistics_reflect_selectivity() {
    let table = generate_logs(&LogsSpec::scaled(4_000));
    let store = DataStore::build(
        &table,
        &BuildOptions::optdicts(PartitionSpec::new(&["country", "table_name"], 200)),
    )
    .unwrap();
    // A single-country restriction must skip most chunks.
    let (_, stats) =
        query(&store, "SELECT country, COUNT(*) FROM data WHERE country = 'JP' GROUP BY country")
            .unwrap();
    assert!(
        stats.skipped_fraction() > 0.5,
        "most rows skipped for a selective query: {}",
        stats.summary()
    );
    // An unrestricted query skips nothing.
    let (_, stats) = query(&store, "SELECT country, COUNT(*) FROM data GROUP BY country").unwrap();
    assert_eq!(stats.rows_skipped, 0);
}

#[test]
fn empty_group_results() {
    let table = generate_logs(&LogsSpec::scaled(500));
    let store = DataStore::build(&table, &BuildOptions::basic()).unwrap();
    // Global aggregation over empty selection yields one row of empties.
    let (result, _) =
        query(&store, "SELECT COUNT(*), SUM(latency) FROM data WHERE country = 'ZZ'").unwrap();
    assert_eq!(result.rows.len(), 1);
    assert_eq!(result.rows[0].0[0], Value::Int(0));
    assert_eq!(result.rows[0].0[1], Value::Null);
    // Grouped aggregation over empty selection yields zero rows.
    let (result, _) =
        query(&store, "SELECT country, COUNT(*) FROM data WHERE country = 'ZZ' GROUP BY country")
            .unwrap();
    assert!(result.rows.is_empty());
}

#[test]
fn errors_are_reported_not_panicked() {
    let table = generate_logs(&LogsSpec::scaled(200));
    let store = DataStore::build(&table, &BuildOptions::basic()).unwrap();
    assert!(query(&store, "SELECT nope, COUNT(*) FROM data GROUP BY nope").is_err());
    assert!(query(&store, "SELECT country, SUM(table_name) FROM data GROUP BY country").is_err());
    assert!(query(&store, "SELECT country FROM data").is_err());
    assert!(query(&store, "totally not sql").is_err());
}

/// A `SUM` or `AVG` of a string column is refused by the column's type —
/// by the row oracle as by the engine, which refuses it when it plans —
/// whether or not a row reaches it: the first two restrictions match no
/// row, so no value is ever summed.
#[test]
fn a_sum_over_a_string_column_is_refused_even_when_no_row_matches() {
    let table = generate_logs(&LogsSpec::scaled(200));
    let store = DataStore::build(&table, &BuildOptions::basic()).unwrap();
    for sql in [
        "SELECT SUM(country) s FROM data WHERE country = 'nowhere'",
        "SELECT table_name, AVG(user) a FROM data WHERE latency < -1.0 GROUP BY table_name",
        "SELECT SUM(country) s FROM data",
    ] {
        let refused = scan::query(&table, sql).unwrap_err();
        assert!(matches!(refused, pd_common::Error::Type(_)), "oracle: {sql}: {refused}");
        let refused = query(&store, sql).unwrap_err();
        assert!(matches!(refused, pd_common::Error::Type(_)), "store: {sql}: {refused}");
    }
    // Over a numeric column the same empty restriction is an answer: NULL.
    let sql = "SELECT SUM(latency) s FROM data WHERE country = 'nowhere'";
    let answer = oracle(&table, sql);
    assert_eq!(answer.rows, vec![Row(vec![Value::Null])]);
    assert_eq!(query(&store, sql).unwrap().0, answer);
}

#[test]
fn render_produces_readable_table() {
    let table = generate_logs(&LogsSpec::scaled(300));
    let store = DataStore::build(&table, &BuildOptions::basic()).unwrap();
    let (result, _) = query(
        &store,
        "SELECT country, COUNT(*) as c FROM data GROUP BY country ORDER BY c DESC LIMIT 3",
    )
    .unwrap();
    let text = result.render();
    assert!(text.contains("country"));
    assert!(text.lines().count() >= 4);
}

/// The chunk kernels' cheap paths against the row oracle: the finalized
/// rows of each query's partial are the oracle's — counts, exact sums, the
/// least and greatest value, exact distinct counts (every group holds
/// fewer distinct values than the sketch keeps). Covered:
/// id-range pairs on one column (overlapping, nested, disjoint, equal
/// bounds, both bounds on one side, under `AND`, `OR` and `NOT`), on
/// `date(ts)`, and across two columns, drawn at random besides; MIN/MAX by
/// 0, 1 and 2 keys, unmasked and masked, over dictionaries as built and
/// as an append renumbered them; COUNT DISTINCT with groups × chunk-dictionary entries under
/// and over four times the rows visited; one-key masks that leave most of
/// a chunk's key ids unused.
#[test]
fn cheap_kernel_paths_match_the_row_oracle() {
    let schema = Schema::of(&[
        ("k", DataType::Str),
        ("j", DataType::Int),
        ("t", DataType::Int),
        ("ts", DataType::Int),
        ("x", DataType::Float),
        ("s", DataType::Str),
        ("u", DataType::Str),
        ("i", DataType::Int),
    ]);
    const ROWS: usize = 3_000;
    const DAY0: i64 = 1_325_376_000; // 2012-01-01
                                     // Rows from `ROWS` on hold `t`, `x` and `s` values below and above every
                                     // base value (and `i` values above), so an append renumbers old ids.
    let row = |r: usize| {
        let fresh = r >= ROWS;
        let below = fresh && r.is_multiple_of(2);
        vec![
            Value::from(["red", "green", "blue", "grey"][r % 4]),
            Value::Int((r * 5 % 7) as i64),
            Value::Int(match (fresh, below) {
                (false, _) => (r * 37 % 100) as i64,
                (true, true) => -((r % 9) as i64) - 1,
                (true, false) => 100 + (r % 9) as i64,
            }),
            Value::Int(DAY0 + (r * 977) as i64),
            Value::Float(match (fresh, below, r % 5) {
                (false, _, 0) => [-0.0, 0.0, f64::NAN][r / 5 % 3],
                (false, _, _) => (r % 61) as f64 * 0.25,
                (true, true, _) => -1e4 - r as f64,
                (true, false, _) => 1e4 + r as f64,
            }),
            Value::from(match below {
                true => format!("a{:03}", r % 50),
                false => format!("s{:03}", r * 17 % 211 + fresh as usize * 500),
            }),
            Value::from(format!("u{}", r * 3 % 10)),
            // Distinct on every base row: 4 099 is invertible mod 5 003.
            Value::Int((r * 4_099 % 5_003) as i64 + fresh as i64 * 10_000),
        ]
    };
    let columns = |rows: std::ops::Range<usize>| -> Vec<Vec<Value>> {
        (0..8).map(|c| rows.clone().map(|r| row(r).swap_remove(c)).collect()).collect()
    };
    let table = Table::from_columns(schema.clone(), columns(0..ROWS)).unwrap();
    let all = Table::from_columns(schema.clone(), columns(0..ROWS + 240)).unwrap();
    let tail = columns(ROWS..ROWS + 240);
    let slices: Vec<&[Value]> = tail.iter().map(Vec::as_slice).collect();
    let delta = TableDelta::from_columns(schema, &slices).unwrap();
    let options = BuildOptions::optcols(PartitionSpec::new(&["k"], 400));
    let sorted = DataStore::build(&table, &options).unwrap();
    let mut tailed = DataStore::build(&table, &options).unwrap();
    tailed.append_delta(&delta).unwrap();
    for col in ["t", "x", "s"] {
        let (before, after) = (sorted.column(col).unwrap(), tailed.column(col).unwrap());
        assert!(renumbered(&before, &after), "{col}");
    }
    // COUNT(DISTINCT u) is dense everywhere; by `k, j`, COUNT(DISTINCT i)
    // outgrows four times the rows of some unmasked chunk.
    let entries = |name: &str, c: usize| sorted.column(name).unwrap().chunks[c].dict.len() as usize;
    assert!((0..sorted.chunk_count())
        .any(|c| entries("j", c) * entries("i", c) > (4 * sorted.chunk_rows(c)).max(1024)));

    let day = |d: i64| format!("'2012-01-{d:02}'");
    let mut filters: Vec<String> = [
        "",
        "t >= 20 AND t < 60",
        "t > 10 AND t < 90 AND t >= 30 AND t <= 40",
        "t < 20 AND t > 60",
        "t >= 30 AND t <= 30",
        "t >= 30 AND t < 30",
        "t >= 25 AND t >= 70",
        "t <= 80 AND t < 45 AND j != 3",
        "t < 20 OR t > 60",
        "NOT (t >= 20 AND t < 60)",
        "t >= 20 AND i < 2500 AND t < 70 AND i >= 400",
        "t < 10",
        "k != 'red'",
    ]
    .map(str::to_owned)
    .into();
    filters.push(format!("date(ts) >= {} AND date(ts) < {}", day(5), day(12)));
    filters.push(format!("ts >= {} AND t < 50 AND ts < {}", DAY0 + 400_000, DAY0 + 2_000_000));
    // Random pairs and triples of bounds over one column or two.
    let mut rng = Rng::seed_from_u64(0xc04e_0047);
    for _ in 0..16 {
        let conjuncts: Vec<String> = (0..rng.range_usize(2, 4))
            .map(|_| {
                let op = *rng.pick(&["<", "<=", ">", ">="]);
                match rng.range_usize(0, 4) {
                    0 | 1 => format!("t {op} {}", rng.range_i64_inclusive(-5, 105)),
                    2 => format!("date(ts) {op} {}", day(rng.range_i64_inclusive(1, 31))),
                    _ => format!("i {op} {}", rng.range_i64_inclusive(0, 5_100)),
                }
            })
            .collect();
        filters.push(conjuncts.join(" AND "));
    }

    let aggs = "COUNT(*), SUM(t), SUM(x), MIN(x), MAX(x), MIN(s), MAX(s), \
                COUNT(DISTINCT u), COUNT(DISTINCT i)";
    const M: usize = 4_096;
    for (label, store, rows) in [("sorted", &sorted, &table), ("tailed", &tailed, &all)] {
        for keys in ["", "j", "s", "k, j"] {
            for filter in &filters {
                let select = if keys.is_empty() { String::new() } else { format!("{keys}, ") };
                let where_sql =
                    if filter.is_empty() { String::new() } else { format!(" WHERE {filter}") };
                let group_by =
                    if keys.is_empty() { String::new() } else { format!(" GROUP BY {keys}") };
                let sql = format!("SELECT {select}{aggs} FROM t{where_sql}{group_by}");
                let analyzed = analyze(&parse_query(&sql).unwrap()).unwrap();

                let ctx = ExecContext { sketch_m: M, ..Default::default() };
                let got = execute_partial(store, &analyzed, &ctx).unwrap().0;
                let got = finalize(&analyzed, got).unwrap();
                assert_eq!(got, oracle(rows, &sql), "{label}: {sql}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Sums that round, on every `Elements` representation
// ---------------------------------------------------------------------------

/// Adversarial float palette: the values whose sums distinguish an exact
/// accumulator from a naive one (and a bit-exact fold from an approximate
/// one).
const SPECIALS: [f64; 10] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    0.0,
    -0.0,
    5e-324, // smallest positive subnormal
    -5e-324,
    f64::MIN_POSITIVE, // smallest positive normal
    1e308,             // large: two of these overflow f64
    -1e308,
];

fn random_float(rng: &mut Rng, specials: bool) -> f64 {
    if specials && rng.chance(0.25) {
        return SPECIALS[rng.range_usize(0, SPECIALS.len())];
    }
    // A wide but finite spread, signed, with exact-decimal cases mixed in:
    // the middle draw's sums round, so a double-double slot that drops a
    // bit of its pair shows.
    match rng.range_usize(0, 3) {
        0 => rng.range_i64_inclusive(-1_000, 1_000) as f64 * 0.25,
        1 => (rng.next_f64() - 0.5) * 1e6,
        _ => rng.next_f64() * 1e-3,
    }
}

/// A float column on one binary grid, drawn so that its store sums it with
/// plain adds — or, `past` its bound, one binade too wide for that.
#[derive(Debug, Clone, Copy)]
enum OnGrid {
    /// Integers (`k` = 0) or multiples of 2^-k, and ±0.0.
    Multiples(i32),
    /// Multiples of the smallest subnormal, 2^-1074, and ±0.0.
    Subnormal,
    /// 256 rows of multiples of 2^e up to 2^(e+45), so that rows × max sits
    /// at exactly 2^(e+53), most of them odd multiples near the max, so
    /// that a plain sum past 53 bits rounds; `past`: up to 2^(e+46), one
    /// binade past the bound.
    AtBound { e: i32, past: bool },
}

impl OnGrid {
    /// How many rows a table of this kind has.
    fn rows(self, rng: &mut Rng) -> usize {
        match self {
            OnGrid::AtBound { .. } => 256,
            _ => rng.range_usize(1, 500),
        }
    }

    /// The value of `row`.
    fn value(self, rng: &mut Rng, row: usize) -> f64 {
        let small = |rng: &mut Rng| rng.range_i64_inclusive(-1_000, 1_000) as f64;
        let zero = |rng: &mut Rng| *rng.pick(&[0.0, -0.0]);
        match self {
            OnGrid::Multiples(_) if rng.chance(0.1) => zero(rng),
            OnGrid::Multiples(k) => small(rng) * exact_pow2(-k),
            OnGrid::Subnormal if rng.chance(0.1) => zero(rng),
            OnGrid::Subnormal => small(rng) * f64::from_bits(1),
            OnGrid::AtBound { e, past } => {
                let unit = exact_pow2(e);
                let max = exact_pow2(e + 45 + i32::from(past));
                match (row, rng.range_usize(0, 10)) {
                    // The grid's finest value, and its max.
                    (0, _) => unit,
                    (1, _) => max,
                    (_, 0..=5) => max - unit,
                    (_, 6 | 7) => max,
                    (_, 8) => small(rng) * unit,
                    _ => -max,
                }
            }
        }
    }
}

/// 2^e for any exponent a finite `f64` has, subnormal ones too.
fn exact_pow2(e: i32) -> f64 {
    if e >= -1022 {
        2f64.powi(e)
    } else {
        f64::from_bits(1 << (e + 1074))
    }
}

/// A random table whose `k` column is built to land on the requested
/// dictionary cardinality (and therefore `Elements` representation once
/// encoded): 1 → const, 2 → bitset, ≤256 → u8 codes, ≤65536 → u16, else
/// u32.
fn random_float_table(rng: &mut Rng, key_card: usize, rows: usize, specials: bool) -> Table {
    float_table(rng, key_card, rows, |rng, _| random_float(rng, specials))
}

/// [`random_float_table`] with `x(rng, row)` as row `row`'s float.
fn float_table(
    rng: &mut Rng,
    key_card: usize,
    rows: usize,
    mut x: impl FnMut(&mut Rng, usize) -> f64,
) -> Table {
    let schema = Schema::of(&[
        ("k", DataType::Str),
        ("n", DataType::Int),
        ("x", DataType::Float),
        ("r", DataType::Int),
    ]);
    let mut table = Table::new(schema);
    for row in 0..rows {
        table
            .push_row(Row(vec![
                Value::from(format!("k{:05}", rng.range_usize(0, key_card))),
                Value::Int(rng.range_i64_inclusive(i64::MIN / 4, i64::MAX / 4)),
                Value::Float(x(rng, row)),
                Value::Int(rng.range_i64_inclusive(0, 99)),
            ]))
            .unwrap();
    }
    table
}

fn float_queries(rng: &mut Rng) -> Vec<String> {
    // A random mask: the `r` column is uniform 0..100, so the threshold is
    // a random selectivity — including empty and all-pass masks.
    let t = rng.range_i64_inclusive(-5, 105);
    vec![
        "SELECT k, COUNT(*) c, SUM(n) s, SUM(x) f, AVG(x) a FROM data GROUP BY k".into(),
        "SELECT COUNT(*) c, SUM(n) s, SUM(x) f, AVG(x) a FROM data".into(),
        format!("SELECT k, COUNT(*) c, SUM(x) f FROM data WHERE r < {t} GROUP BY k"),
        format!("SELECT COUNT(*) c, SUM(x) f, AVG(x) a FROM data WHERE r < {t}"),
    ]
}

/// `table`'s store under `options` answers every query of `sqls` as the
/// row oracle does, floats bit for bit, at 1 and 2 threads (a scan of
/// 32 768 rows or more runs on both).
fn assert_matches_oracle(table: &Table, options: &BuildOptions, sqls: &[String], label: &str) {
    let store = DataStore::build(table, options).unwrap();
    for sql in sqls {
        let analyzed = analyze(&parse_query(sql).unwrap()).unwrap();
        let want = oracle(table, sql);
        for threads in [1, 2] {
            let (got, _) =
                execute(&store, &analyzed, &ExecContext { threads, ..Default::default() }).unwrap();
            assert_eq!(got, want, "{label}, {threads} threads: {sql}");
        }
    }
}

/// Does `table`'s store under `options` sum its float column `x` with
/// plain adds?
fn on_grid(table: &Table, options: &BuildOptions) -> bool {
    let store = DataStore::build(table, options).unwrap();
    store.column("x").unwrap().sums_exactly(store.n_rows() as u64)
}

/// Float sums whose every add may round, NaN, ±inf, ±0.0 and subnormals,
/// over key columns on the const, bit-set, u8 and u16 representations,
/// unmasked and under random masks, on an unsorted one-chunk build and on
/// a sorted, partitioned one: the kernels' double-double slots must
/// finalize to the oracle's correctly rounded sums. Then the same over
/// columns on one binary grid ([`OnGrid`]), which the kernels and the fold
/// sum with plain adds — integers, multiples of 2^-k, ±0.0 and subnormal
/// multiples, and rows × max at exactly the grid's bound —, and over one
/// binade past that bound, which they sum as pairs; and one grid table of
/// 40 000 rows, which two threads scan.
#[test]
fn float_sums_match_the_row_oracle_on_every_representation() {
    let mut rng = Rng::seed_from_u64(0xae41_0001);
    // Key cardinalities chosen to land on const (1), bitset (2), u8 codes
    // (≤256) and u16 codes (>256) chunk dictionaries.
    for key_card in [1usize, 2, 60, 300] {
        for case in 0..6 {
            let rows = rng.range_usize(1, 500);
            let specials = case % 2 == 0;
            let table = random_float_table(&mut rng, key_card, rows, specials);
            let sqls = float_queries(&mut rng);
            let sorted = table.sorted_by(&["k"]).unwrap();
            for (table, options) in [
                (&table, BuildOptions::basic()),
                (&sorted, BuildOptions::optdicts(PartitionSpec::new(&["k"], 8))),
            ] {
                let label = format!("key_card={key_card} case={case} rows={rows} {options:?}");
                assert_matches_oracle(table, &options, &sqls, &label);
            }
        }
        let e = *rng.pick(&[0, -7, -1074, 900]);
        for grid in [
            OnGrid::Multiples(0),
            OnGrid::Multiples(3),
            OnGrid::Multiples(60),
            OnGrid::Subnormal,
            OnGrid::AtBound { e, past: false },
            OnGrid::AtBound { e, past: true },
        ] {
            let rows = grid.rows(&mut rng);
            let table = float_table(&mut rng, key_card, rows, |rng, row| grid.value(rng, row));
            let sqls = float_queries(&mut rng);
            let sorted = table.sorted_by(&["k"]).unwrap();
            for (table, options) in [
                (&table, BuildOptions::basic()),
                (&sorted, BuildOptions::optdicts(PartitionSpec::new(&["k"], 8))),
            ] {
                let label = format!("key_card={key_card} {grid:?} rows={rows} {options:?}");
                let past = matches!(grid, OnGrid::AtBound { past: true, .. });
                assert_eq!(on_grid(table, &options), !past, "{label}: the path the case is for");
                assert_matches_oracle(table, &options, &sqls, &label);
            }
        }
    }
    let grid = OnGrid::Multiples(2);
    let table = float_table(&mut rng, 60, 40_000, |rng, row| grid.value(rng, row));
    let options = BuildOptions::optdicts(PartitionSpec::new(&["k"], 2_000));
    assert!(on_grid(&table, &options));
    assert_matches_oracle(&table, &options, &float_queries(&mut rng), "40 000 rows on a grid");
}

#[test]
fn u32_codes_match_the_row_oracle() {
    // > 65536 distinct values in one chunk forces u32 codes. The wide
    // column is the *aggregate argument* (distinct ints and floats), so
    // the output stays one group per `k` while the scanned representation
    // is the widest one.
    let mut rng = Rng::seed_from_u64(0xae41_0002);
    let rows = 70_000;
    let schema = Schema::of(&[
        ("k", DataType::Str),
        ("n", DataType::Int),
        ("x", DataType::Float),
        ("r", DataType::Int),
    ]);
    let mut table = Table::new(schema);
    for i in 0..rows {
        table
            .push_row(Row(vec![
                Value::from(["red", "green", "blue"][rng.range_usize(0, 3)]),
                Value::Int(i as i64 * 1_000_003), // all distinct
                Value::Float(if rng.chance(0.001) {
                    SPECIALS[rng.range_usize(0, SPECIALS.len())]
                } else {
                    i as f64 * 1.000_000_1 // essentially all distinct
                }),
                Value::Int(rng.range_i64_inclusive(0, 99)),
            ]))
            .unwrap();
    }
    let sqls = float_queries(&mut rng);
    assert_matches_oracle(&table, &BuildOptions::basic(), &sqls, "u32-arg");
}

#[test]
fn sums_of_specials_alone_match_the_row_oracle() {
    // Degenerate columns made *only* of adversarial values: every group's
    // sum is NaN/inf/±0.0-sensitive, so a kernel that mishandled a
    // special would flip a bit here.
    let mut rng = Rng::seed_from_u64(0xae41_0003);
    for _ in 0..8 {
        let rows = rng.range_usize(1, 200);
        let schema = Schema::of(&[
            ("k", DataType::Str),
            ("n", DataType::Int),
            ("x", DataType::Float),
            ("r", DataType::Int),
        ]);
        let mut table = Table::new(schema);
        for _ in 0..rows {
            table
                .push_row(Row(vec![
                    Value::from(["a", "b"][rng.range_usize(0, 2)]),
                    Value::Int(rng.range_i64_inclusive(-3, 3)),
                    Value::Float(SPECIALS[rng.range_usize(0, SPECIALS.len())]),
                    Value::Int(rng.range_i64_inclusive(0, 99)),
                ]))
                .unwrap();
        }
        let sqls = float_queries(&mut rng);
        let sorted = table.sorted_by(&["k"]).unwrap();
        for (table, options) in [
            (&table, BuildOptions::basic()),
            (&sorted, BuildOptions::optdicts(PartitionSpec::new(&["k"], 4))),
        ] {
            assert_matches_oracle(table, &options, &sqls, "specials-only");
        }
    }
}

// ---------------------------------------------------------------------------
// One group's lanes
// ---------------------------------------------------------------------------

/// A chunk of one group deals its rows out to a few independent lanes
/// (sums, extremes) and merges them once at the end; the row oracle must
/// not see the lanes. Keyless charts and charts by a key that is constant
/// on every chunk of a sorted build partitioned by it, over chunks of 1–9
/// rows so that every lane remainder occurs; each table holds one value
/// that taints the double-double pair of its lane — NaN, ±∞ or ±2⁶⁰ beside
/// values down to 2⁻⁶⁰ — at rows of every residue modulo four across the
/// cases, so that one lane taints while its neighbours stay pairs;
/// unmasked and under random masks, on the basic build (one chunk) and on
/// the sorted, partitioned one. Each case's blocks also hold a column on
/// one binary grid ([`OnGrid`]), whose lanes add plainly.
#[test]
fn lane_sums_and_extremes_match_the_row_oracle() {
    let schema = Schema::of(&[
        ("k", DataType::Str),
        ("x", DataType::Float),
        ("n", DataType::Int),
        ("r", DataType::Int),
    ]);
    let tainting = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 2f64.powi(60), -(2f64.powi(60))];
    let mut rng = Rng::seed_from_u64(0x1a4e_0062);
    for case in 0..160 {
        // Blocks of one key value each, 1–9 rows long: the partitioned
        // build cuts each into chunks of its own.
        let blocks: Vec<usize> =
            (0..rng.range_usize(1, 5)).map(|_| rng.range_usize(1, 10)).collect();
        // The tainting row: `case` modulo four places it on every lane in
        // turn, counted from the start of its block.
        let block = rng.range_usize(0, blocks.len());
        let start: usize = blocks[..block].iter().sum();
        let offset = (case % 4).min(blocks[block] - 1);
        let special = (start + offset, tainting[rng.range_usize(0, tainting.len())]);
        let mut table = Table::new(schema.clone());
        let mut grid_table = Table::new(schema.clone());
        let grid = OnGrid::Multiples(*rng.pick(&[0, 4, 60]));
        let keys = blocks.iter().enumerate().flat_map(|(b, &len)| std::iter::repeat_n(b, len));
        for (row, b) in keys.enumerate() {
            let x = match (row == special.0, rng.range_usize(0, 3)) {
                (true, _) => special.1,
                (false, 0) => rng.range_i64_inclusive(-999, 999) as f64 * 2f64.powi(-60),
                (false, _) => random_float(&mut rng, false),
            };
            for (table, x) in [(&mut table, x), (&mut grid_table, grid.value(&mut rng, row))] {
                table
                    .push_row(Row(vec![
                        Value::from(format!("k{b}")),
                        Value::Float(x),
                        Value::Int(rng.range_i64_inclusive(i64::MIN / 16, i64::MAX / 16)),
                        Value::Int(rng.range_i64_inclusive(0, 99)),
                    ]))
                    .unwrap();
            }
        }
        let aggs = "COUNT(*) c, SUM(x) s, AVG(x) a, SUM(n) sn, MIN(x) lo, MAX(x) hi, MIN(n) ln, \
                    MAX(n) hn";
        let t = rng.range_i64_inclusive(-5, 105);
        let sqls = [
            format!("SELECT {aggs} FROM data"),
            format!("SELECT {aggs} FROM data WHERE r < {t}"),
            format!("SELECT k, {aggs} FROM data GROUP BY k"),
            format!("SELECT k, {aggs} FROM data WHERE r < {t} GROUP BY k"),
        ];
        let partitioned = BuildOptions::optdicts(PartitionSpec::new(&["k"], 9));
        for options in [BuildOptions::basic(), partitioned] {
            let label =
                format!("case {case}: blocks {blocks:?}, {} at row {}", special.1, special.0);
            assert_matches_oracle(&table, &options, &sqls, &label);
            let label = format!("case {case}: blocks {blocks:?}, {grid:?}");
            assert!(on_grid(&grid_table, &options), "{label}");
            assert_matches_oracle(&grid_table, &options, &sqls, &label);
        }
    }
}

/// A store on one binary grid takes two batches off it — one holding a
/// `0.1`, the next an infinity — while two contexts (execute, and finalize
/// ∘ execute_partial) each keep one chunk-result cache: its float sums
/// leave plain adds for pairs, and cached tables summed on the grid meet
/// tables summed as pairs in the fold. Before and after each append, every
/// answer is a cacheless rebuild's from the same rows, and the row
/// oracle's, bit for bit.
#[test]
fn appends_off_the_grid_match_a_rebuild() {
    let mut rng = Rng::seed_from_u64(0x961d_0072);
    let grid = OnGrid::Multiples(3);
    let mut served = float_table(&mut rng, 40, 3_000, |rng, row| grid.value(rng, row));
    let options = BuildOptions::optdicts(PartitionSpec::new(&["k"], 250));
    let mut store = DataStore::build(&served, &options).unwrap();
    let contexts: Vec<(bool, ExecContext)> = [false, true]
        .map(|via_partial| {
            let result_cache = Some(Arc::new(ResultCache::new(1 << 14)));
            (via_partial, ExecContext { threads: 1, result_cache, ..Default::default() })
        })
        .into();
    let answer = |store: &DataStore, sql: &str, via_partial: bool, ctx: &ExecContext| {
        let analyzed = analyze(&parse_query(sql).unwrap()).unwrap();
        if via_partial {
            let (partial, stats) = execute_partial(store, &analyzed, ctx).unwrap();
            (finalize(&analyzed, partial).unwrap(), stats)
        } else {
            execute(store, &analyzed, ctx).unwrap()
        }
    };
    let mut sqls = float_queries(&mut rng);
    sqls.push("SELECT k, SUM(x) f FROM data GROUP BY k ORDER BY f DESC LIMIT 5".into());
    sqls.push("SELECT SUM(x) f, AVG(x) a FROM data WHERE k IN ('k00003', 'k00017')".into());
    // The first two charts are unrestricted: their old chunks answer from
    // the cache.
    let check = |store: &DataStore, served: &Table, cached: u64, label: &str| {
        let rebuilt = DataStore::build(served, &options).unwrap();
        for (i, sql) in sqls.iter().enumerate() {
            let (want, _) = answer(&rebuilt, sql, false, &ExecContext::default());
            assert_eq!(want, oracle(served, sql), "{label}: the rebuild: {sql}");
            for (via_partial, ctx) in &contexts {
                let (got, stats) = answer(store, sql, *via_partial, ctx);
                assert_eq!(got, want, "{label}, via partial {via_partial}: {sql}");
                assert!(i >= 2 || stats.rows_cached >= cached, "{label}: {}", stats.summary());
            }
        }
    };
    assert!(on_grid(&served, &options));
    check(&store, &served, 0, "on the grid");
    for off_grid in [0.1, f64::INFINITY] {
        let at = rng.range_usize(0, 80);
        let batch = float_table(&mut rng, 40, 80, |rng, row| match row == at {
            true => off_grid,
            false => grid.value(rng, row),
        });
        let columns: Vec<&[Value]> = (0..batch.schema().len()).map(|i| batch.column(i)).collect();
        let delta = TableDelta::from_columns(batch.schema().clone(), &columns).unwrap();
        let cached = store.n_rows() as u64;
        store.append_delta(&delta).unwrap();
        batch.iter_rows().for_each(|row| served.push_row(row).unwrap());
        assert!(!store.column("x").unwrap().sums_exactly(store.n_rows() as u64));
        check(&store, &served, cached, &format!("after {off_grid}"));
    }
}

// ---------------------------------------------------------------------------
// One key's codes under a mask
// ---------------------------------------------------------------------------

/// One dense key's chunk codes are its groups where at least as many rows
/// pass a chunk's mask as the key's chunk dictionary has entries; where
/// fewer pass, the passing rows are listed. Either way a code the mask
/// leaves unused is no group. One-key charts of every slot kind — COUNT,
/// integer and float SUM, MIN, MAX and COUNT DISTINCT, each alone (a
/// presence pass finds the unused codes) and all together (the COUNT
/// column shows them) — under masks that pass none, one, all but one or
/// every code, on both sides of that rule. The filter `k IN (..) AND
/// r < t`, `r` numbering a code's rows, passes `t` rows of each code it
/// names; one code is held by more rows than there are codes. Keys of 2,
/// 3–12 and 257–299 codes, on two one-chunk builds (`u32` codes, and the
/// smallest representation), whose side of the rule each case knows, and
/// on one cut into chunks by `r`.
#[test]
fn one_key_codes_under_masks_match_the_row_oracle() {
    let schema = Schema::of(&[
        ("k", DataType::Str),
        ("r", DataType::Int),
        ("n", DataType::Int),
        ("x", DataType::Float),
        ("s", DataType::Str),
    ]);
    let charts = [
        "COUNT(*) c",
        "COUNT(*) c, MIN(n) mn",
        "SUM(n) sn",
        "SUM(x) sx, AVG(x) a",
        "MIN(s) ms, MIN(x) mx",
        "MAX(x) mx, MAX(n) mn",
        "COUNT(DISTINCT s) d",
        "COUNT(*) c, SUM(n) sn, SUM(x) sx, MIN(n) mn, MAX(s) ms, COUNT(DISTINCT n) d",
    ];
    let mut rng = Rng::seed_from_u64(0xc0de_0068);
    // (codes passing: 0 none, 1 one, 2 all but one, 3 every; codes side).
    let mut reached = BTreeSet::new();
    for case in 0..96 {
        let codes = match case / 6 % 8 {
            0 => 2,
            7 => rng.range_usize(257, 300),
            _ => rng.range_usize(3, 13),
        };
        // 1–3 rows a code, and more than `codes` for one of them.
        let mut held: Vec<usize> = (0..codes).map(|_| rng.range_usize(1, 4)).collect();
        let big = rng.range_usize(0, codes);
        held[big] = codes + rng.range_usize(0, 3);
        // The shapes: none; one, listed and as codes; all but one, listed
        // and as codes; every code, one row each.
        let other = (big + rng.range_usize(1, codes)) % codes;
        let every: Vec<usize> = (0..codes).collect();
        let but = |c: usize| every.iter().copied().filter(|&d| d != c).collect::<Vec<_>>();
        let (named, t) = match case % 6 {
            0 => (every.clone(), 0),
            1 => (vec![other], 1),
            2 => (vec![big], codes + 3),
            3 => (but(rng.range_usize(0, codes)), 1),
            4 => (but(other), codes + 3),
            _ => (every.clone(), 1),
        };

        // The rows, in random order: `(code, r)`.
        let mut rows: Vec<(usize, usize)> =
            held.iter().enumerate().flat_map(|(c, &n)| (0..n).map(move |r| (c, r))).collect();
        for i in (1..rows.len()).rev() {
            rows.swap(i, rng.range_usize(0, i + 1));
        }
        let mut table = Table::new(schema.clone());
        for &(c, r) in &rows {
            table
                .push_row(Row(vec![
                    Value::from(format!("k{c:03}")),
                    Value::Int(r as i64),
                    Value::Int(rng.range_i64_inclusive(-1_000, 1_000)),
                    Value::Float(random_float(&mut rng, true)),
                    Value::from(format!("s{}", rng.range_usize(0, 5))),
                ]))
                .unwrap();
        }
        let passing = rows.iter().filter(|&&(c, r)| named.contains(&c) && r < t);
        let passing_rows = passing.clone().count();
        let passing_codes: BTreeSet<usize> = passing.map(|&(c, _)| c).collect();
        let shape = match passing_codes.len() {
            0 => 0,
            1 => 1,
            n if n + 1 == codes => 2,
            _ => 3,
        };
        reached.insert((shape, passing_rows >= codes));

        let names: Vec<String> = named.iter().map(|c| format!("'k{c:03}'")).collect();
        let filter = format!("k IN ({}) AND r < {t}", names.join(", "));
        let sqls: Vec<String> = charts
            .iter()
            .map(|aggs| format!("SELECT k, {aggs} FROM data WHERE {filter} GROUP BY k"))
            .collect();
        let whole = PartitionSpec::new(&["k"], rows.len());
        let by_r = PartitionSpec::new(&["r"], codes.max(4));
        for options in
            [BuildOptions::basic(), BuildOptions::optdicts(whole), BuildOptions::optdicts(by_r)]
        {
            let label = format!(
                "case {case}: {codes} codes, {} named, {passing_rows} rows pass, {options:?}",
                named.len()
            );
            assert_matches_oracle(&table, &options, &sqls, &label);
        }
    }
    let sides = [(0, false), (1, false), (1, true), (2, false), (2, true), (3, true)];
    assert_eq!(reached, BTreeSet::from(sides), "every shape on each side it has");
}

// ---------------------------------------------------------------------------
// More keys' numbers
// ---------------------------------------------------------------------------

/// Dense keys' mixed-radix numbers are a chunk's groups where no fewer rows
/// pass as the product of the keys' chunk-dictionary sizes; where fewer
/// pass, the passing rows' numbers are ranked and a row's rank is its
/// group. Either way a number no passing row holds is no group. Two- and
/// three-key charts of every slot kind — COUNT, integer and float SUM,
/// MIN, MAX and COUNT DISTINCT, each alone (a presence pass finds the
/// unused numbers) and all together (the COUNT column shows them) —,
/// unmasked and under `r < t`, `r` numbering the rows. Each row draws its
/// keys at random from 2–5 values, so that some tuples are missing. On two
/// one-chunk builds (`u32` codes, and the smallest representation), whose
/// side of the rule each case knows, and on one cut into chunks by `r`.
#[test]
fn more_keys_numbers_match_the_row_oracle() {
    let schema = Schema::of(&[
        ("a", DataType::Str),
        ("b", DataType::Int),
        ("c", DataType::Str),
        ("r", DataType::Int),
        ("n", DataType::Int),
        ("x", DataType::Float),
        ("s", DataType::Str),
    ]);
    let charts = [
        "COUNT(*) k",
        "SUM(n) sn",
        "SUM(x) sx, AVG(x) av",
        "MIN(n) mn, MAX(s) ms",
        "MAX(x) mx, MIN(s) ls",
        "COUNT(DISTINCT s) d",
        "COUNT(*) k, SUM(n) sn, SUM(x) sx, MIN(x) mn, MAX(n) mx, COUNT(DISTINCT n) d",
    ];
    let mut rng = Rng::seed_from_u64(0x6e75_0070);
    // (keys, numbered: as many rows pass as the product).
    let mut reached = BTreeSet::new();
    for case in 0..60 {
        let rows = rng.range_usize(4, 70);
        let values = [(); 3].map(|_| rng.range_usize(2, 6));
        let mut tuples = Vec::new();
        let mut table = Table::new(schema.clone());
        for r in 0..rows {
            let tuple = values.map(|n| rng.range_usize(0, n));
            table
                .push_row(Row(vec![
                    Value::from(format!("a{}", tuple[0])),
                    Value::Int(tuple[1] as i64 * 7 - 10),
                    Value::from(format!("c{}", tuple[2])),
                    Value::Int(r as i64),
                    Value::Int(rng.range_i64_inclusive(-1_000, 1_000)),
                    Value::Float(random_float(&mut rng, true)),
                    Value::from(format!("s{}", rng.range_usize(0, 4))),
                ]))
                .unwrap();
            tuples.push(tuple);
        }
        let t = rng.range_usize(1, rows + 1);
        let mut sqls = Vec::new();
        for keys in ["a, b", "a, b, c"] {
            let width = keys.split(", ").count();
            // The keys' dictionary sizes in a one-chunk build.
            let sizes = (0..width).map(|k| tuples.iter().map(|t| t[k]).collect::<BTreeSet<_>>());
            let product: usize = sizes.map(|held| held.len()).product();
            for (filter, passing) in [(String::new(), rows), (format!(" WHERE r < {t}"), t)] {
                if product > 1 {
                    reached.insert((width, passing >= product));
                }
                sqls.extend(charts.iter().map(|aggs| {
                    format!("SELECT {keys}, {aggs} FROM data{filter} GROUP BY {keys}")
                }));
            }
        }
        let whole = PartitionSpec::new(&["a"], rows);
        let by_r = PartitionSpec::new(&["r"], rng.range_usize(4, 20));
        for options in
            [BuildOptions::basic(), BuildOptions::optdicts(whole), BuildOptions::optdicts(by_r)]
        {
            let label =
                format!("case {case}: {rows} rows of {values:?} values, r < {t}, {options:?}");
            assert_matches_oracle(&table, &options, &sqls, &label);
        }
    }
    let sides = [(2, false), (2, true), (3, false), (3, true)];
    assert_eq!(reached, BTreeSet::from(sides), "both sides of the rule for two and three keys");
}

// ---------------------------------------------------------------------------
// Virtual fields of two columns
// ---------------------------------------------------------------------------

/// An expression of two columns is evaluated once per distinct pair of
/// codes a run's rows hold, wherever it is used: as a GROUP BY key
/// (`j + t`, alone and beside a base key), a SUM argument (`t * j`,
/// `i - t`), a field a range resolves on (`t + j > 60`) and a declined
/// filter leaf (`t > j * 9`, alone, under `AND` and under `OR`). The
/// one-chunk build numbers `j + t`'s 7 × 100 pairs (fewer than its rows)
/// and sorts `i - t`'s (past the dense limit); the one cut by `k, i` into
/// chunks of at most 100 rows ranks both (more pairs than a chunk's
/// rows). On both builds as built, and as an append that brings new `t`
/// values below and above every old one extended their fields, at 1 and
/// 2 threads, every answer is the row oracle's; the extended fields are a
/// rebuild's, bit for bit.
#[test]
fn two_column_virtual_fields_match_the_row_oracle() {
    let schema = Schema::of(&[
        ("k", DataType::Str),
        ("j", DataType::Int),
        ("t", DataType::Int),
        ("i", DataType::Int),
    ]);
    const ROWS: usize = 36_000;
    let row = |r: usize| {
        let t = match (r >= ROWS, r % 2) {
            (false, _) => (r * 37 % 100) as i64,
            (true, 0) => -((r % 9) as i64) - 1,
            (true, _) => 100 + (r % 9) as i64,
        };
        vec![
            Value::from(["red", "green", "blue", "grey"][r % 4]),
            Value::Int((r * 5 % 7) as i64),
            Value::Int(t),
            Value::Int((r * 4_099 % 5_003) as i64),
        ]
    };
    let table_of = |rows: std::ops::Range<usize>| {
        let columns = (0..4).map(|c| rows.clone().map(|r| row(r).swap_remove(c)).collect());
        Table::from_columns(schema.clone(), columns.collect()).unwrap()
    };
    let (base, all, tail) =
        (table_of(0..ROWS), table_of(0..ROWS + 400), table_of(ROWS..ROWS + 400));
    let columns: Vec<&[Value]> = (0..4).map(|i| tail.column(i)).collect();
    let delta = TableDelta::from_columns(schema.clone(), &columns).unwrap();

    let mut sqls = Vec::new();
    for keys in ["", "j + t", "k, j + t"] {
        for filter in
            ["", "t + j > 60", "t > j * 9", "k = 'red' AND t > j * 9", "t < 20 OR t > j * 9"]
        {
            let select = if keys.is_empty() { String::new() } else { format!("{keys}, ") };
            let where_sql =
                if filter.is_empty() { String::new() } else { format!(" WHERE {filter}") };
            let group_by =
                if keys.is_empty() { String::new() } else { format!(" GROUP BY {keys}") };
            sqls.push(format!(
                "SELECT {select}COUNT(*), SUM(t * j), SUM(i - t), MAX(j + t) FROM t{where_sql}{group_by}"
            ));
        }
    }
    let answer = |store: &DataStore, sql: &str, threads: usize| {
        let analyzed = analyze(&parse_query(sql).unwrap()).unwrap();
        execute(store, &analyzed, &ExecContext { threads, ..Default::default() }).unwrap().0
    };
    let fields = ["j + t", "t * j", "i - t", "t + j"];
    // The oracle's answers, on the rows as built and with the append's.
    let wants: Vec<[QueryResult; 2]> =
        sqls.iter().map(|sql| [oracle(&base, sql), oracle(&all, sql)]).collect();
    for options in
        [BuildOptions::basic(), BuildOptions::optdicts(PartitionSpec::new(&["k", "i"], 100))]
    {
        let chunked = options.partition.is_some();
        let label = if chunked { "chunked" } else { "one chunk" };
        let mut store = DataStore::build(&base, &options).unwrap();
        // Per chunk, how many pairs of codes of `a` and `b` there may be,
        // beside its rows.
        let pairs = |a: &str, b: &str| -> Vec<(usize, usize)> {
            let chunks = 0..store.chunk_count();
            let size = |col: &str, c: usize| store.column(col).unwrap().chunks[c].dict.len();
            chunks.map(|c| ((size(a, c) * size(b, c)) as usize, store.chunk_rows(c))).collect()
        };
        const DENSE: usize = 1 << 16;
        let ranked = |(pairs, rows): (usize, usize)| rows < pairs && pairs <= DENSE;
        if chunked {
            assert!(pairs("j", "t").into_iter().all(ranked), "{label}: j + t is ranked");
            assert!(pairs("i", "t").into_iter().all(ranked), "{label}: i - t is ranked");
        } else {
            assert!(pairs("j", "t").into_iter().all(|(n, rows)| n <= rows), "{label}: numbered");
            assert!(pairs("i", "t").into_iter().all(|(n, _)| n > DENSE), "{label}: sorted");
        }
        for (at, served) in ["built", "tailed"].into_iter().enumerate() {
            if served == "tailed" {
                store.append_delta(&delta).unwrap();
                let names = ["(i - t)", "(j + t)", "(t * j)", "(t + j)"];
                assert_eq!(store.virtual_names(), names, "{label}: every field extended");
            }
            for (sql, want) in sqls.iter().zip(&wants) {
                for threads in [1, 2] {
                    assert_eq!(
                        answer(&store, sql, threads),
                        want[at],
                        "{label}, {served}, {threads}: {sql}"
                    );
                }
            }
        }
        let rebuilt = DataStore::build(&all, &options).unwrap();
        for sql in &sqls {
            assert_eq!(answer(&store, sql, 1), answer(&rebuilt, sql, 1), "{label}: {sql}");
        }
        for field in fields {
            let expr = &parse_query(&format!("SELECT COUNT(*) FROM t GROUP BY {field}"))
                .unwrap()
                .group_by[0];
            let (extended, fresh) =
                (store.column_for_expr(expr).unwrap(), rebuilt.column_for_expr(expr).unwrap());
            let values = |col: &StoredColumn| {
                (0..col.dict.len()).map(|id| col.dict.value(id)).collect::<Vec<_>>()
            };
            assert_eq!(values(&extended), values(&fresh), "{label}: {field}'s dictionary");
        }
    }
}
