//! Executor correctness: the store must agree with the row oracle
//! (`pd_baselines::scan`, which shares no aggregation, lowering or ranking
//! with the engine) on every supported query shape, under every build
//! variant of the §3 ladder and both kernel configurations, with and
//! without the §6 result cache — row for row, floats bit for bit.

use pd_baselines::scan;
use pd_common::rng::Rng;
use pd_common::{DataType, Row, Schema, Value};
use pd_core::{
    execute, execute_partial, finalize, query, BuildOptions, DataStore, ExecContext, KernelConfig,
    PartitionSpec, QueryResult, ResultCache,
};
use pd_data::{generate_logs, LogsSpec, Table};
use pd_encoding::TableDelta;
use pd_sql::{analyze, parse_query};
use std::sync::Arc;

/// The row oracle's answer.
fn oracle(table: &Table, sql: &str) -> QueryResult {
    scan::query(table, sql).unwrap_or_else(|e| panic!("oracle: {sql}: {e}"))
}

fn all_variants() -> Vec<(&'static str, BuildOptions)> {
    variants(PartitionSpec::new(&["country", "table_name"], 300))
}

/// The §3 ladder, every partitioned rung on `spec`.
fn variants(spec: PartitionSpec) -> Vec<(&'static str, BuildOptions)> {
    vec![
        ("basic", BuildOptions::basic()),
        ("chunks", BuildOptions::chunked(spec.clone())),
        ("optcols", BuildOptions::optcols(spec.clone())),
        ("optdicts", BuildOptions::optdicts(spec.clone())),
        ("reorder", BuildOptions::reordered(spec)),
    ]
}

fn check(table: &Table, stores: &[(&str, DataStore)], sql: &str) {
    let expected = oracle(table, sql);
    let analyzed = analyze(&parse_query(sql).unwrap()).unwrap();
    for (name, store) in stores {
        for kernels in [KernelConfig::default(), KernelConfig::materializing()] {
            let ctx = ExecContext { kernels, ..Default::default() };
            let (result, stats) = execute(store, &analyzed, &ctx)
                .unwrap_or_else(|e| panic!("{name} {kernels:?}: {sql}: {e}"));
            assert_eq!(
                result,
                expected,
                "variant {name} {kernels:?} disagrees with the oracle on {sql}\nstats: {}",
                stats.summary()
            );
            assert_eq!(
                stats.rows_skipped + stats.rows_cached + stats.rows_scanned,
                stats.rows_total,
                "row accounting must balance for {name}: {sql}"
            );
        }
    }
}

fn build_all(table: &Table) -> Vec<(&'static str, DataStore)> {
    all_variants()
        .into_iter()
        .map(|(name, opt)| (name, DataStore::build(table, &opt).unwrap()))
        .collect()
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
        // Multi-column subtrees hit the per-row RowEval path of the mask
        // compiler — alone (full-chunk evaluation) and under an AND whose
        // cheap sibling narrows the evaluation scope.
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
    let stores: Vec<_> = (variants(spec).into_iter())
        .map(|(name, opt)| (name, DataStore::build(&five, &opt).unwrap()))
        .collect();
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
    let stores: Vec<_> = (variants(PartitionSpec::new(&["k"], 30)).into_iter())
        .map(|(name, opt)| (name, DataStore::build(&table, &opt).unwrap()))
        .collect();
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
    // (2^16): the single-key COUNT(*) fast path must still run its flat
    // counts array (the limit only gates multi-key products) and return
    // exact counts.
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
        &BuildOptions::reordered(PartitionSpec::new(&["country", "table_name"], 300)),
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
    // One store takes 20 appends in place; four contexts — {fast, oracle
    // kernels} × {execute, finalize ∘ execute_partial} — each keep one
    // chunk-result cache across all of them, never cleared. After every
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

    let options = BuildOptions::reordered(PartitionSpec::new(&["country", "table_name"], 250));
    let mut store = DataStore::build(&table.select_rows(&served), &options).unwrap();
    let contexts: Vec<(KernelConfig, bool, ExecContext)> =
        [KernelConfig::Compressed, KernelConfig::materializing()]
            .into_iter()
            .flat_map(|kernels| [(kernels, false), (kernels, true)])
            .map(|(kernels, via_partial)| {
                let result_cache = Some(Arc::new(ResultCache::new(1 << 14)));
                (
                    kernels,
                    via_partial,
                    ExecContext { threads: 1, result_cache, kernels, ..Default::default() },
                )
            })
            .collect();
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
    for (_, via_partial, ctx) in &contexts {
        for sql in &queries {
            answer(&store, sql, *via_partial, ctx);
        }
    }

    let batch = arrivals.len().div_ceil(20);
    for (round, rows) in arrivals.chunks(batch).enumerate() {
        let delta = table.select_rows(rows);
        let columns: Vec<&[Value]> = (0..delta.schema().len()).map(|i| delta.column(i)).collect();
        let delta = pd_encoding::TableDelta::from_columns(delta.schema().clone(), &columns);
        store.append_delta(&delta.unwrap()).unwrap();
        served.extend(rows);
        let rebuilt = DataStore::build(&table.select_rows(&served), &options).unwrap();

        for (i, sql) in queries.iter().enumerate() {
            let (want, _) = answer(&rebuilt, sql, false, &ExecContext::default());
            for (kernels, via_partial, ctx) in &contexts {
                let label = format!("round {round}, {kernels:?}, via partial {via_partial}: {sql}");
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
    // The appends tailed a base dictionary and a virtual field's.
    let date = parse_query("SELECT COUNT(*) FROM logs GROUP BY date(timestamp)").unwrap();
    assert!(!store.column("user").unwrap().dict.is_value_ordered());
    assert!(!store.column_for_expr(&date.group_by[0]).unwrap().dict.is_value_ordered());
}

#[test]
fn skipping_statistics_reflect_selectivity() {
    let table = generate_logs(&LogsSpec::scaled(4_000));
    let store = DataStore::build(
        &table,
        &BuildOptions::reordered(PartitionSpec::new(&["country", "table_name"], 200)),
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
/// 0, 1 and 2 keys, unmasked and masked, over sorted dictionaries and
/// tailed ones; COUNT DISTINCT with groups × chunk-dictionary entries under
/// and over four times the rows listed; one-key masks that leave most of
/// a chunk's key ids unused. Both kernel configurations.
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
                                     // Rows from `ROWS` on hold `t`, `x`, `s` and `i` values below and above
                                     // every base value, so an append tails those dictionaries out of order.
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
    for col in ["t", "x", "s", "i"] {
        assert!(sorted.column(col).unwrap().dict.is_value_ordered(), "{col}");
        assert!(!tailed.column(col).unwrap().dict.is_value_ordered(), "{col}");
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

                let want = oracle(rows, &sql);
                for kernels in [KernelConfig::default(), KernelConfig::materializing()] {
                    let ctx = ExecContext { sketch_m: M, kernels, ..Default::default() };
                    let got = execute_partial(store, &analyzed, &ctx).unwrap().0;
                    let got = finalize(&analyzed, got).unwrap();
                    assert_eq!(got, want, "{label} {kernels:?}: {sql}");
                }
            }
        }
    }
}
