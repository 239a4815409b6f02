//! Randomized equivalence tests: for seeded-random tables and queries from
//! the supported subset, the column-store (all build variants) must return
//! exactly what the row oracle (`pd_baselines::scan`, which shares no
//! aggregation, lowering or ranking with the engine) returns — and parallel
//! execution must return *bit-identical* results to sequential execution
//! at every thread count.

#[path = "../crates/dist/tests/support/faults.rs"]
mod faults;

use powerdrill::baselines::{Backend, CsvBackend, IoModel};
use powerdrill::common::rng::Rng;
use powerdrill::core::{execute, execute_partial, finalize, StoredColumn};
use powerdrill::sql::{analyze, parse_query};
use powerdrill::{
    BuildOptions, DataStore, DataType, ExecContext, PartitionSpec, PowerDrill, QueryResult, Row,
    Schema, Table, Value,
};

/// Did the appends that made `after` move an id `before`'s dictionary had?
/// Merges only ever move ids up, so one moved iff an old id now holds
/// another value.
fn renumbered(before: &StoredColumn, after: &StoredColumn) -> bool {
    (0..before.dict.len()).any(|id| after.dict.value(id) != before.dict.value(id))
}

/// A small random table: k (low cardinality string), g (medium cardinality
/// string), n (int), x (float).
fn random_table(rng: &mut Rng) -> Table {
    let rows = rng.range_usize(1, 120);
    let schema = Schema::of(&[
        ("k", DataType::Str),
        ("g", DataType::Str),
        ("n", DataType::Int),
        ("x", DataType::Float),
    ]);
    let mut table = Table::new(schema);
    for _ in 0..rows {
        table
            .push_row(Row(vec![
                Value::from(["red", "green", "blue", "grey"][rng.range_usize(0, 4)]),
                Value::from(format!("g{:02}", rng.range_usize(0, 12))),
                Value::Int(rng.range_i64_inclusive(-50, 49)),
                Value::Float(rng.range_i64_inclusive(-4, 3) as f64 * 0.5),
            ]))
            .unwrap();
    }
    table
}

/// A random query over that table's shape, its parts drawn apart:
/// - keys: `k`, `g`, `k, g` or none (a keyless aggregate), ¼ each;
/// - aggregates, ⅙ each: `COUNT(*)`; `COUNT(*)`, `SUM(n)`; `SUM(x)`,
///   `MIN(n)`, `MAX(n)`; `AVG(x)`, `COUNT(*)`; `COUNT(DISTINCT g)`,
///   `COUNT(*)` (12 values, below every sketch size: exact); `SUM(n * 2)`,
///   `AVG(n + 1)`, `COUNT(*)` (sums of integer expressions);
/// - filter: none or one of 13, 1/14 each, except that one draw in 28
///   reads a FROM subquery, which every engine must refuse ([`refused`]);
///   half the keyless queries take draw 10's filter, which no row passes,
///   so ~⅛ of all queries are a keyless aggregate over no rows;
/// - tail, ⅓ each where `c` is selected (else none): none,
///   `ORDER BY c DESC LIMIT 3` (counts tie often, and the whole row breaks
///   the tie), `HAVING c > 2 ORDER BY c DESC`.
///
/// With ≤ 120 rows over 48 `k, g` pairs, one-row groups are common, and so
/// are `AVG`s of one row.
fn random_query(rng: &mut Rng) -> String {
    let keys = *rng.pick(&["k", "g", "k, g", ""]);
    let aggs = *rng.pick(&[
        "COUNT(*) as c",
        "COUNT(*) as c, SUM(n) as s",
        "SUM(x) as s, MIN(n) as mn, MAX(n) as mx",
        "AVG(x) as a, COUNT(*) as c",
        "COUNT(DISTINCT g) as d, COUNT(*) as c",
        "SUM(n * 2) as s, AVG(n + 1) as a, COUNT(*) as c",
    ]);
    let mut from = "data";
    let draw = if keys.is_empty() && rng.chance(0.5) { 20 } else { rng.range_usize(0, 28) };
    let filter = match draw / 2 {
        0 => String::new(),
        1 => " WHERE k = 'red'".to_owned(),
        2 => " WHERE k IN ('red', 'blue')".to_owned(),
        3 => " WHERE k NOT IN ('green')".to_owned(),
        4 => " WHERE n > 0".to_owned(),
        5 => " WHERE k = 'red' AND n > 0".to_owned(),
        6 => " WHERE k = 'red' OR g = 'g03'".to_owned(),
        7 => " WHERE NOT (k = 'red' AND g = 'g01')".to_owned(),
        // Ranges on the int column: one-sided (with a float literal),
        // a two-sided window, and one no row satisfies.
        8 => format!(" WHERE n < {}.5", rng.range_i64_inclusive(-30, 30)),
        9 => {
            let from = rng.range_i64_inclusive(-60, 40);
            format!(" WHERE n >= {from} AND n < {}", from + rng.range_i64_inclusive(0, 50))
        }
        10 => " WHERE n > 49 AND k != 'grey'".to_owned(),
        // A virtual-field leaf beside a float range.
        11 => " WHERE upper(k) IN ('RED', 'BLUE') AND x > -1.0".to_owned(),
        // An id-domain leaf OR-ed with one only the evaluator can answer.
        12 => " WHERE k = 'red' OR contains(g, '1')".to_owned(),
        _ if draw == 27 => {
            from = "(SELECT k, g, n, x FROM data WHERE k = 'red')";
            String::new()
        }
        _ => {
            let g = rng.range_usize(0, 12);
            format!(" WHERE g IN ('g{g:02}', 'g{:02}')", (g + 3) % 12)
        }
    };
    let tail = *rng.pick(&["", " ORDER BY c DESC LIMIT 3", " HAVING c > 2 ORDER BY c DESC"]);
    // HAVING/ORDER BY c require c in the select list.
    let tail = if aggs.split(", ").any(|agg| agg.ends_with(" as c")) { tail } else { "" };
    match keys {
        "" => format!("SELECT {aggs} FROM {from}{filter}{tail}"),
        _ => format!("SELECT {keys}, {aggs} FROM {from}{filter} GROUP BY {keys}{tail}"),
    }
}

/// Whether `sql` reads a FROM subquery; if it does, the store and the
/// row-at-a-time baseline over `table` must both refuse it.
fn refused(table: &Table, sql: &str) -> bool {
    if !sql.contains("FROM (") {
        return false;
    }
    let store = DataStore::build(table, &BuildOptions::basic()).unwrap();
    assert!(powerdrill::query(&store, sql).is_err(), "the store answered {sql}");
    let baseline = CsvBackend::new(table, IoModel::default()).unwrap();
    assert!(baseline.execute(sql).is_err(), "the baseline answered {sql}");
    true
}

#[test]
fn store_matches_baseline_on_random_queries() {
    let mut rng = Rng::seed_from_u64(0x5eed_0001);
    for case in 0..48 {
        let table = random_table(&mut rng);
        let sql = random_query(&mut rng);
        if refused(&table, &sql) {
            continue;
        }
        let baseline = CsvBackend::new(&table, IoModel::default()).unwrap();
        let expected = baseline.execute(&sql).unwrap().result;

        let sorted = table.sorted_by(&["k", "g"]).unwrap();
        for (table, options) in [
            (&table, BuildOptions::basic()),
            (&table, BuildOptions::optcols(PartitionSpec::new(&["k", "g"], 16))),
            (&sorted, BuildOptions::optdicts(PartitionSpec::new(&["k", "g"], 16))),
        ] {
            let pd = PowerDrill::import(table, &options).unwrap();
            let (got, stats) = pd.sql(&sql).unwrap();
            assert_eq!(got, expected, "case {case} options {options:?}\nsql {sql}");
            assert_eq!(
                stats.rows_skipped + stats.rows_cached + stats.rows_scanned,
                stats.rows_total,
                "row accounting must balance: {sql}"
            );
            // Second execution (warm result cache) must be identical.
            let (again, _) = pd.sql(&sql).unwrap();
            assert_eq!(again, expected, "cache changed the result for {sql}");
        }
    }
}

#[test]
fn skipping_never_changes_results() {
    let mut rng = Rng::seed_from_u64(0x5eed_0002);
    for _ in 0..24 {
        let table = random_table(&mut rng);
        let g = rng.range_usize(0, 12);
        // A restriction targeted at one g-value: heavily skippable under
        // partitioning by (g), and the result must match Basic (no chunks).
        let sql = format!(
            "SELECT k, COUNT(*) as c FROM data WHERE g = 'g{g:02}' GROUP BY k ORDER BY c DESC"
        );
        let plain = PowerDrill::import(&table, &BuildOptions::basic()).unwrap();
        let sorted = table.sorted_by(&["g"]).unwrap();
        let partitioned =
            PowerDrill::import(&sorted, &BuildOptions::optdicts(PartitionSpec::new(&["g"], 8)))
                .unwrap();
        let (a, _) = plain.sql(&sql).unwrap();
        let (b, _) = partitioned.sql(&sql).unwrap();
        assert_eq!(a, b, "sql {sql}: basic vs partitioned");
    }
}

// ---------------------------------------------------------------------------
// Parallel-vs-sequential equivalence matrix
// ---------------------------------------------------------------------------

/// The paper's Table 1 queries plus drill-down variants exercising filters,
/// skipping, multi-key grouping and every aggregate kind.
const MATRIX_QUERIES: [&str; 12] = [
    // Table 1, Query 1–3.
    "SELECT country, COUNT(*) as c FROM data GROUP BY country ORDER BY c DESC LIMIT 10",
    "SELECT date(timestamp) as date, COUNT(*), SUM(latency) FROM data GROUP BY date ORDER BY date ASC LIMIT 10",
    "SELECT table_name, COUNT(*) as c FROM data GROUP BY table_name ORDER BY c DESC LIMIT 10",
    // Restrictions: skipping + partial chunks at every thread count.
    "SELECT country, COUNT(*) c FROM data WHERE country IN ('US','DE') GROUP BY country ORDER BY c DESC",
    "SELECT table_name, COUNT(*) c FROM data WHERE country = 'SG' GROUP BY table_name ORDER BY c DESC LIMIT 5",
    "SELECT country, COUNT(*) c FROM data WHERE latency > 400.0 GROUP BY country ORDER BY c DESC LIMIT 5",
    // Float aggregates are the order-sensitive ones: the deterministic
    // chunk-order fold must make them bit-identical, not just close.
    "SELECT country, SUM(latency) s, AVG(latency) a FROM data GROUP BY country ORDER BY country ASC",
    "SELECT country, user, COUNT(*) c, MIN(latency), MAX(latency) FROM data GROUP BY country, user ORDER BY c DESC LIMIT 20",
    // Row masks from resolved dictionary ids: a range on an int column, a
    // two-sided window, a virtual-field leaf beside a float range, and an
    // id leaf OR-ed with one only the expression evaluator can answer.
    "SELECT country, COUNT(*) c FROM data WHERE timestamp >= 1321000000 GROUP BY country ORDER BY c DESC",
    "SELECT table_name, COUNT(*) c, SUM(latency) s FROM data WHERE timestamp >= 1319000000 AND timestamp < 1322000000 GROUP BY table_name ORDER BY c DESC LIMIT 10",
    "SELECT user, COUNT(*) c FROM data WHERE date(timestamp) IN ('2011-10-15', '2011-11-20') AND latency > 200.0 GROUP BY user ORDER BY c DESC LIMIT 10",
    "SELECT country, COUNT(*) c, AVG(latency) a FROM data WHERE country = 'US' OR contains(table_name, 'ads') GROUP BY country ORDER BY country ASC",
];

/// What the sequential scan of [`MATRIX_QUERIES`] reads on the 4 000-row
/// store of `parallel_execution_is_bit_identical_to_sequential`, query by
/// query: `(rows_scanned, cells_scanned)`, as recorded before masks moved
/// into the code domain. How a mask is computed — or
/// that a chunk's mask turned out all-true or all-false — must not move
/// either: a scanned chunk counts as scanned, at the columns the query
/// names.
const MATRIX_SCANS: [(u64, u64); 12] = [
    (4000, 4000),
    (4000, 8000),
    (4000, 4000),
    (1745, 1745),
    (82, 164),
    (3286, 6572),
    (4000, 8000),
    (4000, 12000),
    (4000, 8000),
    (4000, 12000),
    (2963, 8889),
    (4000, 12000),
];

#[test]
fn parallel_execution_is_bit_identical_to_sequential() {
    use powerdrill::data::{generate_logs, LogsSpec};

    // The pinned 4 000-row store, and one large enough that every full
    // scan is above the executor's fan-out break-even (a scan of fewer
    // rows than that stays on the calling thread whatever `threads` says).
    for (rows, chunk_rows, pinned) in [(4_000, 150, Some(MATRIX_SCANS)), (40_000, 1_000, None)] {
        let table = generate_logs(&LogsSpec::scaled(rows));
        let mut options = BuildOptions::production(&["country", "table_name"]);
        if let Some(spec) = &mut options.partition {
            spec.max_chunk_rows = chunk_rows; // plenty of chunks to schedule
        }
        let store = DataStore::build(&table, &options).unwrap();

        for (q, sql) in MATRIX_QUERIES.into_iter().enumerate() {
            let analyzed = analyze(&parse_query(sql).unwrap()).unwrap();
            let sequential = ExecContext { threads: 1, ..Default::default() };
            let (want, want_stats) = execute(&store, &analyzed, &sequential).unwrap();
            if let Some(scans) = pinned {
                assert_eq!((want_stats.rows_scanned, want_stats.cells_scanned), scans[q], "{sql}");
            }
            for threads in [2usize, 8] {
                let ctx = ExecContext { threads, ..Default::default() };
                let (got, stats) = execute(&store, &analyzed, &ctx).unwrap();
                // Exact equality — not approximate: the chunk-order fold makes
                // float summation independent of the thread count.
                assert_eq!(got, want, "rows={rows} threads={threads}: {sql}");
                assert_eq!(
                    stats.chunks_skipped, want_stats.chunks_skipped,
                    "skip decisions must not depend on threads: {sql}"
                );
                assert_eq!(stats.chunks_scanned, want_stats.chunks_scanned, "{sql}");
                assert_eq!(stats.rows_scanned, want_stats.rows_scanned, "{sql}");
                assert_eq!(stats.cells_scanned, want_stats.cells_scanned, "{sql}");
            }
        }
    }
}

#[test]
fn parallel_execution_matches_across_build_variants() {
    // The same matrix on an unpartitioned store (single chunk: parallelism
    // degenerates to one task) and on random tables.
    use powerdrill::data::{generate_logs, LogsSpec};
    let table = generate_logs(&LogsSpec::scaled(1_500));
    let store = DataStore::build(&table, &BuildOptions::basic()).unwrap();
    for sql in &MATRIX_QUERIES[..4] {
        let analyzed = analyze(&parse_query(sql).unwrap()).unwrap();
        let (want, _) =
            execute(&store, &analyzed, &ExecContext { threads: 1, ..Default::default() }).unwrap();
        for threads in [2usize, 8] {
            let ctx = ExecContext { threads, ..Default::default() };
            let (got, _) = execute(&store, &analyzed, &ctx).unwrap();
            assert_eq!(got, want, "threads={threads}: {sql}");
        }
    }

    let mut rng = Rng::seed_from_u64(0x5eed_0003);
    for _ in 0..16 {
        let table = random_table(&mut rng);
        let sql = random_query(&mut rng);
        if refused(&table, &sql) {
            continue;
        }
        let sorted = table.sorted_by(&["k", "g"]).unwrap();
        let store =
            DataStore::build(&sorted, &BuildOptions::optdicts(PartitionSpec::new(&["k", "g"], 8)))
                .unwrap();
        let analyzed = analyze(&parse_query(&sql).unwrap()).unwrap();
        let (want, _) =
            execute(&store, &analyzed, &ExecContext { threads: 1, ..Default::default() }).unwrap();
        for threads in [2usize, 8] {
            let ctx = ExecContext { threads, ..Default::default() };
            let (got, _) = execute(&store, &analyzed, &ctx).unwrap();
            assert_eq!(got, want, "threads={threads}: {sql}");
        }
    }
}

/// A range resolves to an id range on every dictionary — a front-coded
/// string dictionary ranks a bound it lacks in one block — and must stay exact
/// there, as must the id ranges of a dictionary an append renumbered: every
/// range query equals the
/// `BuildOptions::basic()` store of the same rows (one chunk, sorted
/// dictionaries: every range there resolves to ids), before the append and
/// after it.
#[test]
fn range_fallbacks_equal_the_basic_store() {
    use powerdrill::data::{generate_logs, LogsSpec};
    use powerdrill::encoding::TableDelta;

    let queries = [
        "SELECT country, COUNT(*) c, SUM(latency) s FROM data WHERE timestamp >= 1319000000 AND timestamp < 1322000000 GROUP BY country ORDER BY country ASC",
        "SELECT country, COUNT(*) c FROM data WHERE latency >= 40 AND NOT latency > 900.5 GROUP BY country ORDER BY country ASC",
        "SELECT country, COUNT(*) c, MAX(latency) mx FROM data WHERE table_name >= 'm' AND table_name < 't' GROUP BY country ORDER BY country ASC",
        "SELECT user, COUNT(*) c FROM data WHERE date(timestamp) > '2011-11-01' AND timestamp < 1323000000 GROUP BY user ORDER BY c DESC LIMIT 10",
    ];
    let table = generate_logs(&LogsSpec::scaled(3_000));
    let head = table.select_rows(&(0..2_700).collect::<Vec<_>>());
    let tail = table.select_rows(&(2_700..3_000).collect::<Vec<_>>());
    let mut production = BuildOptions::production(&["country", "table_name"]);
    if let Some(spec) = &mut production.partition {
        spec.max_chunk_rows = 150;
    }

    let ctx = ExecContext { threads: 1, ..Default::default() };
    let agree = |store: &DataStore, rows: &Table, when: &str| {
        let basic = DataStore::build(rows, &BuildOptions::basic()).unwrap();
        for sql in queries {
            let analyzed = analyze(&parse_query(sql).unwrap()).unwrap();
            let (got, _) = execute(store, &analyzed, &ctx).unwrap();
            let (want, _) = execute(&basic, &analyzed, &ctx).unwrap();
            assert_eq!(got, want, "{when}: {sql}");
        }
    };

    let mut store = DataStore::build(&head, &production).unwrap();
    agree(&store, &head, "front-coded build");
    let before = store.column("latency").unwrap();
    let columns: Vec<&[Value]> = (0..tail.schema().len()).map(|i| tail.column(i)).collect();
    store
        .append_delta(&TableDelta::from_columns(tail.schema().clone(), &columns).unwrap())
        .unwrap();
    assert!(
        renumbered(&before, &store.column("latency").unwrap()),
        "the append must renumber `latency`'s old ids for this test to mean anything"
    );
    agree(&store, &table, "after the append");
}

// ---------------------------------------------------------------------------
// Late-materialization axis
// ---------------------------------------------------------------------------

/// `execute` keeps the group table in the global-id domain, ranks group
/// references on ids and looks up only the rows HAVING / ORDER BY / LIMIT
/// let through; `finalize ∘ execute_partial` — what a tree does, whose
/// shards share no dictionary — translates every group and ranks values.
/// Both must be the same rows in the same order, floats by bits
/// (`Value`'s equality is `total_cmp`), and scan the same cells — at one
/// thread and at the default (`EXEC_THREADS` in CI's concurrent job).
fn assert_late_equals_early(store: &DataStore, sql: &str, label: &str) -> QueryResult {
    let analyzed = analyze(&parse_query(sql).unwrap()).unwrap();
    let mut answer = None;
    for threads in [1usize, 0] {
        let ctx = ExecContext { threads, ..Default::default() };
        let (late, late_stats) = execute(store, &analyzed, &ctx).unwrap();
        let (partial, early_stats) = execute_partial(store, &analyzed, &ctx).unwrap();
        let early = finalize(&analyzed, partial).unwrap();
        assert_eq!(late, early, "{label} threads={threads}: {sql}");
        assert_eq!(
            (late_stats.rows_scanned, late_stats.cells_scanned, late_stats.chunks_skipped),
            (early_stats.rows_scanned, early_stats.cells_scanned, early_stats.chunks_skipped),
            "{label} threads={threads}: {sql}"
        );
        if let Some(limit) = analyzed.limit {
            assert!(late.rows.len() <= limit, "{label}: {sql}");
        }
        answer = Some(late);
    }
    answer.expect("two passes ran")
}

/// Queries whose answer is decided by the ranking itself: which key cells
/// are compared (as ids or as values), which groups a tie-break lets
/// through a LIMIT, what HAVING reads.
const RANKING_QUERIES: [&str; 24] = [
    // ORDER BY on the key, both directions: ids stand in for values.
    "SELECT table_name, COUNT(*) c FROM data GROUP BY table_name ORDER BY table_name ASC LIMIT 10",
    "SELECT table_name, COUNT(*) c FROM data GROUP BY table_name ORDER BY table_name DESC LIMIT 10",
    // Many ties on a high-cardinality key: the whole-row tie-break decides
    // who survives, ascending (hundreds of groups count 1) and descending.
    "SELECT table_name, COUNT(*) c FROM data GROUP BY table_name ORDER BY c ASC LIMIT 10",
    "SELECT user, COUNT(*) c FROM data GROUP BY user ORDER BY c DESC LIMIT 25",
    // The tie-break meets an aggregate cell before the key cell; a key the
    // select list omits (equal rows are interchangeable, never lost).
    "SELECT COUNT(*) c, table_name FROM data GROUP BY table_name ORDER BY c DESC LIMIT 10",
    "SELECT COUNT(*) c FROM data GROUP BY table_name ORDER BY c DESC LIMIT 10",
    "SELECT COUNT(*) c, MAX(latency) mx FROM data GROUP BY country, user ORDER BY c ASC LIMIT 12",
    // Aggregates the ranking never reads are finalized for survivors only.
    "SELECT table_name, COUNT(*) c, AVG(latency) a, MIN(user) mn, SUM(latency) s FROM data GROUP BY table_name ORDER BY c DESC LIMIT 10",
    "SELECT table_name, COUNT(*) c, AVG(latency) a FROM data GROUP BY table_name ORDER BY a DESC, c ASC LIMIT 10",
    // HAVING on an aggregate, on the key, on both, and on a scalar call.
    "SELECT table_name, COUNT(*) c FROM data GROUP BY table_name HAVING c > 2 ORDER BY c DESC LIMIT 10",
    "SELECT table_name, COUNT(*) c FROM data GROUP BY table_name HAVING table_name >= 'm' ORDER BY c DESC LIMIT 10",
    "SELECT table_name, COUNT(*) c, SUM(latency) s FROM data GROUP BY table_name HAVING c > 1 AND contains(table_name, 'ads') ORDER BY s DESC",
    "SELECT country, COUNT(*) c FROM data GROUP BY country HAVING length(country) = 2 AND c / 2 > 10 ORDER BY country DESC",
    "SELECT table_name, COUNT(*) c FROM data GROUP BY table_name HAVING c > 1000000",
    // Two keys: mixed-direction ORDER BY over key and aggregate cells.
    "SELECT country, table_name, COUNT(*) c FROM data GROUP BY country, table_name ORDER BY c DESC LIMIT 15",
    "SELECT user, country, SUM(latency) s FROM data GROUP BY user, country ORDER BY country DESC, s ASC LIMIT 9",
    "SELECT table_name, country, COUNT(*) c FROM data WHERE latency > 300.0 GROUP BY table_name, country HAVING country != 'US' ORDER BY table_name ASC, c DESC LIMIT 20",
    // A Float key (ids order by total_cmp, like Value) and an Int key.
    "SELECT latency, COUNT(*) c FROM data GROUP BY latency ORDER BY latency DESC LIMIT 7",
    "SELECT latency, COUNT(*) c FROM data GROUP BY latency ORDER BY c DESC LIMIT 7",
    "SELECT timestamp, MAX(latency) mx FROM data WHERE country = 'DE' GROUP BY timestamp ORDER BY mx DESC LIMIT 5",
    // A virtual-field key.
    "SELECT date(timestamp) d, COUNT(*) c, AVG(latency) a FROM data GROUP BY d ORDER BY c DESC LIMIT 4",
    // Global aggregates: over every row, and the one row over zero rows
    // that HAVING and LIMIT still apply to.
    "SELECT COUNT(*) c, SUM(latency) s FROM data WHERE country = 'nowhere'",
    "SELECT COUNT(*) c, SUM(latency) s FROM data WHERE country = 'nowhere' HAVING c > 0",
    "SELECT COUNT(*) c, MIN(latency) mn FROM data ORDER BY c DESC LIMIT 0",
];

#[test]
fn ranking_on_ids_equals_ranking_on_values() {
    use powerdrill::data::{generate_logs, LogsSpec};
    use powerdrill::encoding::TableDelta;

    let table = generate_logs(&LogsSpec::scaled(4_000));
    let head = table.select_rows(&(0..3_600).collect::<Vec<_>>());
    let tail = table.select_rows(&(3_600..4_000).collect::<Vec<_>>());
    let mut production = BuildOptions::production(&["country", "table_name"]);
    if let Some(spec) = &mut production.partition {
        spec.max_chunk_rows = 150;
    }

    let check = |store: &DataStore, label: &str| {
        for sql in MATRIX_QUERIES.iter().chain(&RANKING_QUERIES) {
            assert_late_equals_early(store, sql, label);
        }
        // LIMIT at every boundary of the group count, and no LIMIT at all:
        // `c DESC` over table names ties by the hundreds.
        let base = "SELECT table_name, COUNT(*) c FROM data GROUP BY table_name ORDER BY c DESC";
        let groups = assert_late_equals_early(store, base, label).rows.len();
        assert!(groups > 500, "{label}: a high-cardinality key is the point ({groups})");
        for limit in [0, 1, groups - 1, groups, groups + 1] {
            let limited = assert_late_equals_early(store, &format!("{base} LIMIT {limit}"), label);
            assert_eq!(limited.rows.len(), limit.min(groups), "{label}: LIMIT {limit}");
        }
    };

    // Sorted-array dictionaries, then the production build's front coding.
    check(&DataStore::build(&head, &BuildOptions::basic()).unwrap(), "basic");
    let mut store = DataStore::build(&head, &production).unwrap();
    let before = ["table_name", "latency"].map(|c| store.column(c).unwrap());
    check(&store, "front-coded build");

    // After an append that renumbered the key dictionaries' old ids, ids
    // still order like values and the ranking compares ids.
    let columns: Vec<&[Value]> = (0..tail.schema().len()).map(|i| tail.column(i)).collect();
    store
        .append_delta(&TableDelta::from_columns(tail.schema().clone(), &columns).unwrap())
        .unwrap();
    for (column, before) in ["table_name", "latency"].iter().zip(&before) {
        assert!(
            renumbered(before, &store.column(column).unwrap()),
            "the append must renumber `{column}`'s old ids for this test to mean anything"
        );
    }
    check(&store, "after the append");

    // And the appended store answers like a fresh build of all the rows.
    let rebuilt = DataStore::build(&table, &production).unwrap();
    let ctx = ExecContext { threads: 1, ..Default::default() };
    for sql in MATRIX_QUERIES.iter().chain(&RANKING_QUERIES) {
        let analyzed = analyze(&parse_query(sql).unwrap()).unwrap();
        let (got, _) = execute(&store, &analyzed, &ctx).unwrap();
        let (want, _) = execute(&rebuilt, &analyzed, &ctx).unwrap();
        assert_eq!(got, want, "appended vs rebuilt: {sql}");
    }
}

#[test]
fn ranking_on_ids_equals_ranking_on_values_for_random_queries() {
    let mut rng = Rng::seed_from_u64(0x5eed_0005);
    for case in 0..64 {
        let table = random_table(&mut rng);
        let sql = random_query(&mut rng);
        if refused(&table, &sql) {
            continue;
        }
        // Besides the generator's tails: order by the key, and a HAVING on it.
        let keyed = format!(
            "{} ORDER BY {} LIMIT {}",
            sql.split(" ORDER BY ").next().unwrap(),
            rng.pick(&["k DESC", "g ASC", "g DESC, k ASC"]),
            rng.range_usize(0, 6)
        );
        let keyed = if sql.contains("GROUP BY k, g") { keyed } else { sql.clone() };
        let sorted = table.sorted_by(&["k", "g"]).unwrap();
        for (table, options) in [
            (&table, BuildOptions::basic()),
            (&table, BuildOptions::optcols(PartitionSpec::new(&["k", "g"], 16))),
            (&sorted, BuildOptions::optdicts(PartitionSpec::new(&["k", "g"], 8))),
        ] {
            let store = DataStore::build(table, &options).unwrap();
            assert_late_equals_early(&store, &sql, &format!("case {case} {options:?}"));
            assert_late_equals_early(&store, &keyed, &format!("case {case} {options:?}"));
        }
    }
}

// ---------------------------------------------------------------------------
// Kernel axis
// ---------------------------------------------------------------------------

/// The chunk kernels against the row oracle at one thread and at eight:
/// `COUNT(*)` alone by one key or two, the group index and per-slot
/// loops, the double-double float slots
/// and the keyless MIN/MAX shortcut answer as `pd_baselines::scan` does,
/// and both thread counts scan the same rows and cells. Global aggregates
/// (no `GROUP BY`), single-key dense group-bys, masks and multi-key
/// queries, over a sorted partitioned build and a one-chunk unsorted one.
#[test]
fn kernels_match_the_row_oracle_at_every_thread_count() {
    use powerdrill::baselines::scan;
    use powerdrill::core::ScanStats;
    use powerdrill::data::{generate_logs, LogsSpec};
    use std::time::Duration;

    let queries: Vec<&str> = MATRIX_QUERIES
        .iter()
        .copied()
        .chain([
            // Global aggregates: the group-of-every-row shape.
            "SELECT COUNT(*) c, SUM(latency) s, AVG(latency) a FROM data",
            "SELECT SUM(latency) s FROM data WHERE country = 'US'",
            "SELECT COUNT(*) c, MIN(latency) mn, MAX(latency) mx FROM data",
        ])
        .collect();

    let table = generate_logs(&LogsSpec::scaled(3_000));
    let sorted = table.sorted_by(&["country", "table_name"]).unwrap();
    let mut production = BuildOptions::production(&["country", "table_name"]);
    if let Some(spec) = &mut production.partition {
        spec.max_chunk_rows = 150;
    }
    for (table, options) in [(&sorted, production), (&table, BuildOptions::basic())] {
        let store = DataStore::build(table, &options).unwrap();
        for sql in &queries {
            let want = scan::query(table, sql).unwrap();
            let analyzed = analyze(&parse_query(sql).unwrap()).unwrap();
            let [(one, one_stats), (eight, eight_stats)] = [1usize, 8].map(|threads| {
                let ctx = ExecContext { threads, ..Default::default() };
                let (result, stats) = execute(&store, &analyzed, &ctx).unwrap();
                (result, ScanStats { elapsed: Duration::ZERO, ..stats })
            });
            assert_eq!(one, want, "threads=1: {sql}");
            assert_eq!(eight, want, "threads=8: {sql}");
            assert_eq!(eight_stats, one_stats, "threads must not change the work done: {sql}");
        }
    }
}

// ---------------------------------------------------------------------------
// Distributed equivalence matrix
// ---------------------------------------------------------------------------

/// Concurrent shard fan-out must be **bit-identical** to the single-store
/// engine for every matrix query, at every tested combination of
/// {shard count} × {threads} × {shard cache on/off} × {replication on/off}.
///
/// This is a strong claim: different shard counts re-partition, reorder
/// and re-chunk the rows, so even float `SUM`/`AVG` must not depend on
/// summation order — which holds because aggregation states accumulate
/// into exact superaccumulators (`pd_common::FloatSum`). `assert_eq!`,
/// never approximate comparison.
#[test]
fn distributed_matrix_is_bit_identical_to_single_store() {
    use powerdrill::data::{generate_logs, LogsSpec};
    use powerdrill::dist::{Cluster, ClusterConfig};

    let table = generate_logs(&LogsSpec::scaled(1_500));
    let mut build = BuildOptions::production(&["country", "table_name"]);
    if let Some(spec) = &mut build.partition {
        spec.max_chunk_rows = 150;
    }
    let store = DataStore::build(&table, &build).unwrap();
    let sequential = ExecContext { threads: 1, ..Default::default() };
    let expected: Vec<QueryResult> = MATRIX_QUERIES
        .iter()
        .map(|sql| {
            let analyzed = analyze(&parse_query(sql).unwrap()).unwrap();
            execute(&store, &analyzed, &sequential).unwrap().0
        })
        .collect();

    for shards in [1usize, 2, 4, 8] {
        for threads in [1usize, 2, 4] {
            for shard_cache in [0usize, 128] {
                for replication in [false, true] {
                    let config = ClusterConfig {
                        shards,
                        replication,
                        threads,
                        shard_cache,
                        build: build.clone(),
                        ..Default::default()
                    };
                    let cluster = Cluster::build(&table, &config).unwrap();
                    let label = format!(
                        "shards={shards} threads={threads} cache={shard_cache} \
                         replication={replication}"
                    );
                    // Two passes: the second exercises warm cache paths
                    // (shard-level and chunk-level) and must change
                    // nothing but the scan statistics.
                    for pass in 0..2 {
                        for (sql, want) in MATRIX_QUERIES.iter().zip(&expected) {
                            let outcome = cluster.query(sql).unwrap();
                            assert_eq!(outcome.result, *want, "{label} pass={pass}: {sql}");
                            assert_eq!(
                                outcome.stats.rows_skipped
                                    + outcome.stats.rows_cached
                                    + outcome.stats.rows_scanned,
                                outcome.stats.rows_total,
                                "row accounting must balance: {label}: {sql}"
                            );
                            assert_eq!(outcome.subquery_latencies.len(), cluster.shard_count());
                            if shard_cache > 0 && pass == 1 {
                                assert_eq!(
                                    outcome.shard_cache_hits,
                                    cluster.shard_count(),
                                    "warm pass must reuse every shard partial: {label}: {sql}"
                                );
                            }
                            if shard_cache == 0 {
                                assert_eq!(outcome.shard_cache_hits, 0, "{label}");
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Shards large enough that their scans wake the worker pool: a mixer asks
/// its in-memory children in order on the calling thread, and a leaf scan
/// above the hand-off break-even splits its chunks across the pool.
/// Whichever thread scans which chunk, cold (scanned) and warm (cached)
/// answers equal the single store's, bit for bit.
#[test]
fn local_trees_with_scans_worth_a_hand_off_match_a_single_store() {
    use powerdrill::data::{generate_logs, LogsSpec};
    use powerdrill::dist::{Cluster, ClusterConfig, TreeShape};

    let table = generate_logs(&LogsSpec::scaled(140_000));
    let mut build = BuildOptions::production(&["country", "table_name"]);
    if let Some(spec) = &mut build.partition {
        spec.max_chunk_rows = 2_000;
    }
    let store = DataStore::build(&table, &build).unwrap();
    let sequential = ExecContext { threads: 1, ..Default::default() };
    let expected: Vec<QueryResult> = MATRIX_QUERIES
        .iter()
        .map(|sql| {
            let analyzed = analyze(&parse_query(sql).unwrap()).unwrap();
            execute(&store, &analyzed, &sequential).unwrap().0
        })
        .collect();

    for (shards, threads) in [(4usize, 2usize), (2, 4)] {
        let config = ClusterConfig {
            shards,
            threads,
            tree: TreeShape { fanout: 2 },
            build: build.clone(),
            ..Default::default()
        };
        let cluster = Cluster::build(&table, &config).unwrap();
        for pass in 0..2 {
            for (sql, want) in MATRIX_QUERIES.iter().zip(&expected) {
                let outcome = cluster.query(sql).unwrap();
                assert_eq!(
                    outcome.result, *want,
                    "shards={shards} threads={threads} pass={pass}: {sql}"
                );
                let stats = &outcome.stats;
                assert_eq!(
                    stats.rows_skipped + stats.rows_cached + stats.rows_scanned,
                    stats.rows_total,
                    "row accounting must balance: {sql}"
                );
            }
        }
    }
}

/// The edge-kind axis: a tree node reaches its children over in-memory
/// edges (`local`: every node in this address space) or over sockets to
/// spawned `pd-dist-worker` processes (Unix, loopback TCP). The node code
/// is the same, so **every assertion is the same** for all three: results
/// bit-identical to the single store, skipped + cached + scanned = total,
/// one latency and one queue delay per shard, and warm passes served
/// entirely from the root's result cache.
/// Matrix: {shards 1/2/4} × {tree depth ≤1 / 2 (fanout 16 / 2)} ×
/// {local, unix, tcp} × {result caching off / on}, each with a cold
/// and a warm pass, and at 4 shards a **rebuild-then-requery** pass that
/// proves a rebuild forgets: after `Cluster::rebuild` with different
/// data, every answer is the new data's, cold then warm again.
///
/// Across edge kinds the work must agree too: every leaf keeps its shard
/// summary and every edge prunes by it, so `shard_cache_hits`,
/// `worker_cache_hits()` and `subtrees_pruned` are equal for every
/// (shards, fanout, cache, pass, query).
///
/// Exact `assert_eq!`, floats included: group keys, float sums
/// (superaccumulator limbs) and sketches cross the wire bit-identically,
/// every merge level folds associatively, and cached partials are the very
/// states a recomputation would produce — so neither the process split, the
/// socket shape, the wire codec nor any cache may change *anything* about
/// any result row.
#[test]
fn edge_kind_axis_is_bit_identical_and_caches_alike() {
    use powerdrill::data::{generate_logs, LogsSpec};
    use powerdrill::dist::{Cluster, ClusterConfig, RpcConfig, Transport, TreeShape, WorkerAddr};
    use std::time::Duration;

    let table = generate_logs(&LogsSpec::scaled(1_200));
    let rebuilt_table = generate_logs(&LogsSpec::scaled(1_000));
    let mut build = BuildOptions::production(&["country", "table_name"]);
    if let Some(spec) = &mut build.partition {
        spec.max_chunk_rows = 150;
    }
    let expect_for = |table: &powerdrill::Table, queries: &[&str]| -> Vec<QueryResult> {
        let store = DataStore::build(table, &build).unwrap();
        let sequential = ExecContext { threads: 1, ..Default::default() };
        queries
            .iter()
            .map(|sql| {
                let analyzed = analyze(&parse_query(sql).unwrap()).unwrap();
                execute(&store, &analyzed, &sequential).unwrap().0
            })
            .collect()
    };
    let expected = expect_for(&table, &MATRIX_QUERIES);
    let rebuilt_expected = expect_for(&rebuilt_table, &MATRIX_QUERIES[..3]);

    let worker_bin = std::path::PathBuf::from(env!("CARGO_BIN_EXE_pd-worker"));
    let rpc = |addr: WorkerAddr| {
        Transport::Rpc(RpcConfig {
            worker_bin: Some(worker_bin.clone()),
            budget: Duration::from_secs(30),
            addr,
        })
    };
    for shards in [1usize, 2, 4] {
        // fanout 16 keeps every leaf directly under the root (depth ≤ 1);
        // fanout 2 forces an intermediate merge level at 4 shards
        // (depth 2: leaves → mixers → root).
        for fanout in [16usize, 2] {
            for cache in [0usize, 128] {
                let edge_kinds = [
                    ("local", Transport::InProcess),
                    ("unix", rpc(WorkerAddr::Unix)),
                    ("tcp", rpc(WorkerAddr::loopback())),
                ];
                // Per edge kind, per (pass, query): (shard hits, node hits,
                // edges pruned).
                let mut observed = Vec::new();
                for (kind, transport) in edge_kinds {
                    let label =
                        format!("shards={shards} fanout={fanout} cache={cache} edges={kind}");
                    let config = ClusterConfig {
                        shards,
                        replication: false,
                        threads: 0,
                        shard_cache: cache,
                        tree: TreeShape { fanout },
                        build: build.clone(),
                        transport,
                    };
                    let mut cluster = Cluster::build(&table, &config).unwrap();
                    assert_eq!(cluster.shard_count(), shards, "{label}");
                    let mut hits = Vec::new();
                    for pass in 0..2 {
                        for (sql, want) in MATRIX_QUERIES.iter().zip(&expected) {
                            let outcome = cluster.query(sql).unwrap();
                            assert_eq!(outcome.result, *want, "{label} pass={pass}: {sql}");
                            assert_eq!(
                                outcome.stats.rows_skipped
                                    + outcome.stats.rows_cached
                                    + outcome.stats.rows_scanned,
                                outcome.stats.rows_total,
                                "row accounting must balance: {label}: {sql}"
                            );
                            assert_eq!(outcome.subquery_latencies.len(), shards, "{label}");
                            assert_eq!(outcome.queue_delays.len(), shards, "{label}");
                            assert!(outcome.failovers.is_empty(), "{label}");
                            assert!(outcome.hedges.is_empty(), "{label}");
                            if cache == 0 {
                                assert_eq!(outcome.shard_cache_hits, 0, "{label}");
                                assert_eq!(outcome.worker_cache_hits(), 0, "{label}");
                            } else if pass == 1 {
                                // Warm + caching: every non-pruned subtree
                                // answers from a node's cache, so nothing
                                // is scanned anywhere.
                                assert_eq!(
                                    outcome.stats.rows_scanned, 0,
                                    "{label} warm: no scan may survive a cached pass: {sql}"
                                );
                            }
                            hits.push((
                                outcome.shard_cache_hits,
                                outcome.worker_cache_hits(),
                                outcome.stats.subtrees_pruned,
                            ));
                        }
                        if cache > 0 && pass == 1 {
                            // A warm query stops at the cache layer closest
                            // to the root — the root itself, in the driver
                            // on every edge kind: one hit, covering every
                            // shard.
                            let outcome = cluster.query(MATRIX_QUERIES[0]).unwrap();
                            assert_eq!(outcome.worker_cache_hits(), 1, "{label}");
                            assert_eq!(outcome.shard_cache_hits, shards, "{label}");
                        }
                    }
                    observed.push((kind, hits));
                    if shards == 4 {
                        // Rebuild-then-requery: the fresh tree (and its
                        // fresh root) must retire every cached partial —
                        // the answers are the new data's, cold and then
                        // warm again.
                        cluster.rebuild(&rebuilt_table).unwrap();
                        for pass in 0..2 {
                            for (sql, want) in MATRIX_QUERIES[..3].iter().zip(&rebuilt_expected) {
                                let outcome = cluster.query(sql).unwrap();
                                assert_eq!(
                                    outcome.result, *want,
                                    "{label} rebuild pass={pass}: {sql}"
                                );
                                if cache > 0 && pass == 1 {
                                    assert_eq!(
                                        outcome.stats.rows_scanned, 0,
                                        "{label} rebuild warm: {sql}"
                                    );
                                }
                            }
                        }
                    }
                }
                let (reference_kind, reference) = &observed[0];
                for (kind, hits) in &observed[1..] {
                    for (i, (got, want)) in hits.iter().zip(reference).enumerate() {
                        assert_eq!(
                            got,
                            want,
                            "shards={shards} fanout={fanout} cache={cache}: {kind} and \
                             {reference_kind} edges must report the same hits and prunes \
                             (pass {}, query {})",
                            i / MATRIX_QUERIES.len(),
                            i % MATRIX_QUERIES.len()
                        );
                    }
                }
            }
        }
    }
}

/// The fault axis of the edge kinds: shard 1's primary process refuses
/// every query (the fault relay in front of each worker,
/// `crates/dist/tests/support/relay.rs`), and that must be the same event
/// over unix sockets and over loopback TCP: identical rows, the same
/// `failovers`, balanced skipped + cached + scanned accounting — at either
/// tree depth, cold and then warm from the node caches — and the same
/// work as a healthy tree in one address space: the cut primary changes
/// who answers, not which edges are pruned (a pruned edge needs no
/// server, so it records no failover) or which rows are scanned.
#[test]
fn unreachable_primary_is_the_same_fault_over_both_edge_kinds() {
    use faults::{Plan, Relays};
    use powerdrill::data::{generate_logs, LogsSpec};
    use powerdrill::dist::{Cluster, ClusterConfig, RpcConfig, Transport, TreeShape, WorkerAddr};

    let table = generate_logs(&LogsSpec::scaled(1_200));
    let mut build = BuildOptions::production(&["country", "table_name"]);
    if let Some(spec) = &mut build.partition {
        spec.max_chunk_rows = 150;
    }
    let store = DataStore::build(&table, &build).unwrap();
    let relays =
        Relays::new(std::path::Path::new(env!("CARGO_BIN_EXE_pd-relay")), &Plan::refusing(&[1]));
    let relayed = |addr: WorkerAddr| {
        Transport::Rpc(RpcConfig {
            worker_bin: Some(relays.launcher()),
            addr,
            ..Default::default()
        })
    };
    for fanout in [16usize, 2] {
        let tree = |transport: Transport| {
            let config = ClusterConfig {
                shards: 4,
                replication: true,
                tree: TreeShape { fanout },
                build: build.clone(),
                transport,
                ..Default::default()
            };
            Cluster::build(&table, &config).unwrap()
        };
        let trees = [
            ("local", tree(Transport::InProcess)),
            ("unix", tree(relayed(WorkerAddr::Unix))),
            ("tcp", tree(relayed(WorkerAddr::loopback()))),
        ];
        for pass in 0..2 {
            for sql in MATRIX_QUERIES {
                let (want, _) = powerdrill::query(&store, sql).unwrap();
                let [local, unix, tcp] = trees.each_ref().map(|(kind, cluster)| {
                    let label = format!("fanout={fanout} edges={kind} pass={pass}: {sql}");
                    let outcome = cluster.query(sql).unwrap();
                    assert_eq!(outcome.result, want, "{label}");
                    let stats = &outcome.stats;
                    assert_eq!(
                        stats.rows_skipped + stats.rows_cached + stats.rows_scanned,
                        stats.rows_total,
                        "row accounting must balance: {label}"
                    );
                    assert!(outcome.hedges.is_empty(), "a refused query is not raced: {label}");
                    outcome
                });
                let work = |outcome: &powerdrill::dist::QueryOutcome| {
                    (outcome.stats.subtrees_pruned, outcome.stats.rows_scanned)
                };
                assert_eq!(work(&local), work(&unix), "fanout={fanout} {pass}: {sql}");
                assert_eq!(work(&tcp), work(&unix), "fanout={fanout} {pass}: {sql}");
                assert_eq!(tcp.failovers, unix.failovers, "fanout={fanout} {pass}: {sql}");
                assert!(local.failovers.is_empty(), "fanout={fanout} {pass}: {sql}");
                if pass == 0 && sql == MATRIX_QUERIES[0] {
                    // Unrestricted and cold: nothing is pruned, no cache
                    // answers, the replica serves shard 1.
                    assert_eq!(unix.failovers, vec![1], "fanout={fanout}");
                }
            }
        }
    }
}

/// The pruning axis: pruning by shard summaries (per-chunk zone maps, Bloom
/// filters and virtual-field partial evaluation shipped in the Load acks)
/// is pure work-avoidance — it may only move scans around, never change a
/// row. Every matrix query runs cold and warm over the in-process tree and
/// a real process-split tree (unix sockets and loopback TCP), and every
/// result must be **bit-identical** (floats included) to the sequential
/// single-store answer — and every edge kind must prune the same edges,
/// annotate the same chunks and scan the same rows: an in-memory edge
/// carries its leaves' summaries as a socket edge does. The matrix
/// includes `date(timestamp)` drill-downs
/// (the §5.1 virtual-field path) and gap restrictions the shard envelope
/// cannot refute, so both the prune-the-edge path and the leaves' own
/// chunk skipping beneath a live edge are exercised against the reference.
#[test]
fn pruning_by_summaries_is_bit_identical_on_every_edge_kind() {
    use powerdrill::data::{generate_logs, LogsSpec};
    use powerdrill::dist::{Cluster, ClusterConfig, RpcConfig, Transport, TreeShape, WorkerAddr};
    use std::time::Duration;

    let table = generate_logs(&LogsSpec::scaled(1_200));
    let mut build = BuildOptions::production(&["country", "table_name"]);
    if let Some(spec) = &mut build.partition {
        spec.max_chunk_rows = 150;
    }
    let store = DataStore::build(&table, &build).unwrap();
    let sequential = ExecContext { threads: 1, ..Default::default() };
    // The shared matrix plus restrictions built to *prune*: an equality on
    // a date() virtual field and a selective country drill-down.
    let queries: Vec<&str> = MATRIX_QUERIES
        .iter()
        .copied()
        .chain([
            "SELECT country, COUNT(*) c FROM data \
             WHERE date(timestamp) IN ('1970-01-01') GROUP BY country ORDER BY c DESC",
            "SELECT table_name, COUNT(*) c, SUM(latency) s FROM data \
             WHERE country IN ('SG') AND latency > 100.0 GROUP BY table_name ORDER BY c DESC LIMIT 5",
        ])
        .collect();
    let expected: Vec<QueryResult> = queries
        .iter()
        .map(|sql| {
            let analyzed = analyze(&parse_query(sql).unwrap()).unwrap();
            execute(&store, &analyzed, &sequential).unwrap().0
        })
        .collect();

    let worker_bin = std::path::PathBuf::from(env!("CARGO_BIN_EXE_pd-worker"));
    let rpc = |addr: WorkerAddr| {
        Transport::Rpc(RpcConfig {
            worker_bin: Some(worker_bin.clone()),
            budget: Duration::from_secs(30),
            addr,
        })
    };
    let transports = [
        ("local", Transport::InProcess),
        ("unix", rpc(WorkerAddr::Unix)),
        ("tcp", rpc(WorkerAddr::loopback())),
    ];
    // Per edge kind, per (pass, query): (edges pruned, chunks pruned
    // remotely, rows scanned).
    let mut observed = Vec::new();
    for (label, transport) in transports {
        let cluster = Cluster::build(
            &table,
            &ClusterConfig {
                shards: 3,
                replication: false,
                shard_cache: 64,
                tree: TreeShape { fanout: 2 },
                build: build.clone(),
                transport,
                ..Default::default()
            },
        )
        .unwrap();
        let mut work = Vec::new();
        for pass in 0..2 {
            for (sql, want) in queries.iter().zip(&expected) {
                let outcome = cluster.query(sql).unwrap();
                assert_eq!(outcome.result, *want, "{label} pass={pass}: {sql}");
                assert_eq!(
                    outcome.stats.rows_skipped
                        + outcome.stats.rows_cached
                        + outcome.stats.rows_scanned,
                    outcome.stats.rows_total,
                    "row accounting must balance: {label} pass={pass}: {sql}"
                );
                assert_eq!(
                    outcome.stats.chunks_skipped
                        + outcome.stats.chunks_cached
                        + outcome.stats.chunks_scanned,
                    outcome.stats.chunks_total,
                    "chunk accounting must balance: {label} pass={pass}: {sql}"
                );
                let stats = &outcome.stats;
                work.push((stats.subtrees_pruned, stats.chunks_pruned_remote, stats.rows_scanned));
            }
        }
        observed.push((label, work));
    }
    let (reference_label, reference) = &observed[0];
    assert!(reference.iter().any(|work| work.1 > 0), "some query prunes chunks remotely");
    for (label, work) in &observed[1..] {
        for (i, (got, want)) in work.iter().zip(reference).enumerate() {
            let sql = queries[i % queries.len()];
            assert_eq!(
                got,
                want,
                "{label} vs {reference_label} (pass {}): {sql}",
                i / queries.len()
            );
        }
    }
}

/// The same bit-identity, via the seeded random query generator: sharded
/// execution tracks the row-at-a-time baseline exactly where the
/// single-store engine does.
#[test]
fn distributed_random_queries_match_single_store_bitwise() {
    use powerdrill::dist::{Cluster, ClusterConfig};

    let mut rng = Rng::seed_from_u64(0x5eed_0004);
    for case in 0..12 {
        let table = random_table(&mut rng);
        let sql = random_query(&mut rng);
        if refused(&table, &sql) {
            continue;
        }
        let sorted = table.sorted_by(&["k", "g"]).unwrap();
        let store =
            DataStore::build(&sorted, &BuildOptions::optdicts(PartitionSpec::new(&["k", "g"], 8)))
                .unwrap();
        let analyzed = analyze(&parse_query(&sql).unwrap()).unwrap();
        let (want, _) =
            execute(&store, &analyzed, &ExecContext { threads: 1, ..Default::default() }).unwrap();
        let shards = [1, 3, 5][case % 3];
        let cluster = Cluster::build(
            &sorted,
            &ClusterConfig {
                shards,
                build: BuildOptions::optdicts(PartitionSpec::new(&["k", "g"], 8)),
                ..Default::default()
            },
        )
        .unwrap();
        for pass in 0..2 {
            let outcome = cluster.query(&sql).unwrap();
            assert_eq!(outcome.result, want, "case {case} shards={shards} pass={pass}: {sql}");
        }
    }
}
