//! Kernel speed: the raw-speed claims of the chunk kernels, asserted —
//! not just printed — so a regression fails the bench run itself.
//!
//! Four claims:
//!
//! 1. the dictionary→f64 table is built once per (column, chunk) and
//!    *not* once per aggregate — `SUM(x) + AVG(x)` share one float-sum
//!    slot, so they cost exactly `chunk_count` builds (asserted via
//!    `pd_core::float_table_builds`);
//! 2. a row mask built from the restriction's resolved dictionary ids
//!    beats the same predicate written so that only the expression
//!    evaluator can answer it (one `Value` and one `eval_expr` per
//!    chunk-dictionary entry) — by at least 5×, for a `timestamp` window
//!    and for a `date(timestamp)` equality on its virtual field;
//! 3. a top-10 over a string key with thousands of groups through
//!    `execute` (groups ranked on dictionary ids, ten dictionary lookups) beats
//!    `finalize(execute_partial(..))` on the same store (every group
//!    ordered, translated and ranked as values — what a tree's leaf and
//!    root do between them), same rows — by at least 1.5×; the two times
//!    are *reported* side by side (`top10_rank_on_ids` /
//!    `top10_rank_on_values`), so the record shows what the store's
//!    boundary costs;
//! 4. no kernel waits on one counter: on §3's sorted store, where equal
//!    codes sit side by side, each of five cases costs at most 1.25× what
//!    it costs on the same table unsorted — `float_groupby_dense` (a float
//!    `SUM`/`AVG` by `user`, double-double slots),
//!    `count_one_key_counts_array` and `count_two_keys_counts_array` (the
//!    `COUNT(*)`-only counts-array kernels, one key and two keys fused into
//!    one flat index), `sum_keyless` (a keyless float `SUM`, register
//!    lanes) and `sum_one_group` (`country, SUM(latency)` on scan_cold's
//!    layout — `country, table_name` partitions of 2 000 rows — whose
//!    chunks mostly hold one country). Each case is timed on both stores
//!    in alternation and reported twice, the unsorted side as
//!    `<case>_unsorted`.
//!
//! Seven cases are reported and not asserted: `bottom10_rank_on_values`
//! (claim 3's chart ordered `c ASC`, where thousands of groups tie on
//! their count),
//! `masked_groupby_5pct` (a grouped `COUNT` and `SUM` by `country` under a
//! restriction that passes a twentieth of every chunk's rows: as many
//! rows pass as the key has codes, so its codes are the groups),
//! `masked_groupby_5pct_table_name` (the same chart by `table_name`, whose
//! chunk dictionaries have more entries than that: the passing rows are
//! listed),
//! `window_two_bounds` (the same chart under both bounds of a `timestamp`
//! window, one id interval), `minmax_global` (an unrestricted `MIN` and
//! `MAX`, each chunk's first and last dictionary entry) and
//! `distinct_low_cardinality` (`COUNT(DISTINCT user)` by `country`, pairs
//! marked in a flat array).

use pd_bench::{logs_table, measure_stats, rows_from_env_or};
use pd_core::{execute, execute_partial, finalize, BuildOptions, DataStore, ExecContext};
use pd_sql::{analyze, parse_query};
use std::hint::black_box;
use std::time::Duration;

/// How much dearer a case may be on the sorted store than on the same
/// table unsorted (claim 4).
const SORTED_BOUND: f64 = 1.25;

/// Time `sorted` and `unsorted` in alternation, 10 samples each, record
/// both cases (`<name>` and `<name>_unsorted`), return the fastest samples.
/// Alternating keeps a phase of the machine from landing on one side.
fn alternated(
    name: &str,
    mut sorted: impl FnMut(),
    mut unsorted: impl FnMut(),
) -> (Duration, Duration) {
    let (mut a, mut b) = (Vec::new(), Vec::new());
    sorted();
    unsorted();
    for _ in 0..10 {
        a.push(pd_bench::measure(&mut sorted));
        b.push(pd_bench::measure(&mut unsorted));
    }
    let mut fastest = Vec::new();
    for (case, mut samples) in [(name.to_owned(), a), (format!("{name}_unsorted"), b)] {
        samples.sort_unstable();
        let stats = pd_bench::Stats { min: samples[0], median: samples[samples.len() / 2] };
        pd_bench::json_line("kernel_compressed", &case, stats, &[]);
        println!("{case:<42} {:>12}", pd_bench::fmt_duration(stats.min));
        fastest.push(stats.min);
    }
    (fastest[0], fastest[1])
}

/// Time `run` over 10 samples, record the case, return the fastest sample.
fn timed(name: &str, run: impl FnMut()) -> Duration {
    let stats = measure_stats(10, run);
    pd_bench::json_line("kernel_compressed", name, stats, &[]);
    println!("{name:<42} {:>12}", pd_bench::fmt_duration(stats.min));
    stats.min
}

fn main() {
    println!("\n=== bench: kernel_compressed ===");

    // 1. A high-cardinality float group-by, single thread: one float
    // table per chunk however many aggregates read it.
    let rows = rows_from_env_or(200_000);
    // The §3 Reorder rung: rows sorted by the partition fields, then an
    // OptDicts import.
    let table = logs_table(rows).sorted_by(&["user", "country"]).unwrap();
    let store = DataStore::build(&table, &BuildOptions::production(&["user", "country"])).unwrap();
    let chunks = store.chunk_count() as u64;
    let sql = "SELECT user, SUM(latency) s, AVG(latency) a FROM data GROUP BY user";
    let analyzed = analyze(&parse_query(sql).unwrap()).unwrap();
    let serial = ExecContext { threads: 1, ..Default::default() };

    let builds_before = pd_core::float_table_builds();
    execute(&store, &analyzed, &serial).unwrap();
    let builds = pd_core::float_table_builds() - builds_before;
    assert_eq!(
        builds, chunks,
        "SUM(x)+AVG(x) must build one float table per chunk, not one per aggregate"
    );

    // 4. Row order: the same table unsorted, each case timed on both stores
    // in alternation. The scan_cold layout (partitioned on `country,
    // table_name` in 2 000-row chunks) puts one country in most chunks, so
    // its `country` chart is one group per chunk.
    let unsorted = logs_table(rows);
    let production = BuildOptions::production(&["user", "country"]);
    let unsorted_store = DataStore::build(&unsorted, &production).unwrap();
    let mut scan_cold = BuildOptions::production(&["country", "table_name"]);
    if let Some(spec) = &mut scan_cold.partition {
        spec.max_chunk_rows = 2_000;
    }
    let one_group_sorted =
        DataStore::build(&unsorted.sorted_by(&["country", "table_name"]).unwrap(), &scan_cold)
            .unwrap();
    let one_group_unsorted = DataStore::build(&unsorted, &scan_cold).unwrap();
    for (name, sql, sorted, unsorted) in [
        ("float_groupby_dense", sql, &store, &unsorted_store),
        (
            "count_one_key_counts_array",
            "SELECT country, COUNT(*) c FROM data GROUP BY country",
            &store,
            &unsorted_store,
        ),
        (
            "count_two_keys_counts_array",
            "SELECT country, user, COUNT(*) c FROM data GROUP BY country, user",
            &store,
            &unsorted_store,
        ),
        ("sum_keyless", "SELECT SUM(latency) s FROM data", &store, &unsorted_store),
        (
            "sum_one_group",
            "SELECT country, SUM(latency) s FROM data GROUP BY country",
            &one_group_sorted,
            &one_group_unsorted,
        ),
    ] {
        let analyzed = analyze(&parse_query(sql).unwrap()).unwrap();
        let answer = |store: &DataStore| execute(store, &analyzed, &serial).unwrap().0;
        assert_eq!(answer(sorted), answer(unsorted), "row order changes no answer: {sql}");
        let (on_sorted, on_unsorted) = alternated(
            name,
            || {
                black_box(answer(sorted));
            },
            || {
                black_box(answer(unsorted));
            },
        );
        let ratio = on_sorted.as_secs_f64() / on_unsorted.as_secs_f64();
        println!("{:<42} {ratio:>11.2}x", format!("{name} sorted/unsorted"));
        assert!(
            ratio <= SORTED_BOUND,
            "{name}: the sorted store may cost at most {SORTED_BOUND}x the unsorted one: \
             {on_sorted:?} vs {on_unsorted:?}"
        );
    }

    // 2. Masks in the code domain vs the value domain, same store, same
    // rows selected. The opaque spellings keep the column on both sides of
    // the comparison, or inside a call: `expr op literal` would not do —
    // the restriction normalizer makes `timestamp + 0` a virtual field and
    // resolves that to ids just the same.
    let (lo, hi) = table
        .column(0)
        .iter()
        .filter_map(|v| v.as_int())
        .fold((i64::MAX, i64::MIN), |(lo, hi), ts| (lo.min(ts), hi.max(ts)));
    let (from, to) = (lo + (hi - lo) / 4, hi - (hi - lo) / 4);
    let day = {
        let first_day =
            parse_query("SELECT date(timestamp) d FROM data GROUP BY d ORDER BY d ASC LIMIT 1");
        let (result, _) = execute(&store, &analyze(&first_day.unwrap()).unwrap(), &serial).unwrap();
        result.rows[0].0[0].render().into_owned()
    };
    let masked = |name: &str, predicate: &str| {
        let sql = format!("SELECT COUNT(*) c FROM data WHERE {predicate}");
        let analyzed = analyze(&parse_query(&sql).unwrap()).unwrap();
        let run = || execute(&store, &analyzed, &serial).unwrap().0;
        let answer = run(); // also materializes the virtual field, once
        let fastest = timed(name, || {
            black_box(run());
        });
        (answer, fastest)
    };
    for (name, ids, opaque) in [
        (
            "mask_window",
            format!("timestamp >= {from} AND timestamp < {to}"),
            format!("timestamp >= {from} + 0 * timestamp AND timestamp < {to} + 0 * timestamp"),
        ),
        (
            "mask_date",
            format!("date(timestamp) = '{day}'"),
            format!("contains(date(timestamp), '{day}')"),
        ),
    ] {
        let (ids_answer, ids_time) = masked(&format!("{name}_ids"), &ids);
        let (opaque_answer, opaque_time) = masked(&format!("{name}_opaque"), &opaque);
        assert_eq!(ids_answer, opaque_answer, "both spellings select the same rows: {ids}");
        assert!(
            ids_time * 5 <= opaque_time,
            "an id-domain mask must beat value tabulation 5x on `{ids}`: \
             {ids_time:?} vs {opaque_time:?}"
        );
    }
    // Reported only: a drill-sized restriction — a twentieth of the time
    // range, so every chunk is masked — under a grouped COUNT and SUM, which
    // the counts-array kernels do not take: what a masked chunk's general
    // path costs.
    let window = format!("timestamp >= {lo} AND timestamp < {}", lo + (hi - lo) / 20);
    let sql = format!(
        "SELECT country, COUNT(*) c, SUM(latency) s FROM data WHERE {window} GROUP BY country"
    );
    let selective = analyze(&parse_query(&sql).unwrap()).unwrap();
    timed("masked_groupby_5pct", || {
        black_box(execute(&store, &selective, &serial).unwrap());
    });
    let sql = format!(
        "SELECT table_name, COUNT(*) c, SUM(latency) s FROM data WHERE {window} \
         GROUP BY table_name"
    );
    let listed = analyze(&parse_query(&sql).unwrap()).unwrap();
    timed("masked_groupby_5pct_table_name", || {
        black_box(execute(&store, &listed, &serial).unwrap());
    });
    // Reported only: what the cold dashboard's charts cost their kernels.
    for (name, sql) in [
        (
            "window_two_bounds",
            format!(
                "SELECT country, COUNT(*) c, SUM(latency) s FROM data \
                 WHERE timestamp >= {from} AND timestamp < {to} GROUP BY country"
            ),
        ),
        ("minmax_global", "SELECT MIN(latency) mn, MAX(latency) mx FROM data".to_owned()),
        (
            "distinct_low_cardinality",
            "SELECT country, COUNT(DISTINCT user) u FROM data GROUP BY country".to_owned(),
        ),
    ] {
        let analyzed = analyze(&parse_query(&sql).unwrap()).unwrap();
        timed(name, || {
            black_box(execute(&store, &analyzed, &serial).unwrap());
        });
    }

    // 3. Late materialization: the paper's own click shape (`GROUP BY
    // <string> ORDER BY c DESC LIMIT 10`) over the front-coded
    // `table_name` column, ranked on ids vs on values. The ratio is
    // groups ÷ rows scanned, so the store has one size in every mode.
    let store =
        DataStore::build(&logs_table(40_000), &BuildOptions::production(&["country"])).unwrap();
    let sql =
        "SELECT table_name, COUNT(*) c FROM data GROUP BY table_name ORDER BY c DESC LIMIT 10";
    let top10 = analyze(&parse_query(sql).unwrap()).unwrap();
    let (partial, _) = execute_partial(&store, &top10, &serial).unwrap();
    assert!(partial.len() >= 2_000, "a high-cardinality key: {}", partial.len());
    let (late, _) = execute(&store, &top10, &serial).unwrap();
    assert_eq!(late, finalize(&top10, partial).unwrap(), "both domains rank alike");
    let on_values = timed("top10_rank_on_values", || {
        let (partial, _) = execute_partial(&store, &top10, &serial).unwrap();
        black_box(finalize(&top10, partial).unwrap());
    });
    let on_ids = timed("top10_rank_on_ids", || {
        black_box(execute(&store, &top10, &serial).unwrap());
    });
    assert!(
        on_ids * 3 <= on_values * 2,
        "ranking on ids must beat translating every group 1.5x: {on_ids:?} vs {on_values:?}"
    );
    // Reported only: the bottom ten of the same key, where thousands of
    // groups tie on their count and the tie-break decides who survives.
    let bottom10 = analyze(&parse_query(&sql.replace("DESC", "ASC")).unwrap()).unwrap();
    timed("bottom10_rank_on_values", || {
        let (partial, _) = execute_partial(&store, &bottom10, &serial).unwrap();
        black_box(finalize(&bottom10, partial).unwrap());
    });
}
