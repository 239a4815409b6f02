//! Compressed-domain kernel speed: the raw-speed claims behind
//! `KernelConfig`, asserted — not just printed — so a regression that
//! makes a "fast path" slower than the materializing baseline fails the
//! bench run itself.
//!
//! Six claims:
//!
//! 1. run-aware counting over run-heavy codes (`for_each_run`) beats the
//!    row-at-a-time loop (`for_each`) — strictly;
//! 2. the double-double float group-by beats the materializing kernel
//!    end-to-end on a high-cardinality float `SUM`/`AVG` — strictly (16
//!    bytes per group against an exact accumulator per group);
//! 3. the dictionary→f64 table is built once per (column, chunk) and
//!    *not* once per aggregate — `SUM(x) + AVG(x)` share one float-sum
//!    slot, so they cost exactly `chunk_count` builds (asserted via
//!    `pd_core::float_table_builds`);
//! 4. a row mask built from the restriction's resolved dictionary ids
//!    beats the same predicate written so that only the expression
//!    evaluator can answer it (one `Value` and one `eval_expr` per
//!    chunk-dictionary entry) — by at least 5×, for a `timestamp` window
//!    and for a `date(timestamp)` equality on its virtual field;
//! 5. a top-10 over a string key with thousands of groups through
//!    `execute` (groups ranked on dictionary ids, ten trie lookups) beats
//!    `finalize(execute_partial(..))` on the same store (every group
//!    ordered, translated and ranked as values — what a tree's leaf and
//!    root do between them), same rows — by at least 1.5×; the two times
//!    are *reported* side by side (`top10_rank_on_ids` /
//!    `top10_rank_on_values`), so the record shows what the store's
//!    boundary costs;
//! 6. the `COUNT(*)`-only counts-array kernels (one key, and two keys
//!    fused into one flat index) beat the general path — a group index per
//!    row, then one loop per aggregate slot, which is what the
//!    materializing configuration runs for the same query — strictly, now
//!    that neither allocates per group.
//!
//! Five cases are reported and not asserted: `bottom10_rank_on_values`
//! (claim 5's chart ordered `c ASC`, where thousands of groups tie on their
//! count), `masked_groupby_5pct` (a grouped `COUNT` and `SUM` under a
//! restriction that passes a twentieth of every chunk's rows),
//! `window_two_bounds` (the same chart under both bounds of a `timestamp`
//! window, one id interval), `minmax_global` (an unrestricted `MIN` and
//! `MAX`, each chunk's first and last dictionary entry) and
//! `distinct_low_cardinality` (`COUNT(DISTINCT user)` by `country`, pairs
//! marked in a flat array).

use pd_bench::{logs_table, measure_stats, rows_from_env_or, Bench};
use pd_core::{
    execute, execute_partial, finalize, BuildOptions, DataStore, ExecContext, KernelConfig,
};
use pd_encoding::{Elements, ElementsMode};
use pd_sql::{analyze, parse_query};
use std::hint::black_box;
use std::time::Duration;

const ROWS: usize = 1_000_000;

/// Run-heavy codes, the reordered-store profile: runs of ~64 equal codes,
/// 1000 distinct values (u16 representation).
fn run_heavy_ids(distinct: u32, run: usize) -> Vec<u32> {
    (0..ROWS).map(|i| ((i / run) as u32).wrapping_mul(2_654_435_761) % distinct).collect()
}

/// Time `run` over 10 samples, record the case, return the fastest sample.
fn timed(name: &str, run: impl FnMut()) -> Duration {
    let stats = measure_stats(10, run);
    pd_bench::json_line("kernel_compressed", name, stats, &[]);
    println!("{name:<42} {:>12}", pd_bench::fmt_duration(stats.min));
    stats.min
}

fn main() {
    let bench = Bench::new("kernel_compressed").samples(10);

    // 1. Run-aware count vs row-at-a-time count on the same storage.
    let distinct = 1_000u32;
    for run in [64usize, 8] {
        let elements =
            Elements::encode(&run_heavy_ids(distinct, run), distinct, ElementsMode::Optimized);
        let row_wise =
            bench.case_throughput(&format!("count_rowwise/run{run}"), ROWS as u64, || {
                let mut counts = vec![0u64; distinct as usize];
                elements.for_each(|id| counts[id as usize] += 1);
                black_box(counts);
            });
        let run_aware = bench.case_throughput(&format!("count_runs/run{run}"), ROWS as u64, || {
            let mut counts = vec![0u64; distinct as usize];
            elements.for_each_run(|id, n| counts[id as usize] += n as u64);
            black_box(counts);
        });
        // The strict claim is for run-heavy data (the reordered-store
        // profile the fast path targets); the short-run case is recorded
        // to show the crossover, not asserted — run discovery there costs
        // about what it saves.
        if run == 64 {
            assert!(
                run_aware < row_wise,
                "run-aware count must beat the row loop on run-{run} data: \
                 {run_aware:?} vs {row_wise:?}"
            );
        }
    }

    // 2..3. End-to-end: a high-cardinality float group-by, double-double
    // slots vs fully materializing, same store, single thread.
    let rows = rows_from_env_or(200_000);
    // The reordered-store profile the fast paths target: rows sorted by the
    // partition fields, so codes come in runs.
    let table = logs_table(rows).sorted_by(&["user", "country"]).unwrap();
    let store = DataStore::build(&table, &BuildOptions::production(&["user", "country"])).unwrap();
    let chunks = store.chunk_count() as u64;
    let sql = "SELECT user, SUM(latency) s, AVG(latency) a FROM data GROUP BY user";
    let analyzed = analyze(&parse_query(sql).unwrap()).unwrap();
    let ctx = |kernels: KernelConfig| ExecContext { threads: 1, kernels, ..Default::default() };

    let builds_before = pd_core::float_table_builds();
    execute(&store, &analyzed, &ctx(KernelConfig::default())).unwrap();
    let builds = pd_core::float_table_builds() - builds_before;
    assert_eq!(
        builds, chunks,
        "SUM(x)+AVG(x) must build one float table per chunk, not one per aggregate"
    );

    let grouped = |name: &str, kernels: KernelConfig| {
        timed(name, || {
            black_box(execute(&store, &analyzed, &ctx(kernels)).unwrap());
        })
    };
    let materializing = grouped("float_groupby_materializing", KernelConfig::materializing());
    let dense = grouped("float_groupby_dense", KernelConfig::default());
    assert!(
        dense < materializing,
        "double-double group-by must beat the materializing kernel: \
         {dense:?} vs {materializing:?}"
    );

    // 6. COUNT(*) only: the counts-array kernels vs the general path over
    // the same chunks, for one key and for two.
    for (name, keys) in [("count_one_key", "country"), ("count_two_keys", "country, user")] {
        let sql = format!("SELECT {keys}, COUNT(*) c FROM data GROUP BY {keys}");
        let analyzed = analyze(&parse_query(&sql).unwrap()).unwrap();
        let [general, counts_array] = [
            (format!("{name}_general"), KernelConfig::materializing()),
            (format!("{name}_counts_array"), KernelConfig::default()),
        ]
        .map(|(case, kernels)| {
            timed(&case, || {
                black_box(execute(&store, &analyzed, &ctx(kernels)).unwrap());
            })
        });
        assert!(
            counts_array < general,
            "the counts-array kernel must beat the general path on `{sql}`: \
             {counts_array:?} vs {general:?}"
        );
    }

    // Run-aware end-to-end too, on the shape it targets: a global float
    // aggregate folds whole runs into the exact accumulator.
    let global =
        analyze(&parse_query("SELECT COUNT(*) c, SUM(latency) s FROM data").unwrap()).unwrap();
    for (name, kernels) in [
        ("global_sum_materializing", KernelConfig::materializing()),
        ("global_sum_runs", KernelConfig::default()),
    ] {
        timed(name, || {
            black_box(execute(&store, &global, &ctx(kernels)).unwrap());
        });
    }

    // 4. Masks in the code domain vs the value domain, same store, same
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
        let (result, _) =
            execute(&store, &analyze(&first_day.unwrap()).unwrap(), &ctx(KernelConfig::default()))
                .unwrap();
        result.rows[0].0[0].render().into_owned()
    };
    let masked = |name: &str, predicate: &str| {
        let sql = format!("SELECT COUNT(*) c FROM data WHERE {predicate}");
        let analyzed = analyze(&parse_query(&sql).unwrap()).unwrap();
        let run = || execute(&store, &analyzed, &ctx(KernelConfig::default())).unwrap().0;
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
        black_box(execute(&store, &selective, &ctx(KernelConfig::default())).unwrap());
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
            black_box(execute(&store, &analyzed, &ctx(KernelConfig::default())).unwrap());
        });
    }

    // 5. Late materialization: the paper's own click shape (`GROUP BY
    // <string> ORDER BY c DESC LIMIT 10`) over the trie-encoded
    // `table_name` column, ranked on ids vs on values. The ratio is
    // groups ÷ rows scanned, so the store has one size in every mode.
    let store =
        DataStore::build(&logs_table(40_000), &BuildOptions::production(&["country"])).unwrap();
    let sql =
        "SELECT table_name, COUNT(*) c FROM data GROUP BY table_name ORDER BY c DESC LIMIT 10";
    let top10 = analyze(&parse_query(sql).unwrap()).unwrap();
    let serial = ctx(KernelConfig::default());
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
