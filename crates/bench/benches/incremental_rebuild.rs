//! Streaming ingest vs full rebuild: the cost of refreshing a live §4
//! serving tree when ~1% of the table is new.
//!
//! Two ways to get new rows into a running RPC cluster:
//!
//! 1. **full rebuild** — [`Cluster::rebuild`] respawns every worker
//!    process and re-ships the *entire* table as `Load` frames;
//! 2. **delta append** — [`Cluster::append`] keeps the processes alive
//!    and ships only the new rows (`Append` frames), in place. It is the
//!    first append on a freshly built tree, so it also dials the root's
//!    links to its children — the links a query uses, and which the tree's
//!    first query would dial otherwise.
//!
//! Both kinds of frame carry rows the same way — coded columns, a sorted
//! dictionary plus one code per row — so the byte comparison is like for
//! like: what the append saves is the rows it does not re-ship, not a
//! cheaper encoding of them.
//!
//! Because existing dictionary codes are stable under append, both paths
//! must produce bit-identical answers — asserted here, along with the two
//! numbers that justify the delta path (also asserted, so the bench-smoke
//! CI job turns a regression into a red build): on a ~1%-changed table the
//! append must ship **strictly fewer bytes** and complete **strictly
//! faster** than the rebuild.
//!
//! A second, in-run ratio prices the process split itself: the same
//! 80-row append on a 4-leaf + 2-merge-server unix tree and on the
//! in-process tree over the same table (`append_tax_unix`, asserted). A
//! leaf does the same work either way, and so does every mixer: the append
//! walks both trees alike (`Node::append`). What the ratio carries is that
//! walk's traffic over sockets — deltas down the tree (root → merge
//! servers → leaves), receipts back up, each hop a frame each way — so it
//! stays small only while an append ships what it changes. (Read
//! both sides, not only the ratio: a cheaper leaf append lowers the
//! in-process side by its whole saving and the unix side by the same
//! microseconds out of several hundred more, so the ratio *rises* when
//! the store gets faster — 3.6× → 4.9× at `BENCH_QUICK` when the append
//! stopped looking every row's value up, with both sides faster.)
//!
//! A third claim is an exact count, not a clock (`append_rescan`,
//! asserted): on that unix tree, a 20-chart unrestricted click that follows
//! a warm one and an 80-row append scans, over its 20 queries, at most
//! 80 × 20 rows and finds at least 20 × the pre-append rows cached. The
//! root applied the append and remembers every chart, so each is
//! brought forward from the appended rows alone: what an append costs its
//! readers is what it changed.
//!
//! A fourth prices remembering (`append_remembered`, asserted): after each
//! of three more appends the same click — all 20 charts root hits, no
//! shard asked — costs less than that click under signatures nobody has
//! asked before, which must reach the leaves (an in-run ratio,
//! `remembered_over_new`).
//!
//! Like `rpc_tree`, the worker binary is resolved via the library's own
//! lookup; without it the bench prints a note and exits cleanly instead of
//! failing (`cargo bench` does not build other crates' bin targets).

use pd_bench::{fmt_duration, json_line, logs_table, measure, Stats};
use pd_core::{BuildOptions, ScanStats};
use pd_data::Table;
use pd_dist::{Cluster, ClusterConfig, RpcConfig, Transport, TreeShape, WorkerAddr};
use std::hint::black_box;
use std::time::Duration;

fn main() {
    let rows = pd_bench::rows_from_env_or(100_000);
    if pd_dist::process::resolve_worker_bin(None).is_err() {
        println!(
            "NOTE: pd-dist-worker binary not found (build it or set PD_DIST_WORKER_BIN); \
             skipping incremental_rebuild"
        );
        return;
    }

    // The §6 production recipe, shrunk with the dataset like `experiments`.
    let shards = (rows / 62_500).clamp(2, 8);
    let mut build = BuildOptions::production(&["country", "table_name"]);
    if let Some(spec) = &mut build.partition {
        spec.max_chunk_rows = (rows / shards / 120).clamp(200, 50_000);
    }
    let config = ClusterConfig {
        shards,
        replication: false,
        shard_cache: 0,
        threads: 1,
        tree: TreeShape { fanout: 4 },
        build,
        transport: Transport::Rpc(RpcConfig {
            worker_bin: None,
            budget: Duration::from_secs(60),
            addr: WorkerAddr::Unix,
        }),
        ..Default::default()
    };

    // ~1% of the table arrives as new rows.
    let full = logs_table(rows);
    let delta_rows = (rows / 100).max(500).min(rows / 2);
    let base = full.select_rows(&(0..rows - delta_rows).collect::<Vec<_>>());
    let delta = full.select_rows(&((rows - delta_rows)..rows).collect::<Vec<_>>());
    let sql = "SELECT country, COUNT(*) as c, SUM(latency) as s FROM logs \
               GROUP BY country ORDER BY c DESC LIMIT 10";

    let trials = if pd_bench::quick() { 2 } else { 3 };
    let mut append_times = Vec::new();
    let mut rebuild_times = Vec::new();
    let mut append_bytes = 0u64;
    let mut rebuild_bytes = 0u64;
    for trial in 0..trials {
        // Delta path: live tree, ship only the new rows.
        let mut appended = Cluster::build(&base, &config).expect("cluster");
        let mut outcome = None;
        append_times.push(measure(|| {
            outcome = Some(appended.append(&delta).expect("append"));
        }));
        append_bytes = outcome.expect("measured").bytes_shipped;

        // Full path: respawn the tree over base + delta.
        let mut rebuilt = Cluster::build(&base, &config).expect("cluster");
        rebuild_times.push(measure(|| {
            rebuilt.rebuild(&full).expect("rebuild");
        }));
        rebuild_bytes = rebuilt.shipped_bytes();

        // Both refreshed clusters must answer bit-identically.
        if trial == 0 {
            let a = appended.query(sql).expect("appended query");
            let b = rebuilt.query(sql).expect("rebuilt query");
            assert_eq!(
                a.result, b.result,
                "append and rebuild must agree bit-identically on the refreshed table"
            );
            assert_eq!(a.stats.rows_total, rows as u64);
        }
        black_box((&appended, &rebuilt));
    }
    append_times.sort_unstable();
    rebuild_times.sort_unstable();
    let append_stats = Stats { min: append_times[0], median: append_times[append_times.len() / 2] };
    let rebuild_stats =
        Stats { min: rebuild_times[0], median: rebuild_times[rebuild_times.len() / 2] };

    println!(
        "=== incremental rebuild ({rows} rows, {delta_rows}-row delta, {shards} shards, unix rpc) ===\n\
         delta append : {}  shipping {append_bytes} bytes\n\
         full rebuild : {}  shipping {rebuild_bytes} bytes\n\
         -> {:.1}x faster, {:.1}x fewer bytes",
        fmt_duration(append_stats.min),
        fmt_duration(rebuild_stats.min),
        rebuild_stats.min.as_secs_f64() / append_stats.min.as_secs_f64().max(1e-9),
        rebuild_bytes as f64 / append_bytes.max(1) as f64,
    );
    assert!(
        append_bytes < rebuild_bytes,
        "a ~1% delta append must ship strictly fewer bytes than a full rebuild: \
         {append_bytes} vs {rebuild_bytes}"
    );
    assert!(
        append_stats.min < rebuild_stats.min,
        "a ~1% delta append must complete strictly faster than a full rebuild: \
         {} vs {}",
        fmt_duration(append_stats.min),
        fmt_duration(rebuild_stats.min),
    );
    json_line(
        "incremental_rebuild",
        "delta_append",
        append_stats,
        &[
            ("bytes", append_bytes.to_string()),
            ("rows", delta_rows.to_string()),
            ("rebuild_bytes", rebuild_bytes.to_string()),
        ],
    );
    json_line("incremental_rebuild", "full_rebuild", rebuild_stats, &[]);

    append_tax();
}

/// The most a socket tree's append may cost in units of the in-process
/// tree's. Measured on a 2-vCPU box at `BENCH_QUICK`: 1.8–2.1 with
/// receipts and in-place absorbs; 29–37 when every append acked a whole
/// shard summary and re-attached both merge servers.
const APPEND_TAX_BOUND: f64 = 8.0;

/// Time the same small appends on a 4-leaf + 2-merge-server unix tree and
/// on the in-process tree over the same table — alternating batches, the
/// best batch of each side — and assert their ratio. The table does not
/// shrink in quick mode: what an append costs a tree that ships summaries
/// grows with the shards' chunk counts, so a small table would hide it.
fn append_tax() {
    let rows = 32_000;
    const BATCHES: usize = 5;
    const APPENDS_PER_BATCH: usize = 8;
    const APPEND_ROWS: usize = 80;
    let appends = BATCHES * APPENDS_PER_BATCH;
    // More deltas than the tax takes: `append_rescan`'s, and one per round
    // of `append_remembered`.
    let extra = 1 + REMEMBERED_ROUNDS;
    let full = logs_table(rows + (appends + extra) * APPEND_ROWS);
    let slice = |lo: usize, hi: usize| full.select_rows(&(lo..hi).collect::<Vec<_>>());
    let mut deltas: Vec<Table> = (0..appends + extra)
        .map(|i| slice(rows + i * APPEND_ROWS, rows + (i + 1) * APPEND_ROWS))
        .collect();
    let later_deltas = deltas.split_off(appends);

    let mut build = BuildOptions::production(&["country", "table_name"]);
    if let Some(spec) = &mut build.partition {
        spec.max_chunk_rows = (rows / 4 / 8).max(200);
    }
    let tree = |transport: Transport| {
        let config = ClusterConfig {
            shards: 4,
            replication: false,
            threads: 1,
            tree: TreeShape { fanout: 2 },
            build: build.clone(),
            transport,
            ..Default::default()
        };
        Cluster::build(&slice(0, rows), &config).expect("cluster")
    };
    let mut unix = tree(Transport::Rpc(RpcConfig::default()));
    let mut local = tree(Transport::InProcess);

    let mut best = [Duration::MAX; 2];
    for batch in deltas.chunks(APPENDS_PER_BATCH) {
        for (cluster, best) in [&mut unix, &mut local].into_iter().zip(&mut best) {
            let took = measure(|| {
                for delta in batch {
                    black_box(cluster.append(delta).expect("append"));
                }
            });
            *best = (*best).min(took / APPENDS_PER_BATCH as u32);
        }
    }
    let sql = "SELECT country, COUNT(*) c FROM logs GROUP BY country ORDER BY c DESC LIMIT 10";
    assert_eq!(
        unix.query(sql).expect("unix query").result,
        local.query(sql).expect("local query").result,
        "both trees took the same appends"
    );

    let [unix_append, local_append] = best;
    let tax = unix_append.as_secs_f64() / local_append.as_secs_f64().max(1e-9);
    println!(
        "=== append tax ({rows} rows, {APPEND_ROWS}-row appends, 4 leaves + 2 merge servers) ===\n\
         unix tree  : {} per append\n\
         in process : {} per append\n\
         -> {tax:.1}x (bound {APPEND_TAX_BOUND}x)",
        fmt_duration(unix_append),
        fmt_duration(local_append),
    );
    json_line(
        "incremental_rebuild",
        "append_tax_unix",
        Stats { min: unix_append, median: unix_append },
        &[("local_ns", local_append.as_nanos().to_string()), ("tax", format!("{tax:.2}"))],
    );
    assert!(
        tax < APPEND_TAX_BOUND,
        "an {APPEND_ROWS}-row append on the unix tree must stay under {APPEND_TAX_BOUND}x the \
         in-process tree's: {} vs {} ({tax:.1}x)",
        fmt_duration(unix_append),
        fmt_duration(local_append),
    );

    append_rescan(&mut unix, &later_deltas[0]);
    append_remembered(&mut unix, &later_deltas[1..]);
}

/// The drill dashboard a click refreshes: 20 unrestricted charts over four
/// dimensions (one an expression) and three global aggregates. Four are
/// ORDER BY twins of their neighbour and share its cache signature.
fn dashboard() -> Vec<String> {
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
        format!("SELECT {dim} as k, {aggs} FROM logs GROUP BY {dim} ORDER BY {order} LIMIT 10")
    });
    grouped.chain(global.iter().map(|aggs| format!("SELECT {aggs} FROM logs"))).collect()
}

/// [`dashboard`] under a restriction every row passes: the same charts,
/// the same work at the leaves, other signatures.
fn dashboard_where(always: &str) -> Vec<String> {
    let restrict = |sql: String| match sql.split_once(" GROUP BY ") {
        Some((select, rest)) => format!("{select} WHERE {always} GROUP BY {rest}"),
        None => format!("{sql} WHERE {always}"),
    };
    dashboard().into_iter().map(restrict).collect()
}

/// Assert what a click rescans after an append, in rows: one warm click,
/// one append, the same click again — summed over its 20 queries.
fn append_rescan(unix: &mut Cluster, delta: &Table) {
    let charts = dashboard();
    let click = |cluster: &Cluster| {
        let mut sum = ScanStats::default();
        for sql in &charts {
            sum += &cluster.query(sql).expect("chart").stats;
        }
        sum
    };
    let before_rows = click(unix).rows_total / charts.len() as u64;
    unix.append(delta).expect("append");
    let after = click(unix);
    let (scanned, cached) = (after.rows_scanned, after.rows_cached);

    let delta_rows = delta.len() as u64;
    println!(
        "=== append rescan (20-chart click after a {delta_rows}-row append onto {before_rows} rows) ===\n\
         rows scanned : {scanned} (bound {})\n\
         rows cached  : {cached} (bound {})",
        delta_rows * charts.len() as u64,
        before_rows * charts.len() as u64,
    );
    json_line(
        "incremental_rebuild",
        "append_rescan",
        Stats { min: after.elapsed, median: after.elapsed },
        &[("rows_scanned", scanned.to_string()), ("rows_cached", cached.to_string())],
    );
    assert!(
        scanned <= delta_rows * charts.len() as u64,
        "a click after an append must scan the appended rows only: {scanned} rows scanned over \
         {} charts of a {delta_rows}-row append",
        charts.len(),
    );
    assert!(
        cached >= before_rows * charts.len() as u64,
        "every chunk written before the append must answer from a cache: {cached} rows cached, \
         {before_rows} resident before the append, {} charts",
        charts.len(),
    );
}

const REMEMBERED_ROUNDS: usize = 3;

/// Price what the root remembers through appends: per round one append,
/// then the dashboard it has answered before (every chart a root hit,
/// brought forward, no shard asked — asserted) and the same dashboard
/// under a restriction nobody has asked before (every signature new). The
/// remembered click must be the cheaper one.
fn append_remembered(unix: &mut Cluster, deltas: &[Table]) {
    let charts = dashboard();
    let mut root_hits = 0;
    let (mut remembered, mut new) = (Duration::ZERO, Duration::ZERO);
    for (round, delta) in deltas.iter().enumerate() {
        unix.append(delta).expect("append");
        remembered += measure(|| {
            for sql in &charts {
                let outcome = unix.query(sql).expect("remembered chart");
                assert_eq!(outcome.worker_cache_hits(), 1, "the root remembers {sql}");
                assert!(
                    outcome.subquery_latencies.iter().all(Duration::is_zero),
                    "a remembered chart asks no shard: {sql}"
                );
                root_hits += 1;
            }
        });
        // No row is from there, which every chunk dictionary proves: the
        // leaves fold the chunk results the unrestricted charts left.
        let unasked = dashboard_where(&format!("country NOT IN ('nowhere {round}')"));
        new += measure(|| {
            for sql in &unasked {
                black_box(unix.query(sql).expect("new chart"));
            }
        });
    }
    let ratio = remembered.as_secs_f64() / new.as_secs_f64().max(1e-9);
    println!(
        "=== append remembered ({} rounds of an append and two 20-chart clicks) ===\n\
         remembered : {} per click, {root_hits} root hits\n\
         new charts : {} per click\n\
         -> {ratio:.2}x",
        deltas.len(),
        fmt_duration(remembered / deltas.len() as u32),
        fmt_duration(new / deltas.len() as u32),
    );
    json_line(
        "incremental_rebuild",
        "append_remembered",
        Stats { min: remembered, median: remembered },
        &[("root_hits", root_hits.to_string()), ("remembered_over_new", format!("{ratio:.3}"))],
    );
    assert!(
        remembered < new,
        "a click the root remembers must cost less than one it has to ask the tree for: {} vs {}",
        fmt_duration(remembered),
        fmt_duration(new),
    );
}
