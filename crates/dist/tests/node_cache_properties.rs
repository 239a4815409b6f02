//! Seeded property tests for the result cache every tree node owns —
//! leaf, merge server or the root in the driver, its children reached over
//! in-memory edges or sockets. The node code is the same either way, so
//! each property runs over both edge kinds through identical assertions:
//!
//! 1. re-issuing an identical query answers from the cache nearest the
//!    root — the root's own — and returns bit-identical results, with
//!    every server beneath it unreachable too;
//! 2. a rebuild invalidates every node's cache, the root's included — no
//!    stale partials, ever — while an append leaves what a told node
//!    remembers short, not wrong: the root (and every merge server
//!    process) brings a remembered chart up to date from the rows that
//!    arrived since, still without a hop — on either edge kind every mixer
//!    is told; a leaf drops its node cache as it applies its piece;
//! 3. capacity eviction can change `ScanStats`, never results;
//! 4. what the caches hold is a function of the query sequence: a replayed
//!    session reproduces every outcome (in-memory edges only — of a socket
//!    tree's `(hits, misses)` the driver sees the root's alone).
//!
//! Every leaf keeps its shard summary and every edge prunes by it, so the
//! properties run over both edge kinds also do the same *work*, answer by
//! answer: the same rows scanned and the same edges pruned.
//!
//! Plus the epoch rule straight at the wire protocol, and one property of
//! the whole local tree: random shapes with appends interleaved between
//! queries always answer like a single store over the same prefix.

use pd_common::rng::Rng;
use pd_common::{DataType, FloatSum, Row, Schema, Value};
use pd_core::{query, BuildOptions, DataStore, PartitionSpec, ScanStats};
use pd_data::Table;
use pd_dist::chaos::leaf_primary;
use pd_dist::{
    ChaosDirective, ChaosFault, ChaosModel, Cluster, ClusterConfig, QueryOutcome, RpcConfig,
    Transport, TreeShape,
};
use std::path::PathBuf;
use std::time::Duration;

fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_pd-dist-worker"))
}

/// The two edge kinds: every node in this address space, or one worker
/// process per node behind unix sockets.
fn edge_kinds() -> [(&'static str, Transport); 2] {
    let rpc = RpcConfig {
        worker_bin: Some(worker_bin()),
        budget: Duration::from_secs(30),
        ..Default::default()
    };
    [("local", Transport::InProcess), ("socket", Transport::Rpc(rpc))]
}

/// A random table shaped like the equivalence-suite tables: two string
/// dimensions, an int and a float measure.
fn random_table(rng: &mut Rng, rows: usize) -> Table {
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
                Value::from(format!("g{:02}", rng.range_usize(0, 10))),
                Value::Int(rng.range_i64_inclusive(-40, 40)),
                Value::Float(rng.range_i64_inclusive(-8, 8) as f64 * 0.25),
            ]))
            .unwrap();
    }
    table
}

/// A random drill-down-shaped query over that schema, now and then one
/// reading a FROM subquery, which every engine must refuse ([`refused`]).
fn random_query(rng: &mut Rng) -> String {
    let key = *rng.pick(&["k", "g"]);
    let agg = *rng.pick(&[
        "COUNT(*) as c",
        "COUNT(*) as c, SUM(n) as s",
        "COUNT(*) as c, SUM(x) as s",
        "COUNT(*) as c, MIN(n) as mn, MAX(n) as mx",
    ]);
    let mut from = "data";
    let draw = rng.range_usize(0, 64);
    let filter = match draw / 16 {
        0 => String::new(),
        1 => " WHERE k = 'red'".to_owned(),
        2 => format!(" WHERE g = 'g{:02}'", rng.range_usize(0, 10)),
        _ if draw == 63 => {
            from = "(SELECT k, g, n, x FROM data WHERE n > 0)";
            String::new()
        }
        _ => " WHERE n > 0".to_owned(),
    };
    format!("SELECT {key}, {agg} FROM {from}{filter} GROUP BY {key} ORDER BY c DESC LIMIT 10")
}

/// Whether `sql` reads a FROM subquery; if it does, `tree` and the
/// single-store oracle must both refuse it.
fn refused(tree: &Cluster, oracle: &DataStore, sql: &str) -> bool {
    if !sql.contains("FROM (") {
        return false;
    }
    assert!(tree.query(sql).is_err(), "the tree answered {sql}");
    assert!(query(oracle, sql).is_err(), "the oracle answered {sql}");
    true
}

fn cluster(
    table: &Table,
    shards: usize,
    fanout: usize,
    cache: usize,
    transport: &Transport,
) -> Cluster {
    Cluster::build(
        table,
        &ClusterConfig {
            shards,
            replication: false,
            shard_cache: cache,
            build: BuildOptions::basic(),
            tree: TreeShape { fanout },
            transport: transport.clone(),
            ..Default::default()
        },
    )
    .unwrap()
}

/// What an answer cost: rows scanned and edges pruned.
fn work(outcome: &QueryOutcome) -> (u64, usize) {
    (outcome.stats.rows_scanned, outcome.stats.subtrees_pruned)
}

/// Every edge kind's answers cost what the first kind's did, one by one.
fn assert_same_work(observed: &[(&str, Vec<(u64, usize)>)]) {
    let (first, reference) = &observed[0];
    for (kind, costs) in &observed[1..] {
        assert_eq!(costs.len(), reference.len(), "{kind} vs {first}: answers asked");
        for (at, (got, want)) in costs.iter().zip(reference).enumerate() {
            assert_eq!(got, want, "{kind} vs {first}, answer {at}: (rows scanned, pruned)");
        }
    }
}

fn assert_balanced(outcome: &QueryOutcome, label: &str) {
    assert_eq!(
        outcome.stats.rows_skipped + outcome.stats.rows_cached + outcome.stats.rows_scanned,
        outcome.stats.rows_total,
        "{label}: accounting must balance"
    );
}

#[test]
fn identical_queries_hit_the_nearest_caches() {
    let mut observed = Vec::new();
    for (kind, transport) in edge_kinds() {
        let mut costs = Vec::new();
        let mut rng = Rng::seed_from_u64(0x05ca_1e01);
        for case in 0..8 {
            let rows = rng.range_usize(40, 200);
            let table = random_table(&mut rng, rows);
            let shards = rng.range_usize(1, 6);
            let fanout = *rng.pick(&[2usize, 16]);
            let cluster = cluster(&table, shards, fanout, 64, &transport);
            let sql = random_query(&mut rng);
            let oracle = DataStore::build(&table, &BuildOptions::basic()).unwrap();
            if refused(&cluster, &oracle, &sql) {
                continue;
            }
            let label = format!("{kind} case {case} (shards {shards}, fanout {fanout}): {sql}");
            let cold = cluster.query(&sql).unwrap();
            costs.push(work(&cold));
            assert_eq!(cold.shard_cache_hits, 0, "{label}: first execution computes");
            assert_eq!(cold.worker_cache_hits(), 0, "{label}");
            for repeat in 0..3 {
                let warm = cluster.query(&sql).unwrap();
                costs.push(work(&warm));
                assert_eq!(warm.result, cold.result, "{label} repeat {repeat}: bit-identical");
                assert_eq!(warm.stats.cells_scanned, 0, "{label}: cached partials touch nothing");
                assert_balanced(&warm, &label);
                // The root remembers, whatever was pruned beneath it: one
                // hit, and it covers every shard.
                assert_eq!(warm.shard_cache_hits, shards, "{label} repeat {repeat}");
                assert_eq!(warm.worker_cache_hits(), 1, "{label} repeat {repeat}");
                assert_eq!(warm.stats.rows_cached, warm.stats.rows_total, "{label}");
            }
            // Presentation-only variations share the cached partials: the
            // signature excludes ORDER BY / LIMIT / HAVING.
            let limited = cluster.query(&sql.replace("LIMIT 10", "LIMIT 1")).unwrap();
            assert_eq!(
                limited.worker_cache_hits(),
                1,
                "{label}: LIMIT does not change the partial"
            );
            assert!(limited.result.rows.len() <= 1);
            // The driver counts the caches in its own address space: the
            // root's, and on in-memory edges every node's beneath it.
            let (hits, misses) = cluster.shard_cache_stats();
            assert_eq!(hits, 4, "{label}: every hit was the root's");
            if kind == "local" {
                assert!(misses > shards as u64, "{label}: the cold pass missed at every node");
            } else {
                assert_eq!(misses, 1, "{label}: the cold pass, at the root");
            }
        }
        observed.push((kind, costs));
    }
    assert_same_work(&observed);
}

/// The exact answer of `SELECT k, {cells} FROM data WHERE g != 'g05'
/// GROUP BY k ORDER BY k` over `table`'s rows, computed row by row: counts,
/// an integer sum wrapped to `i64` (`SUM(n)`), an integer average of the
/// exact sum rounded once (`AVG(n)`), float sums and averages of exact sums.
fn shared_slot_oracle(table: &Table, cells: &[&str]) -> Vec<Row> {
    let mut groups: std::collections::BTreeMap<Value, (u64, i128, FloatSum)> = Default::default();
    for row in (0..table.len()).map(|r| table.row(r)) {
        if row.0[1] == Value::from("g05") {
            continue;
        }
        let (Value::Int(n), Value::Float(x)) = (&row.0[2], &row.0[3]) else { panic!("{row:?}") };
        let group = groups.entry(row.0[0].clone()).or_default();
        group.0 += 1;
        group.1 += i128::from(*n);
        group.2.add(*x);
    }
    let cell = |&(count, n, ref x): &(u64, i128, FloatSum), what: &str| match what {
        "COUNT(*)" | "COUNT(n)" => Value::Int(count as i64),
        "SUM(n)" => Value::Int(n as i64),
        "AVG(n)" => Value::Float(n as f64 / count as f64),
        "SUM(x)" => Value::Float(x.value()),
        "AVG(x)" => Value::Float(x.value() / count as f64),
        other => panic!("no oracle for {other}"),
    };
    let row = |(k, group): (&Value, _)| {
        Row(std::iter::once(k.clone()).chain(cells.iter().map(|what| cell(group, what))).collect())
    };
    groups.iter().map(row).collect()
}

/// A remembered table is named by the slots it holds: charts whose
/// aggregates lower to the same slots share one entry. On both edge kinds,
/// with the same keys and restriction, in both orders: a `SUM(x)` chart and
/// its `AVG(x)` twin, the same over an `Int` column holding `i64::MIN` /
/// `i64::MAX` (where `SUM` wraps and `AVG` is exact), and `COUNT(n)` after
/// `COUNT(*)`. The second chart of each pair is a root hit that asks no
/// shard, and every answer is the single store's and the row oracle's.
#[test]
fn charts_that_share_slots_share_one_root_entry() {
    let mut rng = Rng::seed_from_u64(0x05ca_1e0a);
    let mut table = random_table(&mut rng, 160);
    for (k, n) in [("red", i64::MAX), ("red", i64::MAX), ("blue", i64::MIN), ("blue", -1)] {
        let row = vec![Value::from(k), Value::from("g01"), Value::Int(n), Value::Float(0.75)];
        table.push_row(Row(row)).unwrap();
    }
    let store = DataStore::build(&table, &BuildOptions::basic()).unwrap();
    let chart = |cells: &[&str]| {
        let select: Vec<String> =
            (cells.iter().enumerate()).map(|(i, c)| format!("{c} as a{i}")).collect();
        let select = select.join(", ");
        format!("SELECT k, {select} FROM data WHERE g != 'g05' GROUP BY k ORDER BY k")
    };
    let twins: [[&[&str]; 2]; 3] = [
        [&["COUNT(*)", "SUM(x)"], &["AVG(x)", "COUNT(*)"]],
        [&["COUNT(*)", "SUM(n)"], &["COUNT(*)", "AVG(n)"]],
        [&["COUNT(*)"], &["COUNT(n)"]],
    ];
    let mut observed = Vec::new();
    for (kind, transport) in edge_kinds() {
        let mut costs = Vec::new();
        for [a, b] in twins {
            for [first, second] in [[a, b], [b, a]] {
                let cluster = cluster(&table, 4, 2, 64, &transport);
                for (at, cells) in [first, second].into_iter().enumerate() {
                    let sql = chart(cells);
                    let label = format!("{kind}, {first:?} then {second:?}: {sql}");
                    let outcome = cluster.query(&sql).unwrap();
                    assert_eq!(outcome.result, query(&store, &sql).unwrap().0, "{label}");
                    assert_eq!(outcome.result.rows, shared_slot_oracle(&table, cells), "{label}");
                    assert_balanced(&outcome, &label);
                    assert_eq!(outcome.worker_cache_hits(), at, "{label}: the twin is a root hit");
                    assert_eq!(outcome.shard_cache_hits, 4 * at, "{label}: and asks no shard");
                    costs.push(work(&outcome));
                }
            }
        }
        observed.push((kind, costs));
    }
    assert_same_work(&observed);
}

/// A root hit needs no server: once the root remembers a chart, every
/// leaf beneath it can be unreachable — on either edge kind the fault is
/// read above the link — and the repeat still answers, while a chart
/// nobody remembers fails typed.
#[test]
fn what_the_root_remembers_needs_no_server() {
    let mut observed = Vec::new();
    for (kind, transport) in edge_kinds() {
        let mut costs = Vec::new();
        let mut rng = Rng::seed_from_u64(0x05ca_1e06);
        let table = random_table(&mut rng, 160);
        for fanout in [2usize, 16] {
            let label = format!("{kind} fanout {fanout}");
            let mut cluster = cluster(&table, 4, fanout, 64, &transport);
            let sql = "SELECT k, COUNT(*) as c, SUM(x) as s FROM data GROUP BY k ORDER BY c DESC";
            let warm = cluster.query(sql).unwrap();
            let cut = |shard: u64| ChaosDirective {
                node: leaf_primary(shard),
                fault: ChaosFault::Unreachable,
            };
            cluster
                .set_chaos(ChaosModel { always: (0..4).map(cut).collect(), ..Default::default() });
            let repeat = cluster.query(sql).unwrap();
            costs.extend([work(&warm), work(&repeat)]);
            assert_eq!(repeat.result, warm.result, "{label}: bit-identical");
            assert_eq!(repeat.worker_cache_hits(), 1, "{label}");
            assert_eq!(repeat.stats.rows_cached, repeat.stats.rows_total, "{label}");
            assert!(repeat.failovers.is_empty() && repeat.hedges.is_empty(), "{label}");
            let err = cluster.query("SELECT g, COUNT(*) as c FROM data GROUP BY g").unwrap_err();
            assert!(matches!(err, pd_common::Error::Rpc(_)), "{label}: typed, not a hang: {err}");
        }
        observed.push((kind, costs));
    }
    assert_same_work(&observed);
}

#[test]
fn a_rebuild_invalidates_every_node_cache_and_an_append_brings_it_forward() {
    let mut observed = Vec::new();
    for (kind, transport) in edge_kinds() {
        let mut costs = Vec::new();
        let mut rng = Rng::seed_from_u64(0x05ca_1e02);
        for case in 0..4 {
            let before = random_table(&mut rng, 120);
            let after = random_table(&mut rng, 97); // different data AND row count
            let extra = random_table(&mut rng, 30);
            // Unrestricted, so no edge is ever pruned.
            let sql = "SELECT k, COUNT(*) as c FROM data GROUP BY k ORDER BY c DESC";
            let fanout = [2, 16][case % 2];
            let label = format!("{kind} case {case} fanout {fanout}");
            let mut cluster = cluster(&before, 3, fanout, 64, &transport);
            let old = cluster.query(sql).unwrap();
            let warm = cluster.query(sql).unwrap();
            assert_eq!((warm.shard_cache_hits, warm.worker_cache_hits()), (3, 1), "{label}: warm");
            assert_eq!(cluster.epoch(), 1);

            cluster.rebuild(&after).unwrap();
            assert_eq!(cluster.epoch(), 2, "{label}: rebuild bumps the epoch");
            let fresh = cluster.query(sql).unwrap();
            assert_eq!(fresh.shard_cache_hits, 0, "{label}: rebuild must invalidate");
            assert_eq!(fresh.worker_cache_hits(), 0, "{label}: the root forgot too");
            assert_eq!(fresh.stats.chunks_cached, 0, "{label}: rebuilt leaves start cold");
            assert_eq!(fresh.stats.rows_total, 97, "{label}: stats reflect the new table");
            let store = DataStore::build(&after, &BuildOptions::basic()).unwrap();
            assert_eq!(fresh.result, query(&store, sql).unwrap().0, "{label}: no stale partials");
            assert_ne!(fresh.result, old.result, "{label}: the data actually changed");
            assert_eq!(cluster.query(sql).unwrap().shard_cache_hits, 3, "{label}: warm again");

            cluster.append(&extra).unwrap();
            assert_eq!(cluster.epoch(), 3, "{label}: append bumps the epoch");
            // The root was told what arrived: the chart it remembers is
            // still a root hit, brought up to date from those rows alone.
            let appended = cluster.query(sql).unwrap();
            assert_eq!(appended.shard_cache_hits, 3, "{label}: no shard was asked");
            assert_eq!(appended.worker_cache_hits(), 1, "{label}: the root remembers");
            assert!(appended.stats.rows_scanned <= 30, "{label}: the new rows at most");
            assert_balanced(&appended, &label);
            assert_eq!(appended.stats.rows_total, 127, "{label}");
            let mut all = after.clone();
            (0..extra.len()).for_each(|row| all.push_row(extra.row(row)).unwrap());
            let store = DataStore::build(&all, &BuildOptions::basic()).unwrap();
            assert_eq!(appended.result, query(&store, sql).unwrap().0, "{label}: never stale");
            assert_ne!(appended.result, fresh.result, "{label}: the appended rows count");
            let rewarm = cluster.query(sql).unwrap();
            assert_eq!(rewarm.result, appended.result, "{label}");
            assert_eq!(rewarm.stats.rows_cached, 127, "{label}: brought forward once");
            assert_eq!(rewarm.worker_cache_hits(), 1, "{label}: at the root");
            // A chart nobody remembers still finds the leaves' chunk
            // results: an append rewrites no chunk.
            let other = cluster.query("SELECT g, COUNT(*) as c FROM data GROUP BY g").unwrap();
            assert_eq!(other.worker_cache_hits(), 0, "{label}");
            assert_eq!(other.stats.rows_total, 127, "{label}");
            costs.extend([&old, &warm, &fresh, &appended, &rewarm, &other].map(work));
        }
        observed.push((kind, costs));
    }
    assert_same_work(&observed);
}

#[test]
fn capacity_eviction_changes_stats_never_results() {
    let mut observed = Vec::new();
    for (kind, transport) in edge_kinds() {
        let mut costs = Vec::new();
        let mut rng = Rng::seed_from_u64(0x05ca_1e03);
        for case in 0..3 {
            let table = random_table(&mut rng, 150);
            let store = DataStore::build(&table, &BuildOptions::basic()).unwrap();
            let fanout = [2, 16][case % 2];
            // Three trees over the same data: roomy caches, starved caches
            // (1 entry per node, so alternating signatures thrash forever)
            // and no caches at all.
            let roomy = cluster(&table, 3, fanout, 256, &transport);
            let starved = cluster(&table, 3, fanout, 1, &transport);
            let none = cluster(&table, 3, fanout, 0, &transport);
            // A query mix with repeats, so the roomy caches actually hit.
            let queries: Vec<String> = (0..6).map(|_| random_query(&mut rng)).collect();
            let mut order: Vec<usize> = (0..18).map(|i| i % queries.len()).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.range_usize(0, i + 1));
            }
            let (mut roomy_hits, mut starved_hits) = (0, 0);
            for (step, &q) in order.iter().enumerate() {
                let sql = &queries[q];
                if refused(&roomy, &store, sql) {
                    continue;
                }
                let label = format!("{kind} case {case} step {step}: {sql}");
                let (expect, _) = query(&store, sql).unwrap();
                let a = roomy.query(sql).unwrap();
                let b = starved.query(sql).unwrap();
                let c = none.query(sql).unwrap();
                assert_eq!(a.result, expect, "{label}");
                assert_eq!(b.result, expect, "{label}: eviction changed a result");
                assert_eq!(c.result, expect, "{label}: caching changed a result");
                assert_eq!(c.shard_cache_hits + c.worker_cache_hits(), 0, "{label}");
                roomy_hits += a.shard_cache_hits;
                starved_hits += b.shard_cache_hits;
                for outcome in [&a, &b, &c] {
                    assert_balanced(outcome, &label);
                    costs.push(work(outcome));
                }
            }
            assert!(roomy_hits > 0, "{kind} case {case}: the roomy caches must see repeats");
            assert!(
                starved_hits <= roomy_hits,
                "{kind} case {case}: starving the caches cannot add hits \
                 ({starved_hits} > {roomy_hits})"
            );
            assert_eq!(none.shard_cache_stats(), (0, 0));
        }
        observed.push((kind, costs));
    }
    assert_same_work(&observed);
}

#[test]
fn cache_outcomes_are_a_function_of_the_query_sequence() {
    // Admission scores an entry by bytes × cells scanned — no clock — so a
    // replay of one session on a fresh tree must reproduce every hit, every
    // miss and every eviction, whatever the thread count.
    let mut rng = Rng::seed_from_u64(0x05ca_1e05);
    let table = random_table(&mut rng, 600);
    // A drill-down: 60 queries over 40 signatures, repeats included, through
    // 16-entry node caches — more signatures than any node can hold.
    let pool: Vec<String> = (0..40).map(|_| random_query(&mut rng)).collect();
    let session: Vec<&String> = (0..60).map(|_| rng.pick(&pool)).collect();
    let oracle = DataStore::build(&table, &BuildOptions::basic()).unwrap();
    let replay = |threads: usize| {
        let tree = Cluster::build(
            &table,
            &ClusterConfig {
                shards: 4,
                replication: false,
                shard_cache: 16,
                threads,
                build: BuildOptions::optcols(PartitionSpec::new(&["k", "g"], 25)),
                tree: TreeShape { fanout: 2 },
                ..Default::default()
            },
        )
        .unwrap();
        let trace: Vec<_> = session
            .iter()
            .map(|sql| {
                if refused(&tree, &oracle, sql) {
                    return None;
                }
                let outcome = tree.query(sql).unwrap();
                let stats = ScanStats { elapsed: Duration::ZERO, ..outcome.stats };
                Some((stats, outcome.shard_cache_hits, outcome.result))
            })
            .collect();
        (trace, tree.shard_cache_stats())
    };
    let (first, counters) = replay(1);
    let hits: usize = first.iter().flatten().map(|(_, shard_hits, _)| shard_hits).sum();
    let recomputed = (first.iter().zip(&session).enumerate()).filter(|(at, (answer, sql))| {
        let scanned = answer.as_ref().is_some_and(|(stats, ..)| stats.rows_scanned > 0);
        session[..*at].contains(sql) && scanned
    });
    assert!(hits > 0, "the session repeats signatures the caches still hold");
    assert!(recomputed.count() > 0, "and some they had to evict");
    for threads in [1, 2] {
        let (again, again_counters) = replay(threads);
        for (at, (got, want)) in again.iter().zip(&first).enumerate() {
            assert_eq!(got, want, "threads {threads}, query {at}: {}", session[at]);
        }
        assert_eq!(again_counters, counters, "threads {threads}: final (hits, misses)");
    }
}

/// A worker process listening on a unix socket in `dir`, and a connection
/// to it. The guard reaps it.
fn spawn_worker(
    dir: &std::path::Path,
    name: &str,
) -> (pd_dist::ReapGuard, pd_dist::rpc::RpcClient, pd_dist::rpc::Addr) {
    let addr = pd_dist::rpc::Addr::Unix(dir.join(format!("{name}.sock")));
    let worker = pd_dist::ReapGuard::new(
        std::process::Command::new(worker_bin())
            .arg("--listen")
            .arg(addr.to_string())
            .spawn()
            .unwrap(),
    );
    let mut client = pd_dist::rpc::RpcClient::new(addr.clone(), false);
    client.connect_with_retry(Duration::from_secs(30)).unwrap();
    (worker, client, addr)
}

/// `table`'s rows as the coded columns a `Load` or an `Append` carries.
fn coded(table: &Table) -> pd_encoding::TableDelta {
    let columns: Vec<&[Value]> = (0..table.schema().len()).map(|i| table.column(i)).collect();
    pd_encoding::TableDelta::from_columns(table.schema().clone(), &columns).unwrap()
}

/// `Load` 400 rows of the logs table into `client`'s worker as shard 0 at
/// `epoch`, built by `build`; returns the summary it acks.
fn load_logs_leaf(
    client: &mut pd_dist::rpc::RpcClient,
    epoch: u64,
    build: &BuildOptions,
) -> pd_dist::ShardMeta {
    use pd_data::{generate_logs, LogsSpec};
    use pd_dist::node::NodeSpec;
    use pd_dist::rpc::{LoadRequest, Request, Response};

    let load = Request::Load(Box::new(LoadRequest {
        shard: 0,
        delta: coded(&generate_logs(&LogsSpec::scaled(400))),
        build: build.clone(),
        spec: NodeSpec { name: "l0p".into(), cache_entries: 8, epoch, threads: 1 },
    }));
    match client.call(&load, Duration::from_secs(60)).unwrap() {
        Response::Loaded(meta) => *meta,
        other => panic!("expected the load ack, got {other:?}"),
    }
}

/// `SELECT country, COUNT(*) ... GROUP BY country` as a request at `epoch`.
fn by_country(epoch: u64) -> pd_dist::rpc::Request {
    use pd_sql::{analyze, parse_query};
    let sql = "SELECT country, COUNT(*) c FROM logs GROUP BY country";
    pd_dist::rpc::Request::Query(Box::new(pd_dist::rpc::QueryRequest {
        query: analyze(&parse_query(sql).unwrap()).unwrap(),
        budget: Duration::from_secs(30),
        hedge_micros: 0,
        epoch,
        chaos: Vec::new(),
    }))
}

#[test]
fn epoch_bump_drops_a_worker_cache() {
    // Straight at the protocol: one leaf worker, queried with explicit
    // epochs. The cache serves repeats within an epoch and is dropped the
    // moment the epoch moves without the node having been told why — the
    // per-node form of rebuild invalidation.
    use pd_dist::rpc::Response;

    let dir = std::env::temp_dir().join(format!("pd-epoch-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (worker, mut client, _) = spawn_worker(&dir, "w");
    load_logs_leaf(&mut client, 5, &BuildOptions::basic());
    let mut ask =
        |epoch: u64| match client.call(&by_country(epoch), Duration::from_secs(30)).unwrap() {
            Response::Answer(answer) => answer,
            other => panic!("expected an answer, got {other:?}"),
        };

    let cold = ask(5);
    assert!(!cold.reports[0].cache_hit);
    assert_eq!(cold.stats.worker_cache_hits, 0);

    let warm = ask(5);
    assert!(warm.reports[0].cache_hit, "same epoch, same signature: a hit");
    assert_eq!(warm.stats.worker_cache_hits, 1);
    assert_eq!(warm.partial, cold.partial, "the cached partial is bit-identical");
    assert_eq!(warm.stats.rows_cached, warm.stats.rows_total);

    let after_bump = ask(6);
    assert!(
        !after_bump.reports[0].cache_hit,
        "an advanced epoch must drop the cache before answering"
    );
    assert_eq!(after_bump.partial, cold.partial, "same data, so same recomputed partial");

    let warm_again = ask(6);
    assert!(warm_again.reports[0].cache_hit, "the new epoch caches afresh");

    drop(worker);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_append_without_deltas_keeps_a_nodes_memory() {
    // A merge server over one leaf, at the protocol. An append routed wrong
    // is refused whole by either. Told of an epoch under which nothing
    // beneath it changed (an `Append` with no deltas), the merge server
    // tells its leaf the same way — one frame — and both adopt the epoch
    // and forget nothing: the leaf answers its chart from its cache, and the
    // merge server answers its own with its only child dead. An epoch it was
    // *not* told of still drops the chart — it has to ask that child, and
    // says so.
    use pd_data::{generate_logs, LogsSpec};
    use pd_dist::node::NodeSpec;
    use pd_dist::rpc::{
        encode_frame, AppendAck, AppendRequest, AttachRequest, ChildSpec, Request, Response,
        RpcClient,
    };

    let dir = std::env::temp_dir().join(format!("pd-told-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (leaf, mut leaf_client, leaf_addr) = spawn_worker(&dir, "leaf");
    let meta = load_logs_leaf(&mut leaf_client, 1, &BuildOptions::basic());
    let (mixer, mut client, _) = spawn_worker(&dir, "mixer");
    let attach = Request::Attach(AttachRequest {
        children: vec![ChildSpec::Leaf { shard: 0, primary: leaf_addr, replica: None, meta }],
        compress: false,
        spec: NodeSpec { name: "m1_0".into(), cache_entries: 8, epoch: 1, threads: 1 },
    });
    assert_eq!(client.call(&attach, Duration::from_secs(30)).unwrap(), Response::Ok);
    let call = |client: &mut RpcClient, request: &Request| {
        client.call(request, Duration::from_secs(30)).unwrap()
    };

    let Response::Answer(cold) = call(&mut client, &by_country(1)) else { panic!("an answer") };
    assert_eq!(cold.stats.worker_cache_hits, 0, "the first execution asks the leaf");

    let append = |epoch: u64, deltas| Request::Append(Box::new(AppendRequest { epoch, deltas }));
    let rows = coded(&generate_logs(&LogsSpec::scaled(10)));
    let misrouted = [
        (&mut client, append(2, vec![(5, rows.clone())]), "shard 5 not beneath m1_0"),
        (&mut leaf_client, append(2, vec![(1, rows)]), "l0p handed shards [1]"),
    ];
    for (client, request, why) in misrouted {
        match call(client, &request) {
            Response::Err(message) => assert!(message.contains(why), "{message}"),
            other => panic!("{why}: refused, got {other:?}"),
        }
    }

    let told = AppendRequest { epoch: 2, deltas: Vec::new() };
    let written = encode_frame(&told, false).unwrap().len() as u64;
    let ack = call(&mut client, &Request::Append(Box::new(told)));
    assert_eq!(ack, Response::Appended(AppendAck { receipts: Vec::new(), bytes: written }));
    let Response::Answer(kept) = call(&mut leaf_client, &by_country(2)) else { panic!("answer") };
    assert_eq!(kept.stats.worker_cache_hits, 1, "told of epoch 2, the leaf kept the chart");
    assert_eq!(kept.partial, cold.partial);
    drop(leaf);
    let Response::Answer(told) = call(&mut client, &by_country(2)) else { panic!("an answer") };
    assert_eq!(told.stats.worker_cache_hits, 1, "told of epoch 2, the server kept the chart");
    assert!(told.reports[0].cache_hit, "and needed no child for it");
    assert_eq!(told.partial, cold.partial);

    match call(&mut client, &by_country(3)) {
        Response::Fault(_) | Response::Err(_) => {}
        other => panic!("not told of epoch 3, the server must ask its dead child: {other:?}"),
    }

    drop(mixer);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A leaf pair whose copies cut the same rows into different chunks — built
/// by different recipes, as no tree is — cannot both be summarized by one
/// receipt: the merge server above refuses the append, typed, instead of
/// absorbing either copy's account.
#[test]
fn a_pair_that_chunks_an_append_apart_is_refused() {
    use pd_data::{generate_logs, LogsSpec};
    use pd_dist::node::NodeSpec;
    use pd_dist::rpc::{AppendRequest, AttachRequest, ChildSpec, Request, Response};

    let dir = std::env::temp_dir().join(format!("pd-pair-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (primary, mut primary_client, primary_addr) = spawn_worker(&dir, "primary");
    let meta = load_logs_leaf(&mut primary_client, 1, &BuildOptions::basic());
    let (replica, mut replica_client, replica_addr) = spawn_worker(&dir, "replica");
    let mut four_row_chunks = BuildOptions::production(&["country"]);
    four_row_chunks.partition.as_mut().unwrap().max_chunk_rows = 4;
    load_logs_leaf(&mut replica_client, 1, &four_row_chunks);
    let (mixer, mut client, _) = spawn_worker(&dir, "mixer");
    let pair =
        ChildSpec::Leaf { shard: 0, primary: primary_addr, replica: Some(replica_addr), meta };
    let attach = Request::Attach(AttachRequest {
        children: vec![pair],
        compress: false,
        spec: NodeSpec { name: "m1_0".into(), cache_entries: 8, epoch: 1, threads: 1 },
    });
    assert_eq!(client.call(&attach, Duration::from_secs(30)).unwrap(), Response::Ok);

    let rows = coded(&generate_logs(&LogsSpec::scaled(10)));
    let append = Request::Append(Box::new(AppendRequest { epoch: 2, deltas: vec![(0, rows)] }));
    match client.call(&append, Duration::from_secs(30)).unwrap() {
        Response::Err(message) => assert!(message.contains("chunked it apart"), "{message}"),
        other => panic!("a pair whose receipts disagree is refused, got {other:?}"),
    }
    drop((primary, replica, mixer));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Random local trees — shards 1–6, fanout 2–4 (so merge levels come and
/// go), node caches off or tiny — with appends interleaved between
/// queries: after every step, every answer equals a `BuildOptions::basic()`
/// single store over the same prefix of rows, and the accounting balances.
#[test]
fn local_trees_with_interleaved_appends_match_a_single_store() {
    let mut rng = Rng::seed_from_u64(0x05ca_1e04);
    for case in 0..16 {
        let total = rng.range_usize(60, 240);
        let table = random_table(&mut rng, total);
        let shards = rng.range_usize(1, 7);
        let fanout = rng.range_usize(2, 5);
        let cache = *rng.pick(&[0usize, 8]);
        let mut build = BuildOptions::production(&["k", "g"]);
        if let Some(spec) = &mut build.partition {
            spec.max_chunk_rows = 16;
        }
        let prefix = |hi: usize| table.select_rows(&(0..hi).collect::<Vec<_>>());
        let mut served = rng.range_usize(20, total / 2);
        let mut cluster = Cluster::build(
            &prefix(served),
            &ClusterConfig {
                shards,
                shard_cache: cache,
                tree: TreeShape { fanout },
                build,
                ..Default::default()
            },
        )
        .unwrap();
        let mut queries: Vec<String> = (0..4).map(|_| random_query(&mut rng)).collect();
        // Grouped by an expression, and filtered by one: virtual fields the
        // leaves extend with every append (new `n`s get tail ids).
        queries.push(
            "SELECT n * 2 as d, COUNT(*) as c, SUM(x) as s FROM data GROUP BY n * 2 \
             ORDER BY c DESC LIMIT 10"
                .to_owned(),
        );
        queries.push(
            "SELECT k, COUNT(*) as c, MAX(n) as mx FROM data WHERE upper(g) IN ('G03', 'G07') \
             GROUP BY k ORDER BY c DESC LIMIT 10"
                .to_owned(),
        );
        for step in 0..6 {
            let store = DataStore::build(&prefix(served), &BuildOptions::basic()).unwrap();
            // Twice each: the repeat meets whatever the caches kept.
            for sql in queries.iter().chain(&queries) {
                let label = format!(
                    "case {case} (shards {shards}, fanout {fanout}, cache {cache}) step {step} \
                     @ {served} rows: {sql}"
                );
                if refused(&cluster, &store, sql) {
                    continue;
                }
                let outcome = cluster.query(sql).unwrap();
                assert_eq!(outcome.result, query(&store, sql).unwrap().0, "{label}");
                assert_eq!(outcome.stats.rows_total, served as u64, "{label}");
                assert_balanced(&outcome, &label);
            }
            let batch = rng.range_usize(0, 12).min(total - served);
            let rows: Vec<usize> = (served..served + batch).collect();
            let appended = cluster.append(&table.select_rows(&rows)).unwrap();
            assert_eq!(appended.rows, batch as u64);
            served += batch;
        }
    }
}

/// An append lands where a chunk would, on both edge kinds: random trees of
/// 1–5 shards, partitioned at a random chunk size (or not at all), get
/// batches of 1 row to three chunks. Against the test's own row model of
/// every shard, each batch is cut into `min(shards, ⌈rows / chunk⌉)`
/// contiguous pieces (one when unpartitioned) that go to the least-loaded
/// shards, ties to the lowest id; the shards never drift further apart
/// than the largest piece so far (or one row); and every answer is the
/// single store's over the rows so far.
#[test]
fn a_batch_goes_whole_to_the_least_loaded_shards() {
    for (kind, transport) in edge_kinds() {
        let mut rng = Rng::seed_from_u64(0x05ca_1e0a);
        for case in 0..6 {
            let shards = rng.range_usize(1, 6);
            let chunk = rng.range_usize(3, 12);
            let partitioned = rng.chance(0.75);
            let mut build = BuildOptions::basic();
            if partitioned {
                build = BuildOptions::production(&["k", "g"]);
                build.partition.as_mut().unwrap().max_chunk_rows = chunk;
            }
            let base_rows = rng.range_usize(shards, 60);
            let mut all = random_table(&mut rng, base_rows);
            let mut cluster = Cluster::build(
                &all,
                &ClusterConfig {
                    shards,
                    shard_cache: 16,
                    build,
                    tree: TreeShape { fanout: 2 },
                    transport: transport.clone(),
                    ..Default::default()
                },
            )
            .unwrap();
            let n = all.len();
            let mut loads: Vec<usize> =
                (0..shards).map(|s| n * (s + 1) / shards - n * s / shards).collect();
            let mut largest_piece = 0;
            for step in 0..8 {
                let label = format!(
                    "{kind} case {case} ({shards} shards, chunk {chunk}, partitioned \
                     {partitioned}) step {step}"
                );
                let rows = rng.range_usize(1, 3 * chunk + 1);
                let pieces = if partitioned { rows.div_ceil(chunk).min(shards) } else { 1 };
                let mut order: Vec<usize> = (0..shards).collect();
                order.sort_by_key(|&s| (loads[s], s));
                let want: Vec<u64> = order[..pieces].iter().map(|&s| s as u64).collect();
                for (i, &s) in order[..pieces].iter().enumerate() {
                    let piece = rows * (i + 1) / pieces - rows * i / pieces;
                    loads[s] += piece;
                    largest_piece = largest_piece.max(piece);
                }
                let batch = random_table(&mut rng, rows);
                let appended = cluster.append(&batch).unwrap();
                assert_eq!(appended.rows, rows as u64, "{label}");
                assert_eq!(appended.shards, want, "{label}: the least-loaded shards, in order");
                let spread = loads.iter().max().unwrap() - loads.iter().min().unwrap();
                assert!(spread <= largest_piece.max(1), "{label}: loads {loads:?}");
                (0..rows).for_each(|row| all.push_row(batch.row(row)).unwrap());
                let store = DataStore::build(&all, &BuildOptions::basic()).unwrap();
                for _ in 0..2 {
                    let sql = random_query(&mut rng);
                    if refused(&cluster, &store, &sql) {
                        continue;
                    }
                    let outcome = cluster.query(&sql).unwrap();
                    assert_eq!(outcome.result, query(&store, &sql).unwrap().0, "{label}: {sql}");
                    assert_eq!(outcome.stats.rows_total, all.len() as u64, "{label}: {sql}");
                    assert_balanced(&outcome, &label);
                }
            }
        }
    }
}

/// One row appended to a 4-shard, fanout-2 socket tree goes to shard 0,
/// the lowest of four equally loaded shards. The append walks the tree: the
/// row crosses the two edges down to shard 0, and every other node — the
/// other merge server and the three other leaves — gets an `Append`
/// without deltas, which only tells it the epoch, so it keeps what it
/// remembers. The bytes the append reports are those frames, encoded here
/// from the same requests. Every later answer is the single store's.
#[test]
fn a_one_row_append_tells_every_merge_server_and_ships_one_delta() {
    use pd_dist::rpc::{encode_frame, AppendRequest};

    let mut rng = Rng::seed_from_u64(0x05ca_1e07);
    let base = random_table(&mut rng, 200);
    let row = random_table(&mut rng, 1);
    let (_, socket) = edge_kinds().into_iter().nth(1).unwrap();
    let mut cluster = cluster(&base, 4, 2, 64, &socket);
    let queries: Vec<String> = (0..6).map(|_| random_query(&mut rng)).collect();
    let oracle = DataStore::build(&base, &BuildOptions::basic()).unwrap();
    for sql in &queries[..4] {
        if !refused(&cluster, &oracle, sql) {
            cluster.query(sql).unwrap();
        }
    }

    let appended = cluster.append(&row).unwrap();
    assert_eq!(appended.shards, [0], "the lowest of four equal shards");
    let shipped = appended.bytes_shipped;
    let compress = RpcConfig::default().compress;
    let frame_len = |deltas| {
        let append = AppendRequest { epoch: 2, deltas };
        encode_frame(&append, compress).unwrap().len() as u64
    };
    assert_eq!(
        shipped,
        2 * frame_len(vec![(0, coded(&row))]) + 4 * frame_len(Vec::new()),
        "the row on the two edges above shard 0, the epoch alone on the four others"
    );

    let mut all = base.clone();
    all.push_row(row.row(0)).unwrap();
    let store = DataStore::build(&all, &BuildOptions::basic()).unwrap();
    for (at, sql) in queries.iter().chain(&queries).enumerate() {
        if refused(&cluster, &store, sql) {
            continue;
        }
        let outcome = cluster.query(sql).unwrap();
        assert_eq!(outcome.result, query(&store, sql).unwrap().0, "query {at}: {sql}");
        assert_eq!(outcome.stats.rows_total, 201, "query {at}");
        assert_balanced(&outcome, sql);
        if at < 4 {
            assert_eq!(outcome.worker_cache_hits(), 1, "query {at}: the root remembered {sql}");
        }
    }
}

/// An append without rows changes nothing, on either edge kind: no epoch,
/// no frame, nothing forgotten — the next repeat is a root hit.
#[test]
fn an_append_without_rows_changes_nothing() {
    let mut observed = Vec::new();
    for (kind, transport) in edge_kinds() {
        let mut rng = Rng::seed_from_u64(0x05ca_1e09);
        let table = random_table(&mut rng, 120);
        let mut cluster = cluster(&table, 4, 2, 64, &transport);
        let sql = "SELECT k, COUNT(*) as c, SUM(n) as s FROM data GROUP BY k";
        let before = cluster.query(sql).unwrap();
        let (epoch, shipped) = (cluster.epoch(), cluster.shipped_bytes());
        let outcome = cluster.append(&Table::new(table.schema().clone())).unwrap();
        assert_eq!((outcome.rows, outcome.bytes_shipped), (0, 0), "{kind}");
        assert_eq!((cluster.epoch(), cluster.shipped_bytes()), (epoch, shipped), "{kind}");
        let repeat = cluster.query(sql).unwrap();
        assert_eq!(repeat.result, before.result, "{kind}");
        assert_eq!((repeat.worker_cache_hits(), repeat.shard_cache_hits), (1, 4), "{kind}");
        observed.push((kind, vec![work(&before), work(&repeat)]));
    }
    assert_same_work(&observed);
}

/// Rows like [`random_table`]'s plus a `timestamp`, drifting with `round`:
/// later rounds bring `g`s and days no earlier row has, and `k`s and `n`s
/// that sort before every resident value — so appended dictionaries grow
/// at both ends and `date(timestamp)` keeps meeting new days.
fn drifting_rows(rng: &mut Rng, rows: usize, round: usize) -> Table {
    let schema = Schema::of(&[
        ("k", DataType::Str),
        ("g", DataType::Str),
        ("n", DataType::Int),
        ("x", DataType::Float),
        ("timestamp", DataType::Int),
    ]);
    let mut table = Table::new(schema);
    for _ in 0..rows {
        let fresh = round > 0 && rng.range_usize(0, 4) == 0;
        let k = match (fresh, round % 3) {
            (true, 0) => format!("a{:03}", 999 - round),
            _ => ["red", "green", "blue", "grey"][rng.range_usize(0, 4)].to_owned(),
        };
        let g = if fresh { 10 + round } else { rng.range_usize(0, 10) };
        let n = if fresh { -100 - round as i64 } else { rng.range_i64_inclusive(-40, 40) };
        let day = if fresh { round as i64 } else { rng.range_i64_inclusive(0, 2) };
        table
            .push_row(Row(vec![
                Value::from(k),
                Value::from(format!("g{g:02}")),
                Value::Int(n),
                Value::Float(rng.range_i64_inclusive(-8, 8) as f64 * 0.25),
                Value::Int(1_700_000_000 + day * 86_400 + rng.range_i64_inclusive(0, 86_399)),
            ]))
            .unwrap();
    }
    table
}

/// Charts over the drifting columns that [`random_query`] never draws:
/// every aggregate (`COUNT(DISTINCT)`, float `SUM` / `AVG` included), a
/// virtual field as key, and HAVING / ORDER BY / LIMIT variants of one
/// signature.
fn drifting_query(rng: &mut Rng) -> String {
    let shape = *rng.pick(&[
        "SELECT date(timestamp) as d, COUNT(*) as c, SUM(x) as s FROM data GROUP BY date(timestamp)",
        "SELECT g, COUNT(*) as c, COUNT(DISTINCT n) as u, AVG(x) as a FROM data GROUP BY g",
        "SELECT k, COUNT(*) as c, MIN(n) as mn, MAX(x) as mx FROM data WHERE n < 5 GROUP BY k",
        "SELECT k, g, COUNT(*) as c, SUM(n) as s, AVG(n) as a FROM data GROUP BY k, g",
        "SELECT COUNT(*) as c, COUNT(DISTINCT g) as u, SUM(x) as s FROM data",
    ]);
    let presentation =
        *rng.pick(&["", " ORDER BY c DESC LIMIT 3", " HAVING c > 2 ORDER BY c", " LIMIT 1"]);
    format!("{shape}{presentation}")
}

/// What a told node remembers stays right through any run of appends:
/// on both edge kinds and both tree depths, with node caches roomy or so
/// tight that the root and the merge servers remember different charts,
/// 44 rounds of {an append of random size — often a single row, or fewer
/// rows than shards — with drifting values; a mix of new charts and
/// re-asked ones}. Every answer — a miss, a plain hit, an entry brought
/// forward over one append or over thirty — is the single store's over
/// the rows so far, and accounts for exactly those rows.
#[test]
fn remembered_charts_are_brought_forward_through_any_run_of_appends() {
    // (Miri spawns no process, and interprets: in-memory edges, few rounds.)
    const ROUNDS: usize = if cfg!(miri) { 5 } else { 44 };
    // Asked in round 0 and then left alone until this round.
    const SLEEPS_UNTIL: usize = ROUNDS * 7 / 10;
    let mut observed = Vec::new();
    for (kind, transport) in edge_kinds().into_iter().take(if cfg!(miri) { 1 } else { 2 }) {
        let mut costs = Vec::new();
        for (fanout, cache) in [(2, 256), (16, 256), (2, 6)] {
            let mut rng = Rng::seed_from_u64(0x05ca_1e08 ^ fanout as u64);
            let mut all = drifting_rows(&mut rng, 150, 0);
            let mut cluster = cluster(&all, 4, fanout, cache, &transport);
            let sleeper = "SELECT g, COUNT(*) as c, SUM(x) as s, MIN(n) as mn FROM data GROUP BY g";
            let steady = "SELECT k, COUNT(*) as c, AVG(x) as a FROM data GROUP BY k ORDER BY k";
            let mut asked: Vec<String> = Vec::new();
            let mut forwarded = 0;
            for round in 0..ROUNDS {
                let store = DataStore::build(&all, &BuildOptions::basic()).unwrap();
                let mut batch: Vec<String> = (0..5)
                    .map(|_| match rng.range_usize(0, 5) {
                        0 => random_query(&mut rng),
                        1 => drifting_query(&mut rng),
                        _ if asked.is_empty() => drifting_query(&mut rng),
                        _ => rng.pick(&asked).clone(),
                    })
                    .collect();
                batch.push(steady.to_owned());
                if round == 0 || round >= SLEEPS_UNTIL {
                    batch.push(sleeper.to_owned());
                }
                for sql in batch {
                    let label = format!(
                        "{kind} fanout {fanout} cache {cache} round {round} @ {} rows: {sql}",
                        all.len()
                    );
                    if refused(&cluster, &store, &sql) {
                        continue;
                    }
                    let outcome = cluster.query(&sql).unwrap();
                    assert_eq!(outcome.result, query(&store, &sql).unwrap().0, "{label}");
                    assert_eq!(outcome.stats.rows_total, all.len() as u64, "{label}");
                    assert_balanced(&outcome, &label);
                    costs.push(work(&outcome));
                    let remembered = round > 0 && (sql == steady || sql == sleeper);
                    if remembered && cache == 256 {
                        assert_eq!(outcome.worker_cache_hits(), 1, "{label}: a root hit");
                        assert_eq!(outcome.shard_cache_hits, 4, "{label}");
                    }
                    let hit = outcome.worker_cache_hits() > 0;
                    forwarded += usize::from(hit && outcome.stats.rows_cached < all.len() as u64);
                    asked.push(sql);
                }
                let rows = *rng.pick(&[1, 1, 2, 3, 7, 20, 45]);
                let extra = drifting_rows(&mut rng, rows, round + 1);
                assert_eq!(cluster.append(&extra).unwrap().rows, rows as u64);
                (0..rows).for_each(|row| all.push_row(extra.row(row)).unwrap());
            }
            assert!(
                forwarded > ROUNDS,
                "{kind} fanout {fanout} cache {cache}: only {forwarded} answers were brought forward"
            );
        }
        observed.push((kind, costs));
    }
    assert_same_work(&observed);
}
