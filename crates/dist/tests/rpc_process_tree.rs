//! End-to-end tests of the process-split computation tree: real
//! `pd-dist-worker` processes behind the RPC boundary, driven through
//! [`Cluster`] with [`Transport::Rpc`] — over Unix sockets and loopback
//! TCP, and with restriction-aware subtree pruning. A test that needs a
//! refused, dead or slow peer spawns its workers behind the fault relay
//! (`support/relay.rs`).

#[path = "support/faults.rs"]
mod faults;

use faults::{Fault, Plan, Relays};
use pd_common::{DataType, Row, Schema, Value};
use pd_core::{query, BuildOptions, DataStore};
use pd_data::{generate_logs, LogsSpec, Table};
use pd_dist::node::NodeSpec;
use pd_dist::{Cluster, ClusterConfig, RpcConfig, Transport, TreeShape, WorkerAddr};
use pd_encoding::TableDelta;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_pd-dist-worker"))
}

/// Relays running `plan`, spawned in place of workers.
fn relays(plan: &Plan) -> Relays {
    Relays::new(Path::new(env!("CARGO_BIN_EXE_pd-dist-relay")), plan)
}

fn rpc(budget: Duration) -> Transport {
    // Library defaults otherwise: unix sockets.
    Transport::Rpc(RpcConfig { worker_bin: Some(worker_bin()), budget, ..Default::default() })
}

/// Unix sockets to `relays`.
fn relayed(relays: &Relays, budget: Duration) -> Transport {
    let worker_bin = Some(relays.launcher());
    Transport::Rpc(RpcConfig { worker_bin, budget, ..Default::default() })
}

fn rpc_with(addr: WorkerAddr) -> Transport {
    Transport::Rpc(RpcConfig {
        worker_bin: Some(worker_bin()),
        budget: Duration::from_secs(30),
        addr,
    })
}

fn build_options() -> BuildOptions {
    let mut build = BuildOptions::production(&["country", "table_name"]);
    if let Some(spec) = &mut build.partition {
        spec.max_chunk_rows = 150;
    }
    build
}

const QUERIES: [&str; 3] = [
    "SELECT country, COUNT(*) c FROM logs GROUP BY country ORDER BY c DESC LIMIT 10",
    "SELECT country, SUM(latency) s, AVG(latency) a FROM logs GROUP BY country ORDER BY country ASC",
    "SELECT COUNT(*) FROM logs WHERE country = 'DE'",
];

/// A bare `bin` worker process on a unix socket in a temp directory of its
/// own, no role assigned. It sits in a [`pd_dist::ReapGuard`]: a panicking
/// assertion kills and reaps it on unwind instead of leaking it into
/// later suites. The caller removes the directory.
fn raw_worker(tag: &str, bin: &Path) -> (pd_dist::ReapGuard, pd_dist::rpc::Addr, PathBuf) {
    let dir = std::env::temp_dir().join(format!("pd-{tag}-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let addr = pd_dist::rpc::Addr::Unix(dir.join("w.sock"));
    let worker = pd_dist::ReapGuard::new(
        std::process::Command::new(bin).arg("--listen").arg(addr.to_string()).spawn().unwrap(),
    );
    (worker, addr, dir)
}

/// `table`'s rows as the coded columns a `Load` or an `Append` ships.
fn coded(table: &Table) -> TableDelta {
    let columns: Vec<&[Value]> = (0..table.schema().len()).map(|i| table.column(i)).collect();
    TableDelta::from_columns(table.schema().clone(), &columns).unwrap()
}

/// The `Load` that makes a raw worker shard 0's uncached leaf over `table`.
fn leaf_load(table: &Table, build: BuildOptions) -> pd_dist::rpc::Request {
    pd_dist::rpc::Request::Load(Box::new(pd_dist::rpc::LoadRequest {
        shard: 0,
        delta: coded(table),
        build,
        spec: NodeSpec { name: "l0p".into(), threads: 1 },
    }))
}

#[test]
fn single_worker_process_answers_queries() {
    let table = generate_logs(&LogsSpec::scaled(600));
    let build = build_options();
    let store = DataStore::build(&table, &build).unwrap();
    let cluster = Cluster::build(
        &table,
        &ClusterConfig {
            shards: 1,
            replication: false,
            build,
            transport: rpc(Duration::from_secs(30)),
            ..Default::default()
        },
    )
    .unwrap();
    for sql in QUERIES {
        let (expect, _) = query(&store, sql).unwrap();
        let outcome = cluster.query(sql).unwrap();
        assert_eq!(outcome.result, expect, "{sql}");
        assert_eq!(outcome.subquery_latencies.len(), 1);
        assert!(outcome.failovers.is_empty());
    }
}

#[test]
fn merge_servers_fold_subtrees_identically() {
    // 5 shards at fanout 2: two merge levels (5 → 3 → 2 frontier nodes),
    // exercising Node-child timeouts, report propagation and the
    // associative fold across three tree layers.
    let table = generate_logs(&LogsSpec::scaled(1_000));
    let build = build_options();
    let store = DataStore::build(&table, &build).unwrap();
    let cluster = Cluster::build(
        &table,
        &ClusterConfig {
            shards: 5,
            replication: false,
            build,
            tree: TreeShape { fanout: 2 },
            transport: rpc(Duration::from_secs(30)),
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(cluster.shard_count(), 5);
    for sql in QUERIES {
        let (expect, _) = query(&store, sql).unwrap();
        let outcome = cluster.query(sql).unwrap();
        assert_eq!(outcome.result, expect, "{sql}");
        assert_eq!(
            outcome.stats.rows_skipped + outcome.stats.rows_cached + outcome.stats.rows_scanned,
            outcome.stats.rows_total,
            "row accounting must balance across the tree: {sql}"
        );
        // Every shard's observation made it up through the merge servers.
        assert_eq!(outcome.subquery_latencies.len(), 5);
        assert!(
            outcome.subquery_latencies.iter().all(|d| *d > Duration::ZERO),
            "per-shard latencies are measured, not defaulted: {:?}",
            outcome.subquery_latencies
        );
    }
}

#[test]
fn tcp_loopback_tree_matches_unix_sockets() {
    // The same tree — merge servers included — over loopback TCP with
    // ephemeral announced ports must produce rows bit-identical to the
    // unix-socket tree and the single store.
    let table = generate_logs(&LogsSpec::scaled(800));
    let build = build_options();
    let store = DataStore::build(&table, &build).unwrap();
    let cluster = Cluster::build(
        &table,
        &ClusterConfig {
            shards: 3,
            replication: false,
            build,
            tree: TreeShape { fanout: 2 },
            transport: rpc_with(WorkerAddr::loopback()),
            ..Default::default()
        },
    )
    .unwrap();
    for sql in QUERIES {
        let (expect, _) = query(&store, sql).unwrap();
        assert_eq!(cluster.query(sql).unwrap().result, expect, "{sql}");
    }
}

#[test]
fn restriction_preskip_prunes_non_matching_subtrees() {
    // A table whose `bucket` column is perfectly correlated with row
    // position: contiguous sharding gives every shard exactly one bucket
    // value, so a one-bucket restriction can only match one shard — and
    // the metadata shipped at load time proves it. At fanout 2 (4 leaves →
    // 2 mixers → root) the query for bucket b3 must prune the whole
    // {b0, b1} mixer at the root *and* the b2 leaf inside the other mixer:
    // two edges never carry the query, yet the answer is bit-identical.
    let schema = Schema::of(&[("bucket", DataType::Str), ("n", DataType::Int)]);
    let mut table = Table::new(schema);
    for i in 0..400i64 {
        table.push_row(Row(vec![Value::from(format!("b{}", i / 100)), Value::Int(i)])).unwrap();
    }
    let build = BuildOptions::production(&["bucket"]);
    let store = DataStore::build(&table, &build).unwrap();
    let cluster = Cluster::build(
        &table,
        &ClusterConfig {
            shards: 4,
            replication: false,
            build,
            tree: TreeShape { fanout: 2 },
            transport: rpc(Duration::from_secs(30)),
            ..Default::default()
        },
    )
    .unwrap();

    let sql = "SELECT bucket, COUNT(*) c, SUM(n) s FROM t WHERE bucket = 'b3' GROUP BY bucket";
    let (expect, _) = query(&store, sql).unwrap();
    let outcome = cluster.query(sql).unwrap();
    assert_eq!(outcome.result, expect);
    assert_eq!(
        outcome.stats.subtrees_pruned, 2,
        "the b0/b1 mixer prunes at the root, the b2 leaf inside its mixer"
    );
    assert!(
        outcome.stats.rows_skipped >= 300,
        "three shards' rows are skipped without scanning: {:?}",
        outcome.stats
    );
    assert_eq!(
        outcome.stats.rows_skipped + outcome.stats.rows_cached + outcome.stats.rows_scanned,
        outcome.stats.rows_total,
        "pruned shards keep the accounting balanced"
    );
    assert_eq!(outcome.subquery_latencies.len(), 4);

    // A restriction matching nothing anywhere prunes every edge at the
    // root — and still returns the exact empty/global-aggregate shape.
    let sql = "SELECT COUNT(*) FROM t WHERE bucket = 'nope'";
    let (expect, _) = query(&store, sql).unwrap();
    let outcome = cluster.query(sql).unwrap();
    assert_eq!(outcome.result, expect);
    assert_eq!(outcome.stats.subtrees_pruned, 2, "both frontier edges prune at the root");
    assert_eq!(outcome.stats.rows_skipped, 400);
    assert_eq!(outcome.stats.rows_scanned, 0);

    // An unrestricted query prunes nothing.
    let outcome = cluster.query("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(outcome.stats.subtrees_pruned, 0);
    assert_eq!(outcome.stats.rows_scanned + outcome.stats.rows_cached, 400);
}

#[test]
fn chunk_granular_pruning_kills_edges_the_shard_envelope_cannot() {
    // The `v` strings fall in two lexicographic regions — v0000..v0029
    // and v1000..v1029 — and every shard sees all 60 of them, so the
    // shard envelope spans the gap and shard-granular pruning is blind to
    // a query inside it. But each value repeats 10× per shard and chunks
    // cap at 50 rows, so chunk boundaries align to value runs and every
    // chunk of the value-partitioned store carries a tight value-space
    // min/max — the shipped zone maps prove the gap query empty chunk by
    // chunk. Every leaf keeps that summary and every edge prunes by it, so
    // the socket tree and the same shards in one address space prune and
    // scan alike. The column is a *string* under a production
    // (front-coded) build, which ranks the range bounds, so beneath a
    // live edge the leaf's chunk dictionaries skip what one store of the
    // same recipe skips: the tree scans exactly that store's rows.
    let all: Vec<String> = (0..30)
        .map(|i| format!("v{i:04}"))
        .chain((1000..1030).map(|i| format!("v{i:04}")))
        .collect();
    let schema = Schema::of(&[("v", DataType::Str)]);
    let mut table = Table::new(schema);
    for i in 0..2400usize {
        table.push_row(Row(vec![Value::from(all[i % all.len()].as_str())])).unwrap();
    }
    let mut build = BuildOptions::production(&["v"]);
    if let Some(spec) = &mut build.partition {
        spec.max_chunk_rows = 50;
    }
    let store = DataStore::build(&table, &build).unwrap();

    let dead_sql = "SELECT COUNT(*) c FROM t WHERE v > 'v0029' AND v < 'v1000'";
    let half_sql = "SELECT COUNT(*) c FROM t WHERE v < 'v1000'";
    let high_rows = (0..2400).filter(|i| all[i % all.len()].as_str() >= "v1000").count() as u64;

    let cluster_over = |transport: Transport| {
        Cluster::build(
            &table,
            &ClusterConfig {
                shards: 4,
                replication: false,
                build: build.clone(),
                tree: TreeShape { fanout: 2 },
                transport,
                ..Default::default()
            },
        )
        .unwrap()
    };
    let trees = [
        ("socket", cluster_over(rpc(Duration::from_secs(30)))),
        ("local", cluster_over(Transport::InProcess)),
    ];
    // Per query, per tree: edges pruned, chunks pruned remotely, rows scanned
    // and the chunks beneath.
    let mut work = Vec::new();
    for sql in [dead_sql, half_sql] {
        let (expect, single) = query(&store, sql).unwrap();
        let per_tree = trees.each_ref().map(|(kind, tree)| {
            let outcome = tree.query(sql).unwrap();
            let stats = &outcome.stats;
            assert_eq!(outcome.result, expect, "{kind}: {sql}");
            assert_eq!(
                stats.rows_skipped + stats.rows_cached + stats.rows_scanned,
                stats.rows_total,
                "{kind}: pruned edges and skipped chunks land in the ordinary accounting: {sql}"
            );
            assert_eq!(
                stats.chunks_skipped + stats.chunks_cached + stats.chunks_scanned,
                stats.chunks_total,
                "{kind}: the remote annotation stays outside the skip/cache/scan balance: {sql}"
            );
            assert_eq!(
                stats.rows_scanned, single.rows_scanned,
                "{kind}: a tree scans the rows one store's chunk dictionaries leave: {sql}"
            );
            if sql == half_sql {
                assert!(
                    stats.rows_skipped >= high_rows && single.rows_skipped >= high_rows,
                    "{kind}: both skip the high region's {high_rows} rows: {} and {}",
                    stats.rows_skipped,
                    single.rows_skipped
                );
            }
            (
                stats.subtrees_pruned,
                stats.chunks_pruned_remote,
                stats.rows_scanned,
                stats.chunks_total,
            )
        });
        assert_eq!(per_tree[0], per_tree[1], "an edge is an edge: {sql}");
        work.push(per_tree[0]);
    }
    // The provably-empty query: chunk verdicts prune every edge, no frame
    // carries it, and every chunk beneath the dead edges is annotated.
    let (pruned, remote, scanned, chunks) = work[0];
    assert!(pruned > 0, "dead edges must prune");
    assert_eq!((scanned, remote), (0, chunks));
    // The half-dead query: no edge dies (every shard keeps live low-region
    // chunks), and each leaf's chunk dictionaries skip its high-region
    // chunks, as the single store's do.
    assert_eq!(work[1].0, 0);
}

#[test]
fn a_dated_drill_down_asks_only_the_shard_that_holds_its_day() {
    // Log timestamps rise with row order and a build cuts contiguous row
    // ranges, so each of 4 shards holds about 23 of the 92 days, in every
    // chunk of it (chunks are cut by country and table name). Every
    // timestamp is distinct, far past the distinct caps: a parent knows
    // each zone map's extremes only, and `date(timestamp)`, which never
    // decreases, is bounded by the day of each end. A day inside one shard
    // is refuted beneath every other edge, on both edge kinds.
    let table = generate_logs(&LogsSpec::scaled(2_000));
    let build = build_options();
    let pieces: Vec<Table> = (0..4)
        .map(|i| table.select_rows(&(2_000 * i / 4..2_000 * (i + 1) / 4).collect::<Vec<_>>()))
        .collect();
    let mut chunks: Vec<usize> =
        pieces.iter().map(|piece| DataStore::build(piece, &build).unwrap().chunk_count()).collect();
    let mut rows: Vec<u64> = pieces.iter().map(|piece| piece.len() as u64).collect();
    // The day of each shard's middle row.
    let timestamps = table.column_by_name("timestamp").unwrap();
    let day_of = |ts: &Value| {
        let date = pd_sql::Expr::call("date", vec![pd_sql::Expr::column("ts")]);
        pd_sql::eval_expr(&date, [("ts", ts.clone())].as_slice()).unwrap()
    };
    let days: Vec<Value> = (0..4).map(|i| day_of(&timestamps[2_000 * (2 * i + 1) / 8])).collect();
    let sql = |day: &Value| {
        format!(
            "SELECT country, COUNT(*) c, SUM(latency) s FROM logs WHERE date(timestamp) = '{}' \
             GROUP BY country ORDER BY country",
            day.as_str().unwrap()
        )
    };
    // The root remembers no chart, so each query after the append reaches
    // the edges again.
    let cluster_over = |transport: Transport| {
        let config = ClusterConfig {
            shards: 4,
            replication: false,
            build: build.clone(),
            tree: TreeShape { fanout: 2 },
            shard_cache: 0,
            transport,
            ..Default::default()
        };
        Cluster::build(&table, &config).unwrap()
    };
    let mut trees = [
        ("socket", cluster_over(rpc(Duration::from_secs(30)))),
        ("local", cluster_over(Transport::InProcess)),
    ];
    // Every query names a day one shard holds: the other three edges are
    // refuted, and every row and chunk beneath them is skipped there.
    let check =
        |trees: &[(&str, Cluster); 2], store: &DataStore, chunks: &[usize], rows: &[u64]| {
            for (t, day) in days.iter().enumerate() {
                let sql = sql(day);
                let (expect, _) = query(store, &sql).unwrap();
                let per_tree = trees.each_ref().map(|(kind, tree)| {
                    let outcome = tree.query(&sql).unwrap();
                    let stats = &outcome.stats;
                    assert_eq!(outcome.result, expect, "{kind}: {sql}");
                    assert_eq!(stats.subtrees_pruned, 2, "{kind}: a mixer and a leaf: {sql}");
                    assert_eq!(
                        stats.chunks_pruned_remote,
                        stats.chunks_total - chunks[t],
                        "{kind}: every chunk but shard {t}'s is pruned at an edge: {sql}"
                    );
                    assert_eq!(stats.chunks_total, chunks.iter().sum::<usize>(), "{kind}: {sql}");
                    assert!(stats.rows_skipped >= stats.rows_total - rows[t], "{kind}: {sql}");
                    (stats.rows_skipped, stats.rows_scanned)
                });
                assert_eq!(per_tree[0], per_tree[1], "an edge is an edge: {sql}");
            }
        };
    check(&trees, &DataStore::build(&table, &build).unwrap(), &chunks, &rows);

    // 20 rows forty days past the window: one chunk, on the least-loaded
    // shard (the lowest id on a tie). Its summary's timestamp envelope now
    // spans the later shards' days, so only the new chunk's own zone map
    // keeps their queries off that edge.
    let ts = table.schema().resolve("timestamp").unwrap();
    let mut late = Table::new(table.schema().clone());
    for mut row in table.select_rows(&(1_980..2_000).collect::<Vec<_>>()).iter_rows() {
        row.0[ts] = Value::Int(row.0[ts].as_int().unwrap() + 40 * 86_400);
        late.push_row(row).unwrap();
    }
    let landed: Vec<Vec<u64>> =
        trees.each_mut().map(|(_, tree)| tree.append(&late).unwrap().shards).into();
    assert_eq!(landed[0], landed[1], "both trees put the batch on one shard");
    let [shard] = landed[0][..] else { panic!("one chunk's rows go to one shard: {landed:?}") };
    assert!(shard < 3, "a later shard's day lies inside shard {shard}'s envelope");
    chunks[shard as usize] += 1;
    rows[shard as usize] += late.len() as u64;
    let mut all = table.clone();
    late.iter_rows().for_each(|row| all.push_row(row).unwrap());
    check(&trees, &DataStore::build(&all, &build).unwrap(), &chunks, &rows);
}

#[test]
fn queue_delays_are_measured_not_modeled() {
    // One worker process, requests racing over *separate connections*. Two
    // claims, both only observation can make:
    //
    // 1. a query that arrives while the worker's one turn is taken by
    //    *real* work (here: a heavy shard import) reports a queue delay
    //    reflecting that genuine service time;
    // 2. a relay's delay is service time of the delayed query alone — the
    //    caller sees a late answer, but requests queued behind it do NOT
    //    report inflated queue delays, because the relay sleeps after the
    //    worker has answered.
    use pd_dist::rpc::{Addr, QueryRequest, Request, Response, RpcClient};
    use pd_sql::{analyze, parse_query};
    use std::sync::atomic::{AtomicBool, Ordering};

    let delay = Duration::from_millis(250);
    let relays = relays(&Plan::pinned("l0p", Fault::Delay(delay)));
    let (worker, addr, dir) = raw_worker("queue", &relays.launcher());
    let table = generate_logs(&LogsSpec::scaled(200));
    let mut setup = RpcClient::new(addr.clone());
    setup.connect_with_retry(Duration::from_secs(30)).unwrap();
    let load = leaf_load(&table, BuildOptions::basic());
    assert!(matches!(setup.call(&load, Duration::from_secs(60)).unwrap(), Response::Loaded(_)));

    let query = Request::Query(Box::new(QueryRequest {
        query: analyze(&parse_query("SELECT COUNT(*) FROM logs").unwrap()).unwrap(),
        budget: Duration::from_secs(30),
        hedge_micros: 0,
    }));
    let ask = |addr: Addr, query: &Request| -> (Duration, Duration) {
        let started = std::time::Instant::now();
        let mut client = RpcClient::new(addr);
        match client.call(query, Duration::from_secs(60)).unwrap() {
            Response::Answer(answer) => (answer.reports[0].queue, started.elapsed()),
            other => panic!("expected an answer, got {other:?}"),
        }
    };

    // Claim 2 first (the store is still small): with a 250 ms relay delay,
    // two concurrent queries each answer late, yet neither reports the
    // other's sleep as queueing.
    let observed: Vec<(Duration, Duration)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2).map(|_| scope.spawn(|| ask(addr.clone(), &query))).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (queue, elapsed) in &observed {
        assert!(
            *elapsed >= delay,
            "the delayed worker must answer late from the caller's view: {observed:?}"
        );
        assert!(
            *queue < Duration::from_millis(150),
            "artificial delay is service time of its own query only — it must not \
             inflate the measured queue delay of the request behind it: {observed:?}"
        );
    }

    // Claim 1: a heavy re-import (100 000 rows through the full production
    // build pipeline: 14-28 ms of service in a release build on 2 vCPUs,
    // 0.65 s in debug) holds the worker's turn for a long stretch of real
    // service time. Probes start only once the import's frame is written,
    // and go one after another with no pause until one measures a wait: a
    // probe that lands while the worker still reads the frame finds it
    // idle, and the first behind the import's ticket waits out its service
    // time, less one probe's round trip.
    relays.set(&Plan::default());
    let prompt = &query;
    let big = generate_logs(&LogsSpec::scaled(100_000));
    let heavy = leaf_load(&big, BuildOptions::production(&["country", "table_name"]));
    let frame = pd_dist::rpc::encode_frame(&heavy, false).unwrap();
    let written = AtomicBool::new(false);
    let queued = std::thread::scope(|scope| {
        let loader = scope.spawn(|| {
            let deadline = std::time::Instant::now() + Duration::from_secs(120);
            let mut client = RpcClient::new(addr.clone());
            client.send(&frame, deadline).unwrap();
            written.store(true, Ordering::Release);
            assert!(matches!(client.recv(deadline).unwrap(), Response::Loaded(_)));
        });
        while !written.load(Ordering::Acquire) && !loader.is_finished() {
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut best = Duration::ZERO;
        while best < Duration::from_millis(5) && !loader.is_finished() {
            best = best.max(ask(addr.clone(), prompt).0);
        }
        loader.join().unwrap();
        best
    });
    drop(worker); // kill + reap
    let _ = std::fs::remove_dir_all(&dir);

    assert!(
        queued >= Duration::from_millis(5),
        "a query behind a heavy import must report real, measured queueing, got {queued:?}"
    );
}

#[test]
fn cluster_surfaces_per_shard_queue_observations() {
    let table = generate_logs(&LogsSpec::scaled(400));
    let cluster = Cluster::build(
        &table,
        &ClusterConfig {
            shards: 2,
            replication: false,
            build: build_options(),
            transport: rpc(Duration::from_secs(30)),
            ..Default::default()
        },
    )
    .unwrap();
    let outcome = cluster.query(QUERIES[2]).unwrap();
    assert_eq!(outcome.queue_delays.len(), 2, "one measured queue delay per shard");
}

#[test]
fn role_reassignment_replaces_the_previous_role() {
    // The regression: `Load` after `Attach` (and vice versa) used to leave
    // *both* role halves populated, and queries preferred the leaf — so a
    // worker repurposed into a merge server silently kept answering from
    // its shadowed local store.
    use pd_dist::rpc::{
        Addr, AttachRequest, ChildSpec, LoadRequest, QueryRequest, Request, Response, RpcClient,
    };
    use pd_dist::ReapGuard;
    use pd_sql::{analyze, parse_query};

    let dir = std::env::temp_dir().join(format!("pd-role-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spawn = |name: &str| -> (ReapGuard, Addr) {
        let addr = Addr::Unix(dir.join(format!("{name}.sock")));
        let guard = ReapGuard::new(
            std::process::Command::new(worker_bin())
                .arg("--listen")
                .arg(addr.to_string())
                .spawn()
                .unwrap(),
        );
        (guard, addr)
    };
    let (w1, addr1) = spawn("w1");
    let (w2, addr2) = spawn("w2");

    let load = |shard: u64, rows: usize| {
        let table = generate_logs(&LogsSpec::scaled(rows));
        Request::Load(Box::new(LoadRequest {
            shard,
            delta: coded(&table),
            build: BuildOptions::basic(),
            spec: NodeSpec { name: format!("l{shard}p"), threads: 1 },
        }))
    };
    let mut c1 = RpcClient::new(addr1);
    c1.connect_with_retry(Duration::from_secs(30)).unwrap();
    let mut c2 = RpcClient::new(addr2.clone());
    c2.connect_with_retry(Duration::from_secs(30)).unwrap();

    // w2: a 200-row leaf for shard 7. w1: first a 100-row leaf for shard 0.
    let meta2 = match c2.call(&load(7, 200), Duration::from_secs(60)).unwrap() {
        Response::Loaded(meta) => *meta,
        other => panic!("expected Loaded, got {other:?}"),
    };
    assert!(matches!(
        c1.call(&load(0, 100), Duration::from_secs(60)).unwrap(),
        Response::Loaded(_)
    ));

    let query = Request::Query(Box::new(QueryRequest {
        query: analyze(&parse_query("SELECT COUNT(*) FROM logs").unwrap()).unwrap(),
        budget: Duration::from_secs(30),
        hedge_micros: 0,
    }));
    let ask = |client: &mut RpcClient| match client.call(&query, Duration::from_secs(30)).unwrap() {
        Response::Answer(answer) => answer,
        other => panic!("expected an answer, got {other:?}"),
    };
    let as_leaf = ask(&mut c1);
    assert_eq!(as_leaf.stats.rows_total, 100);
    assert_eq!(as_leaf.reports[0].shard, 0);

    // Repurpose w1 into a merge server over w2: its answers must now come
    // from the subtree, not the shadowed 100-row leaf.
    let attach = Request::Attach(AttachRequest {
        children: vec![ChildSpec::Leaf { shard: 7, primary: addr2, replica: None, meta: meta2 }],
        name: "m1_0".into(),
    });
    assert_eq!(c1.call(&attach, Duration::from_secs(30)).unwrap(), Response::Ok);
    let as_mixer = ask(&mut c1);
    assert_eq!(
        as_mixer.stats.rows_total, 200,
        "a repurposed merge server must answer from its subtree, not a shadowed leaf"
    );
    assert_eq!(as_mixer.reports.len(), 1);
    assert_eq!(as_mixer.reports[0].shard, 7, "the report names the child's shard");
    let work = (as_mixer.stats.worker_cache_hits, as_mixer.stats.rows_scanned);
    assert_eq!(work, (0, 200), "the old leaf role remembers nothing: every row is scanned");

    // And back: a fresh `Load` must retire the child wiring again.
    assert!(matches!(
        c1.call(&load(3, 150), Duration::from_secs(60)).unwrap(),
        Response::Loaded(_)
    ));
    let as_leaf_again = ask(&mut c1);
    assert_eq!(as_leaf_again.stats.rows_total, 150, "re-loaded leaf serves its own new store");
    assert_eq!(as_leaf_again.reports[0].shard, 3);
    let work = (as_leaf_again.stats.worker_cache_hits, as_leaf_again.stats.rows_scanned);
    assert_eq!(work, (0, 150), "the mixer role remembers nothing: every row is scanned");

    drop(w1);
    drop(w2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_tcp_announces_do_not_collide() {
    // The regression: announce temp paths were derived with
    // `with_extension("tmp")`, so announce files differing only in
    // extension (`w.1`, `w.2`) raced on one shared `w.tmp` — a worker
    // could crash on the missing temp file or publish its sibling's
    // address. Both workers must come up and announce distinct addresses.
    use pd_dist::rpc::{Addr, Request, Response, RpcClient};
    use pd_dist::ReapGuard;

    let dir = std::env::temp_dir().join(format!("pd-announce-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let announce = |n: usize| dir.join(format!("w.{n}"));
    let workers: Vec<ReapGuard> = (1..=2)
        .map(|n| {
            ReapGuard::new(
                std::process::Command::new(worker_bin())
                    .arg("--listen")
                    .arg("tcp:127.0.0.1:0")
                    .arg("--announce")
                    .arg(announce(n))
                    .spawn()
                    .unwrap(),
            )
        })
        .collect();
    let wait_for = |path: std::path::PathBuf| -> Addr {
        let started = std::time::Instant::now();
        loop {
            match std::fs::read_to_string(&path) {
                Ok(contents) if !contents.trim().is_empty() => {
                    return Addr::parse(contents.trim()).unwrap()
                }
                _ if started.elapsed() > Duration::from_secs(30) => {
                    panic!("worker never announced at {}", path.display())
                }
                _ => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    };
    let a = wait_for(announce(1));
    let b = wait_for(announce(2));
    assert_ne!(a, b, "two workers must announce two distinct addresses");
    for addr in [a, b] {
        let mut client = RpcClient::new(addr);
        client.connect_with_retry(Duration::from_secs(30)).unwrap();
        assert_eq!(client.call(&Request::Ping, Duration::from_secs(10)).unwrap(), Response::Ok);
    }
    drop(workers);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn append_streams_deltas_into_the_live_tree() {
    // The incremental-rebuild path over real worker processes: a delta
    // append must (1) ship strictly fewer bytes than the base import, (2)
    // leave every answer bit-identical to a single store over the full
    // data — across merge levels, with chunk pruning live on the
    // re-derived metas — and (3) reach the replicas, proven by forcing a
    // permanent primary failover onto one.
    let table = generate_logs(&LogsSpec::scaled(1_200));
    let slice = |lo: usize, hi: usize| {
        let rows: Vec<usize> = (lo..hi).collect();
        table.select_rows(&rows)
    };
    // Shard 0's primary refuses every query — cut off, not killed: it must
    // still take the appends. Each answer below must come from its
    // replica, which therefore must have absorbed the appends too.
    let relays = relays(&Plan::pinned("l0p", Fault::Refuse));
    let mut cluster = Cluster::build(
        &slice(0, 1_000),
        &ClusterConfig {
            shards: 3,
            replication: true,
            build: build_options(),
            tree: TreeShape { fanout: 2 },
            transport: relayed(&relays, Duration::from_secs(30)),
            ..Default::default()
        },
    )
    .unwrap();
    let base_bytes = cluster.shipped_bytes();
    assert!(base_bytes > 0, "the base import crossed the wire");
    let before = cluster.query(QUERIES[0]).unwrap();
    assert!(before.failovers.contains(&0), "shard 0 answers from its replica");

    let outcome = cluster.append(&slice(1_000, 1_100)).unwrap();
    assert_eq!(outcome.rows, 100);
    assert!(outcome.bytes_shipped > 0, "rpc appends are measured");
    assert!(
        outcome.bytes_shipped < base_bytes,
        "a 10% delta must ship fewer bytes than the base import: {} vs {base_bytes}",
        outcome.bytes_shipped
    );
    assert_eq!(cluster.shipped_bytes(), base_bytes + outcome.bytes_shipped);
    let second = cluster.append(&slice(1_100, 1_200)).unwrap();
    assert_eq!(second.rows, 100);

    let store = DataStore::build(&slice(0, 1_200), &BuildOptions::basic()).unwrap();
    for sql in QUERIES {
        let (expect, _) = query(&store, sql).unwrap();
        let outcome = cluster.query(sql).unwrap();
        assert_eq!(outcome.result, expect, "{sql}");
        assert_eq!(outcome.stats.rows_total, 1_200, "appended rows are accounted: {sql}");
        if sql == QUERIES[0] {
            // Asked before the appends: the root brings what it remembers
            // forward through both of them and asks no server.
            assert_eq!(outcome.worker_cache_hits(), 1, "remembered: {sql}");
        } else {
            assert!(outcome.failovers.contains(&0), "the replica keeps serving: {sql}");
        }
    }
    assert_ne!(
        cluster.query(QUERIES[0]).unwrap().result,
        before.result,
        "no cache serves a pre-append partial as it stands"
    );
}

#[test]
fn a_half_applied_append_refuses_queries_until_rebuild() {
    // Shard 1's only process dies (its relay exits on the next query),
    // then an append of two pieces arrives, one for each shard: shard 0
    // applies its piece, shard 1 cannot. The shards now hold different
    // data, so the cluster must stop serving — a typed refusal naming the
    // way out — until a rebuild succeeds.
    let table = generate_logs(&LogsSpec::scaled(700));
    let slice = |lo: usize, hi: usize| {
        let rows: Vec<usize> = (lo..hi).collect();
        table.select_rows(&rows)
    };
    let relays = relays(&Plan::default());
    let mut cluster = Cluster::build(
        &slice(0, 500),
        &ClusterConfig {
            shards: 2,
            replication: false,
            build: build_options(),
            transport: relayed(&relays, Duration::from_secs(5)),
            ..Default::default()
        },
    )
    .unwrap();
    let sql = "SELECT COUNT(*) FROM logs";
    cluster.query(sql).unwrap();
    relays.set(&Plan::pinned("l1p", Fault::Kill));
    // (A chart the root has not answered yet: `sql` would stop there.)
    cluster.query(QUERIES[0]).unwrap_err();
    relays.set(&Plan::default());

    // 200 rows over 150-row chunks: two pieces, so both shards are written.
    let epoch = cluster.epoch();
    cluster.append(&slice(500, 700)).unwrap_err();
    assert_eq!(cluster.epoch(), epoch, "a failed append establishes no epoch");
    let refused = cluster.query(sql).unwrap_err().to_string();
    assert!(refused.contains("rebuild"), "the refusal names the way out: {refused}");
    assert!(cluster.append(&slice(500, 700)).is_err(), "nor does it take more appends");

    cluster.rebuild(&slice(0, 700)).unwrap();
    let store = DataStore::build(&slice(0, 700), &BuildOptions::basic()).unwrap();
    assert_eq!(cluster.query(sql).unwrap().result, query(&store, sql).unwrap().0);
}

#[test]
fn rebuild_respawns_the_tree_with_new_data() {
    let table = generate_logs(&LogsSpec::scaled(400));
    let mut cluster = Cluster::build(
        &table,
        &ClusterConfig {
            shards: 2,
            replication: false,
            build: build_options(),
            transport: rpc(Duration::from_secs(30)),
            ..Default::default()
        },
    )
    .unwrap();
    let sql = "SELECT COUNT(*) FROM logs";
    let before = cluster.query(sql).unwrap();
    let bigger = generate_logs(&LogsSpec::scaled(800));
    cluster.rebuild(&bigger).unwrap();
    let after = cluster.query(sql).unwrap();
    assert_eq!(after.stats.rows_total, 800);
    assert_ne!(before.result, after.result, "rebuilt tree serves the new data");
}

#[test]
fn a_slow_child_and_a_huge_sibling_reply_neither_deadlock_nor_reorder() {
    // The parent writes to both leaves, then reads them in child order.
    // Shard 0's primary answers late (its relay sleeps); shard 1 meanwhile
    // has a reply far larger than a socket buffer (≥ 1 MiB:
    // 5 000 distinct keys of 220 bytes each) and sits in `write` until the
    // parent gets to it. Nothing may deadlock, and the fold must come out
    // as over a single store.
    let schema = Schema::of(&[("k", DataType::Str), ("x", DataType::Float)]);
    let mut table = Table::new(schema);
    for i in 0..10_000i64 {
        let key = Value::from(format!("{i:0>220}"));
        table.push_row(Row(vec![key, Value::Float(i as f64 * 0.25)])).unwrap();
    }
    let build = BuildOptions::basic();
    let store = DataStore::build(&table, &build).unwrap();
    let sql = "SELECT k, SUM(x) s FROM t GROUP BY k ORDER BY k ASC";

    let half: Vec<usize> = (5_000..10_000).collect();
    let shard1 = DataStore::build(&table.select_rows(&half), &build).unwrap();
    let analyzed = pd_sql::analyze(&pd_sql::parse_query(sql).unwrap()).unwrap();
    let (partial, _) =
        pd_core::execute_partial(&shard1, &analyzed, &pd_core::ExecContext::default()).unwrap();
    let reply_bytes = pd_common::wire::to_bytes(&partial).len();
    assert!(reply_bytes >= 1 << 20, "shard 1's reply must dwarf a socket buffer: {reply_bytes}");

    let delay = Duration::from_millis(200);
    let relays = relays(&Plan::pinned("l0p", Fault::Delay(delay)));
    let cluster = Cluster::build(
        &table,
        &ClusterConfig {
            shards: 2,
            replication: false,
            build,
            shard_cache: 0,
            transport: relayed(&relays, Duration::from_secs(30)),
            ..Default::default()
        },
    )
    .unwrap();
    let (expect, _) = query(&store, sql).unwrap();
    let outcome = cluster.query(sql).unwrap();
    assert_eq!(outcome.result, expect);
    assert!(
        outcome.subquery_latencies.iter().all(|latency| *latency >= delay),
        "shard 1's reply was read after shard 0's: {:?}",
        outcome.subquery_latencies
    );
}

#[test]
fn a_connection_stalled_mid_frame_holds_no_ticket() {
    // One connection sends half a request and stops. It has no complete
    // frame, so it has no place in the worker's queue: a query on another
    // connection is served at once, with no queue delay to report. The
    // stalled connection is then served as soon as its frame is whole.
    use pd_dist::rpc::{encode_frame, read_frame, QueryRequest, Request, Response, RpcClient};
    use std::io::Write;

    let (worker, addr, dir) = raw_worker("ticket", &worker_bin());
    let mut client = RpcClient::new(addr.clone());
    client.connect_with_retry(Duration::from_secs(30)).unwrap();
    let load = leaf_load(&generate_logs(&LogsSpec::scaled(200)), BuildOptions::basic());
    assert!(matches!(client.call(&load, Duration::from_secs(60)).unwrap(), Response::Loaded(_)));

    let query = Request::Query(Box::new(QueryRequest {
        query: pd_sql::analyze(&pd_sql::parse_query("SELECT COUNT(*) FROM logs").unwrap()).unwrap(),
        budget: Duration::from_secs(30),
        hedge_micros: 0,
    }));
    let frame = encode_frame(&query, false).unwrap();
    let (head, tail) = frame.split_at(frame.len() / 2);
    let mut stalled = addr.connect().unwrap();
    stalled.write_all(head).unwrap();

    let started = std::time::Instant::now();
    let Response::Answer(answer) = client.call(&query, Duration::from_secs(10)).unwrap() else {
        panic!("expected an answer");
    };
    assert!(
        answer.reports[0].queue < Duration::from_millis(50),
        "a half-sent frame on another connection is nobody's queue: {:?}",
        answer.reports[0].queue
    );
    assert!(started.elapsed() < Duration::from_secs(5), "{:?}", started.elapsed());

    stalled.write_all(tail).unwrap();
    let late: Response = read_frame(&mut stalled).unwrap().unwrap();
    assert!(matches!(late, Response::Answer(_)), "{late:?}");

    drop(worker);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_forged_load_is_nakked_and_the_worker_takes_the_next_one() {
    // A `Load` is decoded by the codec an `Append` goes through: coded
    // columns that would index past their dictionary never reach a store —
    // the worker NAKs the frame and drops the connection, and stays fit to
    // be loaded.
    use pd_dist::rpc::{Request, Response, RpcClient};

    let (worker, addr, dir) = raw_worker("forged-load", &worker_bin());
    let table = generate_logs(&LogsSpec::scaled(200));
    let mut forged = leaf_load(&table, BuildOptions::basic());
    if let Request::Load(load) = &mut forged {
        let column = &mut load.delta.columns[0];
        column.codes[7] = column.dict.len();
    }
    let mut client = RpcClient::new(addr.clone());
    client.connect_with_retry(Duration::from_secs(30)).unwrap();
    let nak = client.call(&forged, Duration::from_secs(30)).unwrap();
    assert!(matches!(&nak, Response::Malformed(why) if why.contains("out of range")), "{nak:?}");

    let mut client = RpcClient::new(addr);
    client.connect_with_retry(Duration::from_secs(30)).unwrap();
    let load = leaf_load(&table, BuildOptions::basic());
    let ack = client.call(&load, Duration::from_secs(60)).unwrap();
    assert!(matches!(&ack, Response::Loaded(meta) if meta.rows == 200), "{ack:?}");

    drop(worker);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_callers_share_one_socket_tree() {
    // Two threads query the same cluster at once. Each fan-out takes the
    // connections it needs in child order and holds them until the replies
    // are read, so the callers take turns edge by edge — both must finish,
    // with the rows a single store gives.
    let table = generate_logs(&LogsSpec::scaled(1_000));
    let build = build_options();
    let store = DataStore::build(&table, &build).unwrap();
    let cluster = Cluster::build(
        &table,
        &ClusterConfig {
            shards: 4,
            replication: true,
            build,
            shard_cache: 0,
            tree: TreeShape { fanout: 2 },
            transport: rpc(Duration::from_secs(30)),
            ..Default::default()
        },
    )
    .unwrap();
    let expect: Vec<_> = QUERIES.iter().map(|sql| query(&store, sql).unwrap().0).collect();
    std::thread::scope(|scope| {
        for caller in 0..2 {
            let (cluster, expect) = (&cluster, &expect);
            scope.spawn(move || {
                for round in 0..30 {
                    let i = (round + caller) % QUERIES.len();
                    let outcome = cluster.query(QUERIES[i]).unwrap();
                    assert_eq!(outcome.result, expect[i], "caller {caller}: {}", QUERIES[i]);
                }
            });
        }
    });
}

/// The 1 400-row log table the append tests stream: a 1 000-row base and
/// twenty 20-row batches, the last of which carries a country and a user
/// no earlier row has.
fn base_and_twenty_batches() -> (Table, Vec<Table>) {
    let table = generate_logs(&LogsSpec::scaled(1_400));
    let slice = |lo: usize, hi: usize| table.select_rows(&(lo..hi).collect::<Vec<_>>());
    let mut batches: Vec<Table> = (0..19).map(|i| slice(1_000 + 20 * i, 1_020 + 20 * i)).collect();
    let (country, user) =
        (table.schema().resolve("country").unwrap(), table.schema().resolve("user").unwrap());
    let mut last = Table::new(table.schema().clone());
    for mut row in slice(1_380, 1_400).iter_rows() {
        row.0[country] = Value::from("ZZ");
        row.0[user] = Value::from("user_in_the_last_batch");
        last.push_row(row).unwrap();
    }
    batches.push(last);
    (slice(0, 1_000), batches)
}

fn four_leaves_two_mixers(replication: bool, worker_bin: PathBuf) -> ClusterConfig {
    ClusterConfig {
        shards: 4,
        replication,
        build: build_options(),
        tree: TreeShape { fanout: 2 },
        transport: Transport::Rpc(RpcConfig {
            worker_bin: Some(worker_bin),
            budget: Duration::from_secs(30),
            ..Default::default()
        }),
        ..Default::default()
    }
}

#[test]
fn parents_prune_by_live_summaries_after_twenty_appends() {
    // No summary is shipped after the build: every parent — both merge
    // servers and the driver — absorbs each append into its own copy. A
    // stale copy would show in one of two ways: rows that exist only in
    // the newest delta pruned away (a wrong answer), or nothing pruned at
    // all.
    let (base, batches) = base_and_twenty_batches();
    let mut cluster = Cluster::build(&base, &four_leaves_two_mixers(true, worker_bin())).unwrap();
    let mut all = base;
    for batch in &batches {
        assert_eq!(cluster.append(batch).unwrap().rows, 20);
        for row in batch.iter_rows() {
            all.push_row(row).unwrap();
        }
    }
    let store = DataStore::build(&all, &BuildOptions::basic()).unwrap();
    for sql in QUERIES {
        let outcome = cluster.query(sql).unwrap();
        assert_eq!(outcome.result, query(&store, sql).unwrap().0, "{sql}");
        assert_eq!(outcome.stats.rows_total, 1_400, "{sql}");
    }
    // Exact value sets (country) and blooms (user is long past the
    // distinct cap) both learned the last batch.
    for sql in [
        "SELECT COUNT(*) FROM logs WHERE country = 'ZZ'",
        "SELECT COUNT(*) FROM logs WHERE user = 'user_in_the_last_batch'",
    ] {
        let outcome = cluster.query(sql).unwrap();
        assert_eq!(outcome.result, query(&store, sql).unwrap().0, "{sql}");
        assert_eq!(outcome.result.rows[0].0[0], Value::Int(20), "{sql}");
    }
    let nowhere = cluster.query("SELECT COUNT(*) FROM logs WHERE country = 'QQ'").unwrap();
    assert_eq!(nowhere.stats.subtrees_pruned, 2, "both frontier edges prune at the root");
    assert_eq!(nowhere.stats.rows_skipped, 1_400, "by summaries that count the appended rows");
}

/// A root hit needs no server: with both merge servers really dead — each
/// killed by the first query that reached it — a chart the root remembers
/// still answers, bit for bit, and one it does not fails typed.
#[test]
fn what_the_root_remembers_outlives_every_merge_server() {
    use pd_common::{Error, RpcError};
    let table = generate_logs(&LogsSpec::scaled(800));
    let relays = relays(&Plan::default());
    let cluster =
        Cluster::build(&table, &four_leaves_two_mixers(false, relays.launcher())).unwrap();
    let warm = cluster.query(QUERIES[0]).unwrap();
    assert_eq!(warm.worker_cache_hits(), 0);

    let kill = |node: &str| (node.to_string(), Fault::Kill);
    relays.set(&Plan { pins: vec![kill("m1_0"), kill("m1_1")], ..Plan::default() });
    let err = cluster.query(QUERIES[1]).unwrap_err();
    assert!(matches!(err, Error::Rpc(RpcError::PeerGone(_))), "killed mid-query: {err}");
    relays.set(&Plan::default());

    let repeat = cluster.query(QUERIES[0]).unwrap();
    assert_eq!(repeat.result, warm.result);
    assert_eq!((repeat.worker_cache_hits(), repeat.shard_cache_hits), (1, 4));
    assert_eq!(repeat.stats.rows_cached, repeat.stats.rows_total);
    assert!(repeat.failovers.is_empty() && repeat.hedges.is_empty());
    let err = cluster.query(QUERIES[2]).unwrap_err();
    assert!(
        matches!(err, Error::Rpc(RpcError::PeerGone(_) | RpcError::ConnRefused(_))),
        "nobody is left to ask: {err}"
    );
}

/// Every socket open in a process whose `argv[0]` is `bin`, as
/// `(pid, "socket:[inode]")`. The kernel numbers sockets as it creates
/// them, so a connection closed and dialed again is a different entry.
#[cfg(target_os = "linux")]
fn open_sockets(bin: &std::path::Path) -> std::collections::BTreeSet<(u32, String)> {
    let mut sockets = std::collections::BTreeSet::new();
    for entry in std::fs::read_dir("/proc").unwrap().flatten() {
        let Some(pid) = entry.file_name().to_str().and_then(|name| name.parse::<u32>().ok()) else {
            continue;
        };
        let Ok(cmdline) = std::fs::read(entry.path().join("cmdline")) else { continue };
        if cmdline.split(|b| *b == 0).next() != Some(bin.as_os_str().as_encoded_bytes()) {
            continue;
        }
        for fd in std::fs::read_dir(entry.path().join("fd")).unwrap().flatten() {
            if let Ok(target) = std::fs::read_link(fd.path()) {
                let target = target.to_string_lossy().into_owned();
                if target.starts_with("socket:") {
                    sockets.insert((pid, target));
                }
            }
        }
    }
    sockets
}

#[cfg(target_os = "linux")]
#[test]
fn appends_open_and_close_no_connection() {
    // The tree's workers run under a name of their own, so this test can
    // tell their sockets from those of the suites running beside it. No
    // replicas: a hedge fired on a loaded box dials one, rightly.
    let dir = std::env::temp_dir().join(format!("pd-noconn-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let bin = dir.join("pd-dist-worker-noconn");
    std::os::unix::fs::symlink(worker_bin(), &bin).unwrap();

    let (base, batches) = base_and_twenty_batches();
    let mut cluster = Cluster::build(&base, &four_leaves_two_mixers(false, bin.clone())).unwrap();
    // The first query dials every edge: root → mixers → leaves.
    cluster.query(QUERIES[0]).unwrap();
    let wired = open_sockets(&bin);
    let processes: std::collections::BTreeSet<u32> = wired.iter().map(|(pid, _)| *pid).collect();
    assert_eq!(processes.len(), 6, "four leaves and two merge servers: {wired:?}");
    // Per worker a listener and a control connection; per edge one socket
    // at the child, and one more at a parent that is itself a worker.
    assert_eq!(wired.len(), 6 * 2 + 2 + 4 * 2, "{wired:?}");

    for batch in &batches {
        cluster.append(batch).unwrap();
    }
    let outcome = cluster.query(QUERIES[0]).unwrap();
    assert_eq!(outcome.stats.rows_total, 1_400);
    assert_eq!(open_sockets(&bin), wired, "an append re-dials nothing, anywhere in the tree");

    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
}
