//! The cost of the real §4 process split: in-process shard fan-out vs the
//! RPC computation tree (spawned `pd-dist-worker` leaves + merge servers)
//! over Unix sockets and loopback TCP.
//!
//! Numbers per shard count and transport:
//!
//! 1. **tree build** — spawning, loading and wiring the worker processes
//!    (the price the in-process cluster never pays);
//! 2. **cold query** — first execution over each transport;
//! 3. **warm query** — steady state, where the RPC gap isolates the wire:
//!    serialization + framing + socket hops + worker queueing;
//! 4. **wire bytes** — the serialized size of one shard's partial result,
//!    the §4 payload that flows up the tree (frames are never compressed);
//! 5. **root hit** — the warm repeat of a chart the root's cache holds, on
//!    a unix tree ÷ on an in-process tree of the same shape: it crosses no
//!    edge, so the socket must not show (asserted ≤ 2×, with exactly one
//!    node — the root — reporting the hit);
//! 6. **replication tax** — a warm unix query over a replicated tree ÷ the
//!    same tree unreplicated. A healthy pair's primary answers inside the
//!    hedge window, so the replica is never contacted and no thread is
//!    spawned: the pair may cost a timed wait per leaf, not a wake-up
//!    (asserted ≤ 1.5×);
//! 7. **hedged straggler** — shard 0's primary answers 800 ms late, every
//!    query (the fault relay in front of it:
//!    `crates/dist/tests/support/relay.rs`): the replica wins the race long
//!    before (asserted).
//!
//! The worker binary is resolved like the library does (explicit env /
//! sibling of the executable), the relay (`pd-dist-relay`) as a sibling of
//! the executable; when one is not built its columns are skipped with a
//! note instead of failing — `cargo bench` does not build other crates'
//! bin targets. Worker processes sit in `ReapGuard`s inside
//! the cluster's `ProcessTree`, so a panicking measurement reaps its
//! children on unwind instead of leaking them into later suites.

#[path = "../../dist/tests/support/faults.rs"]
mod faults;

use pd_bench::{fmt_duration, json_line, logs_table, measure, measure_stats, TablePrinter};
use pd_common::wire;
use pd_core::{execute_partial, query, BuildOptions, DataStore, ExecContext};
use pd_dist::{Cluster, ClusterConfig, RpcConfig, Transport, TreeShape, WorkerAddr};
use std::hint::black_box;
use std::time::Duration;

fn main() {
    let rows = pd_bench::rows_from_env_or(100_000);
    let table = logs_table(rows);
    let mut build = BuildOptions::production(&["country", "table_name"]);
    if let Some(spec) = &mut build.partition {
        spec.max_chunk_rows = (rows / 64).clamp(500, 50_000);
    }
    // Restricted to a value the generator actually produces: the previous
    // `table_name = 'Searches'` matched nothing in the logs table, so
    // restriction-aware pre-skip pruned the whole tree at the root and the
    // "query" columns timed the prune instead of real execution.
    let sql = "SELECT table_name, COUNT(*) as c, SUM(latency) as s FROM logs \
               WHERE country = 'US' GROUP BY table_name ORDER BY c DESC LIMIT 10";

    // One shard's partial on the wire: what every tree edge carries (an
    // unfiltered two-aggregate group-by, so every group key, count and
    // float-sum superaccumulator is present).
    let store = DataStore::build(&table, &build).expect("store");
    let unfiltered = "SELECT country, COUNT(*) as c, SUM(latency) as s FROM logs GROUP BY country";
    let analyzed =
        pd_sql::analyze(&pd_sql::parse_query(unfiltered).expect("parse")).expect("analyze");
    let ctx = ExecContext { threads: 1, ..Default::default() };
    let (partial, _) = execute_partial(&store, &analyzed, &ctx).expect("partial");
    let wire_bytes = wire::to_bytes(&partial);
    println!(
        "dataset: {rows} rows; one shard's {}-group partial on the wire: {} bytes",
        partial.len(),
        wire_bytes.len(),
    );

    let worker_available = pd_dist::process::resolve_worker_bin(None).is_ok();
    if !worker_available {
        println!(
            "NOTE: pd-dist-worker binary not found (build it or set PD_DIST_WORKER_BIN); \
             skipping the rpc columns"
        );
    }

    let transports: Vec<(&str, Transport)> = vec![
        ("in-process", Transport::InProcess),
        ("unix", rpc(WorkerAddr::Unix)),
        ("tcp", rpc(WorkerAddr::loopback())),
    ];
    let shard_counts: &[usize] = if pd_bench::quick() { &[1, 4] } else { &[1, 4, 8] };

    println!("\n=== transport comparison (fanout 4 ⇒ merge servers appear at 8 shards) ===");
    let printer = TablePrinter::new(
        &["shards", "transport", "tree build", "cold query", "warm query"],
        &[6, 10, 10, 10, 10],
    );
    for &shards in shard_counts {
        for (transport_name, transport) in &transports {
            if !matches!(transport, Transport::InProcess) && !worker_available {
                continue;
            }
            let config = ClusterConfig {
                shards,
                replication: false,
                shard_cache: 0,
                threads: 1,
                tree: TreeShape { fanout: 4 },
                build: build.clone(),
                transport: transport.clone(),
                ..Default::default()
            };
            let mut cluster = None;
            let build_time = pd_bench::measure(|| {
                cluster = Some(Cluster::build(&table, &config).expect("cluster"));
            });
            let cluster = cluster.expect("built");
            let cold = pd_bench::measure(|| {
                black_box(cluster.query(sql).expect("query"));
            });
            let warm_stats = measure_stats(5, || {
                black_box(cluster.query(sql).expect("query"));
            });
            json_line("rpc_tree", &format!("shards{shards}/{transport_name}"), warm_stats, &[]);
            printer.row(&[
                shards.to_string(),
                transport_name.to_string(),
                fmt_duration(build_time),
                fmt_duration(cold),
                fmt_duration(warm_stats.min),
            ]);
        }
    }
    println!(
        "\nThe warm-query gap between the transports is the RPC boundary itself: \
         serialization, framing, socket hops and worker queueing."
    );

    // The root's result cache: a warm drill-down answers from the root — a
    // node in the driver on every transport — so at 8 shards and fanout 4
    // neither merge server is asked, the 8 leaf partials (the FloatSum-heavy
    // payloads measured above) never cross a socket, and the repeat costs
    // what it costs on an in-process tree of the same shape (asserted
    // ≤ 2×, batches sampled alternately: a root that forgets pays a hop
    // and reads 5× or more). The bytes-not-shipped figure uses a
    // *measured* representative leaf partial: the same query executed
    // over one shard's worth of rows.
    if worker_available {
        const BATCH: usize = 50;
        let shards = 8usize;
        let leaf_rows = {
            let mut sub = pd_data::Table::new(table.schema().clone());
            for r in 0..table.len() / shards {
                sub.push_row(table.row(r)).expect("leaf sample");
            }
            sub
        };
        let leaf_store = DataStore::build(&leaf_rows, &build).expect("leaf store");
        let warm_analyzed =
            pd_sql::analyze(&pd_sql::parse_query(sql).expect("parse")).expect("analyze");
        let (leaf_partial, _) =
            execute_partial(&leaf_store, &warm_analyzed, &ctx).expect("leaf partial");
        let leaf_partial_bytes = wire::to_bytes(&leaf_partial).len();

        let tree = |transport: Transport| {
            let config = ClusterConfig {
                shards,
                replication: false,
                shard_cache: 1024,
                threads: 1,
                tree: TreeShape { fanout: 4 },
                build: build.clone(),
                transport,
                ..Default::default()
            };
            Cluster::build(&table, &config).expect("cached cluster")
        };
        let (unix, local) = (tree(rpc(WorkerAddr::Unix)), tree(Transport::InProcess));
        let cold = pd_bench::measure(|| {
            black_box(unix.query(sql).expect("cold query"));
        });
        local.query(sql).expect("cold query");
        let warm_outcome = unix.query(sql).expect("warm query");
        let hits = warm_outcome.worker_cache_hits();
        assert_eq!(hits, 1, "a repeated query must stop at the root's cache, on any transport");
        assert_eq!(local.query(sql).expect("warm query").worker_cache_hits(), 1);
        let covered = warm_outcome.stats.rows_cached == warm_outcome.stats.rows_total;
        let bytes_not_shipped = shards * leaf_partial_bytes;
        let batch = |cluster: &Cluster| {
            for _ in 0..BATCH {
                black_box(cluster.query(sql).expect("warm query"));
            }
        };
        let (mut unix_samples, mut local_samples) = (Vec::new(), Vec::new());
        for _ in 0..5 {
            unix_samples.push(measure(|| batch(&unix)));
            local_samples.push(measure(|| batch(&local)));
        }
        let (warm_stats, local_stats) = (stats(unix_samples), stats(local_samples));
        let ratio = warm_stats.min.as_secs_f64() / local_stats.min.as_secs_f64();
        println!(
            "\n=== warm rpc with the root's cache (8 shards, fanout 4, best of 5 batches of \
             {BATCH}) ===\n\
             cold {} -> warm {} per query ({ratio:.2}x the in-process tree's {}) | {hits} root \
             cache hit per warm query (all rows cached: {covered}); ~{bytes_not_shipped} bytes \
             of leaf partials not shipped ({} bytes per measured leaf partial x {shards} edges)",
            fmt_duration(cold),
            fmt_duration(warm_stats.min / BATCH as u32),
            fmt_duration(local_stats.min / BATCH as u32),
            leaf_partial_bytes,
        );
        json_line(
            "rpc_tree",
            "warm_cached_rpc",
            warm_stats,
            &[
                ("batch", BATCH.to_string()),
                ("root_cache_hits", hits.to_string()),
                ("in_process_min_ns", local_stats.min.as_nanos().to_string()),
                ("unix_over_in_process", format!("{ratio:.3}")),
                ("leaf_partial_bytes", leaf_partial_bytes.to_string()),
                ("bytes_not_shipped", bytes_not_shipped.to_string()),
            ],
        );
        assert!(
            ratio <= 2.0,
            "a chart the root remembers crosses no edge: unix {} vs in-process {} per batch \
             ({ratio:.2}x)",
            fmt_duration(warm_stats.min),
            fmt_duration(local_stats.min),
        );
    }

    // Edge pruning on a drill-down: a lexicographic `table_name` window
    // over a table sorted by `table_name`, so each shard (a contiguous piece
    // of the rows) holds one stretch of names and the shards outside the
    // window are refuted by their summaries before a hop: their edges are
    // pruned, with every chunk beneath them. Beneath a live edge the leaf's
    // chunk dictionaries skip the chunks outside the window (the
    // dictionary ranks its bounds). The socket tree — measured over
    // loopback TCP, the multi-host transport — and the same shards in one
    // address space prune and scan alike, and both skip chunks, as one
    // store of the same rows and recipe does by its chunk dictionaries
    // alone, for a bit-identical result.
    if worker_available {
        // Mid-envelope window over the `logs.<team>.<dataset>_<k>` names:
        // maps/revenue teams, with ads..youtube neighbours on both sides.
        let drill = "SELECT table_name, COUNT(*) as c, SUM(latency) as s FROM logs \
                     WHERE table_name >= 'logs.m' AND table_name < 'logs.s' \
                     GROUP BY table_name ORDER BY c DESC LIMIT 10";
        // Partitioned table_name-major (the drill-down field), so chunk
        // zone maps carry tight name envelopes.
        let mut drill_build = BuildOptions::production(&["table_name", "country"]);
        if let Some(spec) = &mut drill_build.partition {
            spec.max_chunk_rows = (rows / 64).clamp(500, 50_000);
        }
        let by_name = table.sorted_by(&["table_name"]).expect("sort by table_name");
        let cluster_over = |transport: Transport| {
            Cluster::build(
                &by_name,
                &ClusterConfig {
                    shards: 4,
                    replication: false,
                    shard_cache: 0,
                    threads: 1,
                    tree: TreeShape { fanout: 4 },
                    build: drill_build.clone(),
                    transport,
                    ..Default::default()
                },
            )
            .expect("drill-down cluster")
        };
        let layered = cluster_over(rpc(WorkerAddr::loopback()));
        let local = cluster_over(Transport::InProcess);
        let single_store = DataStore::build(&by_name, &drill_build).expect("single store");
        let (want, single) = query(&single_store, drill).expect("single-store drill-down");
        let layered_outcome = layered.query(drill).expect("layered drill-down");
        let local_outcome = local.query(drill).expect("in-process drill-down");
        let work = |stats: &pd_core::ScanStats| {
            (stats.subtrees_pruned, stats.chunks_pruned_remote, stats.rows_scanned)
        };
        for outcome in [&layered_outcome, &local_outcome] {
            assert_eq!(outcome.result, want, "pruning may only move work, never change a row");
            // The window skips on both sides; a shard cuts its own chunks,
            // so the rows each side scans differ.
            assert!(
                outcome.stats.rows_scanned < outcome.stats.rows_total
                    && single.rows_scanned < single.rows_total,
                "the window skips chunks in a tree and in one store: {} and {} rows scanned",
                outcome.stats.rows_scanned,
                single.rows_scanned,
            );
            assert!(
                outcome.stats.subtrees_pruned >= 1 && outcome.stats.chunks_pruned_remote > 0,
                "shards outside the window are pruned at their edges: {} subtrees, {} chunks",
                outcome.stats.subtrees_pruned,
                outcome.stats.chunks_pruned_remote,
            );
        }
        assert_eq!(
            work(&layered_outcome.stats),
            work(&local_outcome.stats),
            "an in-memory edge prunes as a socket edge does"
        );
        let frames_not_sent = layered_outcome.stats.subtrees_pruned;
        let layered_stats = measure_stats(5, || {
            black_box(layered.query(drill).expect("layered drill-down"));
        });
        println!(
            "\n=== chunk-pruned drill-down (4 shards, tcp; table_name in ['logs.m','logs.s')) ===\n\
             layered {} ({} of {} rows scanned, {} chunks pruned remotely, \
             {frames_not_sent} frames not sent; the in-process tree alike) vs one store {} \
             rows scanned",
            fmt_duration(layered_stats.min),
            layered_outcome.stats.rows_scanned,
            layered_outcome.stats.rows_total,
            layered_outcome.stats.chunks_pruned_remote,
            single.rows_scanned,
        );
        json_line(
            "rpc_tree",
            "chunk_pruned_drilldown",
            layered_stats,
            &[
                ("rows_scanned", layered_outcome.stats.rows_scanned.to_string()),
                ("rows_scanned_single_store", single.rows_scanned.to_string()),
                ("chunks_pruned_remote", layered_outcome.stats.chunks_pruned_remote.to_string()),
                ("frames_not_sent", frames_not_sent.to_string()),
            ],
        );
    }

    // What a healthy replica costs: the same 4-leaf unix tree with and
    // without replication, warm. Nothing straggles, so no hedge fires and
    // the replicated tree must do no more than wait for each primary's
    // first byte with a timer armed. Batches of queries per sample, the
    // two trees sampled alternately, so a noisy minute hits both.
    if worker_available {
        const BATCH: usize = 50;
        let tree = |replication: bool| {
            let config = ClusterConfig {
                shards: 4,
                replication,
                shard_cache: 0,
                threads: 1,
                tree: TreeShape { fanout: 4 },
                build: build.clone(),
                transport: rpc(WorkerAddr::Unix),
                ..Default::default()
            };
            let cluster = Cluster::build(&table, &config).expect("replication-tax cluster");
            cluster.query(sql).expect("warm-up");
            cluster
        };
        let (plain, replicated) = (tree(false), tree(true));
        let batch = |cluster: &Cluster| {
            for _ in 0..BATCH {
                let outcome = cluster.query(sql).expect("warm query");
                assert!(outcome.hedges.is_empty(), "nothing straggles: {:?}", outcome.hedges);
                black_box(outcome);
            }
        };
        let (mut plain_samples, mut replicated_samples) = (Vec::new(), Vec::new());
        for _ in 0..5 {
            plain_samples.push(measure(|| batch(&plain)));
            replicated_samples.push(measure(|| batch(&replicated)));
        }
        let (plain_stats, replicated_stats) = (stats(plain_samples), stats(replicated_samples));
        let per_query = |stats: pd_bench::Stats| stats.min / BATCH as u32;
        let tax = replicated_stats.min.as_secs_f64() / plain_stats.min.as_secs_f64();
        println!(
            "\n=== replication tax (4 shards, unix, warm, best of 5 batches of {BATCH}) ===\n\
             replicated {} vs unreplicated {} per query: {tax:.2}x",
            fmt_duration(per_query(replicated_stats)),
            fmt_duration(per_query(plain_stats)),
        );
        json_line(
            "rpc_tree",
            "replicated_warm_unix",
            replicated_stats,
            &[
                ("batch", BATCH.to_string()),
                ("unreplicated_min_ns", plain_stats.min.as_nanos().to_string()),
                ("replication_tax", format!("{tax:.3}")),
            ],
        );
        assert!(
            tax <= 1.5,
            "a healthy replicated pair must cost a timed wait, not a thread: \
             replicated {} vs unreplicated {} per batch ({tax:.2}x)",
            fmt_duration(replicated_stats.min),
            fmt_duration(plain_stats.min),
        );
    }

    // Hedged replica racing vs a real straggling primary process: shard
    // 0's primary sleeps far past the hedge delay every query, so the
    // replica answers the race and end-to-end latency stays well under the
    // injected straggle — the old per-hop-deadline design would have
    // waited the whole deadline out instead.
    match faults::built_relay() {
        None => println!("NOTE: pd-dist-relay binary not found (build it); skipping the straggler"),
        Some(relay) => hedged_straggler(&relay, &table, &build, sql),
    }
}

/// Case 7: the replica races a straggling primary process.
fn hedged_straggler(
    relay: &std::path::Path,
    table: &pd_data::Table,
    build: &BuildOptions,
    sql: &str,
) {
    use faults::{Fault, Plan, Relays};
    let straggle = Duration::from_millis(800);
    let relays = Relays::new(relay, &Plan::default());
    let config = ClusterConfig {
        shards: 2,
        replication: true,
        shard_cache: 0,
        threads: 1,
        tree: TreeShape { fanout: 4 },
        build: build.clone(),
        transport: Transport::Rpc(RpcConfig {
            worker_bin: Some(relays.launcher()),
            budget: Duration::from_secs(60),
            addr: WorkerAddr::Unix,
        }),
        ..Default::default()
    };
    let cluster = Cluster::build(table, &config).expect("hedged cluster");
    // One healthy query first: the hedge delay then derives from the
    // *measured* queue-delay tail instead of the cold-start fallback.
    cluster.query(sql).expect("healthy warm-up");
    relays.set(&Plan::pinned("l0p", Fault::Delay(straggle)));
    let outcome = cluster.query(sql).expect("hedged query");
    assert!(
        outcome.hedges.contains(&0),
        "the straggling primary must be recorded as hedged: {:?}",
        outcome.hedges
    );
    let hedged_stats = measure_stats(3, || {
        black_box(cluster.query(sql).expect("hedged query"));
    });
    assert!(
        hedged_stats.median < straggle,
        "hedged latency must beat the injected straggler delay: {} vs {}",
        fmt_duration(hedged_stats.median),
        fmt_duration(straggle),
    );
    println!(
        "\n=== hedged straggler (2 shards, replicated; shard 0's primary sleeps {}) ===\n\
         hedged query {} — the replica answers long before the straggler would",
        fmt_duration(straggle),
        fmt_duration(hedged_stats.median),
    );
    json_line(
        "rpc_tree",
        "hedged_straggler",
        hedged_stats,
        &[
            ("straggle_ms", straggle.as_millis().to_string()),
            ("hedged_shards", outcome.hedges.len().to_string()),
        ],
    );
}

/// Best and median of alternately taken batch samples.
fn stats(mut samples: Vec<Duration>) -> pd_bench::Stats {
    samples.sort_unstable();
    pd_bench::Stats { min: samples[0], median: samples[samples.len() / 2] }
}

fn rpc(addr: WorkerAddr) -> Transport {
    Transport::Rpc(RpcConfig { worker_bin: None, budget: Duration::from_secs(60), addr })
}
