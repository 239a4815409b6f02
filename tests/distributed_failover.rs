//! Failure-injection tests for the §4 serving tree: a shard primary that
//! is unreachable mid-fan-out must fail over to its replication peer with
//! the *same* result (the replica holds the same partition), record the
//! failover in the outcome, and — because faults are drawn from seeded
//! per-(query, node) streams — reproduce exactly across runs.

use powerdrill::data::{generate_logs, LogsSpec};
use powerdrill::dist::chaos::leaf_primary;
use powerdrill::dist::{ChaosDirective, ChaosFault, ChaosModel, Cluster, ClusterConfig};
use powerdrill::{BuildOptions, DataStore};

const QUERIES: [&str; 4] = [
    "SELECT country, COUNT(*) c FROM logs GROUP BY country ORDER BY c DESC LIMIT 10",
    "SELECT table_name, COUNT(*) c, SUM(latency) s FROM logs GROUP BY table_name ORDER BY c DESC",
    "SELECT country, AVG(latency) a FROM logs WHERE latency > 200.0 GROUP BY country ORDER BY country ASC",
    "SELECT COUNT(*) FROM logs WHERE country = 'DE'",
];

fn build_options() -> BuildOptions {
    let mut build = BuildOptions::production(&["country", "table_name"]);
    if let Some(spec) = &mut build.partition {
        spec.max_chunk_rows = 150;
    }
    build
}

/// The primaries of `shards`, unreachable on every query.
fn unreachable(shards: &[usize]) -> ChaosModel {
    let cut = |&shard: &usize| ChaosDirective {
        node: leaf_primary(shard as u64),
        fault: ChaosFault::Unreachable,
    };
    ChaosModel { always: shards.iter().map(cut).collect(), ..Default::default() }
}

/// `node` answers every query this late.
fn straggling(node: &str, delay: std::time::Duration) -> ChaosModel {
    let slow = ChaosDirective { node: node.into(), fault: ChaosFault::Delay(delay) };
    ChaosModel { always: vec![slow], ..Default::default() }
}

fn cluster_with(chaos: ChaosModel, replication: bool, shards: usize) -> Cluster {
    let table = generate_logs(&LogsSpec::scaled(1_200));
    Cluster::build(
        &table,
        &ClusterConfig { shards, replication, chaos, build: build_options(), ..Default::default() },
    )
    .unwrap()
}

#[test]
fn unreachable_primary_fails_over_with_identical_results() {
    let table = generate_logs(&LogsSpec::scaled(1_200));
    let build = build_options();
    let store = DataStore::build(&table, &build).unwrap();
    for cut in [vec![1usize], vec![0, 2], vec![0, 1, 2, 3]] {
        let cluster = Cluster::build(
            &table,
            &ClusterConfig {
                shards: 4,
                replication: true,
                chaos: unreachable(&cut),
                shard_cache: 0,
                build: build.clone(),
                ..Default::default()
            },
        )
        .unwrap();
        for sql in QUERIES {
            let (expect, _) = powerdrill::query(&store, sql).unwrap();
            let outcome = cluster.query(sql).unwrap();
            assert_eq!(outcome.result, expect, "cut={cut:?}: {sql}");
            assert_eq!(
                outcome.failovers, cut,
                "every unreachable primary must be recorded as a failover: {sql}"
            );
            assert_eq!(
                outcome.stats.rows_skipped + outcome.stats.rows_cached + outcome.stats.rows_scanned,
                outcome.stats.rows_total,
                "failover must not corrupt the accounting: {sql}"
            );
        }
    }
}

#[test]
fn failure_without_replication_fails_the_query() {
    let cluster = cluster_with(
        unreachable(&[2]),
        false, // no replica to fall back to
        4,
    );
    let err = cluster.query(QUERIES[0]).unwrap_err();
    let message = err.to_string();
    assert!(
        message.contains("shard 2") && message.contains("replication"),
        "the error names the failed shard: {message}"
    );
    // A query untouched by failures... does not exist: the directive is
    // pinned to every query, so every query dies. Dropping it restores
    // service.
    let healthy = cluster_with(ChaosModel::default(), false, 4);
    assert!(healthy.query(QUERIES[0]).is_ok());
}

#[test]
fn seeded_failures_are_reproducible_and_correct() {
    let table = generate_logs(&LogsSpec::scaled(1_200));
    let build = build_options();
    let store = DataStore::build(&table, &build).unwrap();
    let run = || -> Vec<Vec<usize>> {
        let cluster = Cluster::build(
            &table,
            &ClusterConfig {
                shards: 4,
                replication: true,
                chaos: ChaosModel {
                    unreachable_probability: 0.4,
                    seed: 0xdead,
                    ..Default::default()
                },
                shard_cache: 0,
                build: build.clone(),
                ..Default::default()
            },
        )
        .unwrap();
        let mut failover_log = Vec::new();
        for round in 0..5 {
            for sql in QUERIES {
                let (expect, _) = powerdrill::query(&store, sql).unwrap();
                let outcome = cluster.query(sql).unwrap();
                assert_eq!(outcome.result, expect, "round {round}: {sql}");
                failover_log.push(outcome.failovers);
            }
        }
        failover_log
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "equal seeds and query sequences must fail over identically");
    let total: usize = a.iter().map(Vec::len).sum();
    assert!(total > 0, "probability 0.4 over 80 subqueries must inject failures");
    assert!(total < 80, "...but not cut everything");
}

// ---------------------------------------------------------------------------
// Deadline-expiry failover across the real process split
// ---------------------------------------------------------------------------

fn rpc_transport(budget: std::time::Duration) -> powerdrill::dist::Transport {
    // Default transport settings beyond the budget: unix sockets, the
    // transport the failover machinery meets in a single-box tree.
    powerdrill::dist::Transport::Rpc(powerdrill::dist::RpcConfig {
        worker_bin: Some(std::path::PathBuf::from(env!("CARGO_BIN_EXE_pd-worker"))),
        budget,
        ..Default::default()
    })
}

/// A worker process that sleeps far past the hedge delay must produce the
/// **identical** `QueryOutcome` rows as an unreachable primary of the same
/// shard — the hedged replica race answers from the replica process, which
/// holds the same partition. Unlike the old per-hop deadline (which waited
/// the *full* deadline before failing over), the hedge answers early: the
/// straggler's recorded latency stays well under the query budget.
#[test]
fn straggling_primary_is_hedged_identically_to_an_unreachable_one() {
    use std::time::Duration;

    let table = generate_logs(&LogsSpec::scaled(800));
    let build = build_options();
    let store = DataStore::build(&table, &build).unwrap();
    let slow_shard = 1usize;

    // Healthy primaries must comfortably beat this even on a loaded CI
    // runner (their real compute is milliseconds); the injected 20 s sleep
    // overshoots it by an order of magnitude either way.
    let budget = Duration::from_secs(2);

    // fanout 16: the driver parents the leaves; fanout 2: an intermediate
    // merge server does — the failover must work at both levels.
    for fanout in [16usize, 2] {
        let cluster_config = |chaos: ChaosModel| ClusterConfig {
            shards: 3,
            replication: true,
            chaos,
            build: build.clone(),
            tree: powerdrill::dist::TreeShape { fanout },
            transport: rpc_transport(budget),
            ..Default::default()
        };

        // Baseline: the primary is known to be gone — its parent never
        // contacts it.
        let cut = Cluster::build(&table, &cluster_config(unreachable(&[slow_shard]))).unwrap();

        // The real thing: every edge is up, but shard 1's primary
        // *process* sleeps far past the hedge delay.
        let slow = straggling(&leaf_primary(slow_shard as u64), Duration::from_secs(20));
        let delayed = Cluster::build(&table, &cluster_config(slow)).unwrap();

        for sql in &QUERIES[..2] {
            let (expect, _) = powerdrill::query(&store, sql).unwrap();
            let from_cut = cut.query(sql).unwrap();
            let from_hedge = delayed.query(sql).unwrap();
            assert_eq!(from_cut.result, expect, "fanout={fanout}: {sql}");
            assert_eq!(
                from_hedge.result, from_cut.result,
                "fanout={fanout}: hedged failover and a cut edge must produce identical rows: {sql}"
            );
            assert_eq!(from_cut.failovers, vec![slow_shard], "fanout={fanout}: {sql}");
            assert!(
                from_hedge.failovers.contains(&slow_shard),
                "fanout={fanout}: the straggler's replica answer must be recorded as a \
                 failover: {sql} ({:?})",
                from_hedge.failovers
            );
            assert!(
                from_hedge.hedges.contains(&slow_shard),
                "fanout={fanout}: the straggler must be recorded as hedged: {sql} ({:?})",
                from_hedge.hedges
            );
            assert!(
                !from_cut.hedges.contains(&slow_shard),
                "fanout={fanout}: a known-dead primary is failed over directly, not raced: {sql}"
            );
            assert!(
                from_hedge.subquery_latencies[slow_shard] < budget,
                "fanout={fanout}: the hedge must answer early instead of waiting out the \
                 budget, got {:?}",
                from_hedge.subquery_latencies[slow_shard]
            );
        }
    }
}

/// Without a replica process, an exhausted budget is fatal — and says so.
#[test]
fn budget_expiry_without_replication_fails_the_query() {
    use std::time::Duration;

    let table = generate_logs(&LogsSpec::scaled(400));
    let mut cluster = Cluster::build(
        &table,
        &ClusterConfig {
            shards: 2,
            replication: false,
            build: build_options(),
            transport: rpc_transport(Duration::from_millis(500)),
            ..Default::default()
        },
    )
    .unwrap();
    cluster.query(QUERIES[0]).unwrap(); // healthy first
    cluster.set_chaos(straggling("l0p", Duration::from_secs(20)));
    // What the root remembers needs no server, so the straggler is met by a
    // query it has not answered yet.
    assert!(cluster.query(QUERIES[0]).is_ok(), "a remembered answer outlives a slow leaf");
    let err = cluster.query(QUERIES[1]).unwrap_err().to_string();
    assert!(
        err.contains("shard 0") && err.contains("replication"),
        "the error names the expired shard: {err}"
    );
}

/// A merge server killed mid-query — not a leaf, the *inner* node folding
/// two leaf subtrees — must surface as a clean typed rpc error, never a
/// hang or a silent partial answer; and the respawned tree serves exact
/// rows with balanced accounting again.
#[test]
fn merge_server_kill_mid_query_is_a_clean_typed_error() {
    use powerdrill::common::RpcError;
    use powerdrill::Error;
    use std::time::Duration;

    let table = generate_logs(&LogsSpec::scaled(600));
    let build = build_options();
    let store = DataStore::build(&table, &build).unwrap();
    // 3 shards at fanout 2: mixer m1_0 folds leaves 0 and 1, m1_1 owns
    // leaf 2 — killing m1_0 severs a whole subtree below the root.
    let mut cluster = Cluster::build(
        &table,
        &ClusterConfig {
            shards: 3,
            replication: true,
            build,
            tree: powerdrill::dist::TreeShape { fanout: 2 },
            transport: rpc_transport(Duration::from_secs(10)),
            ..Default::default()
        },
    )
    .unwrap();
    let sql = QUERIES[0];
    let (expect, _) = powerdrill::query(&store, sql).unwrap();
    assert_eq!(cluster.query(sql).unwrap().result, expect, "healthy tree first");

    cluster.set_chaos(ChaosModel {
        always: vec![ChaosDirective { node: "m1_0".into(), fault: ChaosFault::Kill }],
        ..Default::default()
    });
    // The root remembers `sql` and would not ask: the kill is met by a
    // query that has to cross the edge.
    let err = cluster.query(QUERIES[1]).unwrap_err();
    assert!(
        matches!(err, Error::Rpc(RpcError::PeerGone(_) | RpcError::ConnRefused(_))),
        "a merge server dying mid-query is a typed fault, not a hang or a string: {err}"
    );

    // Recovery: clear the chaos, respawn the tree, and the exact rows —
    // with balanced row accounting — come back.
    cluster.set_chaos(ChaosModel::default());
    cluster.rebuild(&table).unwrap();
    let outcome = cluster.query(sql).unwrap();
    assert_eq!(outcome.result, expect, "the respawned tree serves exact rows again");
    assert_eq!(
        outcome.stats.rows_skipped + outcome.stats.rows_cached + outcome.stats.rows_scanned,
        outcome.stats.rows_total,
        "accounting balances after recovery"
    );
}

#[test]
fn failover_and_shard_cache_compose() {
    // A cached shard partial needs no server at all, so an unreachable
    // primary behind a cache hit is a non-event; a miss fails over as usual.
    let cluster = cluster_with(unreachable(&[0]), true, 3);
    let sql = QUERIES[0];
    let cold = cluster.query(sql).unwrap();
    assert_eq!(cold.failovers, vec![0]);
    assert_eq!(cold.shard_cache_hits, 0);
    let warm = cluster.query(sql).unwrap();
    assert_eq!(warm.result, cold.result);
    assert_eq!(warm.shard_cache_hits, 3);
    assert!(warm.failovers.is_empty(), "cache hits never touch the (dead) primary");
}
