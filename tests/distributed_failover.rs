//! Failure-injection tests for the §4 serving tree of worker processes:
//! a shard primary that refuses queries mid-fan-out must fail over to its
//! replica process with the *same* result (the replica holds the same
//! partition), record the failover in the outcome, and — because faults
//! are drawn from seeded per-(node, query) streams — reproduce
//! exactly across runs. Every fault comes from the relay in front of each
//! worker (`crates/dist/tests/support/relay.rs`, built here as
//! `pd-relay`), on genuine sockets.

#[path = "../crates/dist/tests/support/faults.rs"]
mod faults;

use faults::{Fault, Plan, Relays};
use powerdrill::data::{generate_logs, LogsSpec};
use powerdrill::dist::{Cluster, ClusterConfig, RpcConfig, Transport};
use powerdrill::{BuildOptions, DataStore};
use std::path::Path;
use std::time::Duration;

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

/// Relays running `plan`, for one cluster.
fn relays(plan: &Plan) -> Relays {
    Relays::new(Path::new(env!("CARGO_BIN_EXE_pd-relay")), plan)
}

/// Unix sockets to `relays`, with a whole query's `budget`.
fn relayed(relays: &Relays, budget: Duration) -> Transport {
    let worker_bin = Some(relays.launcher());
    Transport::Rpc(RpcConfig { worker_bin, budget, ..Default::default() })
}

/// A cluster of `shards` behind relays running `plan`; the relays go with
/// it.
fn cluster_with(plan: &Plan, replication: bool, shards: usize) -> (Cluster, Relays) {
    let table = generate_logs(&LogsSpec::scaled(1_200));
    let relays = relays(plan);
    let config = ClusterConfig {
        shards,
        replication,
        build: build_options(),
        transport: relayed(&relays, Duration::from_secs(30)),
        ..Default::default()
    };
    (Cluster::build(&table, &config).unwrap(), relays)
}

#[test]
fn unreachable_primary_fails_over_with_identical_results() {
    let table = generate_logs(&LogsSpec::scaled(1_200));
    let build = build_options();
    let store = DataStore::build(&table, &build).unwrap();
    for cut in [vec![1u64], vec![0, 2], vec![0, 1, 2, 3]] {
        let relays = relays(&Plan::refusing(&cut));
        let cluster = Cluster::build(
            &table,
            &ClusterConfig {
                shards: 4,
                replication: true,
                shard_cache: 0,
                build: build.clone(),
                transport: relayed(&relays, Duration::from_secs(30)),
                ..Default::default()
            },
        )
        .unwrap();
        let cut: Vec<usize> = cut.iter().map(|&shard| shard as usize).collect();
        for sql in QUERIES {
            let (expect, _) = powerdrill::query(&store, sql).unwrap();
            let outcome = cluster.query(sql).unwrap();
            assert_eq!(outcome.result, expect, "cut={cut:?}: {sql}");
            assert_eq!(
                outcome.failovers, cut,
                "every refusing primary must be recorded as a failover: {sql}"
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
    let (cluster, _relays) = cluster_with(
        &Plan::refusing(&[2]),
        false, // no replica to fall back to
        4,
    );
    let err = cluster.query(QUERIES[0]).unwrap_err();
    let message = err.to_string();
    assert!(
        message.contains("shard 2") && message.contains("replication"),
        "the error names the failed shard: {message}"
    );
    // A query untouched by failures... does not exist: the refusal is
    // pinned to every query, so every query dies. Dropping it restores
    // service.
    let (healthy, _relays) = cluster_with(&Plan::default(), false, 4);
    assert!(healthy.query(QUERIES[0]).is_ok());
}

#[test]
fn seeded_failures_are_reproducible_and_correct() {
    let table = generate_logs(&LogsSpec::scaled(1_200));
    let build = build_options();
    let store = DataStore::build(&table, &build).unwrap();
    let run = || -> Vec<Vec<usize>> {
        let relays = relays(&Plan { refuse: 0.4, seed: 0xdead, ..Plan::default() });
        let cluster = Cluster::build(
            &table,
            &ClusterConfig {
                shards: 4,
                replication: true,
                shard_cache: 0,
                build: build.clone(),
                transport: relayed(&relays, Duration::from_secs(30)),
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
    // A draw is keyed by (seed, node, query): every round re-asks the
    // same queries, so it fails over as the first did.
    let rounds: Vec<&[Vec<usize>]> = a.chunks(QUERIES.len()).collect();
    assert!(rounds.iter().all(|round| *round == rounds[0]), "{a:?}");
    let total: usize = rounds[0].iter().map(Vec::len).sum();
    assert!(total > 0, "probability 0.4 over 16 (query, primary) draws must inject failures");
    assert!(total < 16, "...but not cut everything");
}

// ---------------------------------------------------------------------------
// Deadline-expiry failover
// ---------------------------------------------------------------------------

/// A worker process that sleeps far past the hedge delay must produce the
/// **identical** `QueryOutcome` rows as a refusing primary of the same
/// shard — the hedged replica race answers from the replica process, which
/// holds the same partition. Unlike the old per-hop deadline (which waited
/// the *full* deadline before failing over), the hedge answers early: the
/// straggler's recorded latency stays well under the query budget.
#[test]
fn straggling_primary_is_hedged_identically_to_an_unreachable_one() {
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
        let cluster_config = |relays: &Relays| ClusterConfig {
            shards: 3,
            replication: true,
            build: build.clone(),
            tree: powerdrill::dist::TreeShape { fanout },
            transport: relayed(relays, budget),
            ..Default::default()
        };

        // Baseline: the primary is known to be gone — it refuses every
        // query the moment it arrives.
        let refusing = relays(&Plan::refusing(&[slow_shard as u64]));
        let cut = Cluster::build(&table, &cluster_config(&refusing)).unwrap();

        // The real thing: every edge is up, but shard 1's primary
        // *process* answers far past the hedge delay.
        let slow = Fault::Delay(Duration::from_secs(20));
        let straggling = relays(&Plan::pinned(&format!("l{slow_shard}p"), slow));
        let delayed = Cluster::build(&table, &cluster_config(&straggling)).unwrap();

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
                "fanout={fanout}: a refusing primary is failed over directly, not raced: {sql}"
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
    let table = generate_logs(&LogsSpec::scaled(400));
    let relays = relays(&Plan::default());
    let cluster = Cluster::build(
        &table,
        &ClusterConfig {
            shards: 2,
            replication: false,
            build: build_options(),
            transport: relayed(&relays, Duration::from_millis(500)),
            ..Default::default()
        },
    )
    .unwrap();
    cluster.query(QUERIES[0]).unwrap(); // healthy first
    relays.set(&Plan::pinned("l0p", Fault::Delay(Duration::from_secs(20))));
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

    let table = generate_logs(&LogsSpec::scaled(600));
    let build = build_options();
    let store = DataStore::build(&table, &build).unwrap();
    // 3 shards at fanout 2: mixer m1_0 folds leaves 0 and 1, m1_1 owns
    // leaf 2 — killing m1_0 severs a whole subtree below the root.
    let relays = relays(&Plan::default());
    let mut cluster = Cluster::build(
        &table,
        &ClusterConfig {
            shards: 3,
            replication: true,
            build,
            tree: powerdrill::dist::TreeShape { fanout: 2 },
            transport: relayed(&relays, Duration::from_secs(10)),
            ..Default::default()
        },
    )
    .unwrap();
    let sql = QUERIES[0];
    let (expect, _) = powerdrill::query(&store, sql).unwrap();
    assert_eq!(cluster.query(sql).unwrap().result, expect, "healthy tree first");

    relays.set(&Plan::pinned("m1_0", Fault::Kill));
    // The root remembers `sql` and would not ask: the kill is met by a
    // query that has to cross the edge.
    let err = cluster.query(QUERIES[1]).unwrap_err();
    assert!(
        matches!(err, Error::Rpc(RpcError::PeerGone(_) | RpcError::ConnRefused(_))),
        "a merge server dying mid-query is a typed fault, not a hang or a string: {err}"
    );

    // Recovery: clear the plan, respawn the tree, and the exact rows —
    // with balanced row accounting — come back.
    relays.set(&Plan::default());
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
    // A cached shard partial needs no server at all, so a refusing primary
    // behind a cache hit is a non-event; a miss fails over as usual.
    let (cluster, _relays) = cluster_with(&Plan::refusing(&[0]), true, 3);
    let sql = QUERIES[0];
    let cold = cluster.query(sql).unwrap();
    assert_eq!(cold.failovers, vec![0]);
    assert_eq!(cold.shard_cache_hits, 0);
    let warm = cluster.query(sql).unwrap();
    assert_eq!(warm.result, cold.result);
    assert_eq!(warm.shard_cache_hits, 3);
    assert!(warm.failovers.is_empty(), "cache hits never touch the (dead) primary");
}
