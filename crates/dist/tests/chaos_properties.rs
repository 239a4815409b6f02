//! The seeded chaos harness: drive the *real* process-split computation
//! tree through 100 deterministic fault scenarios — process kills,
//! connection resets, torn reply frames and injected delays, aimed at
//! leaves, replicas and merge servers alike — and hold the robustness
//! contract on every single one:
//!
//! 1. the query either returns rows **bit-identical** to the single-store
//!    engine, or fails with a **clean typed** [`pd_common::RpcError`];
//! 2. it never hangs (every query spends one bounded budget end to end —
//!    the suite itself finishing under the CI timeout is the assertion);
//! 3. it never panics, and never returns a silent partial answer (that is
//!    what the bit-identity check catches: a dropped subtree would change
//!    the aggregate values).
//!
//! Fault draws depend only on `(seed, query id, node name)`, so every
//! scenario is reproducible by seed — a failing seed is a repro command,
//! not a flake.

use pd_common::Error;
use pd_core::{query, BuildOptions, DataStore, QueryResult};
use pd_data::{generate_logs, LogsSpec};
use pd_dist::{ChaosModel, Cluster, ClusterConfig, RpcConfig, Transport, TreeShape};
use std::path::PathBuf;
use std::time::Duration;

fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_pd-dist-worker"))
}

const QUERIES: [&str; 4] = [
    "SELECT country, COUNT(*) c FROM logs GROUP BY country ORDER BY c DESC LIMIT 10",
    "SELECT table_name, COUNT(*) c, SUM(latency) s FROM logs GROUP BY table_name ORDER BY c DESC",
    "SELECT country, AVG(latency) a FROM logs GROUP BY country ORDER BY country ASC",
    "SELECT COUNT(*) FROM logs",
];

fn chaos_model(seed: u64) -> ChaosModel {
    ChaosModel {
        seed,
        unreachable_probability: 0.05,
        kill_probability: 0.05,
        reset_probability: 0.10,
        torn_probability: 0.10,
        delay_probability: 0.20,
        delay_range: (Duration::from_millis(1), Duration::from_millis(15)),
        always: Vec::new(),
    }
}

/// 5 seeds × 5 rounds × 4 queries = 100 injected scenarios. The tree is
/// respawned between rounds (`rebuild`) so killed processes come back —
/// within a round, later queries also exercise the "peer already dead"
/// paths (bounded connect retries, failover to the surviving replica).
#[test]
fn every_injected_fault_yields_identical_rows_or_a_typed_error() {
    let table = generate_logs(&LogsSpec::scaled(600));
    let mut build = BuildOptions::production(&["country", "table_name"]);
    if let Some(spec) = &mut build.partition {
        spec.max_chunk_rows = 150;
    }
    let store = DataStore::build(&table, &build).unwrap();
    let expected: Vec<QueryResult> =
        QUERIES.iter().map(|sql| query(&store, sql).unwrap().0).collect();

    // 3 shards at fanout 2: primaries, replicas *and* two merge servers
    // (m1_0, m1_1) in the fault-target population — 8 nodes per tree.
    let mut cluster = Cluster::build(
        &table,
        &ClusterConfig {
            shards: 3,
            replication: true,
            build,
            tree: TreeShape { fanout: 2 },
            transport: Transport::Rpc(RpcConfig {
                worker_bin: Some(worker_bin()),
                budget: Duration::from_secs(5),
                ..Default::default()
            }),
            ..Default::default()
        },
    )
    .unwrap();

    let (mut scenarios, mut clean, mut faulted) = (0u32, 0u32, 0u32);
    for seed in [0x0c4a_0001u64, 0x0c4a_0002, 0x0c4a_0003, 0x0c4a_0004, 0x0c4a_0005] {
        cluster.set_chaos(chaos_model(seed));
        for round in 0..5 {
            for (sql, expect) in QUERIES.iter().zip(&expected) {
                scenarios += 1;
                match cluster.query(sql) {
                    Ok(outcome) => {
                        clean += 1;
                        assert_eq!(
                            &outcome.result, expect,
                            "seed {seed:#x} round {round}: a query that survives injected \
                             faults must be bit-identical — a partial answer is corruption: \
                             {sql}"
                        );
                        assert_eq!(
                            outcome.stats.rows_skipped
                                + outcome.stats.rows_cached
                                + outcome.stats.rows_scanned,
                            outcome.stats.rows_total,
                            "seed {seed:#x} round {round}: accounting balances: {sql}"
                        );
                    }
                    Err(err) => {
                        faulted += 1;
                        assert!(
                            matches!(err, Error::Rpc(_)),
                            "seed {seed:#x} round {round}: an injected fault must surface \
                             as a typed rpc error, got: {err} ({sql})"
                        );
                    }
                }
            }
            // Respawn killed processes so the next round starts from a
            // full tree (and rebuilds mid-chaos are themselves exercised).
            cluster.rebuild(&table).unwrap();
        }
    }

    assert_eq!(scenarios, 100, "the harness must run the full scenario matrix");
    assert!(
        clean >= 20,
        "replication + hedging must absorb most single-node faults: only {clean}/100 clean"
    );
    assert!(
        faulted >= 5,
        "these probabilities must produce some unrecoverable faults \
         (merge-server kills have no replica): only {faulted}/100 faulted"
    );
}

/// The same seed against a fresh tree injects the same faults — the
/// error/success *pattern* of a whole chaos run is reproducible, which is
/// what makes a failing seed above a repro command.
#[test]
fn chaos_outcomes_are_reproducible_by_seed() {
    let table = generate_logs(&LogsSpec::scaled(300));
    let mut build = BuildOptions::production(&["country"]);
    if let Some(spec) = &mut build.partition {
        spec.max_chunk_rows = 100;
    }
    let run = |seed: u64| -> Vec<bool> {
        let mut cluster = Cluster::build(
            &table,
            &ClusterConfig {
                shards: 2,
                replication: false, // no failover: faults surface directly
                build: build.clone(),
                tree: TreeShape { fanout: 2 },
                transport: Transport::Rpc(RpcConfig {
                    worker_bin: Some(worker_bin()),
                    budget: Duration::from_secs(5),
                    ..Default::default()
                }),
                ..Default::default()
            },
        )
        .unwrap();
        // Kills only: resets/torn frames hit *connections*, whose exact
        // interleaving with reply writes is timing-dependent — process
        // death is the outcome that must be exactly seed-stable.
        cluster.set_chaos(ChaosModel { seed, kill_probability: 0.25, ..ChaosModel::default() });
        let mut outcomes = Vec::new();
        for _ in 0..4 {
            for sql in [
                "SELECT COUNT(*) FROM logs",
                "SELECT country, COUNT(*) c FROM logs GROUP BY country",
            ] {
                outcomes.push(cluster.query(sql).is_ok());
            }
            cluster.rebuild(&table).unwrap();
        }
        outcomes
    };
    let a = run(7);
    assert_eq!(a, run(7), "equal seeds must produce equal success patterns");
    assert!(a.iter().any(|ok| !ok), "kill probability 0.25 over 8 queries x 3 nodes must kill");
}
