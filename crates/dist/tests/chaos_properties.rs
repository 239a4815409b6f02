//! The seeded chaos harness: drive the *real* process-split computation
//! tree through 100 deterministic fault scenarios — refused queries,
//! process kills, connection resets, torn reply frames and delays, aimed
//! at leaves, replicas and merge servers alike, each injected by the fault
//! relay in front of a worker (`support/relay.rs`) — and hold the
//! robustness contract on every single one:
//!
//! 1. the query either returns rows **bit-identical** to the single-store
//!    engine, or fails with a **clean typed** [`pd_common::RpcError`];
//! 2. it never hangs (every query spends one bounded budget end to end —
//!    the suite itself finishing under the CI timeout is the assertion);
//! 3. it never panics, and never returns a silent partial answer (that is
//!    what the bit-identity check catches: a dropped subtree would change
//!    the aggregate values).
//!
//! Fault draws depend only on `(seed, node name, the query)`, so every
//! scenario is reproducible by seed — a failing seed is a repro command,
//! not a flake.

#[path = "support/faults.rs"]
mod faults;

use faults::{Plan, Relays};
use pd_common::Error;
use pd_core::{query, BuildOptions, DataStore, QueryResult};
use pd_data::{generate_logs, LogsSpec};
use pd_dist::{Cluster, ClusterConfig, RpcConfig, Transport, TreeShape};
use std::path::Path;
use std::time::Duration;

fn relay_bin() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_pd-dist-relay"))
}

const QUERIES: [&str; 4] = [
    "SELECT country, COUNT(*) c FROM logs GROUP BY country ORDER BY c DESC LIMIT 10",
    "SELECT table_name, COUNT(*) c, SUM(latency) s FROM logs GROUP BY table_name ORDER BY c DESC",
    "SELECT country, AVG(latency) a FROM logs GROUP BY country ORDER BY country ASC",
    "SELECT COUNT(*) FROM logs",
];

fn chaos_plan(seed: u64) -> Plan {
    Plan {
        seed,
        refuse: 0.05,
        kill: 0.05,
        reset: 0.10,
        torn: 0.10,
        delay: 0.20,
        delay_range: (Duration::from_millis(1), Duration::from_millis(15)),
        pins: Vec::new(),
    }
}

/// 5 seeds × 5 rounds × 4 queries = 100 injected scenarios. Each round
/// draws under a seed of its own, and the tree is respawned between rounds
/// (`rebuild`) so killed processes come back — within a round, later
/// queries also exercise the "peer already dead" paths (bounded connect
/// retries, failover to the surviving replica).
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
    let relays = Relays::new(relay_bin(), &Plan::default());
    let mut cluster = Cluster::build(
        &table,
        &ClusterConfig {
            shards: 3,
            replication: true,
            build,
            tree: TreeShape { fanout: 2 },
            transport: Transport::Rpc(RpcConfig {
                worker_bin: Some(relays.launcher()),
                budget: Duration::from_secs(5),
                ..Default::default()
            }),
            ..Default::default()
        },
    )
    .unwrap();

    let (mut scenarios, mut clean, mut faulted) = (0u32, 0u32, 0u32);
    for seed in [0x0c4a_0001u64, 0x0c4a_0002, 0x0c4a_0003, 0x0c4a_0004, 0x0c4a_0005] {
        for round in 0..5u64 {
            relays.set(&chaos_plan(seed ^ (round << 32)));
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
        // Kills only: resets/torn frames hit *connections*, whose exact
        // interleaving with reply writes is timing-dependent — process
        // death is the outcome that must be exactly seed-stable.
        let plan = |round: u64| Plan { seed: seed ^ (round << 32), kill: 0.25, ..Plan::default() };
        let relays = Relays::new(relay_bin(), &plan(0));
        let mut cluster = Cluster::build(
            &table,
            &ClusterConfig {
                shards: 2,
                replication: false, // no failover: faults surface directly
                build: build.clone(),
                tree: TreeShape { fanout: 2 },
                transport: Transport::Rpc(RpcConfig {
                    worker_bin: Some(relays.launcher()),
                    budget: Duration::from_secs(5),
                    ..Default::default()
                }),
                ..Default::default()
            },
        )
        .unwrap();
        let mut outcomes = Vec::new();
        for round in 0..4 {
            // A seed per round, so every round draws anew.
            relays.set(&plan(round));
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
    assert!(a.iter().any(|ok| !ok), "kill probability 0.25 over 8 queries x 2 leaves must kill");
}

/// Each fault kind, pinned to shard 0's primary of a two-shard tree: with
/// a replica process the answer is the single store's and records shard 0
/// as failed over (a straggler as hedged, too); without one the query
/// fails with a typed error that names the shard.
#[test]
fn each_fault_kind_fails_over_to_the_replica_or_fails_typed() {
    use faults::Fault;
    let table = generate_logs(&LogsSpec::scaled(400));
    let build = BuildOptions::production(&["country"]);
    let store = DataStore::build(&table, &build).unwrap();
    let sql = QUERIES[0];
    let (expect, _) = query(&store, sql).unwrap();
    let straggle = Fault::Delay(Duration::from_secs(10));
    for fault in [Fault::Refuse, Fault::Kill, Fault::Reset, Fault::Torn, straggle] {
        for replication in [true, false] {
            let label = format!("{fault:?}, replication {replication}");
            let relays = Relays::new(relay_bin(), &Plan::pinned("l0p", fault));
            let cluster = Cluster::build(
                &table,
                &ClusterConfig {
                    shards: 2,
                    replication,
                    build: build.clone(),
                    transport: Transport::Rpc(RpcConfig {
                        worker_bin: Some(relays.launcher()),
                        budget: Duration::from_secs(1),
                        ..Default::default()
                    }),
                    ..Default::default()
                },
            )
            .unwrap();
            match cluster.query(sql) {
                Ok(outcome) if replication => {
                    assert_eq!(outcome.result, expect, "{label}");
                    assert_eq!(outcome.failovers, vec![0], "{label}");
                    let hedged = if fault == straggle { vec![0] } else { Vec::new() };
                    assert_eq!(outcome.hedges, hedged, "{label}");
                }
                Ok(_) => panic!("{label}: answered without shard 0's only copy"),
                Err(err) => {
                    assert!(!replication, "{label}: the replica must answer: {err}");
                    assert!(matches!(err, Error::Rpc(_)), "{label}: typed: {err}");
                    let message = err.to_string();
                    assert!(message.contains("shard 0"), "{label}: {message}");
                    assert!(message.contains("replication is disabled"), "{label}: {message}");
                }
            }
        }
    }
}

/// A plan survives its text form, and its draws are a function of (seed,
/// node, query): equal keys draw equal faults, a refusal is drawn for leaf
/// primaries only, and a pin overrides the seed.
#[test]
fn plans_round_trip_as_text_and_draw_by_key() {
    use faults::Fault;
    let mut plan = chaos_plan(0x0c4a_0001);
    plan.pins =
        vec![("m1_0".into(), Fault::Kill), ("l2p".into(), Fault::Delay(Duration::from_millis(7)))];
    assert_eq!(Plan::parse(&plan.to_text()), Ok(plan.clone()));
    assert!(Plan::parse("seed x").is_err() && Plan::parse("pin l0p nap").is_err());

    let nodes = ["l0p", "l0r", "l1p", "l1r", "m1_1"];
    let draws = |plan: &Plan| -> Vec<Option<Fault>> {
        (0..50u64).flat_map(|query| nodes.map(|node| plan.draw(node, query))).collect()
    };
    let once = draws(&plan);
    assert_eq!(once, draws(&plan), "equal keys draw equal faults");
    assert_ne!(once, draws(&Plan { seed: 7, ..plan.clone() }), "another seed draws anew");
    let drawn = once.iter().flatten().count();
    assert!(drawn > 0 && drawn < once.len(), "{drawn} of {}", once.len());
    for (at, fault) in once.iter().enumerate() {
        if *fault == Some(Fault::Refuse) {
            assert!(nodes[at % nodes.len()].ends_with('p'), "a refusal is a primary's");
        }
    }
    assert!(once.contains(&Some(Fault::Refuse)), "these probabilities refuse somewhere");
    assert_eq!(plan.draw("m1_0", 0), Some(Fault::Kill));
    assert_eq!(Plan::default().draw("l0p", 0), None);
}
