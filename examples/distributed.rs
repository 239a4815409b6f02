//! Distributed execution (§4): shards, the computation-tree rewrite, and
//! the primary/replica scheme riding out stragglers.
//!
//! ```bash
//! cargo build --release --bin pd-relay   # for the straggler part
//! cargo run --release --example distributed
//! ```

#[path = "../crates/dist/tests/support/faults.rs"]
mod faults;

use faults::{Plan, Relays};
use powerdrill::data::{generate_logs, LogsSpec};
use powerdrill::dist::{query_signature, Cluster, ClusterConfig, RpcConfig, Transport};
use powerdrill::sql::plan;
use powerdrill::{BuildOptions, ExecContext};
use std::time::Duration;

fn main() -> powerdrill::Result<()> {
    let rows = std::env::var("PD_ROWS").ok().and_then(|v| v.parse().ok()).unwrap_or(200_000);
    println!("generating {rows} rows and building an 8-shard cluster ...");
    let table = generate_logs(&LogsSpec::scaled(rows));

    let mut build = BuildOptions::production(&["country", "table_name"]);
    if let Some(spec) = &mut build.partition {
        spec.max_chunk_rows = (rows / 8 / 60).clamp(200, 50_000);
    }
    let cluster = Cluster::build(
        &table,
        &ClusterConfig { shards: 8, build: build.clone(), ..Default::default() },
    )?;

    // The paper's §4 rewrite, as the tree runs it: each aggregate lowers to
    // slots every leaf fills under WHERE and every parent merges; the root
    // reads the aggregates off them, then applies HAVING, ORDER BY and
    // LIMIT. The signature names a merged table in every node's cache by
    // its keys and restriction: it answers every chart whose slots it holds.
    let sql =
        "SELECT country, SUM(latency) as s FROM logs GROUP BY country ORDER BY s DESC LIMIT 5";
    let twin = "SELECT country, AVG(latency) as a, COUNT(*) as c FROM logs GROUP BY country";
    for chart in [sql, twin] {
        let analyzed = plan(chart)?;
        let slots: Vec<String> = analyzed.slots.iter().map(|slot| slot.to_string()).collect();
        println!("\noriginal     : {chart}");
        println!("leaf slots   : {}", slots.join(", "));
        for (agg, read) in analyzed.aggs.iter().zip(&analyzed.reads) {
            let count = read.count.map(|at| format!(" / {}", slots[at])).unwrap_or_default();
            println!("root reads   : {agg} = {}{count}", slots[read.slot]);
        }
        let signature = query_signature(&analyzed, ExecContext::default().sketch_m());
        println!("signature    : {signature}");
    }

    let outcome = cluster.query(sql)?;
    println!("\n{}", outcome.result.render());
    println!(
        "measured end-to-end latency {:?} | slowest shard {:?} | fastest shard {:?}",
        outcome.latency,
        outcome.subquery_latencies.iter().max().unwrap(),
        outcome.subquery_latencies.iter().min().unwrap(),
    );

    // One UI click after drilling into a country, like the production
    // workload: every chart refreshes under the restriction except the one
    // of the drilled dimension itself.
    let click = [
        "SELECT table_name, COUNT(*) as c FROM logs WHERE country = 'DE' GROUP BY table_name ORDER BY c DESC LIMIT 10",
        "SELECT country, COUNT(*) as c, SUM(latency) as s FROM logs GROUP BY country ORDER BY c DESC LIMIT 10",
        "SELECT user, COUNT(*) as c, MIN(latency) as mn, MAX(latency) as mx FROM logs WHERE country = 'DE' GROUP BY user ORDER BY c DESC LIMIT 10",
        "SELECT date(timestamp) as d, COUNT(*) as c FROM logs WHERE country = 'DE' GROUP BY date(timestamp) ORDER BY c DESC LIMIT 10",
        "SELECT country, SUM(latency) as s FROM logs GROUP BY country ORDER BY s DESC LIMIT 5",
    ];
    println!("\nreplaying the {} queries of one UI click ...", click.len());
    let mut total = powerdrill::ScanStats::default();
    for q in click {
        total += &cluster.query(q)?.stats;
    }
    println!(
        "rows: {:5.2}% skipped, {:5.2}% cached, {:5.2}% scanned",
        100.0 * total.skipped_fraction(),
        100.0 * total.cached_fraction(),
        100.0 * total.scanned_fraction()
    );
    drop(cluster);

    // §4's stragglers, for real: a tree of worker processes in which every
    // process answers late with probability 0.15 (a seeded delay of
    // 40–120 ms from the fault relay in front of each worker). Without
    // replicas the slowest shard sets the latency; with them, a primary
    // that outlives the hedge delay is raced against its replica and the
    // first answer wins. The relay draws per (seed, node, query), so each
    // of the 40 asks is a query of its own: it differs in its LIMIT.
    let Some(relay) = faults::built_relay() else {
        println!("\nNOTE: pd-relay binary not found (build it); skipping the straggler part");
        return Ok(());
    };
    println!("\nstragglers in a 4-shard tree of worker processes (measured, 40 queries each):");
    let stragglers = Plan {
        seed: 1,
        delay: 0.15,
        delay_range: (Duration::from_millis(40), Duration::from_millis(120)),
        ..Default::default()
    };
    let nth = |i: usize| format!("{} LIMIT {}", sql.trim_end_matches(" LIMIT 5"), 5 + i);
    for replication in [false, true] {
        let relays = Relays::new(&relay, &stragglers);
        let cluster = Cluster::build(
            &table,
            &ClusterConfig {
                shards: 4,
                replication,
                build: build.clone(),
                shard_cache: 0, // every query does its work
                transport: Transport::Rpc(RpcConfig {
                    worker_bin: Some(relays.launcher()),
                    ..Default::default()
                }),
                ..Default::default()
            },
        )?;
        let mut latencies = Vec::with_capacity(40);
        let mut hedged = 0;
        for i in 0..40 {
            let outcome = cluster.query(&nth(i))?;
            hedged += outcome.hedges.len();
            latencies.push(outcome.latency);
        }
        latencies.sort();
        println!(
            "  {:<19} p50 {:>10.3?}   p95 {:>10.3?}   {hedged} replica races",
            if replication { "primary + replica:" } else { "primary only:" },
            latencies[latencies.len() / 2],
            latencies[latencies.len() * 95 / 100],
        );
    }
    Ok(())
}
