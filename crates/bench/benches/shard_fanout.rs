//! Shard fan-out scaling and shard-cache hit rates (§4/§6).
//!
//! Three measurements:
//!
//! 1. **Fan-out scaling** — one drill-down query at 1/2/4/8 shards ×
//!    1/2/4 threads. The fan-out asks its shards one after another on the
//!    calling thread, so the thread axis is each leaf's chunk-scan width:
//!    it can only pay where a shard's rows left to scan reach the scan's
//!    hand-off threshold (`PARALLEL_SCAN_MIN_ROWS`, 32 768), and on one
//!    core it measures the (small) overhead of the shared pool.
//! 2. **Shard-cache hits** — the same query cold vs warm: the warm path
//!    serves every shard partial from the root's cache.
//! 3. **Drill-down replay** — the §6 workload with the cache on vs off,
//!    reporting total latency and the hit count.

use pd_bench::workload::{DrillDownWorkload, WorkloadSpec};
use pd_bench::{fmt_duration, json_line, logs_table, measure_stats, TablePrinter};
use pd_core::{scheduler, BuildOptions};
use pd_dist::{Cluster, ClusterConfig};
use std::hint::black_box;
use std::time::Duration;

fn main() {
    let rows = pd_bench::rows_from_env_or(200_000);
    let table = logs_table(rows);
    let mut build = BuildOptions::production(&["country", "table_name"]);
    if let Some(spec) = &mut build.partition {
        spec.max_chunk_rows = (rows / 64).clamp(500, 50_000);
    }
    let cores = scheduler::available_threads();
    println!("dataset: {rows} rows; detected core count: {cores}");
    if cores == 1 {
        println!(
            "WARNING: available_parallelism() == 1 — scan threads cannot speed \
             anything up here; re-measure on multi-core hardware"
        );
    }

    let sql = "SELECT country, COUNT(*) as c, SUM(latency) as s FROM logs \
               WHERE table_name = 'Searches' GROUP BY country ORDER BY c DESC LIMIT 10";

    println!("\n=== fan-out scaling (uncached query latency) ===");
    let printer = TablePrinter::new(&["shards", "1 thread", "2 threads", "4 threads"], &[6; 4]);
    for shards in [1usize, 2, 4, 8] {
        let mut cells: Vec<String> = vec![shards.to_string()];
        for threads in [1usize, 2, 4] {
            let cluster = Cluster::build(
                &table,
                &ClusterConfig {
                    shards,
                    threads,
                    shard_cache: 0, // every run scans
                    build: build.clone(),
                    ..Default::default()
                },
            )
            .expect("cluster");
            let stats = measure_stats(5, || {
                black_box(cluster.query(sql).expect("query"));
            });
            json_line("shard_fanout", &format!("shards{shards}/threads{threads}"), stats, &[]);
            cells.push(fmt_duration(stats.min));
        }
        printer.row(&cells);
    }

    println!("\n=== shard-cache: cold vs warm (4 shards) ===");
    let cluster = Cluster::build(
        &table,
        &ClusterConfig { shards: 4, build: build.clone(), ..Default::default() },
    )
    .expect("cluster");
    let cold = pd_bench::measure(|| {
        black_box(cluster.query(sql).expect("query"));
    });
    let warm_stats = measure_stats(5, || {
        black_box(cluster.query(sql).expect("query"));
    });
    let warm = warm_stats.min;
    let outcome = cluster.query(sql).expect("query");
    println!("cold (scans):      {:>12}", fmt_duration(cold));
    println!(
        "warm (cache hits): {:>12}   ({:.1}x, {} of {} shards from cache)",
        fmt_duration(warm),
        cold.as_secs_f64() / warm.as_secs_f64().max(1e-12),
        outcome.shard_cache_hits,
        cluster.shard_count(),
    );
    assert_eq!(outcome.shard_cache_hits, 4, "warm queries must hit every shard partial");
    json_line("shard_cache", "cold", pd_bench::Stats { min: cold, median: cold }, &[]);
    json_line("shard_cache", "warm", warm_stats, &[]);

    println!("\n=== drill-down replay: shard cache on vs off ===");
    let workload = DrillDownWorkload::generate(
        &table,
        &WorkloadSpec { clicks: 10, queries_per_click: 10, max_drill_depth: 4, seed: 3 },
    )
    .expect("workload");
    let replay = |shard_cache: usize| -> (Duration, usize) {
        let cluster = Cluster::build(
            &table,
            &ClusterConfig { shards: 4, shard_cache, build: build.clone(), ..Default::default() },
        )
        .expect("cluster");
        let mut total = Duration::ZERO;
        let mut hits = 0;
        for click in &workload.clicks {
            for sql in &click.queries {
                let outcome = cluster.query(sql).expect("query");
                total += outcome.stats.elapsed;
                hits += outcome.shard_cache_hits;
            }
        }
        (total, hits)
    };
    let (off_total, off_hits) = replay(0);
    let (on_total, on_hits) = replay(1024);
    println!(
        "{} queries | cache off: {} | cache on: {} ({on_hits} shard hits)",
        workload.query_count(),
        fmt_duration(off_total),
        fmt_duration(on_total),
    );
    assert_eq!(off_hits, 0);
    assert!(on_hits > 0, "the drill-down replay must hit the shard cache");
    json_line(
        "shard_cache",
        "drilldown_replay_hits",
        pd_bench::Stats { min: on_total, median: on_total },
        &[("elements", on_hits.to_string())],
    );
}
