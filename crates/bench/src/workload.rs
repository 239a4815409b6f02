//! Drill-down click streams and the §6 production replay.
//!
//! §6: *"Over the three months, the system processed an average of about 2
//! million SQL queries per day [...] A single mouse click in the UI
//! typically triggers on the order of 20 SQL queries."* Each generated
//! "click" here is such a bundle: a handful of group-by queries sharing a
//! restriction stack that grows as the analyst drills down — which is
//! precisely the access pattern that lets chunk dictionaries skip and the
//! chunk-result cache hit.

use pd_common::rng::Rng;
use pd_common::{DataType, Result, Value};
use pd_core::ScanStats;
use pd_data::Table;
use pd_dist::Cluster;
use std::time::Duration;

/// Workload generation parameters.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Number of UI clicks to simulate.
    pub clicks: usize,
    /// SQL queries triggered per click (the paper observes ~20).
    pub queries_per_click: usize,
    /// Maximum depth of the drill-down restriction stack.
    pub max_drill_depth: usize,
    /// RNG seed; equal specs generate identical workloads.
    pub seed: u64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec { clicks: 10, queries_per_click: 20, max_drill_depth: 5, seed: 42 }
    }
}

/// One UI click: a bundle of queries sharing a restriction stack.
#[derive(Debug, Clone)]
pub struct Click {
    pub queries: Vec<String>,
}

/// A generated drill-down session.
#[derive(Debug, Clone)]
pub struct DrillDownWorkload {
    pub clicks: Vec<Click>,
}

impl DrillDownWorkload {
    /// Generate a workload against `table`'s schema, sampling restriction
    /// values from actual rows so selectivity mirrors the data.
    pub fn generate(table: &Table, spec: &WorkloadSpec) -> Result<DrillDownWorkload> {
        let schema = table.schema();
        let dims: Vec<(usize, String)> = schema
            .fields()
            .iter()
            .enumerate()
            .filter(|(_, f)| f.data_type == DataType::Str)
            .map(|(i, f)| (i, f.name.clone()))
            .collect();
        let measures: Vec<String> = schema
            .fields()
            .iter()
            .filter(|f| matches!(f.data_type, DataType::Int | DataType::Float))
            .map(|f| f.name.clone())
            .collect();
        if dims.is_empty() || table.is_empty() {
            return Err(pd_common::Error::Data(
                "drill-down workloads need at least one string column and one row".into(),
            ));
        }

        // Drill order: lowest-cardinality dimensions first — analysts
        // narrow by the "natural primary key" fields (country before
        // table_name before user-ids), which is also what makes chunk
        // skipping and the fully-active-chunk cache effective.
        let mut drill_order: Vec<(usize, String)> = dims.clone();
        drill_order.sort_by_key(|(i, _)| {
            let mut distinct: Vec<&Value> = table.column(*i).iter().collect();
            distinct.sort_unstable();
            distinct.dedup();
            distinct.len()
        });

        let mut rng = Rng::seed_from_u64(spec.seed);
        let mut clicks = Vec::with_capacity(spec.clicks);
        // The restriction stack: (column name, literal) conjuncts. A new
        // "analysis session" starts whenever the stack tops out.
        let mut stack: Vec<(String, String)> = Vec::new();
        for _ in 0..spec.clicks {
            if stack.len() >= spec.max_drill_depth.max(1).min(drill_order.len()) {
                stack.clear();
            }
            // Drill one level deeper: restrict the next dimension to a
            // value sampled from a real row (so the restriction is
            // satisfiable and correlates with the partitioning).
            let (col_idx, col_name) = drill_order[stack.len()].clone();
            let row = rng.range_usize(0, table.len());
            let value = match &table.column(col_idx)[row] {
                Value::Str(s) => s.replace('\'', ""),
                other => other.render().into_owned(),
            };
            stack.push((col_name, value));

            // The click refreshes one chart per dimension (plus measure
            // charts) under the current restriction — the paper's "set of
            // charts" updating together. A chart is *not* filtered by its
            // own dimension (the country chart keeps showing all countries
            // within the other filters), which is also what re-surfaces
            // fully active chunks for the §6 result cache.
            let mut queries = Vec::with_capacity(spec.queries_per_click);
            let mut i = 0usize;
            while queries.len() < spec.queries_per_click {
                let (_, dim) = &dims[i % dims.len()];
                let agg = if measures.is_empty() {
                    "COUNT(*) as c".to_owned()
                } else {
                    let m = &measures[i % measures.len()];
                    match i % 3 {
                        0 => "COUNT(*) as c".to_owned(),
                        1 => format!("COUNT(*) as c, SUM({m}) as s"),
                        _ => format!("COUNT(*) as c, MIN({m}) as mn, MAX({m}) as mx"),
                    }
                };
                let conjuncts: Vec<String> = stack
                    .iter()
                    .filter(|(c, _)| c != dim)
                    .map(|(c, v)| format!("{c} = '{v}'"))
                    .collect();
                let where_clause = if conjuncts.is_empty() {
                    String::new()
                } else {
                    format!(" WHERE {}", conjuncts.join(" AND "))
                };
                queries.push(format!(
                    "SELECT {dim}, {agg} FROM data{where_clause} GROUP BY {dim} ORDER BY c DESC LIMIT 10"
                ));
                i += 1;
            }
            clicks.push(Click { queries });
        }
        Ok(DrillDownWorkload { clicks })
    }

    /// Total number of SQL queries across all clicks.
    pub fn query_count(&self) -> usize {
        self.clicks.iter().map(|c| c.queries.len()).sum()
    }
}

/// One replayed query's outcome.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    pub sql: String,
    pub stats: ScanStats,
    /// Measured end-to-end wall time ([`pd_dist::QueryOutcome::latency`]).
    pub latency: Duration,
    /// Shards served from a tree node's result cache.
    pub shard_cache_hits: usize,
}

/// Aggregated replay results: the §6 production statistics.
#[derive(Debug, Clone, Default)]
pub struct ProductionReport {
    pub queries: Vec<QueryRecord>,
}

impl ProductionReport {
    fn totals(&self) -> ScanStats {
        let mut total = ScanStats::default();
        for q in &self.queries {
            total += &q.stats;
        }
        total
    }

    /// Percent of underlying rows proven inactive (paper: 92.41%).
    pub fn skipped_percent(&self) -> f64 {
        100.0 * self.totals().skipped_fraction()
    }

    /// Percent of rows served from cached chunk results (paper: 5.02%).
    pub fn cached_percent(&self) -> f64 {
        100.0 * self.totals().cached_fraction()
    }

    /// Percent of rows actually scanned (paper: 2.66%).
    pub fn scanned_percent(&self) -> f64 {
        100.0 * self.totals().scanned_fraction()
    }

    /// Total shard subqueries answered from a tree node's result cache.
    pub fn shard_cache_hits(&self) -> usize {
        self.queries.iter().map(|q| q.shard_cache_hits).sum()
    }

    /// Fraction of queries answered without scanning a row — skipping and
    /// cached results covered everything. (The paper's counterpart: >70% of
    /// queries loaded nothing from disk.)
    pub fn scan_free_fraction(&self) -> f64 {
        if self.queries.is_empty() {
            return 0.0;
        }
        self.queries.iter().filter(|q| q.stats.rows_scanned == 0).count() as f64
            / self.queries.len() as f64
    }

    /// Figure 5 buckets: `(bucket, avg measured latency, query count)`
    /// where bucket 0 holds scan-free queries and bucket `k` holds queries
    /// that scanned at least `2^(k-1)` cells — the paper's latency against
    /// data touched, on the measured axis this engine has.
    pub fn figure5_buckets(&self) -> Vec<(u32, Duration, usize)> {
        let mut sums: std::collections::BTreeMap<u32, (Duration, usize)> =
            std::collections::BTreeMap::new();
        for q in &self.queries {
            let bucket = match q.stats.rows_scanned {
                0 => 0,
                _ => 64 - q.stats.cells_scanned.max(1).leading_zeros(),
            };
            let entry = sums.entry(bucket).or_insert((Duration::ZERO, 0));
            entry.0 += q.latency;
            entry.1 += 1;
        }
        sums.into_iter().map(|(b, (total, n))| (b, total / n.max(1) as u32, n)).collect()
    }
}

/// Replay `workload` against `cluster`, recording per-query statistics.
pub fn run_production(cluster: &Cluster, workload: &DrillDownWorkload) -> Result<ProductionReport> {
    let mut report = ProductionReport::default();
    for click in &workload.clicks {
        for sql in &click.queries {
            let outcome = cluster.query(sql)?;
            report.queries.push(QueryRecord {
                sql: sql.clone(),
                stats: outcome.stats,
                latency: outcome.latency,
                shard_cache_hits: outcome.shard_cache_hits,
            });
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_core::BuildOptions;
    use pd_data::{generate_logs, LogsSpec};
    use pd_dist::ClusterConfig;

    #[test]
    fn workload_generation_is_deterministic() {
        let table = generate_logs(&LogsSpec::scaled(1_000));
        let spec = WorkloadSpec { clicks: 4, queries_per_click: 6, ..Default::default() };
        let a = DrillDownWorkload::generate(&table, &spec).unwrap();
        let b = DrillDownWorkload::generate(&table, &spec).unwrap();
        assert_eq!(a.query_count(), 24);
        for (ca, cb) in a.clicks.iter().zip(&b.clicks) {
            assert_eq!(ca.queries, cb.queries);
        }
    }

    #[test]
    fn production_replay_skips_and_caches() {
        let table = generate_logs(&LogsSpec::scaled(3_000));
        let mut build = BuildOptions::production(&["country", "table_name"]);
        if let Some(spec) = &mut build.partition {
            spec.max_chunk_rows = 200;
        }
        let cluster =
            Cluster::build(&table, &ClusterConfig { shards: 2, build, ..Default::default() })
                .unwrap();
        let workload = DrillDownWorkload::generate(
            &table,
            &WorkloadSpec { clicks: 8, queries_per_click: 5, max_drill_depth: 3, seed: 7 },
        )
        .unwrap();
        let report = run_production(&cluster, &workload).unwrap();
        assert_eq!(report.queries.len(), 40);
        assert!(
            report.skipped_percent() > 20.0,
            "drill-downs must skip: {:.1}%",
            report.skipped_percent()
        );
        assert!(
            report.cached_percent() > 0.0,
            "repeated chart queries must hit the chunk-result cache"
        );
        let total = report.skipped_percent() + report.cached_percent() + report.scanned_percent();
        assert!((total - 100.0).abs() < 1e-6, "shares sum to 100: {total}");
        assert!(!report.figure5_buckets().is_empty());
    }

    #[test]
    fn drilldown_workload_hits_shard_cache_with_unchanged_results() {
        // The acceptance property of the node result caches: a drill-down
        // replay records cache hits, and every query's result is
        // bit-identical to the same replay with the cache disabled.
        let table = generate_logs(&LogsSpec::scaled(2_500));
        let mut build = BuildOptions::production(&["country", "table_name"]);
        if let Some(spec) = &mut build.partition {
            spec.max_chunk_rows = 200;
        }
        let cached = Cluster::build(
            &table,
            &ClusterConfig { shards: 3, build: build.clone(), ..Default::default() },
        )
        .unwrap();
        let uncached = Cluster::build(
            &table,
            &ClusterConfig { shards: 3, shard_cache: 0, build, ..Default::default() },
        )
        .unwrap();
        let workload = DrillDownWorkload::generate(
            &table,
            &WorkloadSpec { clicks: 6, queries_per_click: 8, max_drill_depth: 3, seed: 11 },
        )
        .unwrap();
        let (mut shards_served, mut node_hits) = (0, 0);
        for click in &workload.clicks {
            for sql in &click.queries {
                let a = cached.query(sql).unwrap();
                let b = uncached.query(sql).unwrap();
                assert_eq!(a.result, b.result, "shard cache changed a result: {sql}");
                shards_served += a.shard_cache_hits;
                node_hits += a.worker_cache_hits();
            }
        }
        assert!(shards_served > 0, "the drill-down pattern must re-surface cached partials");
        // Every hit is a node's — the root's covers all three shards.
        let (cache_hits, _) = cached.shard_cache_stats();
        assert_eq!(node_hits as u64, cache_hits);
        assert_eq!(uncached.shard_cache_stats(), (0, 0));
    }
}
