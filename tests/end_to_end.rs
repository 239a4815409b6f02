//! End-to-end pipeline test spanning every crate: generate → serialize to
//! both row formats → read back → import into the column-store → compare
//! all five engines (store, CSV, record-io, Dremel-like, distributed
//! cluster) on the same queries.

use powerdrill::baselines::{Backend, CsvBackend, DremelBackend, IoModel, RecordIoBackend};
use powerdrill::data::csv::{read_csv, write_csv};
use powerdrill::data::recordio::{read_recordio, write_recordio};
use powerdrill::data::{generate_logs, LogsSpec};
use powerdrill::dist::{Cluster, ClusterConfig};
use powerdrill::sql::codec::MAX_DEPTH;
use powerdrill::{BuildOptions, PowerDrill, QueryResult};
use std::io::BufReader;

#[test]
fn formats_round_trip_and_all_engines_agree() {
    let table = generate_logs(&LogsSpec::scaled(1_500));

    // Formats round-trip.
    let mut csv_bytes = Vec::new();
    write_csv(&table, &mut csv_bytes).unwrap();
    let from_csv = read_csv(&mut BufReader::new(&csv_bytes[..]), table.schema()).unwrap();
    assert_eq!(from_csv, table, "CSV round trip");
    let rio_bytes = write_recordio(&table);
    let from_rio = read_recordio(&rio_bytes).unwrap();
    assert_eq!(from_rio, table, "record-io round trip");

    // Engines.
    let mut options = BuildOptions::production(&["country", "table_name"]);
    if let Some(spec) = &mut options.partition {
        spec.max_chunk_rows = 200;
    }
    let pd = PowerDrill::import(&table, &options).unwrap();
    let csv = CsvBackend::new(&table, IoModel::default()).unwrap();
    let rio = RecordIoBackend::new(&table, IoModel::default()).unwrap();
    let dremel = DremelBackend::new(&table, IoModel::default()).unwrap();
    let cluster =
        Cluster::build(&table, &ClusterConfig { shards: 4, build: options, ..Default::default() })
            .unwrap();

    for sql in [
        "SELECT country, COUNT(*) as c FROM data GROUP BY country ORDER BY c DESC LIMIT 10",
        "SELECT date(timestamp) as d, COUNT(*), SUM(latency) FROM data GROUP BY d ORDER BY d ASC LIMIT 10",
        "SELECT table_name, COUNT(*) as c FROM data GROUP BY table_name ORDER BY c DESC LIMIT 10",
        "SELECT country, COUNT(*) c FROM data WHERE country IN ('US','DE') AND latency > 200.0 GROUP BY country ORDER BY c DESC",
        "SELECT country, MIN(latency), MAX(latency), AVG(latency) FROM data GROUP BY country ORDER BY country ASC LIMIT 6",
        "SELECT user, COUNT(*) c FROM data WHERE date(timestamp) IN ('2011-10-05','2011-11-05') GROUP BY user ORDER BY c DESC LIMIT 5",
    ] {
        let (store_result, _) = pd.sql(sql).unwrap();
        let csv_result = csv.execute(sql).unwrap().result;
        let rio_result = rio.execute(sql).unwrap().result;
        let dremel_result = dremel.execute(sql).unwrap().result;
        let cluster_result = cluster.query(sql).unwrap().result;
        assert_eq!(store_result, csv_result, "store vs CSV: {sql}");
        assert_eq!(store_result, rio_result, "store vs rec-io: {sql}");
        assert_eq!(store_result, dremel_result, "store vs Dremel: {sql}");
        assert_eq!(store_result, cluster_result, "store vs cluster: {sql}");
    }
}

#[test]
fn store_skips_what_baselines_scan() {
    let table = generate_logs(&LogsSpec::scaled(2_000));
    let mut options = BuildOptions::production(&["country", "table_name"]);
    if let Some(spec) = &mut options.partition {
        spec.max_chunk_rows = 100;
    }
    let pd = PowerDrill::import(&table, &options).unwrap();
    let sql = "SELECT table_name, COUNT(*) c FROM data WHERE country = 'SG' GROUP BY table_name ORDER BY c DESC LIMIT 5";
    let (_, stats) = pd.sql(sql).unwrap();
    assert!(
        stats.skipped_fraction() > 0.7,
        "a rare-country restriction should skip most rows: {}",
        stats.summary()
    );
    // The CSV baseline streams everything, no matter the filter.
    let csv = CsvBackend::new(&table, IoModel::default()).unwrap();
    assert_eq!(csv.storage_bytes(sql).unwrap(), csv.file_bytes());
}

#[test]
fn memory_ordering_matches_table1() {
    // Table 1's memory column ordering: row formats ≫ columnar formats,
    // and the columnar formats only pay for touched columns.
    let table = generate_logs(&LogsSpec::scaled(2_000));
    let csv = CsvBackend::new(&table, IoModel::default()).unwrap();
    let rio = RecordIoBackend::new(&table, IoModel::default()).unwrap();
    let dremel = DremelBackend::new(&table, IoModel::default()).unwrap();
    let pd = PowerDrill::import(&table, &BuildOptions::basic()).unwrap();

    let q1 = "SELECT country, COUNT(*) as c FROM data GROUP BY country ORDER BY c DESC LIMIT 10";
    let store_q1 = pd.memory_for(q1).unwrap().total();
    let dremel_q1 = dremel.storage_bytes(q1).unwrap();
    let csv_q1 = csv.storage_bytes(q1).unwrap();
    let rio_q1 = rio.storage_bytes(q1).unwrap();
    assert!(store_q1 < csv_q1 / 10, "store {store_q1} vs csv {csv_q1}");
    assert!(dremel_q1 < csv_q1 / 10, "dremel {dremel_q1} vs csv {csv_q1}");
    assert!(rio_q1 < csv_q1, "rec-io {rio_q1} vs csv {csv_q1}");
}

/// One small table behind every engine: the store, a cluster over either
/// edge kind (the socket one spawns worker processes) and the three
/// baselines.
struct Engines {
    pd: PowerDrill,
    clusters: [Cluster; 2],
    csv: CsvBackend,
    rio: RecordIoBackend,
    dremel: DremelBackend,
}

impl Engines {
    fn new() -> Engines {
        use powerdrill::dist::{RpcConfig, Transport};
        let table = generate_logs(&LogsSpec::scaled(400));
        let options = BuildOptions::production(&["country"]);
        let unix = Transport::Rpc(RpcConfig {
            worker_bin: Some(std::path::PathBuf::from(env!("CARGO_BIN_EXE_pd-worker"))),
            ..Default::default()
        });
        let clusters = [Transport::InProcess, unix].map(|transport| {
            let config = ClusterConfig {
                shards: 2,
                build: options.clone(),
                transport,
                ..Default::default()
            };
            Cluster::build(&table, &config).unwrap()
        });
        Engines {
            pd: PowerDrill::import(&table, &options).unwrap(),
            clusters,
            csv: CsvBackend::new(&table, IoModel::default()).unwrap(),
            rio: RecordIoBackend::new(&table, IoModel::default()).unwrap(),
            dremel: DremelBackend::new(&table, IoModel::default()).unwrap(),
        }
    }

    /// Each engine's name and answer to `sql`.
    fn answers(&self, sql: &str) -> Vec<(&'static str, powerdrill::Result<QueryResult>)> {
        vec![
            ("store", self.pd.sql(sql).map(|(result, _)| result)),
            ("pd_core::query", powerdrill::query(self.pd.store(), sql).map(|(result, _)| result)),
            ("in-process tree", self.clusters[0].query(sql).map(|outcome| outcome.result)),
            ("unix tree", self.clusters[1].query(sql).map(|outcome| outcome.result)),
            ("CSV", self.csv.execute(sql).map(|run| run.result)),
            ("record-io", self.rio.execute(sql).map(|run| run.result)),
            ("Dremel", self.dremel.execute(sql).map(|run| run.result)),
        ]
    }

    fn assert_refused(&self, sql: &str) {
        for (engine, answer) in self.answers(sql) {
            assert!(answer.is_err(), "{engine} answered {} bytes of SQL", sql.len());
        }
    }
}

/// A subquery in FROM is refused, not answered: the store, a cluster over
/// either edge kind and every baseline return an error for a query no
/// engine can read the inner queries of, rather than answering the outer
/// query over the whole table.
#[test]
fn a_from_subquery_is_an_error_on_every_engine() {
    let engines = Engines::new();
    for sql in [
        "SELECT country, COUNT(*) c FROM ((SELECT country FROM data WHERE country = 'DE') \
         UNION ALL (SELECT country FROM data WHERE country = 'DE')) GROUP BY country",
        "SELECT country, COUNT(*) c FROM (SELECT country FROM data) GROUP BY country",
    ] {
        engines.assert_refused(sql);
    }
}

/// A sum over a string column is refused, not answered: the store, a
/// cluster over either edge kind and every baseline return an error —
/// grouped or not, as `SUM` or as the sum `AVG` divides.
#[test]
fn a_sum_over_strings_is_an_error_on_every_engine() {
    let engines = Engines::new();
    for sql in [
        "SELECT SUM(country) s FROM data",
        "SELECT table_name, SUM(user) s FROM data GROUP BY table_name",
        "SELECT country, AVG(table_name) a FROM data GROUP BY country",
    ] {
        engines.assert_refused(sql);
    }
}

/// Every engine takes an expression as deep as the wire carries, and
/// answers it alike; one level deeper is an error on every engine — the
/// socket tree's included, which used to fail only when a worker decoded
/// it —, and no text, however deep, takes the process down.
#[test]
fn nesting_past_the_wire_bound_is_an_error_on_every_engine() {
    let engines = Engines::new();
    let chain = |terms: usize| {
        (0..terms).map(|i| format!("latency = {i}")).collect::<Vec<_>>().join(" OR ")
    };
    let count = |filter: &str| {
        format!("SELECT country, COUNT(*) c FROM data WHERE {filter} GROUP BY country")
    };
    let deepest = count(&chain(MAX_DEPTH));
    let answers = engines.answers(&deepest);
    let store = answers[0].1.as_ref().unwrap();
    assert!(!store.rows.is_empty());
    for (engine, answer) in &answers {
        let answer = answer.as_ref().unwrap_or_else(|e| panic!("{engine}: {e}"));
        assert_eq!(store, answer, "store vs {engine}");
    }
    for sql in [
        count(&chain(MAX_DEPTH + 1)),
        count(&chain(300)),
        count(&chain(30_000)),
        count(&format!("{}latency > 100", "NOT ".repeat(257))),
        count(&format!("{}latency > 100", "NOT ".repeat(300))),
        count(&format!("{}latency = 1{}", "(".repeat(10_000), ")".repeat(10_000))),
    ] {
        engines.assert_refused(&sql);
    }
}
