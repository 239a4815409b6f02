//! Appends while serving, over both edge kinds: query threads read a
//! cluster while an appender streams batches in through
//! [`Cluster::append`]. Every answer a reader receives must be
//! bit-identical to **some** consistent snapshot epoch — a single store over
//! the base table plus the first `e` batches, for some `e` — and once the
//! appends are done every answer must be the final epoch's. A torn read
//! (one shard answering pre-append, another post-append) matches *no*
//! snapshot. Appends take the write lock, queries the read lock: the lock
//! discipline `append(&mut self)` / `query(&self)` enforce at compile time.

use pd_core::{query, BuildOptions, DataStore, QueryResult};
use pd_data::{generate_logs, LogsSpec, Table};
use pd_dist::{Cluster, ClusterConfig, RpcConfig, Transport, TreeShape};
use std::path::PathBuf;
use std::sync::RwLock;
use std::time::Duration;

/// The two edge kinds: every node in this address space, or one worker
/// process per node behind unix sockets.
fn edge_kinds() -> [(&'static str, Transport); 2] {
    let rpc = RpcConfig {
        worker_bin: Some(PathBuf::from(env!("CARGO_BIN_EXE_pd-dist-worker"))),
        budget: Duration::from_secs(30),
        ..Default::default()
    };
    [("local", Transport::InProcess), ("socket", Transport::Rpc(rpc))]
}

/// Three batches stream in while two threads ask four charts twelve times
/// each of a 3-shard, fanout-2 tree — a merge server or an in-memory mixer
/// above two of the leaves, told of every append.
#[test]
fn append_while_serving_matches_a_consistent_epoch_on_both_edge_kinds() {
    let table = generate_logs(&LogsSpec::scaled(3_000));
    let slice = |lo: usize, hi: usize| table.select_rows(&(lo..hi).collect::<Vec<_>>());
    let batches: Vec<Table> = (0..3).map(|b| slice(2_400 + b * 200, 2_600 + b * 200)).collect();
    let sqls = [
        "SELECT country, COUNT(*) c FROM logs GROUP BY country ORDER BY c DESC LIMIT 10",
        "SELECT country, SUM(latency) s FROM logs GROUP BY country ORDER BY s DESC LIMIT 5",
        "SELECT COUNT(*) c, MIN(user) lo, MAX(user) hi FROM logs",
        "SELECT table_name, COUNT(*) c FROM logs WHERE country = 'DE' \
         GROUP BY table_name ORDER BY c DESC LIMIT 10",
    ];
    // The snapshots: after 0, 1, ..., all batches.
    let expected: Vec<Vec<QueryResult>> = (0..=batches.len())
        .map(|e| {
            let store = DataStore::build(&slice(0, 2_400 + e * 200), &BuildOptions::basic());
            let store = store.unwrap();
            sqls.iter().map(|sql| query(&store, sql).unwrap().0).collect()
        })
        .collect();
    let (threads, rounds) = (2, 12);
    for (kind, transport) in edge_kinds() {
        let mut build = BuildOptions::production(&["country", "table_name"]);
        if let Some(spec) = &mut build.partition {
            spec.max_chunk_rows = 200;
        }
        let tree = TreeShape { fanout: 2 };
        let config = ClusterConfig { shards: 3, build, tree, transport, ..Default::default() };
        let cluster = RwLock::new(Cluster::build(&slice(0, 2_400), &config).unwrap());
        // `matched_by_epoch[e]`: answers identical to snapshot `e` (one
        // identical across several epochs counts toward the earliest).
        let mut matched_by_epoch = vec![0usize; expected.len()];
        std::thread::scope(|scope| {
            let reader = || {
                let mut counts = vec![0usize; expected.len()];
                for _ in 0..rounds {
                    for (qi, sql) in sqls.iter().enumerate() {
                        let result = cluster.read().unwrap().query(sql).unwrap().result;
                        let epoch = expected.iter().position(|answers| answers[qi] == result);
                        let torn = || panic!("{kind}: torn read: `{sql}` matches no snapshot");
                        counts[epoch.unwrap_or_else(torn)] += 1;
                    }
                }
                counts
            };
            let readers: Vec<_> = (0..threads).map(|_| scope.spawn(reader)).collect();
            // Ingest on this thread, yielding between batches so that reads
            // interleave with every epoch.
            for batch in &batches {
                std::thread::sleep(Duration::from_millis(2));
                cluster.write().unwrap().append(batch).unwrap();
            }
            for reader in readers {
                let counts = reader.join().expect("a reader panicked");
                matched_by_epoch.iter_mut().zip(counts).for_each(|(slot, n)| *slot += n);
            }
        });
        let asked = threads * rounds * sqls.len();
        assert_eq!(matched_by_epoch.iter().sum::<usize>(), asked, "{kind}: {matched_by_epoch:?}");
        // Quiesced: "some snapshot" was for in-flight reads only.
        let cluster = cluster.into_inner().unwrap();
        for (sql, want) in sqls.iter().zip(&expected[batches.len()]) {
            assert_eq!(&cluster.query(sql).unwrap().result, want, "{kind}: after the appends");
        }
        // The epoch rule held the whole way: one bump per batch.
        assert_eq!(cluster.epoch(), 1 + batches.len() as u64, "{kind}");
    }
}
