//! Shared fixtures of the crate's unit tests: a query, a shard summary, an
//! in-thread stand-in for a leaf worker, and the small `(k, n)` table the
//! node and root tests build trees over.

use super::*;
use pd_common::{DataType, Row, Schema, Value};
use pd_sql::{analyze, parse_query};
use std::time::Duration;

/// `(k, n)`: a string and an integer.
pub(crate) fn kn_schema() -> Schema {
    Schema::of(&[("k", DataType::Str), ("n", DataType::Int)])
}

/// `(k, n)` rows for every `n` of `ns`, coded as a delta: `k` cycles
/// through three values.
pub(crate) fn kn_delta(ns: std::ops::Range<i64>) -> TableDelta {
    let k: Vec<Value> = ns.clone().map(|n| Value::from(["a", "b", "c"][n as usize % 3])).collect();
    let n: Vec<Value> = ns.map(Value::Int).collect();
    TableDelta::from_columns(kn_schema(), &[&k, &n]).unwrap()
}

/// `sql` as a query request with a roomy budget and no hedging.
pub(crate) fn request(sql: &str) -> QueryRequest {
    QueryRequest { query: analyzed(sql), budget: Duration::from_secs(30), hedge_micros: 0 }
}

/// `sql` asked of `root` as the driver asks it: planned by the root, with
/// a roomy budget and no hedging.
pub(crate) fn ask(root: &crate::shard_cache::Root, sql: &str) -> Result<SubtreeAnswer> {
    Ok(root.query(&*root.plan(sql)?, Duration::from_secs(30), 0)?.0)
}

/// A node named `name` of width one.
pub(crate) fn spec(name: &str) -> NodeSpec {
    NodeSpec { name: name.into(), threads: 1 }
}

/// An append of `delta` to shard 0.
pub(crate) fn to_shard_0(delta: TableDelta) -> AppendRequest {
    AppendRequest { deltas: vec![(0, delta)] }
}

pub(crate) fn analyzed(sql: &str) -> AnalyzedQuery {
    analyze(&parse_query(sql).unwrap()).unwrap()
}

pub(super) fn sample_meta() -> ShardMeta {
    let schema = Schema::of(&[("k", DataType::Str)]);
    let rows = vec![Row(vec![Value::from("x")]), Row(vec![Value::from("y")])];
    let mut meta = ShardMeta::summarize(3, &schema, &rows);
    meta.chunks = 1;
    meta
}

/// An in-thread stand-in for a leaf worker: serves exactly `conns`
/// connections on a loopback port, each on a thread of its own, handing
/// `reply` the stream and the server-wide ordinal of every `Query` it
/// reads. The handle joins once every connection has closed.
pub(super) fn fake_leaf(
    conns: usize,
    reply: impl Fn(&mut Stream, usize) + Send + Sync + 'static,
) -> (Addr, std::thread::JoinHandle<()>) {
    let listener = Listener::bind(&Addr::Tcp("127.0.0.1:0".into())).unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let seen = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..conns {
                let mut stream = listener.accept().unwrap();
                let (reply, seen) = (&reply, &seen);
                scope.spawn(move || {
                    while let Ok(Some(request)) = read_frame::<Request>(&mut stream) {
                        assert!(matches!(request, Request::Query(_)), "{request:?}");
                        let nth = seen.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        reply(&mut stream, nth);
                    }
                });
            }
        });
    });
    (addr, server)
}

/// A leaf's answer whose `rows_total` says which copy gave it.
pub(super) fn marked_answer(marker: u64) -> Response {
    let mut answer = SubtreeAnswer::empty();
    answer.stats.rows_total = marker;
    answer.reports.push(ShardReport {
        shard: 0,
        latency: Duration::ZERO,
        queue: Duration::ZERO,
        failover: false,
        hedged: false,
        cache_hit: false,
    });
    Response::Answer(Box::new(answer))
}

pub(super) fn count_all(hedge_micros: u64) -> QueryRequest {
    QueryRequest {
        query: analyzed("SELECT COUNT(*) FROM t"),
        budget: Duration::from_secs(10),
        hedge_micros,
    }
}
