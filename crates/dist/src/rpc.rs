//! The RPC boundary of the §4 computation tree: the messages that cross a
//! tree edge and their codecs. The machinery around them lives in this
//! module's children and is re-exported here: `frame` (endpoints, framing,
//! deadline-bound socket I/O), `client` ([`RpcClient`],
//! [`CancelToken`]), `link` ([`Link`], [`ChildHandle`]: how any node
//! reaches a child) and `fanout` ([`fan_out`]: ask, settle, fold).
//!
//! **Deadline budgets.** Every query request carries one *remaining time
//! budget* for the whole query, not a per-hop deadline: each worker
//! subtracts the time the request waited for its turn before fanning out,
//! and answers a typed [`RpcError::Deadline`] fault the moment the budget
//! is spent instead of letting children run a query nobody is waiting
//! for. The *caller* enforces the same budget with one absolute deadline
//! over every write and read of a fan-out, so a stalled or trickling peer
//! expires on time either way.

use crate::meta::ShardMeta;
use crate::node::NodeSpec;
use pd_common::wire::{Decode, Encode, Reader};
use pd_common::{Error, Result, RpcError};
use pd_core::{BuildOptions, PartialResult, ScanStats};
use pd_encoding::TableDelta;
use pd_sql::AnalyzedQuery;
use std::path::PathBuf;
use std::time::Duration;

mod client;
mod fanout;
mod frame;
mod link;
#[cfg(test)]
pub(crate) mod testkit;

pub(crate) use client::{backoff_sleep, BACKOFF_CAP};
pub use client::{CancelToken, RpcClient};
pub use fanout::{absorb_into, fan_out};
pub use frame::{encode_frame, read_frame, write_frame, Addr, Listener, Stream, MAX_FRAME_BYTES};
pub use link::{ChildHandle, Link};

/// How long a parent waits for a freshly spawned worker to bind its
/// socket and answer the first `Ping`.
pub const STARTUP_TIMEOUT: Duration = Duration::from_secs(30);

/// Timeout for shard loading (table shipping + import on the worker).
pub const LOAD_TIMEOUT: Duration = Duration::from_secs(120);

impl Encode for Addr {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Addr::Unix(path) => {
                out.push(0);
                // Addrs only originate from `Addr::parse` (UTF-8 by
                // construction) and the spawner's temp-dir + ASCII-name
                // paths, so the lossy conversion is the identity; a
                // hand-built non-UTF-8 path would mangle here rather than
                // error, which the parse-only construction rule prevents.
                path.to_string_lossy().as_ref().encode(out);
            }
            Addr::Tcp(hostport) => {
                out.push(1);
                hostport.encode(out);
            }
        }
    }
}

impl Decode for Addr {
    fn decode(r: &mut Reader<'_>) -> Result<Addr> {
        Ok(match r.u8()? {
            0 => Addr::Unix(PathBuf::from(String::decode(r)?)),
            1 => Addr::Tcp(String::decode(r)?),
            other => return Err(Error::Data(format!("wire: invalid addr tag {other}"))),
        })
    }
}
// --- messages --------------------------------------------------------------

/// Driver/parent → worker messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness / startup handshake. Answered inline, never queued.
    Ping,
    /// Become a leaf: build a [`pd_core::DataStore`] from the shipped coded
    /// columns — the shard's rows in the form an [`Request::Append`] ships
    /// later ones, decoded and validated by the same code. Acknowledged
    /// with [`Response::Loaded`] — the shard's metadata summary, which
    /// parents use to pre-skip.
    Load(Box<LoadRequest>),
    /// Become a merge server owning a subtree.
    Attach(AttachRequest),
    /// Apply the rows of the shards beneath the receiver in place
    /// ([`crate::node::Node::append`]) — no respawn, no reshipping, no
    /// connection touched. Acked with [`Response::Appended`].
    Append(Box<AppendRequest>),
    /// Execute / fan out one query.
    Query(Box<QueryRequest>),
    /// Exit the worker process (acknowledged first).
    Shutdown,
}

/// Everything a worker needs to become shard `shard`'s server: the
/// shard's rows, dictionary-coded once by the driver, and the recipe to
/// build the store from them.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadRequest {
    pub shard: u64,
    pub delta: TableDelta,
    pub build: BuildOptions,
    pub spec: NodeSpec,
}

/// An append as it reaches one node: the rows of the shards beneath it.
/// Each delta carries its own per-column sorted dictionaries
/// ([`pd_encoding::TableDelta`]), so no sender needs the shards' resident
/// dictionaries; decoding re-validates every invariant, so a decoded
/// request is safe to apply.
#[derive(Debug, Clone, PartialEq)]
pub struct AppendRequest {
    /// `(shard, rows)` for each shard beneath the node that gets rows, at
    /// most once. A parent writes no child beneath which no rows land.
    pub deltas: Vec<(u64, TableDelta)>,
}

/// How a leaf's store cut one applied delta into chunks: the one fact about
/// it that a holder of the delta cannot derive. With it, every holder of the
/// shard's [`ShardMeta`] absorbs the delta exactly as the leaf did
/// ([`ShardMeta::absorb_append`]), so no summary crosses a socket after the
/// tree is built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppendReceipt {
    /// Row counts of the chunks the store appended, in chunk order.
    pub new_chunk_rows: Vec<u64>,
}

/// What a node acks an [`AppendRequest`] with.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AppendAck {
    /// One receipt per delta of the request, in its order.
    pub receipts: Vec<AppendReceipt>,
    /// Serialized bytes of the request frames written beneath the node.
    pub bytes: u64,
}

/// The subtree a merge server owns, and the server's name (a mixer has no
/// width: its fan-out asks its children in order on the calling thread).
#[derive(Debug, Clone, PartialEq)]
pub struct AttachRequest {
    pub children: Vec<ChildSpec>,
    pub name: String,
}

/// One child of a tree node — a leaf shard (with its replica, the §4
/// "answer-first-wins" pair) or a deeper merge server. Either way the spec
/// carries the shard metadata beneath it, so the parent can prune the
/// entire edge when no shard below can match a restriction.
#[derive(Debug, Clone, PartialEq)]
pub enum ChildSpec {
    Leaf {
        shard: u64,
        primary: Addr,
        replica: Option<Addr>,
        meta: ShardMeta,
    },
    /// `metas` = every shard in the subtree.
    Node {
        addr: Addr,
        metas: Vec<ShardMeta>,
    },
}

impl ChildSpec {
    /// The shard summaries beneath this child.
    pub fn metas(&self) -> &[ShardMeta] {
        match self {
            ChildSpec::Leaf { meta, .. } => std::slice::from_ref(meta),
            ChildSpec::Node { metas, .. } => metas,
        }
    }
}

/// A query crossing a tree edge: the decoded, analyzed form — restriction,
/// keys, aggregates — so no hop re-parses SQL and every hop can reason
/// about the restriction.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    pub query: AnalyzedQuery,
    /// Remaining time budget for the *whole* query. Each worker subtracts
    /// its queueing delay before executing or fanning out, and answers a
    /// typed `Deadline` fault immediately once the budget is spent —
    /// never a hop that children must time out of serially.
    pub budget: Duration,
    /// The hedge delay in microseconds: how long a parent waits on a leaf
    /// primary before racing the replica in parallel. `0` disables
    /// hedging (sequential primary-then-replica failover).
    pub hedge_micros: u64,
}

/// Per-shard observation, reported up the tree: how long the subquery took
/// as measured by the shard's *parent* (wall clock, including transport
/// and queueing), the time the request spent queued in worker processes,
/// whether the shard's answer came from the replica (`failover`), and
/// whether the replica was raced because the primary outlasted the hedge
/// delay (`hedged`). A root hit asks no shard and reports none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardReport {
    pub shard: u64,
    pub latency: Duration,
    pub queue: Duration,
    pub failover: bool,
    pub hedged: bool,
    /// Not on the wire, never set by the engine: always `false`.
    pub cache_hit: bool,
}

/// A subtree's merged answer.
#[derive(Debug, Clone, PartialEq)]
pub struct SubtreeAnswer {
    pub partial: PartialResult,
    pub stats: ScanStats,
    pub reports: Vec<ShardReport>,
}

impl SubtreeAnswer {
    fn empty() -> SubtreeAnswer {
        SubtreeAnswer {
            partial: PartialResult::default(),
            stats: ScanStats::default(),
            reports: Vec::new(),
        }
    }
}

/// Worker → parent messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Ack for `Ping` / `Attach` / `Shutdown`.
    Ok,
    /// Ack for `Load` — and for nothing else: the built shard's metadata
    /// summary (row/chunk totals, per-column value sets and extremes).
    Loaded(Box<ShardMeta>),
    /// Ack for `Append`.
    Appended(AppendAck),
    Answer(Box<SubtreeAnswer>),
    /// Application-level failure: the worker is alive and decoded the
    /// request, but executing it failed (plan error, missing role, ...).
    /// Deterministic — a replica would only repeat it, so no failover.
    Err(String),
    /// Transport-level NAK: the worker could not *decode* the request
    /// frame (truncation/corruption on the wire). For a leaf primary this
    /// is treated like a timeout — the caller re-encodes fresh bytes for
    /// the replica.
    Malformed(String),
    /// Typed RPC failure: the worker is alive but could not serve the
    /// query for a *transport/robustness* reason (budget spent in its
    /// queue, a child gone, ...). Unlike [`Response::Err`] these are
    /// failover candidates — the other replica may still answer in time.
    Fault(RpcError),
}

/// The error of a node that answered a `what` request with anything but
/// its ack.
pub(crate) fn refusal(response: Response, what: &str) -> Error {
    match response {
        Response::Err(message) => Error::Data(format!("worker {what} failed: {message}")),
        Response::Fault(fault) => Error::Rpc(fault),
        Response::Malformed(message) => {
            Error::Data(format!("worker rejected the {what} frame: {message}"))
        }
        Response::Ok | Response::Loaded(_) | Response::Appended(_) | Response::Answer(_) => {
            Error::Data(format!("worker sent the wrong kind of reply to a {what} request"))
        }
    }
}

// --- message codecs --------------------------------------------------------

const REQ_PING: u8 = 0;
const REQ_LOAD: u8 = 1;
const REQ_ATTACH: u8 = 2;
const REQ_QUERY: u8 = 3;
// 4 was `Delay` (a stateful test knob) until frame version 7.
const REQ_SHUTDOWN: u8 = 5;
const REQ_APPEND: u8 = 6;
// 7 was `Absorb` (an append's deltas and receipts, sent to every merge
// server beside the leaves' `Append`s) until frame version 11.

impl Encode for Request {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Request::Ping => out.push(REQ_PING),
            Request::Load(load) => {
                out.push(REQ_LOAD);
                load.shard.encode(out);
                load.delta.encode(out);
                load.build.encode(out);
                load.spec.encode(out);
            }
            Request::Attach(attach) => {
                out.push(REQ_ATTACH);
                attach.children.encode(out);
                attach.name.encode(out);
            }
            Request::Query(query) => query.encode(out),
            Request::Append(append) => append.encode(out),
            Request::Shutdown => out.push(REQ_SHUTDOWN),
        }
    }
}

impl Decode for Request {
    fn decode(r: &mut Reader<'_>) -> Result<Request> {
        Ok(match r.u8()? {
            REQ_PING => Request::Ping,
            REQ_LOAD => Request::Load(Box::new(LoadRequest {
                shard: r.u64()?,
                delta: TableDelta::decode(r)?,
                build: BuildOptions::decode(r)?,
                spec: NodeSpec::decode(r)?,
            })),
            REQ_ATTACH => Request::Attach(AttachRequest {
                children: Vec::decode(r)?,
                name: String::decode(r)?,
            }),
            REQ_QUERY => Request::Query(Box::new(QueryRequest {
                query: AnalyzedQuery::decode(r)?,
                budget: Duration::decode(r)?,
                hedge_micros: r.u64()?,
            })),
            REQ_APPEND => Request::Append(Box::new(AppendRequest { deltas: Vec::decode(r)? })),
            REQ_SHUTDOWN => Request::Shutdown,
            other => return Err(Error::Data(format!("wire: invalid request tag {other}"))),
        })
    }
}

/// Encodes as the [`Request::Query`] that carries it: a sender holding a
/// reference frames it as it is, without building — cloning the analyzed
/// query into — a `Request` first.
impl Encode for QueryRequest {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(REQ_QUERY);
        self.query.encode(out);
        self.budget.encode(out);
        self.hedge_micros.encode(out);
    }
}

/// Encodes as the [`Request::Append`] that carries it (see
/// [`QueryRequest`]'s `Encode`): the deltas are not cloned to be sent.
impl Encode for AppendRequest {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(REQ_APPEND);
        self.deltas.encode(out);
    }
}

impl Encode for NodeSpec {
    fn encode(&self, out: &mut Vec<u8>) {
        self.name.encode(out);
        self.threads.encode(out);
    }
}

impl Decode for NodeSpec {
    fn decode(r: &mut Reader<'_>) -> Result<NodeSpec> {
        Ok(NodeSpec { name: String::decode(r)?, threads: usize::decode(r)? })
    }
}

impl Encode for AppendReceipt {
    fn encode(&self, out: &mut Vec<u8>) {
        self.new_chunk_rows.encode(out);
    }
}

impl Decode for AppendReceipt {
    fn decode(r: &mut Reader<'_>) -> Result<AppendReceipt> {
        Ok(AppendReceipt { new_chunk_rows: Vec::decode(r)? })
    }
}

impl Encode for ChildSpec {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ChildSpec::Leaf { shard, primary, replica, meta } => {
                out.push(0);
                shard.encode(out);
                primary.encode(out);
                replica.encode(out);
                meta.encode(out);
            }
            ChildSpec::Node { addr, metas } => {
                out.push(1);
                addr.encode(out);
                metas.encode(out);
            }
        }
    }
}

impl Decode for ChildSpec {
    fn decode(r: &mut Reader<'_>) -> Result<ChildSpec> {
        Ok(match r.u8()? {
            0 => ChildSpec::Leaf {
                shard: r.u64()?,
                primary: Addr::decode(r)?,
                replica: Option::decode(r)?,
                meta: ShardMeta::decode(r)?,
            },
            1 => ChildSpec::Node { addr: Addr::decode(r)?, metas: Vec::decode(r)? },
            other => return Err(Error::Data(format!("wire: invalid child-spec tag {other}"))),
        })
    }
}

impl Encode for ShardReport {
    fn encode(&self, out: &mut Vec<u8>) {
        self.shard.encode(out);
        self.latency.encode(out);
        self.queue.encode(out);
        self.failover.encode(out);
        self.hedged.encode(out);
    }
}

impl Decode for ShardReport {
    fn decode(r: &mut Reader<'_>) -> Result<ShardReport> {
        Ok(ShardReport {
            shard: r.u64()?,
            latency: Duration::decode(r)?,
            queue: Duration::decode(r)?,
            failover: bool::decode(r)?,
            hedged: bool::decode(r)?,
            cache_hit: false,
        })
    }
}

impl Encode for SubtreeAnswer {
    fn encode(&self, out: &mut Vec<u8>) {
        self.partial.encode(out);
        self.stats.encode(out);
        self.reports.encode(out);
    }
}

impl Decode for SubtreeAnswer {
    fn decode(r: &mut Reader<'_>) -> Result<SubtreeAnswer> {
        Ok(SubtreeAnswer {
            partial: PartialResult::decode(r)?,
            stats: ScanStats::decode(r)?,
            reports: Vec::decode(r)?,
        })
    }
}

const RESP_OK: u8 = 0;
const RESP_ANSWER: u8 = 1;
const RESP_ERR: u8 = 2;
const RESP_MALFORMED: u8 = 3;
const RESP_LOADED: u8 = 4;
const RESP_FAULT: u8 = 5;
const RESP_APPENDED: u8 = 6;

impl Encode for Response {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Response::Ok => out.push(RESP_OK),
            Response::Loaded(meta) => {
                out.push(RESP_LOADED);
                meta.encode(out);
            }
            Response::Appended(ack) => {
                out.push(RESP_APPENDED);
                ack.receipts.encode(out);
                ack.bytes.encode(out);
            }
            Response::Answer(answer) => {
                out.push(RESP_ANSWER);
                answer.encode(out);
            }
            Response::Err(message) => {
                out.push(RESP_ERR);
                message.encode(out);
            }
            Response::Malformed(message) => {
                out.push(RESP_MALFORMED);
                message.encode(out);
            }
            Response::Fault(fault) => {
                out.push(RESP_FAULT);
                fault.encode(out);
            }
        }
    }
}

impl Decode for Response {
    fn decode(r: &mut Reader<'_>) -> Result<Response> {
        Ok(match r.u8()? {
            RESP_OK => Response::Ok,
            RESP_LOADED => Response::Loaded(Box::new(ShardMeta::decode(r)?)),
            RESP_APPENDED => {
                Response::Appended(AppendAck { receipts: Vec::decode(r)?, bytes: r.u64()? })
            }
            RESP_ANSWER => Response::Answer(Box::new(SubtreeAnswer::decode(r)?)),
            RESP_ERR => Response::Err(String::decode(r)?),
            RESP_MALFORMED => Response::Malformed(String::decode(r)?),
            RESP_FAULT => Response::Fault(RpcError::decode(r)?),
            other => return Err(Error::Data(format!("wire: invalid response tag {other}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::{analyzed, sample_meta};
    use super::*;
    use pd_common::wire;
    use pd_common::{DataType, Schema, Value};

    #[test]
    fn requests_round_trip() {
        let delta = TableDelta::from_columns(
            Schema::of(&[("k", DataType::Str), ("n", DataType::Int)]),
            &[
                &[Value::from("a"), Value::from("b"), Value::from("a")],
                &[Value::Int(1), Value::Int(2), Value::Int(3)],
            ],
        )
        .unwrap();
        let requests = vec![
            Request::Ping,
            Request::Load(Box::new(LoadRequest {
                shard: 3,
                delta: delta.clone(),
                build: BuildOptions::production(&["k"]),
                spec: NodeSpec { name: "l3p".into(), threads: 2 },
            })),
            Request::Attach(AttachRequest {
                children: vec![
                    ChildSpec::Leaf {
                        shard: 0,
                        primary: Addr::Unix("/tmp/a.sock".into()),
                        replica: Some(Addr::Tcp("127.0.0.1:9001".into())),
                        meta: sample_meta(),
                    },
                    ChildSpec::Node {
                        addr: Addr::Tcp("127.0.0.1:9000".into()),
                        metas: vec![sample_meta(), sample_meta()],
                    },
                ],
                name: "m1_0".into(),
            }),
            Request::Query(Box::new(QueryRequest {
                query: analyzed("SELECT COUNT(*) FROM t WHERE k IN ('a','b')"),
                budget: Duration::from_millis(250),
                hedge_micros: 1500,
            })),
            Request::Append(Box::new(AppendRequest { deltas: vec![(2, delta.clone())] })),
            Request::Append(Box::new(AppendRequest {
                deltas: vec![(0, delta.clone()), (3, delta)],
            })),
            Request::Append(Box::new(AppendRequest { deltas: Vec::new() })),
            Request::Shutdown,
        ];
        for request in requests {
            let bytes = wire::to_bytes(&request);
            // A payload encoded from a reference is, byte for byte, the
            // request that would carry it.
            match &request {
                Request::Query(query) => assert_eq!(wire::to_bytes(&**query), bytes),
                Request::Append(append) => assert_eq!(wire::to_bytes(&**append), bytes),
                _ => {}
            }
            let back: Request = wire::from_bytes(&bytes).unwrap();
            assert_eq!(back, request);
        }
        // Tag 4 carried the `Delay` knob until frame version 7, tag 7 a
        // merge server's copy of an append until version 11.
        for tag in [4u8, 7] {
            let retired = wire::from_bytes::<Request>(&[tag, 9, 0, 0, 0, 0, 0, 0, 0]).unwrap_err();
            assert!(retired.to_string().contains(&format!("invalid request tag {tag}")));
        }
    }

    #[test]
    fn responses_round_trip() {
        let answer = SubtreeAnswer {
            partial: PartialResult::default(),
            stats: ScanStats {
                rows_total: 9,
                subtrees_pruned: 1,
                chunks_pruned_remote: 4,
                ..Default::default()
            },
            reports: vec![ShardReport {
                shard: 1,
                latency: Duration::from_micros(77),
                queue: Duration::from_micros(3),
                failover: true,
                hedged: true,
                cache_hit: false,
            }],
        };
        for response in [
            Response::Ok,
            Response::Loaded(Box::new(sample_meta())),
            Response::Appended(AppendAck {
                receipts: vec![
                    AppendReceipt { new_chunk_rows: vec![150, 150, 7] },
                    AppendReceipt { new_chunk_rows: vec![3] },
                ],
                bytes: 4_096,
            }),
            Response::Appended(AppendAck::default()),
            Response::Answer(Box::new(answer)),
            Response::Err("boom".into()),
            Response::Malformed("bad frame".into()),
            Response::Fault(RpcError::Deadline("budget spent in queue".into())),
        ] {
            let back: Response = wire::from_bytes(&wire::to_bytes(&response)).unwrap();
            assert_eq!(back, response);
        }
    }
}
