//! The edges of the §4 computation tree, and the RPC boundary behind one
//! kind of them.
//!
//! **Edges.** A node reaches a child through a [`Link`]: a direct
//! reference to a [`Node`] in the same address space, or a socket to a
//! worker process holding one. [`ChildHandle`] and [`fan_out`] — metadata
//! pre-skip, replica failover, report stamping, the fold — are written
//! once above the link and run unchanged over both kinds. The rest of this
//! module is what only the socket kind needs.
//!
//! **Transport.** Frames travel over a socket-shape-agnostic [`Stream`]:
//! `unix:<path>` sockets for the single-box process split, `tcp:<host:port>`
//! for multi-host trees (loopback TCP today, real hosts tomorrow — TCP
//! connections set `TCP_NODELAY`, because a query frame *is* the flush
//! boundary). [`Addr`] names an endpoint in either shape and crosses the
//! wire inside tree-wiring messages, so a merge server can parent children
//! on a different transport than its own.
//!
//! **Framing.** Every frame is `[FrameHeader][payload]` — the 6-byte
//! versioned header of [`pd_common::wire::FrameHeader`] (version, flags,
//! payload length, capped at [`MAX_FRAME_BYTES`]) followed by the
//! dependency-free [`pd_common::wire`] encoding, so a partial result
//! arriving at a merge server is bit-identical to the one the leaf
//! computed.
//!
//! **Compression.** Serialized partials are dominated by `FloatSum`
//! superaccumulator limbs, which are mostly zero — the Zippy-family codec
//! from `pd-compress` shrinks them several-fold. Compression is negotiated
//! per connection with header flags: a sender in compressed mode marks its
//! frames [`wire::FRAME_FLAG_COMPRESS_OK`] ("you may compress replies to
//! me") and compresses its own payloads (flag
//! [`wire::FRAME_FLAG_COMPRESSED`]) whenever that actually saves bytes;
//! the receiver decompresses flag-driven, so either side may stay raw.
//!
//! **Restriction-aware queries.** A query crosses the boundary as the
//! *decoded* [`pd_sql::AnalyzedQuery`] — restriction tree, group-by keys,
//! aggregates — not as SQL text. Leaves execute it directly (one parse at
//! the root, none per hop), and every parent evaluates the restriction
//! against its children's [`ShardMeta`] to **pre-skip subtrees whose
//! shards cannot match**: no frame is sent, the shard's rows are accounted
//! as skipped, and the prune is reported up in
//! [`ScanStats::subtrees_pruned`].
//!
//! **Deadline budgets.** Every query request carries one *remaining time
//! budget* for the whole query, not a per-hop deadline: each worker
//! subtracts the time the request spent in its queue before fanning out,
//! and answers a typed [`RpcError::Deadline`] fault the moment the budget
//! is spent instead of letting children run a query nobody is waiting
//! for. The *caller* enforces the same budget with absolute socket read
//! deadlines, so a stalled or trickling peer expires on time either way.
//!
//! **Hedged replica racing.** A leaf pair is queried by racing: the
//! primary is asked first, and if it has not answered within the hedge
//! delay (derived by the driver from observed queue delays), the replica
//! is launched *in parallel* — first answer wins, the loser's socket is
//! shut down via [`CancelToken`]. A straggling primary therefore costs
//! one hedge delay, not its whole budget, and every hedge doubles as
//! replica cache warming. Failures are typed ([`RpcError`]): transport
//! faults (`Deadline`, `PeerGone`, `Decode`, `ConnRefused`) let the other
//! copy win, while application errors from a live worker propagate —
//! deterministic, so a replica would only repeat them. Refused connects
//! are retried with bounded exponential backoff and seeded jitter.
//!
//! **Corruption.** Both sides decode frames with [`pd_common::wire`]'s
//! checked readers; compressed payloads additionally pass the codec's own
//! validation. Truncated or corrupt frames produce a typed
//! `RpcError::Decode`, which the racing path treats exactly like a
//! timeout — fresh bytes are encoded for the other replica.

use crate::chaos::ChaosDirective;
use crate::meta::{self, ShardMeta};
use crate::node::Node;
use pd_common::rng::Rng;
use pd_common::wire::{self, Decode, Encode, FrameHeader, Reader};
use pd_common::{fx_hash64, Error, Result, Row, RpcError, Schema};
use pd_compress::{Codec, CodecKind};
use pd_core::{scheduler, BuildOptions, PartialResult, ScanStats};
use pd_encoding::TableDelta;
use pd_sql::AnalyzedQuery;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Upper bound on a single frame's payload (decompressed or raw). A
/// shard's partial result for an interactive group-by is kilobytes; a
/// shard *load* (rows + recipe) is megabytes. A length beyond this is
/// corruption, not data.
pub const MAX_FRAME_BYTES: u32 = 1 << 30;

/// Payloads below this never compress (the header byte and codec framing
/// would eat the gain).
const MIN_COMPRESS_BYTES: usize = 64;

/// How long a parent waits for a freshly spawned worker to bind its
/// socket and answer the first `Ping`.
pub const STARTUP_TIMEOUT: Duration = Duration::from_secs(30);

/// Timeout for shard loading (table shipping + import on the worker).
pub const LOAD_TIMEOUT: Duration = Duration::from_secs(120);

/// The wire codec used for compressed frames (the paper's "Zippy").
fn frame_codec() -> &'static dyn Codec {
    CodecKind::Zippy.codec()
}

// --- addresses --------------------------------------------------------------

/// A tree-node endpoint in either socket shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Addr {
    /// A filesystem socket: `unix:/tmp/pd-tree-1/l0p.sock`.
    Unix(PathBuf),
    /// A TCP endpoint: `tcp:127.0.0.1:41233`.
    Tcp(String),
}

impl Addr {
    /// Parse the textual form (`unix:<path>` / `tcp:<host:port>`); a bare
    /// path is shorthand for a Unix socket.
    pub fn parse(s: &str) -> Result<Addr> {
        if let Some(path) = s.strip_prefix("unix:") {
            Ok(Addr::Unix(PathBuf::from(path)))
        } else if let Some(hostport) = s.strip_prefix("tcp:") {
            if !hostport.contains(':') {
                return Err(Error::Data(format!("rpc: tcp address `{hostport}` needs host:port")));
            }
            Ok(Addr::Tcp(hostport.to_owned()))
        } else if s.contains('/') {
            Ok(Addr::Unix(PathBuf::from(s)))
        } else {
            Err(Error::Data(format!(
                "rpc: cannot parse address `{s}` (unix:<path> | tcp:<host:port>)"
            )))
        }
    }

    /// Connect a [`Stream`] to this endpoint.
    pub fn connect(&self) -> std::io::Result<Stream> {
        match self {
            Addr::Unix(path) => Ok(Stream::Unix(UnixStream::connect(path)?)),
            Addr::Tcp(hostport) => {
                let stream = TcpStream::connect(hostport.as_str())?;
                // A frame is the flush boundary; Nagle would add RTTs.
                stream.set_nodelay(true)?;
                Ok(Stream::Tcp(stream))
            }
        }
    }
}

impl std::fmt::Display for Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Addr::Unix(path) => write!(f, "unix:{}", path.display()),
            Addr::Tcp(hostport) => write!(f, "tcp:{hostport}"),
        }
    }
}

impl Encode for Addr {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Addr::Unix(path) => {
                out.push(0);
                // Addrs only originate from `Addr::parse` (UTF-8 by
                // construction) and `ProcessTree`'s temp-dir + ASCII-name
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

/// One connected peer, in either socket shape. Both shapes expose the same
/// byte-stream and per-syscall-timeout surface, which is all the framing
/// layer needs — the deadline logic above it is shape-agnostic.
pub enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_read_timeout(timeout),
            Stream::Tcp(s) => s.set_read_timeout(timeout),
        }
    }

    pub fn set_write_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_write_timeout(timeout),
            Stream::Tcp(s) => s.set_write_timeout(timeout),
        }
    }

    /// A second handle onto the same connection (shared file descriptor) —
    /// what a [`CancelToken`] holds so a hedge loser can be shut down from
    /// outside the thread blocked on it.
    pub fn try_clone(&self) -> std::io::Result<Stream> {
        match self {
            Stream::Unix(s) => Ok(Stream::Unix(s.try_clone()?)),
            Stream::Tcp(s) => Ok(Stream::Tcp(s.try_clone()?)),
        }
    }

    /// Shut both directions down: any thread blocked reading this
    /// connection wakes immediately with an error.
    pub fn shutdown(&self) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// A bound accept socket in either shape.
pub enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    /// Bind `addr`. A TCP port of `0` binds an ephemeral port — read the
    /// real one back with [`Listener::local_addr`] (workers announce it to
    /// their spawner).
    pub fn bind(addr: &Addr) -> Result<Listener> {
        match addr {
            Addr::Unix(path) => Ok(Listener::Unix(
                UnixListener::bind(path)
                    .map_err(|e| Error::Data(format!("bind {}: {e}", path.display())))?,
            )),
            Addr::Tcp(hostport) => Ok(Listener::Tcp(
                TcpListener::bind(hostport.as_str())
                    .map_err(|e| Error::Data(format!("bind tcp:{hostport}: {e}")))?,
            )),
        }
    }

    /// The resolved address (TCP: with the real port).
    pub fn local_addr(&self) -> Result<Addr> {
        match self {
            Listener::Unix(l) => {
                let addr = l.local_addr().map_err(|e| Error::Data(format!("local_addr: {e}")))?;
                let path = addr
                    .as_pathname()
                    .ok_or_else(|| Error::Data("rpc: unnamed unix listener".into()))?;
                Ok(Addr::Unix(path.to_path_buf()))
            }
            Listener::Tcp(l) => {
                let addr = l.local_addr().map_err(|e| Error::Data(format!("local_addr: {e}")))?;
                Ok(Addr::Tcp(addr.to_string()))
            }
        }
    }

    pub fn accept(&self) -> std::io::Result<Stream> {
        match self {
            Listener::Unix(l) => Ok(Stream::Unix(l.accept()?.0)),
            Listener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                stream.set_nodelay(true)?;
                Ok(Stream::Tcp(stream))
            }
        }
    }
}

// --- messages --------------------------------------------------------------

/// Driver/parent → worker messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness / startup handshake. Answered inline, never queued.
    Ping,
    /// Become a leaf: import the shipped rows into a [`pd_core::DataStore`].
    /// Acknowledged with [`Response::Loaded`] — the shard's metadata
    /// summary, which parents use to pre-skip.
    Load(Box<LoadRequest>),
    /// Become a merge server owning a subtree.
    Attach(AttachRequest),
    /// Apply a streaming delta in place (leaf only): extend the shard's
    /// dictionaries (existing ids stay stable), encode the delta rows as
    /// fresh chunks, refresh the shard metadata for those chunks, and
    /// adopt the new epoch — no respawn, no table reshipping. Acknowledged
    /// with [`Response::Loaded`] carrying the refreshed [`ShardMeta`].
    Append(Box<AppendRequest>),
    /// Execute / fan out one query.
    Query(Box<QueryRequest>),
    /// Test knob: delay every subsequent query answer by this much (how
    /// the deadline-expiry failover suite makes a worker miss deadlines).
    Delay { micros: u64 },
    /// Exit the worker process (acknowledged first).
    Shutdown,
}

/// Everything a worker needs to become shard `shard`'s server.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadRequest {
    pub shard: u64,
    pub schema: Schema,
    pub rows: Vec<Row>,
    pub build: BuildOptions,
    /// Worker thread count for chunk scans (0 = auto).
    pub threads: u64,
    /// This shard's share of the uncompressed-cache byte budget.
    pub cache_budget: u64,
    /// Capacity (signatures) of the leaf's own result cache; 0 disables.
    pub cache_entries: u64,
    /// Rebuild epoch of the shipped data. Queries carrying a different
    /// epoch drop the worker's result cache before executing.
    pub epoch: u64,
    /// This node's tree-wide name (`l0p`, `l0r`, ...) — the key chaos
    /// directives target, and the label failures report.
    pub name: String,
}

/// A streaming append for one leaf shard: the self-contained delta batch
/// plus the rebuild epoch it establishes. The delta carries its own
/// per-column sorted dictionaries ([`pd_encoding::TableDelta`]), so the
/// sender needs no knowledge of the shard's resident dictionaries;
/// decoding re-validates every invariant, so a decoded request is safe to
/// apply.
#[derive(Debug, Clone, PartialEq)]
pub struct AppendRequest {
    pub shard: u64,
    pub delta: TableDelta,
    /// The epoch this append establishes; the worker adopts it and drops
    /// result caches under the usual epoch rule.
    pub epoch: u64,
}

/// The subtree a merge server owns.
#[derive(Debug, Clone, PartialEq)]
pub struct AttachRequest {
    pub children: Vec<ChildSpec>,
    /// Whether this merge server compresses the frames *it* sends to its
    /// children (and advertises compressed replies) — the per-connection
    /// negotiation travels down the tree with the wiring.
    pub compress: bool,
    /// Capacity (signatures) of this merge server's own cache of folded
    /// subtree partials; 0 disables.
    pub cache_entries: u64,
    /// Rebuild epoch of the subtree's data (same contract as
    /// [`LoadRequest::epoch`]).
    pub epoch: u64,
    /// This merge server's tree-wide name (`m1_0`, ...), same contract as
    /// [`LoadRequest::name`].
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
    /// `height` = levels of tree below this node (≥ 1), used to scale the
    /// caller's timeout; `metas` = every shard in the subtree.
    Node {
        addr: Addr,
        height: u64,
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
    /// Shards whose primaries the [`crate::FailureModel`] killed for this
    /// query: their parents skip the primary and go straight to the
    /// replica, the same path a deadline expiry takes.
    pub killed: Vec<u64>,
    /// The driver's current rebuild epoch. A node holding a cache from an
    /// older epoch drops it before answering — the distributed form of
    /// the root cache's rebuild invalidation.
    pub epoch: u64,
    /// Chaos directives for this query, drawn once at the root from the
    /// seeded [`crate::ChaosModel`] and forwarded whole down the tree;
    /// each worker applies only the faults naming its own node.
    pub chaos: Vec<ChaosDirective>,
    /// Whether parents may use the chunk-granular metadata layers
    /// ([`crate::meta::chunk_verdicts`]) to prune edges and leaves may
    /// seed their scans with the same verdicts. Off, pruning falls back
    /// to the shard-granular zone map + blooms only — results are
    /// identical either way; only the work moves.
    pub chunk_pruning: bool,
}

/// Per-shard observation, reported up the tree: how long the subquery took
/// as measured by the shard's *parent* (wall clock, including transport
/// and queueing), the time the request spent queued in worker processes,
/// whether the shard's answer came from the replica (`failover`), whether
/// the replica was raced because the primary outlasted the hedge delay
/// (`hedged`), and whether the shard's contribution was served from a
/// worker's result cache (its own, or a merge server's above it) without
/// reaching the shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardReport {
    pub shard: u64,
    pub latency: Duration,
    pub queue: Duration,
    pub failover: bool,
    pub hedged: bool,
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
    /// Ack for `Ping` / `Attach` / `Delay` / `Shutdown`.
    Ok,
    /// Ack for `Load`: the built shard's metadata summary (row/chunk
    /// totals, per-column value sets and extremes).
    Loaded(Box<ShardMeta>),
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

// --- message codecs --------------------------------------------------------

const REQ_PING: u8 = 0;
const REQ_LOAD: u8 = 1;
const REQ_ATTACH: u8 = 2;
const REQ_QUERY: u8 = 3;
const REQ_DELAY: u8 = 4;
const REQ_SHUTDOWN: u8 = 5;
const REQ_APPEND: u8 = 6;

impl Encode for Request {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Request::Ping => out.push(REQ_PING),
            Request::Load(load) => {
                out.push(REQ_LOAD);
                load.shard.encode(out);
                load.schema.encode(out);
                load.rows.encode(out);
                load.build.encode(out);
                load.threads.encode(out);
                load.cache_budget.encode(out);
                load.cache_entries.encode(out);
                load.epoch.encode(out);
                load.name.encode(out);
            }
            Request::Attach(attach) => {
                out.push(REQ_ATTACH);
                attach.children.encode(out);
                attach.compress.encode(out);
                attach.cache_entries.encode(out);
                attach.epoch.encode(out);
                attach.name.encode(out);
            }
            Request::Query(query) => {
                out.push(REQ_QUERY);
                query.query.encode(out);
                query.budget.encode(out);
                query.hedge_micros.encode(out);
                query.killed.encode(out);
                query.epoch.encode(out);
                query.chaos.encode(out);
                query.chunk_pruning.encode(out);
            }
            Request::Append(append) => {
                out.push(REQ_APPEND);
                append.shard.encode(out);
                append.delta.encode(out);
                append.epoch.encode(out);
            }
            Request::Delay { micros } => {
                out.push(REQ_DELAY);
                micros.encode(out);
            }
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
                schema: Schema::decode(r)?,
                rows: Vec::<Row>::decode(r)?,
                build: BuildOptions::decode(r)?,
                threads: r.u64()?,
                cache_budget: r.u64()?,
                cache_entries: r.u64()?,
                epoch: r.u64()?,
                name: String::decode(r)?,
            })),
            REQ_ATTACH => Request::Attach(AttachRequest {
                children: Vec::decode(r)?,
                compress: bool::decode(r)?,
                cache_entries: r.u64()?,
                epoch: r.u64()?,
                name: String::decode(r)?,
            }),
            REQ_QUERY => Request::Query(Box::new(QueryRequest {
                query: AnalyzedQuery::decode(r)?,
                budget: Duration::decode(r)?,
                hedge_micros: r.u64()?,
                killed: Vec::decode(r)?,
                epoch: r.u64()?,
                chaos: Vec::decode(r)?,
                chunk_pruning: bool::decode(r)?,
            })),
            REQ_APPEND => Request::Append(Box::new(AppendRequest {
                shard: r.u64()?,
                delta: TableDelta::decode(r)?,
                epoch: r.u64()?,
            })),
            REQ_DELAY => Request::Delay { micros: r.u64()? },
            REQ_SHUTDOWN => Request::Shutdown,
            other => return Err(Error::Data(format!("wire: invalid request tag {other}"))),
        })
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
            ChildSpec::Node { addr, height, metas } => {
                out.push(1);
                addr.encode(out);
                height.encode(out);
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
            1 => {
                ChildSpec::Node { addr: Addr::decode(r)?, height: r.u64()?, metas: Vec::decode(r)? }
            }
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
        self.cache_hit.encode(out);
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
            cache_hit: bool::decode(r)?,
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

impl Encode for Response {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Response::Ok => out.push(RESP_OK),
            Response::Loaded(meta) => {
                out.push(RESP_LOADED);
                meta.encode(out);
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
            RESP_ANSWER => Response::Answer(Box::new(SubtreeAnswer::decode(r)?)),
            RESP_ERR => Response::Err(String::decode(r)?),
            RESP_MALFORMED => Response::Malformed(String::decode(r)?),
            RESP_FAULT => Response::Fault(RpcError::decode(r)?),
            other => return Err(Error::Data(format!("wire: invalid response tag {other}"))),
        })
    }
}

// --- framing ---------------------------------------------------------------

/// Encode one frame into bytes: header + (possibly compressed) payload.
/// `compress` is the sender's negotiated mode — it both advertises
/// compressed replies (`FRAME_FLAG_COMPRESS_OK`) and compresses this
/// payload when that saves bytes.
pub fn encode_frame<T: Encode>(message: &T, compress: bool) -> Result<Vec<u8>> {
    let payload = wire::to_bytes(message);
    // The cap applies to the *decompressed* payload (the receiver enforces
    // the same bound after inflation), so an oversized message fails fast
    // here instead of after shipping a compressed frame the peer must NAK.
    if payload.len() > MAX_FRAME_BYTES as usize {
        return Err(Error::Data(format!("rpc: frame of {} bytes exceeds cap", payload.len())));
    }
    let mut flags = 0u8;
    let body = if compress {
        flags |= wire::FRAME_FLAG_COMPRESS_OK;
        if payload.len() >= MIN_COMPRESS_BYTES {
            let compressed = frame_codec().compress(&payload);
            if compressed.len() < payload.len() {
                flags |= wire::FRAME_FLAG_COMPRESSED;
                compressed
            } else {
                payload
            }
        } else {
            payload
        }
    } else {
        payload
    };
    let len = u32::try_from(body.len())
        .map_err(|_| Error::Internal("rpc: frame body exceeds the checked payload size".into()))?;
    let mut out = Vec::with_capacity(FrameHeader::BYTES + body.len());
    out.extend_from_slice(&FrameHeader { flags, len }.to_bytes());
    out.extend_from_slice(&body);
    Ok(out)
}

/// Decode a frame body (bytes after the header) according to its flags.
fn decode_body<T: Decode>(flags: u8, body: &[u8]) -> Result<T> {
    if flags & wire::FRAME_FLAG_COMPRESSED != 0 {
        // The Zippy frame leads with `varint(uncompressed_len)` and its
        // decoder never produces (much) more than that claim, so
        // validating the claim *before* inflation bounds the allocation a
        // hostile or corrupt frame can drive — the corruption contract is
        // `Err`, never an OOM abort.
        let mut pos = 0;
        let claimed = pd_compress::varint::read_u64(body, &mut pos)
            .map_err(|e| Error::Data(format!("rpc: corrupt compressed frame: {e}")))?;
        if claimed > MAX_FRAME_BYTES as u64 {
            return Err(Error::Data(format!(
                "rpc: compressed frame claims {claimed} bytes (cap {MAX_FRAME_BYTES})"
            )));
        }
        let payload = frame_codec()
            .decompress(body)
            .map_err(|e| Error::Data(format!("rpc: corrupt compressed frame: {e}")))?;
        if payload.len() > MAX_FRAME_BYTES as usize {
            return Err(Error::Data(format!(
                "rpc: compressed frame inflates to {} bytes (cap {MAX_FRAME_BYTES})",
                payload.len()
            )));
        }
        wire::from_bytes(&payload)
    } else {
        wire::from_bytes(body)
    }
}

/// Write one frame.
pub fn write_frame<T: Encode>(stream: &mut impl Write, message: &T, compress: bool) -> Result<()> {
    let frame = encode_frame(message, compress)?;
    stream.write_all(&frame)?;
    stream.flush()?;
    Ok(())
}

/// Read one frame plus its negotiation: `Ok(None)` on clean EOF (peer
/// closed between frames); otherwise the message and whether the sender
/// advertised that compressed replies are welcome.
pub fn read_frame_negotiated<T: Decode>(stream: &mut impl Read) -> Result<Option<(T, bool)>> {
    let mut header_bytes = [0u8; FrameHeader::BYTES];
    match stream.read_exact(&mut header_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    let header = FrameHeader::parse(header_bytes)?;
    if header.len > MAX_FRAME_BYTES {
        return Err(Error::Data(format!("rpc: corrupt frame length {}", header.len)));
    }
    let mut body = vec![0u8; header.len as usize];
    stream.read_exact(&mut body)?;
    let accepts_compressed = header.flags & wire::FRAME_FLAG_COMPRESS_OK != 0;
    decode_body(header.flags, &body).map(|message| Some((message, accepts_compressed)))
}

/// Read one frame, ignoring the negotiation bit.
pub fn read_frame<T: Decode>(stream: &mut impl Read) -> Result<Option<T>> {
    Ok(read_frame_negotiated(stream)?.map(|(message, _)| message))
}

/// Classify an I/O failure into the [`RpcError`] taxonomy so retry and
/// hedge policy can dispatch on the variant.
fn io_fault(context: &str, e: &std::io::Error) -> RpcError {
    use std::io::ErrorKind;
    match e.kind() {
        // `NotFound` is a unix socket whose path is not (yet) bound — the
        // filesystem spelling of a refused connect.
        ErrorKind::ConnectionRefused | ErrorKind::NotFound => {
            RpcError::ConnRefused(format!("{context}: {e}"))
        }
        ErrorKind::WouldBlock | ErrorKind::TimedOut => {
            RpcError::Deadline(format!("{context}: {e}"))
        }
        _ => RpcError::PeerGone(format!("{context}: {e}")),
    }
}

/// The time left until `deadline`, or a typed deadline-expired error.
fn budget_left(deadline: Instant) -> Result<Duration> {
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Err(Error::Rpc(RpcError::Deadline("rpc: call budget expired".into())));
    }
    Ok(left)
}

/// `read_exact` against an *absolute* deadline. Socket read timeouts are
/// per-syscall, so a peer trickling one byte per interval would reset a
/// plain `read_exact`'s clock forever; here the remaining budget shrinks
/// across syscalls and expiry is checked between them.
fn read_exact_deadline(stream: &mut Stream, buf: &mut [u8], deadline: Instant) -> Result<()> {
    let mut filled = 0;
    while filled < buf.len() {
        stream.set_read_timeout(Some(budget_left(deadline)?))?;
        let rest = buf
            .get_mut(filled..)
            .ok_or_else(|| Error::Internal("rpc: read cursor out of bounds".into()))?;
        match stream.read(rest) {
            Ok(0) => {
                return Err(Error::Rpc(RpcError::PeerGone(
                    "rpc: peer closed the connection mid-frame".into(),
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(Error::Rpc(io_fault("rpc read", &e))),
        }
    }
    Ok(())
}

/// Read one response frame, enforcing `deadline` absolutely across the
/// header read, the payload read and every syscall in between. Decode
/// failures (version mismatch aside, which is already typed) surface as
/// typed [`RpcError::Decode`] — torn bytes on the wire, not app errors.
fn read_frame_deadline<T: Decode>(stream: &mut Stream, deadline: Instant) -> Result<T> {
    let typed_decode = |e: Error| match e {
        Error::Rpc(f) => Error::Rpc(f),
        other => Error::Rpc(RpcError::Decode(other.to_string())),
    };
    let mut header_bytes = [0u8; FrameHeader::BYTES];
    read_exact_deadline(stream, &mut header_bytes, deadline)?;
    let header = FrameHeader::parse(header_bytes).map_err(typed_decode)?;
    if header.len > MAX_FRAME_BYTES {
        return Err(Error::Rpc(RpcError::Decode(format!(
            "rpc: corrupt frame length {}",
            header.len
        ))));
    }
    let mut body = vec![0u8; header.len as usize];
    read_exact_deadline(stream, &mut body, deadline)?;
    decode_body(header.flags, &body).map_err(typed_decode)
}

// --- client ----------------------------------------------------------------

/// Exponential backoff with seeded full jitter: sleep somewhere in
/// `[backoff/2, backoff]`, never past `left`, then double toward the cap.
/// Shared by connect retries and announce-file polling — the fix for the
/// old fixed-2ms busy loops.
pub(crate) fn backoff_sleep(backoff: &mut Duration, cap: Duration, left: Duration, rng: &mut Rng) {
    let micros = backoff.as_micros() as u64;
    let jittered = Duration::from_micros(rng.range_u64(micros / 2, micros + 1));
    std::thread::sleep(jittered.min(left));
    *backoff = (*backoff * 2).min(cap);
}

/// Largest backoff step between connect / announce retries.
pub(crate) const BACKOFF_CAP: Duration = Duration::from_millis(50);

/// A handle that cancels one in-flight call from *outside* the thread
/// blocked on it: the hedge race hands the loser's token to the winner's
/// side, which shuts the loser's socket down so its thread unblocks
/// immediately instead of waiting out the budget.
#[derive(Clone)]
pub struct CancelToken {
    slot: Arc<pd_common::sync::Mutex<Option<Stream>>>,
}

impl CancelToken {
    /// Shut down the connection this token watches (no-op when the client
    /// is not connected — a cancelled connect simply never sends).
    pub fn cancel(&self) {
        if let Some(stream) = self.slot.lock().take() {
            let _ = stream.shutdown();
        }
    }
}

/// One parent→child connection, reconnecting on demand. Calls are strictly
/// request/response; a timed-out call poisons the connection (a late
/// answer would desynchronize framing), so the stream is dropped and the
/// next call reconnects.
pub struct RpcClient {
    addr: Addr,
    stream: Option<Stream>,
    /// Negotiated mode: compress outgoing payloads and advertise that
    /// compressed replies are welcome.
    compress: bool,
    /// A second handle on the live stream, shared with [`CancelToken`]s.
    cancel_slot: Arc<pd_common::sync::Mutex<Option<Stream>>>,
    /// Seeded jitter for connect backoff — keyed off the address so two
    /// clients hammering the same crashed worker desynchronize, while a
    /// given tree's retry schedule stays reproducible.
    jitter: Rng,
}

impl RpcClient {
    pub fn new(addr: Addr, compress: bool) -> RpcClient {
        let jitter = Rng::seed_from_u64(fx_hash64(&addr.to_string()));
        RpcClient {
            addr,
            stream: None,
            compress,
            cancel_slot: Arc::new(pd_common::sync::Mutex::new(None)),
            jitter,
        }
    }

    /// A token that can cancel this client's in-flight call from another
    /// thread. Valid across reconnects: the slot tracks the live stream.
    pub fn cancel_token(&self) -> CancelToken {
        CancelToken { slot: Arc::clone(&self.cancel_slot) }
    }

    fn adopt(&mut self, stream: Stream) {
        *self.cancel_slot.lock() = stream.try_clone().ok();
        self.stream = Some(stream);
    }

    fn drop_stream(&mut self) {
        self.stream = None;
        self.cancel_slot.lock().take();
    }

    /// Connect, retrying with jittered exponential backoff until `timeout`
    /// — workers need a moment between `spawn` and `bind`.
    pub fn connect_with_retry(&mut self, timeout: Duration) -> Result<()> {
        let deadline = Instant::now() + timeout;
        let mut backoff = Duration::from_millis(1);
        loop {
            match self.addr.connect() {
                Ok(stream) => {
                    self.adopt(stream);
                    return Ok(());
                }
                Err(e) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Err(Error::Rpc(io_fault(
                            &format!(
                                "rpc: worker at {} not reachable after {timeout:?}",
                                self.addr
                            ),
                            &e,
                        )));
                    }
                    backoff_sleep(&mut backoff, BACKOFF_CAP, left, &mut self.jitter);
                }
            }
        }
    }

    /// Send `request`, wait up to `timeout` for the response. Any failure
    /// (connect, send, deadline expiry, corrupt frame) drops the
    /// connection and surfaces as a typed `Err` — the caller's failover
    /// decision dispatches on the [`RpcError`] variant.
    pub fn call(&mut self, request: &Request, timeout: Duration) -> Result<Response> {
        let result = self.call_inner(request, timeout);
        if result.is_err() {
            self.drop_stream();
        }
        result
    }

    fn call_inner(&mut self, request: &Request, timeout: Duration) -> Result<Response> {
        // One absolute deadline covers the whole call: the write budget
        // and read budget are not additive, and the remaining budget
        // shrinks across every syscall (see `read_exact_deadline`), so a
        // stalled *or trickling* worker expires on time either way.
        let deadline = Instant::now() + timeout.max(Duration::from_millis(1));
        if self.stream.is_none() {
            self.connect_by(deadline)?;
        }
        let stream = self
            .stream
            .as_mut()
            .ok_or_else(|| Error::Internal("rpc: stream vanished after connect".into()))?;
        stream.set_write_timeout(Some(budget_left(deadline)?))?;
        write_frame(stream, request, self.compress)?;
        read_frame_deadline::<Response>(stream, deadline)
    }

    /// Connect within the call deadline. Only a refused connect is
    /// retried (the peer may be restarting), and only a *bounded* number
    /// of times — a crashed worker must fail over in milliseconds, not
    /// block its hedge race for the rest of the budget (connects cannot
    /// be interrupted by a [`CancelToken`]).
    fn connect_by(&mut self, deadline: Instant) -> Result<()> {
        const MAX_CONNECT_ATTEMPTS: u32 = 5;
        let mut backoff = Duration::from_millis(1);
        for attempt in 1.. {
            match self.addr.connect() {
                Ok(stream) => {
                    self.adopt(stream);
                    return Ok(());
                }
                Err(e) => {
                    let fault = io_fault(&format!("rpc: connect to {}", self.addr), &e);
                    let left = deadline.saturating_duration_since(Instant::now());
                    if !fault.retryable_connect()
                        || left.is_zero()
                        || attempt >= MAX_CONNECT_ATTEMPTS
                    {
                        return Err(Error::Rpc(fault));
                    }
                    backoff_sleep(&mut backoff, BACKOFF_CAP, left, &mut self.jitter);
                }
            }
        }
        unreachable!("the retry loop returns on success or at MAX_CONNECT_ATTEMPTS")
    }
}

// --- edges: how any node reaches a child ------------------------------------

/// One way to reach a child node. Everything above a link — pruning,
/// failover, report stamping, the fold — is the same code for both kinds.
pub enum Link {
    /// A worker process behind a socket. The mutex serializes one
    /// request/response pair per connection, so a `&self` fan-out can run
    /// one thread per child (concurrent queries to the *same* child
    /// serialize, which is exactly a per-connection queue).
    Socket(pd_common::sync::Mutex<RpcClient>),
    /// A node in this address space: no frame, no serialization, no queue.
    Local(Arc<Node>),
}

impl Link {
    fn socket(addr: Addr, compress: bool) -> Link {
        Link::Socket(pd_common::sync::Mutex::new(RpcClient::new(addr, compress)))
    }

    /// Ask the child behind this link, classifying the reply for the
    /// failover logic (see [`LeafOutcome`]).
    fn ask(&self, request: &QueryRequest, timeout: Duration) -> LeafOutcome {
        match self {
            Link::Socket(client) => {
                let message = Request::Query(Box::new(request.clone()));
                // pd-analysis: allow(lock-order) -- per-connection request/response serialization; the guard must span the call
                classify(client.lock().call(&message, timeout))
            }
            Link::Local(node) => match node.query(request, Duration::ZERO) {
                Ok(answer) => LeafOutcome::Answer(answer),
                Err(e @ Error::Rpc(_)) => LeafOutcome::Failed(e),
                Err(e) => LeafOutcome::Fatal(e),
            },
        }
    }
}

/// A child the current node queries: the shard summaries beneath the edge
/// plus the link(s) that reach it.
pub struct ChildHandle {
    /// `Some(shard)`: a leaf server (with its replica, the §4
    /// "answer-first-wins" pair) — failover and report stamping apply.
    /// `None`: a deeper merge node.
    shard: Option<u64>,
    /// Every shard summary beneath this edge. Empty means *unknown* (a
    /// local leaf keeps none): the edge is never pruned.
    metas: Vec<ShardMeta>,
    primary: Link,
    replica: Option<Link>,
}

impl ChildHandle {
    /// A child in a worker process (clients connect lazily).
    pub fn new(spec: ChildSpec, compress: bool) -> ChildHandle {
        match spec {
            ChildSpec::Leaf { shard, primary, replica, meta } => ChildHandle {
                shard: Some(shard),
                metas: vec![meta],
                primary: Link::socket(primary, compress),
                replica: replica.map(|addr| Link::socket(addr, compress)),
            },
            ChildSpec::Node { addr, metas, .. } => ChildHandle {
                shard: None,
                metas,
                primary: Link::socket(addr, compress),
                replica: None,
            },
        }
    }

    /// A child in this address space. `shard` marks a leaf; a `replicated`
    /// leaf's replica link is a second reference to the same node — one
    /// address space holds one copy of the bytes — so a killed primary
    /// fails over through the same code a socket pair uses.
    pub fn local(node: Arc<Node>, shard: Option<u64>, replicated: bool) -> ChildHandle {
        ChildHandle {
            shard,
            metas: Vec::new(),
            replica: (replicated && shard.is_some()).then(|| Link::Local(Arc::clone(&node))),
            primary: Link::Local(node),
        }
    }

    /// `(hits, misses)` of the result caches beneath this edge that live in
    /// this address space (`(0, 0)` behind a socket).
    pub fn cache_stats(&self) -> (u64, u64) {
        match &self.primary {
            Link::Local(node) => node.cache_stats(),
            Link::Socket(_) => (0, 0),
        }
    }

    /// The restriction pre-skip: when the shard metadata beneath this
    /// child proves no row can match, synthesize the empty answer locally
    /// — full skip accounting, one `subtrees_pruned` for the edge that
    /// never carried the query, a zero-latency report per shard — and
    /// spend no hop at all. A chunk-granular proof additionally annotates
    /// the chunks as [`ScanStats::chunks_pruned_remote`] (*where* the proof
    /// happened, outside the skip/cache/scan balance).
    fn pruned_answer(&self, count_chunks: bool) -> SubtreeAnswer {
        let mut answer = SubtreeAnswer::empty();
        answer.stats.subtrees_pruned = 1;
        for meta in &self.metas {
            answer.stats.rows_total += meta.rows;
            answer.stats.rows_skipped += meta.rows;
            answer.stats.chunks_total += meta.chunks as usize;
            answer.stats.chunks_skipped += meta.chunks as usize;
            if count_chunks {
                answer.stats.chunks_pruned_remote += meta.chunks as usize;
            }
            answer.reports.push(ShardReport {
                shard: meta.shard,
                latency: Duration::ZERO,
                queue: Duration::ZERO,
                failover: false,
                hedged: false,
                cache_hit: false,
            });
        }
        answer
    }

    /// Query this child, applying the §4 failover rule at leaves: a killed
    /// or unresponsive primary is replaced by its replica — over sockets
    /// raced in parallel after the hedge delay, first answer wins. Without
    /// a replica any transport failure is fatal for the query; an
    /// *application* error from a live node always is. The report's
    /// latency is *measured* — the parent's wall clock around the call,
    /// transport and hedging included.
    fn query(&self, request: &QueryRequest) -> Result<SubtreeAnswer> {
        // The prune precedes the kill/failover logic deliberately: an
        // answer that never needs the server treats a dead primary as a
        // non-event (no failover recorded). Killed shards without
        // replication are still rejected at the root before any fan-out
        // begins.
        let dead = !self.metas.is_empty()
            && self.metas.iter().all(|m| {
                if request.chunk_pruning {
                    // Full layered check: shard zone map → blooms → how
                    // many chunks survive. Zero live chunks prune the
                    // edge even when the shard envelope cannot.
                    !meta::may_match(&request.query.restriction, m)
                } else {
                    !meta::shard_may_match(&request.query.restriction, m)
                }
            });
        if dead {
            return Ok(self.pruned_answer(request.chunk_pruning));
        }
        let started = Instant::now();
        let budget = request.budget;
        let Some(shard) = self.shard else {
            // A merge node inherits the whole remaining budget — it
            // decrements and forwards it, so no height scaling is needed:
            // the budget *is* the end-to-end clock. A `Malformed` NAK from
            // a node with no replica to retry is as fatal as any fault.
            return match self.primary.ask(request, budget) {
                LeafOutcome::Answer(answer) => Ok(answer),
                LeafOutcome::Failed(e) | LeafOutcome::Fatal(e) => Err(e),
            };
        };
        let killed = request.killed.contains(&shard);
        let hedged = AtomicBool::new(false);
        let outcome = match (&self.primary, &self.replica) {
            // Only socket pairs race: there a straggler costs one hedge
            // delay instead of its whole budget. An in-memory replica is
            // the same node — nothing to race.
            (Link::Socket(primary), Some(Link::Socket(replica)))
                if !killed && request.hedge_micros > 0 =>
            {
                race(primary, replica, request, &hedged, shard)
            }
            // Otherwise one copy after the other, the replica living on
            // whatever budget remains. A killed primary is simply never
            // contacted.
            (primary, replica) => {
                let first = if killed {
                    let gone = RpcError::PeerGone("primary killed mid-query".into());
                    LeafOutcome::Failed(Error::Rpc(gone))
                } else {
                    primary.ask(request, budget)
                };
                match (first, replica) {
                    (LeafOutcome::Answer(answer), _) => Ok((answer, false)),
                    (LeafOutcome::Fatal(e), _) => Err(e),
                    (LeafOutcome::Failed(e), None) => Err(no_replica_fail(shard, e)),
                    (LeafOutcome::Failed(pe), Some(replica)) => {
                        match replica.ask(request, budget.saturating_sub(started.elapsed())) {
                            LeafOutcome::Answer(answer) => Ok((answer, true)),
                            LeafOutcome::Fatal(e) => Err(e),
                            LeafOutcome::Failed(re) => Err(both_failed(shard, pe, re)),
                        }
                    }
                }
            }
        };
        let (mut answer, failover) = outcome?;
        let elapsed = started.elapsed();
        let hedged = hedged.load(Ordering::Relaxed);
        for report in &mut answer.reports {
            report.latency = elapsed;
            // A cached partial needed no server, so whichever copy held it
            // records no failover — the same rule a merge node's cache hit
            // and a pruned edge already follow.
            report.failover = failover && !report.cache_hit;
            report.hedged = hedged;
        }
        Ok(answer)
    }
}

/// The hedged replica race. The primary is asked immediately; if it has
/// neither answered nor failed within the hedge delay, the replica is
/// launched *in parallel* and the first answer wins — the loser's socket
/// is shut down so its thread unblocks right away. A primary that fails
/// *fast* (refused connect, reset) skips the wait and fails over
/// immediately; one that fails *slow* loses the race it is already in.
/// Returns `(answer, answered_by_replica)`.
fn race(
    primary: &pd_common::sync::Mutex<RpcClient>,
    replica: &pd_common::sync::Mutex<RpcClient>,
    request: &QueryRequest,
    hedged: &AtomicBool,
    shard: u64,
) -> Result<(SubtreeAnswer, bool)> {
    let budget = request.budget;
    let hedge = Duration::from_micros(request.hedge_micros);
    let message = &Request::Query(Box::new(request.clone()));
    let primary_token = primary.lock().cancel_token();
    let replica_token = replica.lock().cancel_token();
    let (outcome_tx, outcome_rx) = mpsc::channel::<(bool, LeafOutcome)>();
    let (primary_done_tx, primary_done_rx) = mpsc::channel::<bool>();
    std::thread::scope(|scope| {
        let primary_tx = outcome_tx.clone();
        scope.spawn(move || {
            // pd-analysis: allow(lock-order) -- per-connection request/response serialization; the guard must span the call
            let outcome = classify(primary.lock().call(message, budget));
            let answered = matches!(outcome, LeafOutcome::Answer(_));
            let _ = primary_done_tx.send(answered);
            let _ = primary_tx.send((false, outcome));
        });
        let replica_tx = outcome_tx;
        scope.spawn(move || {
            match primary_done_rx.recv_timeout(hedge) {
                // The primary answered inside the hedge window — the
                // common, healthy case: no replica call at all.
                Ok(true) => return,
                // The primary failed fast: immediate failover, not a
                // hedge (the race was never close).
                Ok(false) | Err(mpsc::RecvTimeoutError::Disconnected) => {}
                // Hedge fires: the primary is still out there.
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    hedged.store(true, Ordering::Relaxed);
                }
            }
            // pd-analysis: allow(lock-order) -- per-connection request/response serialization; the guard must span the call
            let outcome = classify(replica.lock().call(message, budget));
            let _ = replica_tx.send((true, outcome));
        });
        let mut failures: Vec<(bool, Error)> = Vec::new();
        while let Ok((is_replica, outcome)) = outcome_rx.recv() {
            match outcome {
                LeafOutcome::Answer(answer) => {
                    // First answer wins; unblock the loser now.
                    if is_replica {
                        primary_token.cancel();
                    } else {
                        replica_token.cancel();
                    }
                    return Ok((answer, is_replica));
                }
                LeafOutcome::Fatal(e) => {
                    primary_token.cancel();
                    replica_token.cancel();
                    return Err(e);
                }
                LeafOutcome::Failed(e) => failures.push((is_replica, e)),
            }
        }
        // Both copies sent a Failed (the channel closed with no
        // Answer): combine, preferring the primary's typed variant.
        let primary_err = failures
            .iter()
            .position(|(is_replica, _)| !is_replica)
            .map(|i| failures.remove(i).1)
            .unwrap_or_else(|| Error::Rpc(RpcError::PeerGone("primary never ran".into())));
        let replica_err = failures
            .pop()
            .map(|(_, e)| e)
            .unwrap_or_else(|| Error::Rpc(RpcError::PeerGone("replica never ran".into())));
        Err(both_failed(shard, primary_err, replica_err))
    })
}

/// How a child's reply steers failover: an answer wins; a *transport*
/// failure lets the other copy win; a deterministic application error
/// aborts — the replica would only repeat it.
enum LeafOutcome {
    Answer(SubtreeAnswer),
    Failed(Error),
    Fatal(Error),
}

fn classify(result: Result<Response>) -> LeafOutcome {
    match result {
        Ok(Response::Answer(answer)) => LeafOutcome::Answer(*answer),
        Ok(Response::Err(message)) => LeafOutcome::Fatal(Error::Data(message)),
        Ok(Response::Malformed(message)) => LeafOutcome::Failed(Error::Rpc(RpcError::Decode(
            format!("peer rejected the request frame: {message}"),
        ))),
        Ok(Response::Fault(fault)) => LeafOutcome::Failed(Error::Rpc(fault)),
        Ok(Response::Ok | Response::Loaded(_)) => {
            LeafOutcome::Fatal(Error::Data("node acked a query without an answer".into()))
        }
        Err(e) => LeafOutcome::Failed(e),
    }
}

/// A shard with no replica lost its only copy: fatal, with the message
/// carrying the shard id and the replication note the driver and tests
/// key on, and the typed variant of the underlying fault preserved.
fn no_replica_fail(shard: u64, e: Error) -> Error {
    let message = format!("shard {shard}: primary failed ({e}) and replication is disabled");
    retag(e, message)
}

/// Both copies of a shard failed: fatal, preferring the primary's typed
/// variant (the replica usually just repeats the budget expiry).
fn both_failed(shard: u64, primary: Error, replica: Error) -> Error {
    let message = format!(
        "shard {shard}: primary and replica both failed (primary: {primary}; replica: {replica})"
    );
    retag(primary, message)
}

/// Rewrap `message` in `e`'s typed variant when it has one.
fn retag(e: Error, message: String) -> Error {
    match e {
        Error::Rpc(f) => match RpcError::from_tag(f.tag(), message.clone()) {
            Some(fault) => Error::Rpc(fault),
            // A tag this taxonomy doesn't know cannot round-trip; degrade to
            // untyped rather than panic on a future variant.
            None => Error::Data(message),
        },
        _ => Error::Data(message),
    }
}

/// Fan a query out to every child concurrently and fold the answers in
/// fixed child order — every level uses this same associative merge, so
/// the tree shape cannot change the result. In-memory children run as
/// tasks on the shared [`pd_core::scheduler`] pool — the pool their chunk
/// scans nest on, where a waiting fan-out helps drain the queue — because
/// a per-query thread spawn would cost more than a warm hop does; socket
/// children block on I/O, so each gets a scoped thread.
pub fn fan_out(children: &[ChildHandle], request: &QueryRequest) -> Result<SubtreeAnswer> {
    let answers: Vec<Result<SubtreeAnswer>> = match children.first().map(|c| &c.primary) {
        Some(Link::Local(node)) => {
            // Offered, not announced: a child may answer from its cache in
            // microseconds; a leaf scan that finds rows to scan wakes the
            // pool, and the woken worker takes the outermost offer.
            scheduler::offer_tasks(node.threads(), children.len(), |i| {
                Ok(children[i].query(request))
            })?
        }
        _ => std::thread::scope(|scope| {
            let handles: Vec<_> =
                children.iter().map(|child| scope.spawn(move || child.query(request))).collect();
            handles.into_iter().map(|h| h.join().expect("child query thread panicked")).collect()
        }),
    };
    let mut merged = SubtreeAnswer::empty();
    for answer in answers {
        let answer = answer?;
        merged.partial.merge(answer.partial)?;
        merged.stats += &answer.stats;
        merged.reports.extend(answer.reports);
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_common::{DataType, Value};
    use pd_sql::{analyze, parse_query};

    fn analyzed(sql: &str) -> AnalyzedQuery {
        analyze(&parse_query(sql).unwrap()).unwrap()
    }

    fn sample_meta() -> ShardMeta {
        let schema = Schema::of(&[("k", DataType::Str)]);
        let rows = vec![Row(vec![Value::from("x")]), Row(vec![Value::from("y")])];
        let mut meta = ShardMeta::summarize(3, &schema, &rows);
        meta.chunks = 1;
        meta
    }

    #[test]
    fn requests_round_trip() {
        let requests = vec![
            Request::Ping,
            Request::Load(Box::new(LoadRequest {
                shard: 3,
                schema: Schema::of(&[("k", DataType::Str)]),
                rows: vec![Row(vec![pd_common::Value::from("x")])],
                build: BuildOptions::production(&["k"]),
                threads: 2,
                cache_budget: 1 << 20,
                cache_entries: 64,
                epoch: 3,
                name: "l3p".into(),
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
                        height: 2,
                        metas: vec![sample_meta(), sample_meta()],
                    },
                ],
                compress: true,
                cache_entries: 32,
                epoch: 7,
                name: "m1_0".into(),
            }),
            Request::Query(Box::new(QueryRequest {
                query: analyzed("SELECT COUNT(*) FROM t WHERE k IN ('a','b')"),
                budget: Duration::from_millis(250),
                hedge_micros: 1500,
                killed: vec![1, 3],
                epoch: 7,
                chaos: vec![
                    crate::chaos::ChaosDirective {
                        node: "l1p".into(),
                        fault: crate::chaos::ChaosFault::Reset,
                    },
                    crate::chaos::ChaosDirective {
                        node: "m1_0".into(),
                        fault: crate::chaos::ChaosFault::Delay(Duration::from_millis(3)),
                    },
                ],
                chunk_pruning: true,
            })),
            Request::Append(Box::new(AppendRequest {
                shard: 2,
                delta: TableDelta::from_columns(
                    Schema::of(&[("k", DataType::Str), ("n", DataType::Int)]),
                    &[
                        &[Value::from("a"), Value::from("b"), Value::from("a")],
                        &[Value::Int(1), Value::Int(2), Value::Int(3)],
                    ],
                )
                .unwrap(),
                epoch: 9,
            })),
            Request::Delay { micros: 5000 },
            Request::Shutdown,
        ];
        for request in requests {
            let back: Request = wire::from_bytes(&wire::to_bytes(&request)).unwrap();
            assert_eq!(back, request);
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
                cache_hit: true,
            }],
        };
        for response in [
            Response::Ok,
            Response::Loaded(Box::new(sample_meta())),
            Response::Answer(Box::new(answer)),
            Response::Err("boom".into()),
            Response::Malformed("bad frame".into()),
            Response::Fault(RpcError::Deadline("budget spent in queue".into())),
            Response::Fault(RpcError::Overloaded("shed".into())),
        ] {
            let back: Response = wire::from_bytes(&wire::to_bytes(&response)).unwrap();
            assert_eq!(back, response);
        }
    }

    #[test]
    fn addrs_parse_and_render() {
        let unix = Addr::parse("unix:/tmp/w.sock").unwrap();
        assert_eq!(unix, Addr::Unix("/tmp/w.sock".into()));
        assert_eq!(unix.to_string(), "unix:/tmp/w.sock");
        let tcp = Addr::parse("tcp:127.0.0.1:4000").unwrap();
        assert_eq!(tcp, Addr::Tcp("127.0.0.1:4000".into()));
        assert_eq!(Addr::parse(&tcp.to_string()).unwrap(), tcp);
        // Bare paths are unix shorthand; garbage is rejected.
        assert_eq!(Addr::parse("/tmp/w.sock").unwrap(), Addr::Unix("/tmp/w.sock".into()));
        assert!(Addr::parse("tcp:noport").is_err());
        assert!(Addr::parse("ipx:whatever").is_err());
    }

    #[test]
    fn frames_round_trip_over_a_socket_pair() {
        let (a, b) = UnixStream::pair().unwrap();
        let (mut a, mut b) = (Stream::Unix(a), Stream::Unix(b));
        write_frame(&mut a, &Request::Ping, false).unwrap();
        write_frame(&mut a, &Request::Delay { micros: 9 }, true).unwrap();
        assert_eq!(read_frame::<Request>(&mut b).unwrap(), Some(Request::Ping));
        let (delay, accepts) = read_frame_negotiated::<Request>(&mut b).unwrap().unwrap();
        assert_eq!(delay, Request::Delay { micros: 9 });
        assert!(accepts, "compress-mode senders advertise compressed replies");
        drop(a);
        assert_eq!(read_frame::<Request>(&mut b).unwrap(), None, "clean EOF");
    }

    #[test]
    fn frames_round_trip_over_tcp_loopback() {
        let listener = Listener::bind(&Addr::Tcp("127.0.0.1:0".into())).unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let mut stream = listener.accept().unwrap();
            let (request, accepts) =
                read_frame_negotiated::<Request>(&mut stream).unwrap().unwrap();
            write_frame(&mut stream, &Response::Ok, accepts).unwrap();
            request
        });
        let mut stream = addr.connect().unwrap();
        write_frame(&mut stream, &Request::Ping, true).unwrap();
        assert_eq!(read_frame::<Response>(&mut stream).unwrap(), Some(Response::Ok));
        assert_eq!(server.join().unwrap(), Request::Ping);
    }

    #[test]
    fn large_frames_compress_and_round_trip() {
        // A Load full of repetitive rows: compressible, and big enough to
        // clear the threshold.
        let schema = Schema::of(&[("k", DataType::Str)]);
        let rows: Vec<Row> = (0..500).map(|_| Row(vec![Value::from("constant")])).collect();
        let request = Request::Load(Box::new(LoadRequest {
            shard: 0,
            schema,
            rows,
            build: BuildOptions::basic(),
            threads: 1,
            cache_budget: 1 << 20,
            cache_entries: 0,
            epoch: 1,
            name: "l0p".into(),
        }));
        let raw = encode_frame(&request, false).unwrap();
        let compressed = encode_frame(&request, true).unwrap();
        assert!(
            compressed.len() * 2 < raw.len(),
            "repetitive load must shrink ≥2×: {} vs {}",
            compressed.len(),
            raw.len()
        );
        for frame in [raw, compressed] {
            let (back, _) =
                read_frame_negotiated::<Request>(&mut frame.as_slice()).unwrap().unwrap();
            assert_eq!(back, request);
        }
    }

    #[test]
    fn corrupt_frame_lengths_are_rejected() {
        let (a, b) = UnixStream::pair().unwrap();
        let (mut a, mut b) = (Stream::Unix(a), Stream::Unix(b));
        let mut bogus = FrameHeader { flags: 0, len: u32::MAX }.to_bytes().to_vec();
        bogus.extend_from_slice(&[0; 16]);
        a.write_all(&bogus).unwrap();
        assert!(read_frame::<Request>(&mut b).is_err());
    }

    #[test]
    fn pruned_children_answer_without_a_socket() {
        // The child spec points at an address nothing listens on: only the
        // metadata pre-skip can answer, proving no connection is made.
        let meta = sample_meta();
        let rows = meta.rows;
        let handle = ChildHandle::new(
            ChildSpec::Leaf {
                shard: 3,
                primary: Addr::Unix("/nonexistent/prune.sock".into()),
                replica: None,
                meta,
            },
            false,
        );
        let request = |sql: &str, chunk_pruning: bool| QueryRequest {
            query: analyzed(sql),
            budget: Duration::from_millis(50),
            hedge_micros: 0,
            killed: Vec::new(),
            epoch: 1,
            chaos: Vec::new(),
            chunk_pruning,
        };
        let absent = request("SELECT COUNT(*) FROM t WHERE k = 'absent'", false);
        let answer = fan_out(std::slice::from_ref(&handle), &absent).unwrap();
        assert_eq!(answer.stats.subtrees_pruned, 1);
        assert_eq!(answer.stats.rows_total, rows);
        assert_eq!(answer.stats.rows_skipped, rows);
        assert_eq!(answer.reports.len(), 1);
        assert_eq!(answer.reports[0].shard, 3);
        assert!(answer.partial.groups.is_empty());
        // A restriction that *may* match must reach for the socket — and
        // fail, because nothing listens there.
        let err = handle.query(&request("SELECT COUNT(*) FROM t WHERE k = 'x'", true)).unwrap_err();
        assert!(
            matches!(err, Error::Rpc(RpcError::ConnRefused(_))),
            "a dead-address leaf with no replica fails typed: {err}"
        );
        assert!(err.to_string().contains("shard 3"), "{err}");
        assert!(err.to_string().contains("replication is disabled"), "{err}");
    }
}
