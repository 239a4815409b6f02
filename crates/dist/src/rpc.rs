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
//! subtracts the time the request waited for its turn before fanning out,
//! and answers a typed [`RpcError::Deadline`] fault the moment the budget
//! is spent instead of letting children run a query nobody is waiting
//! for. The *caller* enforces the same budget with one absolute deadline
//! over every write and read of a fan-out, so a stalled or trickling peer
//! expires on time either way.
//!
//! **The hop.** A socket child is another process and already runs in
//! parallel with its siblings, so a parent needs no thread to wait for it:
//! [`fan_out`] encodes the query frame once, writes it to every live child
//! in child order, then reads the replies in the same order and folds —
//! all on the calling thread. An edge costs its bytes and two syscalls
//! each way, not a thread wake-up.
//!
//! **Hedged replica racing.** A leaf pair's primary is asked with its
//! siblings; its reply is then awaited for the hedge delay (derived by
//! the driver from observed queue delays). A healthy primary answers
//! inside it and the replica is never contacted. Only when the delay
//! expires is the replica asked *in parallel*, on the one thread a fan-out
//! may spawn — first answer wins, the loser's socket is shut down via
//! [`CancelToken`]. A straggling primary therefore costs one hedge delay,
//! not its whole budget, and every hedge doubles as replica cache
//! warming. Failures are typed ([`RpcError`]): transport faults
//! (`Deadline`, `PeerGone`, `Decode`, `ConnRefused`) let the other copy
//! win, while application errors from a live worker propagate —
//! deterministic, so a replica would only repeat them. Refused connects
//! are retried with bounded exponential backoff and seeded jitter.
//!
//! **Corruption.** Both sides decode frames with [`pd_common::wire`]'s
//! checked readers; compressed payloads additionally pass the codec's own
//! validation. Truncated or corrupt frames produce a typed
//! `RpcError::Decode`, which the failover path treats exactly like a
//! timeout — the other copy is asked.

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
use std::sync::{Arc, MutexGuard};
use std::time::{Duration, Instant};

/// Upper bound on a single frame's payload (decompressed or raw). A
/// shard's partial result for an interactive group-by is kilobytes; a
/// shard *load* (rows + recipe) is megabytes. A length beyond this is
/// corruption, not data.
pub const MAX_FRAME_BYTES: u32 = 1 << 30;

/// Payloads below this never compress: one TCP segment's payload (an
/// ethernet MTU less IP and TCP headers, with room for options). A frame
/// that fits one segment — or one `write` on a unix socket — travels no
/// faster for being smaller, so compressing it buys nothing on the wire
/// and costs both ends codec time on every edge (a 908 B partial: 6.6 µs
/// to compress, 1.2 µs to inflate). Compression pays when it saves
/// packets.
const MIN_COMPRESS_BYTES: usize = 1400;

/// How much the first `read` of a reply asks for: a typical partial and
/// its header arrive in one syscall.
const FIRST_READ_BYTES: usize = 4096;

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
    /// fresh chunks, absorb them into the leaf's own shard summary, and
    /// adopt the new epoch — no respawn, no table reshipping. Acknowledged
    /// with [`Response::Appended`]: a receipt, never the summary.
    Append(Box<AppendRequest>),
    /// Absorb appends the leaves beneath a merge server applied: bring its
    /// copies of their summaries up to date in place
    /// ([`ShardMeta::absorb_append`]), drop its result cache and adopt the
    /// epoch. Its child connections are not touched. Acknowledged with
    /// [`Response::Ok`].
    Absorb(Box<AbsorbRequest>),
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

/// What a leaf acks an [`AppendRequest`] with: the one fact about the
/// applied delta that a holder of the delta cannot derive from it — how the
/// store cut the rows into chunks. With it, every holder of the shard's
/// [`ShardMeta`] absorbs the delta exactly as the leaf did
/// ([`ShardMeta::absorb_append`]), so no summary crosses a socket after the
/// tree is built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppendReceipt {
    /// Row counts of the chunks the store appended, in chunk order.
    pub new_chunk_rows: Vec<u64>,
}

/// One shard's applied append: the delta its leaf applied and the receipt
/// the leaf acked it with.
#[derive(Debug, Clone, PartialEq)]
pub struct AppliedDelta {
    pub shard: u64,
    pub delta: TableDelta,
    pub receipt: AppendReceipt,
}

/// The appends applied beneath one merge server, and the epoch they
/// establish.
#[derive(Debug, Clone, PartialEq)]
pub struct AbsorbRequest {
    /// One entry per shard beneath the node whose data changed.
    pub applied: Vec<AppliedDelta>,
    /// Same contract as [`AppendRequest::epoch`].
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
    /// Ack for `Ping` / `Attach` / `Absorb` / `Delay` / `Shutdown`.
    Ok,
    /// Ack for `Load` — and for nothing else: the built shard's metadata
    /// summary (row/chunk totals, per-column value sets and extremes).
    Loaded(Box<ShardMeta>),
    /// Ack for `Append`.
    Appended(AppendReceipt),
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
const REQ_ABSORB: u8 = 7;

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
            Request::Absorb(absorb) => {
                out.push(REQ_ABSORB);
                absorb.applied.encode(out);
                absorb.epoch.encode(out);
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
            REQ_ABSORB => Request::Absorb(Box::new(AbsorbRequest {
                applied: Vec::decode(r)?,
                epoch: r.u64()?,
            })),
            REQ_DELAY => Request::Delay { micros: r.u64()? },
            REQ_SHUTDOWN => Request::Shutdown,
            other => return Err(Error::Data(format!("wire: invalid request tag {other}"))),
        })
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

impl Encode for AppliedDelta {
    fn encode(&self, out: &mut Vec<u8>) {
        self.shard.encode(out);
        self.delta.encode(out);
        self.receipt.encode(out);
    }
}

impl Decode for AppliedDelta {
    fn decode(r: &mut Reader<'_>) -> Result<AppliedDelta> {
        Ok(AppliedDelta {
            shard: r.u64()?,
            delta: TableDelta::decode(r)?,
            receipt: AppendReceipt::decode(r)?,
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
const RESP_APPENDED: u8 = 6;

impl Encode for Response {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Response::Ok => out.push(RESP_OK),
            Response::Loaded(meta) => {
                out.push(RESP_LOADED);
                meta.encode(out);
            }
            Response::Appended(receipt) => {
                out.push(RESP_APPENDED);
                receipt.encode(out);
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
            RESP_APPENDED => Response::Appended(AppendReceipt::decode(r)?),
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

/// `write_all` against an *absolute* deadline: the socket's write timeout
/// is armed with the whole remaining budget, and again — with what is
/// left — only after a short write, so a peer draining one byte per
/// interval still expires on time.
fn write_all_deadline(stream: &mut Stream, mut bytes: &[u8], deadline: Instant) -> Result<()> {
    while !bytes.is_empty() {
        stream.set_write_timeout(Some(budget_left(deadline)?))?;
        match stream.write(bytes) {
            Ok(0) => {
                return Err(Error::Rpc(RpcError::PeerGone(
                    "rpc write: the connection accepts no more bytes".into(),
                )))
            }
            Ok(n) => bytes = bytes.get(n..).unwrap_or_default(),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(Error::Rpc(io_fault("rpc write", &e))),
        }
    }
    Ok(())
}

/// One `read`, retried across `EINTR`. EOF here is always mid-frame: the
/// peer vanished.
fn read_some(stream: &mut Stream, buf: &mut [u8]) -> std::io::Result<usize> {
    loop {
        match stream.read(buf) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "peer closed the connection mid-frame",
                ))
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            other => return other,
        }
    }
}

/// A further `read` of a frame whose previous read came up short: re-arm
/// the socket's read timeout with what is left of the budget first.
/// Socket timeouts are per-syscall, so without this a peer trickling one
/// byte per interval would reset the clock forever.
fn read_more(stream: &mut Stream, buf: &mut [u8], deadline: Instant) -> Result<usize> {
    stream.set_read_timeout(Some(budget_left(deadline)?))?;
    read_some(stream, buf).map_err(|e| Error::Rpc(io_fault("rpc read", &e)))
}

/// Read one response frame against an absolute `deadline`. The read
/// timeout is armed once, and the first `read` asks for enough that a
/// typical frame — header and body — arrives whole; only a frame that
/// comes in pieces pays a re-arm per piece ([`read_more`]), which is what
/// makes the deadline hold against a trickling peer.
///
/// `quiet` bounds the wait for the frame's *first byte*: `Ok(None)` when
/// nothing at all arrived within it (and the deadline lies further out) —
/// not one byte was consumed, so the stream is still in sync and the reply
/// can be awaited again. Decode failures (version mismatch aside, which
/// is already typed) surface as typed [`RpcError::Decode`] — torn bytes on
/// the wire, not app errors.
fn read_frame_deadline<T: Decode>(
    stream: &mut Stream,
    quiet: Duration,
    deadline: Instant,
) -> Result<Option<T>> {
    let typed_decode = |e: Error| match e {
        Error::Rpc(f) => Error::Rpc(f),
        other => Error::Rpc(RpcError::Decode(other.to_string())),
    };
    let cursor = || Error::Internal("rpc: read cursor out of bounds".into());
    let left = budget_left(deadline)?;
    let mut head = [0u8; FIRST_READ_BYTES];
    stream.set_read_timeout(Some(quiet.min(left).max(Duration::from_micros(1))))?;
    let mut filled = match read_some(stream, &mut head) {
        Ok(n) => n,
        Err(e) => {
            let fault = io_fault("rpc read", &e);
            if quiet < left && matches!(fault, RpcError::Deadline(_)) {
                return Ok(None);
            }
            return Err(Error::Rpc(fault));
        }
    };
    while filled < FrameHeader::BYTES {
        filled += read_more(stream, head.get_mut(filled..).ok_or_else(cursor)?, deadline)?;
    }
    let header_bytes = head.first_chunk::<{ FrameHeader::BYTES }>().ok_or_else(cursor)?;
    let header = FrameHeader::parse(*header_bytes).map_err(typed_decode)?;
    if header.len > MAX_FRAME_BYTES {
        return Err(Error::Rpc(RpcError::Decode(format!(
            "rpc: corrupt frame length {}",
            header.len
        ))));
    }
    // Calls are strictly request/response: bytes past the frame's end
    // belong to no reply this connection is owed.
    let early = head.get(FrameHeader::BYTES..filled).ok_or_else(cursor)?;
    let mut body = vec![0u8; header.len as usize];
    let Some(prefix) = body.get_mut(..early.len()) else {
        return Err(Error::Rpc(RpcError::Decode(format!(
            "rpc: {} bytes past the end of a {}-byte frame",
            early.len() - body.len(),
            header.len
        ))));
    };
    prefix.copy_from_slice(early);
    let mut have = early.len();
    while have < body.len() {
        have += read_more(stream, body.get_mut(have..).ok_or_else(cursor)?, deadline)?;
    }
    decode_body(header.flags, &body).map(Some).map_err(typed_decode)
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
/// request/response — one [`RpcClient::send`], then one
/// [`RpcClient::recv`] — so a fan-out can put a frame on every child's
/// wire before it waits for any reply. A failed or timed-out half poisons
/// the connection (a late answer would desynchronize framing), so the
/// stream is dropped and the next send reconnects.
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

    /// Write one encoded frame ([`encode_frame`]), connecting first if
    /// need be, all by `deadline`. Any failure drops the connection and
    /// surfaces as a typed `Err` — the caller's failover decision
    /// dispatches on the [`RpcError`] variant.
    pub fn send(&mut self, frame: &[u8], deadline: Instant) -> Result<()> {
        let result = self.send_inner(frame, deadline);
        if result.is_err() {
            self.drop_stream();
        }
        result
    }

    fn send_inner(&mut self, frame: &[u8], deadline: Instant) -> Result<()> {
        if self.stream.is_none() {
            self.connect_by(deadline)?;
        }
        let stream = self
            .stream
            .as_mut()
            .ok_or_else(|| Error::Internal("rpc: stream vanished after connect".into()))?;
        write_all_deadline(stream, frame, deadline)
    }

    /// Read the reply to the frame last sent, by `deadline`. One absolute
    /// deadline shared with the [`RpcClient::send`] before it covers the
    /// whole exchange: the write budget and read budget are not additive,
    /// and the remaining budget shrinks across every syscall of a frame
    /// that arrives in pieces, so a stalled *or trickling* worker expires
    /// on time either way. Any failure drops the connection.
    pub fn recv(&mut self, deadline: Instant) -> Result<Response> {
        self.recv_within(Duration::MAX, deadline)?
            .ok_or_else(|| Error::Internal("rpc: an unbounded wait came back empty".into()))
    }

    /// [`RpcClient::recv`], but give up — `Ok(None)`, connection intact and
    /// in sync — when not one byte of the reply has arrived within `quiet`.
    /// This is the hedge timer: the reply can still be awaited afterwards.
    pub fn recv_within(&mut self, quiet: Duration, deadline: Instant) -> Result<Option<Response>> {
        let result = match self.stream.as_mut() {
            Some(stream) => read_frame_deadline::<Response>(stream, quiet, deadline),
            None => Err(Error::Rpc(RpcError::PeerGone("rpc: no request is in flight".into()))),
        };
        if result.is_err() {
            self.drop_stream();
        }
        result
    }

    /// One exchange of an already-encoded frame: `send`, then `recv`.
    pub fn call_frame(&mut self, frame: &[u8], deadline: Instant) -> Result<Response> {
        self.send(frame, deadline)?;
        self.recv(deadline)
    }

    /// Send `request`, wait up to `timeout` for the response: encode,
    /// `send`, `recv`.
    pub fn call(&mut self, request: &Request, timeout: Duration) -> Result<Response> {
        let deadline = Instant::now() + timeout.max(Duration::from_millis(1));
        self.call_frame(&encode_frame(request, self.compress)?, deadline)
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
    /// A worker process behind a socket. The mutex is the connection's
    /// queue: a fan-out holds the guard from the write of its frame to the
    /// read of the reply ([`Link::hold`]), so concurrent queries to the
    /// *same* child take turns on the wire, one request/response pair at a
    /// time.
    Socket(pd_common::sync::Mutex<RpcClient>),
    /// A node in this address space: no frame, no serialization, no queue.
    Local(Arc<Node>),
}

/// One copy of a child as one query holds it.
enum Held<'a> {
    Socket(MutexGuard<'a, RpcClient>),
    Local(&'a Node),
}

impl Link {
    fn socket(addr: Addr, compress: bool) -> Link {
        Link::Socket(pd_common::sync::Mutex::new(RpcClient::new(addr, compress)))
    }

    /// Take this copy for the span of one query. A socket's guard is held
    /// across `send` *and* `recv` on purpose — the pair must not interleave
    /// with another query's on the same connection. Deadlock-free because
    /// every fan-out takes its guards in one total order — children by
    /// index, a pair's primary before its replica — and takes them all
    /// before it waits for any reply: whoever waits for a guard holds only
    /// guards earlier in that order.
    fn hold(&self) -> Held<'_> {
        match self {
            // pd-analysis: allow(lock-order) -- the connection's queue: the guard spans send and recv by design; taken in child-index order, primary before replica
            Link::Socket(client) => Held::Socket(client.lock()),
            Link::Local(node) => Held::Local(node),
        }
    }
}

impl Held<'_> {
    /// Put the query on this copy's wire. Nothing to do in memory.
    fn send(&mut self, ask: &mut Ask<'_>) -> Result<()> {
        match self {
            Held::Socket(client) => {
                let deadline = ask.deadline;
                let compress = client.compress;
                client.send(ask.frame(compress)?, deadline)
            }
            Held::Local(_) => Ok(()),
        }
    }

    /// This copy's reply to a query whose `send` went as `sent`,
    /// classified for the failover logic (see [`LeafOutcome`]). An
    /// in-memory node computes it here.
    fn recv(&mut self, sent: Result<()>, ask: &Ask<'_>) -> LeafOutcome {
        if let Err(e) = sent {
            return LeafOutcome::Failed(e);
        }
        match self {
            Held::Socket(client) => classify(client.recv(ask.deadline)),
            Held::Local(node) => match node.query(ask.request, Duration::ZERO) {
                Ok(answer) => LeafOutcome::Answer(answer),
                Err(e @ Error::Rpc(_)) => LeafOutcome::Failed(e),
                Err(e) => LeafOutcome::Fatal(e),
            },
        }
    }
}

/// What one fan-out shares across its children: the query, one clock, and
/// the frame that carries the query over sockets.
struct Ask<'a> {
    request: &'a QueryRequest,
    started: Instant,
    /// One absolute deadline for every write and read: the budget is the
    /// whole query's. A merge node below inherits what remains of it — it
    /// decrements and forwards it, so no height scaling is needed.
    deadline: Instant,
    /// The `Request::Query` frame, encoded (and, when worth it, compressed)
    /// by the first socket link that sends it and reused by every other.
    frame: Option<Vec<u8>>,
}

impl<'a> Ask<'a> {
    fn new(request: &'a QueryRequest) -> Ask<'a> {
        let started = Instant::now();
        let deadline = started + request.budget.max(Duration::from_millis(1));
        Ask { request, started, deadline, frame: None }
    }

    /// The encoded frame. `compress` is the sending connection's mode: one
    /// node's connections all share it, and a frame says in its own header
    /// how it is packed, so the first sender's choice serves every other.
    fn frame(&mut self, compress: bool) -> Result<&[u8]> {
        let frame = match self.frame.take() {
            Some(frame) => frame,
            None => encode_frame(&Request::Query(Box::new(self.request.clone())), compress)?,
        };
        Ok(self.frame.insert(frame))
    }
}

/// A child the current node queries: the shard summaries beneath the edge
/// plus the link(s) that reach it.
pub struct ChildHandle {
    /// `Some(shard)`: a leaf server (with its replica, the §4
    /// "answer-first-wins" pair) — failover and report stamping apply.
    /// `None`: a deeper merge node.
    shard: Option<u64>,
    /// Every shard summary beneath this edge, kept equal to the leaves'
    /// own through appends by [`absorb_into`]. Empty means *unknown* (a
    /// local leaf keeps none): the edge is never pruned.
    metas: Vec<ShardMeta>,
    primary: Link,
    replica: Option<Link>,
}

/// A child between the two phases of a fan-out: asked, not yet answered.
enum InFlight<'a> {
    /// The metadata answered for the child; no copy was contacted.
    Pruned(SubtreeAnswer),
    Asked {
        /// `Some`: a leaf — the failover rule and report stamping apply.
        shard: Option<u64>,
        primary: Held<'a>,
        replica: Option<Held<'a>>,
        /// How putting the query on the primary's wire went. A killed
        /// primary is never contacted: its send "fails" as the kill.
        sent: Result<()>,
    },
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

    /// Phase one of a fan-out: answer from the metadata if it proves the
    /// edge dead, else take the child's copies (see [`Link::hold`] for the
    /// order) and put the query on the primary's wire.
    fn begin<'a>(&'a self, ask: &mut Ask<'_>) -> InFlight<'a> {
        let request = ask.request;
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
            return InFlight::Pruned(self.pruned_answer(request.chunk_pruning));
        }
        let mut primary = self.primary.hold();
        let replica = self.replica.as_ref().map(Link::hold);
        let sent = if self.shard.is_some_and(|shard| request.killed.contains(&shard)) {
            Err(Error::Rpc(RpcError::PeerGone("primary killed mid-query".into())))
        } else {
            primary.send(ask)
        };
        InFlight::Asked { shard: self.shard, primary, replica, sent }
    }
}

impl InFlight<'_> {
    /// Phase two of a fan-out: the child's answer. A leaf's reports are
    /// stamped with what the parent *measured* — its wall clock from the
    /// start of the fan-out to this answer in hand, transport, the wait
    /// for earlier siblings' replies and hedging included.
    fn finish(self, ask: &mut Ask<'_>) -> Result<SubtreeAnswer> {
        let (shard, mut primary, replica, sent) = match self {
            InFlight::Pruned(answer) => return Ok(answer),
            InFlight::Asked { shard, primary, replica, sent } => (shard, primary, replica, sent),
        };
        let Some(shard) = shard else {
            // A `Malformed` NAK from a merge node — no replica to retry —
            // is as fatal as any fault.
            return match primary.recv(sent, ask) {
                LeafOutcome::Answer(answer) => Ok(answer),
                LeafOutcome::Failed(e) | LeafOutcome::Fatal(e) => Err(e),
            };
        };
        let (mut answer, failover, hedged) = settle(shard, primary, replica, sent, ask)?;
        let elapsed = ask.started.elapsed();
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

/// The §4 failover rule at one leaf: a killed or failed primary is replaced
/// by its replica, one copy after the other, the replica living on whatever
/// budget remains; over sockets a merely *slow* primary is raced by it
/// ([`race`]). Without a replica any transport failure is fatal for the
/// query; an *application* error from a live node always is. Returns
/// `(answer, answered by the replica, hedged)`.
fn settle(
    shard: u64,
    mut primary: Held<'_>,
    mut replica: Option<Held<'_>>,
    sent: Result<()>,
    ask: &mut Ask<'_>,
) -> Result<(SubtreeAnswer, bool, bool)> {
    let first = match (&mut primary, &mut replica, &sent) {
        // Only socket pairs hedge: there a straggler costs one hedge delay
        // instead of its whole budget. An in-memory replica is the same
        // node — nothing to race.
        (Held::Socket(primary), Some(Held::Socket(replica)), Ok(()))
            if ask.request.hedge_micros > 0 =>
        {
            // The delay runs from the write; reading earlier siblings'
            // replies has used some of it up.
            let hedge_at = ask.started + Duration::from_micros(ask.request.hedge_micros);
            let quiet = hedge_at.saturating_duration_since(Instant::now());
            match primary.recv_within(quiet, ask.deadline) {
                // Answered inside the hedge window — the common, healthy
                // case: the replica is never contacted.
                Ok(Some(response)) => classify(Ok(response)),
                // Failed fast (refused connect, reset): immediate failover
                // below, not a hedge — the race was never close.
                Err(e) => LeafOutcome::Failed(e),
                // The hedge fires: the primary is still out there.
                Ok(None) => {
                    let deadline = ask.deadline;
                    let frame = ask.frame(replica.compress)?;
                    let (answer, by_replica) = race(primary, replica, frame, deadline, shard)?;
                    return Ok((answer, by_replica, true));
                }
            }
        }
        _ => primary.recv(sent, ask),
    };
    match (first, replica) {
        (LeafOutcome::Answer(answer), _) => Ok((answer, false, false)),
        (LeafOutcome::Fatal(e), _) => Err(e),
        (LeafOutcome::Failed(e), None) => Err(no_replica_fail(shard, e)),
        (LeafOutcome::Failed(pe), Some(mut replica)) => {
            let sent = replica.send(ask);
            match replica.recv(sent, ask) {
                LeafOutcome::Answer(answer) => Ok((answer, true, false)),
                LeafOutcome::Fatal(e) => Err(e),
                LeafOutcome::Failed(re) => Err(both_failed(shard, pe, re)),
            }
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Threads [`race`] spawned from this thread — the only spawn site a
    /// fan-out has.
    static HEDGE_SPAWNS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The hedged replica race, entered only once the hedge delay has passed
/// with the primary's reply still outstanding. The replica is asked on a
/// thread of its own — the one thread a fan-out may spawn — while the
/// caller keeps reading the primary; the first answer wins and shuts the
/// loser's socket down so its reader unblocks right away. A primary that
/// fails from here on loses the race it is already in. Returns
/// `(answer, answered_by_replica)`.
fn race(
    primary: &mut RpcClient,
    replica: &mut RpcClient,
    frame: &[u8],
    deadline: Instant,
    shard: u64,
) -> Result<(SubtreeAnswer, bool)> {
    let primary_token = primary.cancel_token();
    let replica_token = replica.cancel_token();
    #[cfg(test)]
    HEDGE_SPAWNS.with(|spawns| spawns.set(spawns.get() + 1));
    let (first, second) = std::thread::scope(|scope| {
        let hedge = scope.spawn(|| {
            let outcome = classify(replica.call_frame(frame, deadline));
            if matches!(outcome, LeafOutcome::Answer(_)) {
                primary_token.cancel();
            }
            outcome
        });
        let first = classify(primary.recv(deadline));
        if !matches!(first, LeafOutcome::Failed(_)) {
            // The primary settled it (an answer, or an error the replica
            // would only repeat): unblock the replica's reader now.
            replica_token.cancel();
        }
        (first, hedge.join().expect("the hedge thread panicked"))
    });
    // Whoever settled the race shut the other's socket down — unusable
    // from here on, even where its own call had completed first.
    if !matches!(first, LeafOutcome::Failed(_)) {
        replica.drop_stream();
    }
    if matches!(second, LeafOutcome::Answer(_)) {
        primary.drop_stream();
    }
    match (first, second) {
        (LeafOutcome::Answer(answer), _) => Ok((answer, false)),
        (LeafOutcome::Fatal(e), _) => Err(e),
        (LeafOutcome::Failed(_), LeafOutcome::Answer(answer)) => Ok((answer, true)),
        (LeafOutcome::Failed(_), LeafOutcome::Fatal(e)) => Err(e),
        // Both copies failed: combine, preferring the primary's typed
        // variant.
        (LeafOutcome::Failed(pe), LeafOutcome::Failed(re)) => Err(both_failed(shard, pe, re)),
    }
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
        Ok(Response::Ok | Response::Loaded(_) | Response::Appended(_)) => {
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
/// a per-query thread spawn would cost more than a warm hop does. Socket
/// children are other processes and run in parallel by themselves: the
/// calling thread writes the one encoded frame to each in child order,
/// then reads the replies in child order against the one deadline. No
/// thread is spawned and none is woken on the healthy path; a reply
/// larger than a socket buffer simply waits in its sender's `write` until
/// its turn to be read.
pub fn fan_out(children: &[ChildHandle], request: &QueryRequest) -> Result<SubtreeAnswer> {
    let answers: Vec<Result<SubtreeAnswer>> = match children.first().map(|c| &c.primary) {
        Some(Link::Local(node)) => {
            // Offered, not announced: a child may answer from its cache in
            // microseconds; a leaf scan that finds rows to scan wakes the
            // pool, and the woken worker takes the outermost offer.
            scheduler::offer_tasks(node.threads(), children.len(), |i| {
                let mut ask = Ask::new(request);
                Ok(children[i].begin(&mut ask).finish(&mut ask))
            })?
        }
        _ => {
            let mut ask = Ask::new(request);
            let flights: Vec<InFlight<'_>> =
                children.iter().map(|child| child.begin(&mut ask)).collect();
            // Every reply is read even after one failed: a connection left
            // with a reply in flight would have to be dropped.
            flights.into_iter().map(|flight| flight.finish(&mut ask)).collect()
        }
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

/// Bring the shard summaries beneath `children` up to date with appends
/// their leaves applied — in place, by the absorb the leaf itself ran
/// ([`ShardMeta::absorb_append`]), so every copy of a summary in the tree
/// stays equal to the leaf's without one ever being shipped. The links are
/// not touched: an append costs a parent no connection. A shard no edge
/// here summarizes is an error — the sender's tree is not this one.
pub fn absorb_into(children: &mut [ChildHandle], applied: &[AppliedDelta]) -> Result<()> {
    for one in applied {
        let meta = children
            .iter_mut()
            .flat_map(|child| child.metas.iter_mut())
            .find(|meta| meta.shard == one.shard)
            .ok_or_else(|| {
                Error::Data(format!("absorb: no summary of shard {} beneath this node", one.shard))
            })?;
        meta.absorb_append(&one.delta, &one.receipt.new_chunk_rows)?;
    }
    Ok(())
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
            Request::Append(Box::new(AppendRequest { shard: 2, delta: delta.clone(), epoch: 9 })),
            Request::Absorb(Box::new(AbsorbRequest {
                applied: vec![AppliedDelta {
                    shard: 2,
                    delta,
                    receipt: AppendReceipt { new_chunk_rows: vec![2, 1] },
                }],
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
            Response::Appended(AppendReceipt { new_chunk_rows: vec![150, 150, 7] }),
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
        let present = request("SELECT COUNT(*) FROM t WHERE k = 'x'", true);
        let err = fan_out(std::slice::from_ref(&handle), &present).unwrap_err();
        assert!(
            matches!(err, Error::Rpc(RpcError::ConnRefused(_))),
            "a dead-address leaf with no replica fails typed: {err}"
        );
        assert!(err.to_string().contains("shard 3"), "{err}");
        assert!(err.to_string().contains("replication is disabled"), "{err}");
    }

    /// An in-thread stand-in for a leaf worker: serves exactly `conns`
    /// connections on a loopback port, each on a thread of its own, handing
    /// `reply` the stream and the server-wide ordinal of every `Query` it
    /// reads. The handle joins once every connection has closed.
    fn fake_leaf(
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
    fn marked_answer(marker: u64) -> Response {
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

    fn count_all(hedge_micros: u64) -> QueryRequest {
        QueryRequest {
            query: analyzed("SELECT COUNT(*) FROM t"),
            budget: Duration::from_secs(10),
            hedge_micros,
            killed: Vec::new(),
            epoch: 1,
            chaos: Vec::new(),
            chunk_pruning: true,
        }
    }

    #[test]
    fn a_healthy_pair_spawns_nothing_and_a_stalled_primary_loses_the_race() {
        // The primary answers its 1st and 3rd query at once; its 2nd it
        // sits on until its socket is shut down under it, and says so.
        let (cancelled_tx, cancelled_rx) = std::sync::mpsc::channel();
        let cancelled_tx = pd_common::sync::Mutex::new(cancelled_tx);
        let (primary, primary_server) = fake_leaf(2, move |stream, nth| {
            if nth == 1 {
                let shut = matches!(stream.read(&mut [0u8; 1]), Ok(0) | Err(_));
                cancelled_tx.lock().send(shut).unwrap();
            } else {
                write_frame(stream, &marked_answer(1), false).unwrap();
            }
        });
        let (replica, replica_server) = fake_leaf(1, |stream, _| {
            write_frame(stream, &marked_answer(2), false).unwrap();
        });
        let pair = [ChildHandle::new(
            ChildSpec::Leaf { shard: 0, primary, replica: Some(replica), meta: sample_meta() },
            false,
        )];
        let request = count_all(30_000);
        let spawns = || HEDGE_SPAWNS.with(std::cell::Cell::get);
        assert_eq!(spawns(), 0);

        let healthy = fan_out(&pair, &request).unwrap();
        assert_eq!(healthy.stats.rows_total, 1, "the primary answers");
        assert!(!healthy.reports[0].hedged && !healthy.reports[0].failover);
        assert_eq!(spawns(), 0, "a primary inside the hedge window costs no thread");

        let raced = fan_out(&pair, &request).unwrap();
        assert_eq!(raced.stats.rows_total, 2, "the replica answers for the stalled primary");
        assert!(raced.reports[0].hedged && raced.reports[0].failover);
        assert_eq!(spawns(), 1, "a fired hedge spawns the one replica reader");
        assert!(
            cancelled_rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            "the loser's socket is shut down under it"
        );

        let next = fan_out(&pair, &request).unwrap();
        assert_eq!(next.stats.rows_total, 1, "the same links serve the next query");
        assert!(!next.reports[0].hedged && !next.reports[0].failover);
        assert_eq!(spawns(), 1);

        // Closing the links ends the fakes' connections.
        drop(pair);
        primary_server.join().unwrap();
        replica_server.join().unwrap();
    }

    #[test]
    fn a_quiet_wait_leaves_the_stream_in_sync() {
        // The server answers only when told to; until then `recv_within`
        // must come back empty-handed without eating a byte.
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let go_rx = pd_common::sync::Mutex::new(go_rx);
        let (addr, server) = fake_leaf(1, move |stream, _| {
            go_rx.lock().recv().unwrap();
            write_frame(stream, &marked_answer(7), false).unwrap();
        });
        let mut client = RpcClient::new(addr, false);
        let deadline = Instant::now() + Duration::from_secs(10);
        let frame = encode_frame(&Request::Query(Box::new(count_all(0))), false).unwrap();
        client.send(&frame, deadline).unwrap();
        assert!(client.recv_within(Duration::from_millis(20), deadline).unwrap().is_none());
        assert!(client.recv_within(Duration::from_millis(1), deadline).unwrap().is_none());
        go_tx.send(()).unwrap();
        assert_eq!(client.recv(deadline).unwrap(), marked_answer(7));
        drop(client);
        server.join().unwrap();
    }

    #[test]
    fn a_trickling_peer_expires_at_the_deadline() {
        // One byte of a valid reply every 10 ms: each read succeeds, so a
        // per-syscall timeout alone would never fire — the frame (~100
        // bytes) would take a second. The absolute deadline must.
        let (addr, server) = fake_leaf(1, |stream, _| {
            let frame = encode_frame(&marked_answer(1), false).unwrap();
            assert!(frame.len() >= 80, "{}", frame.len());
            for byte in frame {
                if stream.write_all(&[byte]).is_err() {
                    return; // the client gave up, as it should
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        });
        let mut client = RpcClient::new(addr, false);
        let budget = Duration::from_millis(150);
        let started = Instant::now();
        let err = client.call(&Request::Query(Box::new(count_all(0))), budget).unwrap_err();
        let elapsed = started.elapsed();
        assert!(matches!(err, Error::Rpc(RpcError::Deadline(_))), "{err}");
        assert!(elapsed >= budget, "expired early: {elapsed:?}");
        assert!(elapsed < budget * 3, "a trickle must not stretch the deadline: {elapsed:?}");
        server.join().unwrap();
    }
}
