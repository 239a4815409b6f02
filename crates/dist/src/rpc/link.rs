//! The edges of the §4 computation tree.
//!
//! A node reaches a child through a [`Link`]: a direct reference to a
//! [`Node`] in the same address space, or a socket to a worker process
//! holding one. [`ChildHandle`] — metadata pre-skip, which copy is asked,
//! report stamping — is written once above the link and runs unchanged over
//! both kinds; a fan-out drives it in two phases, `begin` (prune, or put
//! the query on the wire) and `finish` (the answer, failover included). An
//! append walks the same edges in the same two phases (`begin_append`).
//!
//! **Restriction-aware queries.** A query crosses an edge as the *decoded*
//! [`pd_sql::AnalyzedQuery`] — restriction tree, group-by keys, aggregates
//! — not as SQL text. Leaves execute it directly (one parse at the root,
//! none per hop), and every parent evaluates the restriction against its
//! children's [`ShardMeta`] to **pre-skip subtrees whose shards cannot
//! match**: no frame is sent, the shard's rows are accounted as skipped,
//! and the prune is reported up in
//! [`pd_core::ScanStats::subtrees_pruned`].

use super::client::RpcClient;
use super::fanout::{classify, settle, LeafOutcome};
use super::frame::{encode_frame, Addr};
use super::{
    refusal, AppendAck, AppendRequest, ChildSpec, QueryRequest, Response, ShardReport,
    SubtreeAnswer,
};
use crate::meta::{self, ShardMeta};
use crate::node::Node;
use pd_common::sync::RwLock;
use pd_common::{Error, Result};
use std::sync::{Arc, MutexGuard};
use std::time::{Duration, Instant};

/// One way to reach a child node. Everything above a link — pruning,
/// failover, report stamping, the fold — is the same code for both kinds.
pub enum Link {
    /// A worker process behind a socket. The mutex is the connection's
    /// queue: a fan-out holds the guard from the write of its frame to the
    /// read of the reply (`Link::hold`), so concurrent queries to the
    /// *same* child take turns on the wire, one request/response pair at a
    /// time.
    Socket(pd_common::sync::Mutex<RpcClient>),
    /// A node in this address space: no frame, no serialization, no queue.
    Local(Arc<Node>),
}

/// One copy of a child as one query holds it.
pub(super) enum Held<'a> {
    Socket(MutexGuard<'a, RpcClient>),
    Local(&'a Node),
}

impl Link {
    fn socket(addr: Addr) -> Link {
        Link::Socket(pd_common::sync::Mutex::new(RpcClient::new(addr)))
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
    pub(super) fn send(&mut self, ask: &mut Ask<'_>) -> Result<()> {
        match self {
            Held::Socket(client) => {
                let deadline = ask.deadline;
                client.send(ask.frame()?, deadline)
            }
            Held::Local(_) => Ok(()),
        }
    }

    /// This copy's reply to a query whose `send` went as `sent`,
    /// classified for the failover logic (see [`LeafOutcome`]). An
    /// in-memory node computes it here.
    pub(super) fn recv(&mut self, sent: Result<()>, ask: &Ask<'_>) -> LeafOutcome {
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
pub(super) struct Ask<'a> {
    pub(super) request: &'a QueryRequest,
    pub(super) started: Instant,
    /// One absolute deadline for every write and read: the budget is the
    /// whole query's. A merge node below inherits what remains of it — it
    /// decrements and forwards it, so no height scaling is needed.
    pub(super) deadline: Instant,
    /// The `Request::Query` frame, encoded by the first socket link that
    /// sends it and reused by every other.
    frame: Option<Vec<u8>>,
}

impl<'a> Ask<'a> {
    pub(super) fn new(request: &'a QueryRequest) -> Ask<'a> {
        let started = Instant::now();
        let deadline = started + request.budget.max(Duration::from_millis(1));
        Ask { request, started, deadline, frame: None }
    }

    /// The encoded frame, encoded on first use.
    pub(super) fn frame(&mut self) -> Result<&[u8]> {
        let frame = match self.frame.take() {
            Some(frame) => frame,
            None => encode_frame(self.request, false)?,
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
    /// own through appends by [`absorb_into`](super::absorb_into) — on
    /// either kind of link. Behind a lock so an append can reach them
    /// through the shared references queries hold.
    pub(crate) metas: RwLock<Vec<ShardMeta>>,
    pub(super) primary: Link,
    replica: Option<Link>,
}

/// A child between the two phases of a fan-out: asked, not yet answered.
pub(super) enum InFlight<'a> {
    /// The metadata answered for the child; no copy was contacted.
    Pruned(SubtreeAnswer),
    Asked {
        /// `Some`: a leaf — the failover rule and report stamping apply.
        shard: Option<u64>,
        primary: Held<'a>,
        replica: Option<Held<'a>>,
        /// How putting the query on the primary's wire went.
        sent: Result<()>,
    },
}

impl ChildHandle {
    /// A child in a worker process (clients connect lazily).
    pub fn new(spec: ChildSpec) -> ChildHandle {
        match spec {
            ChildSpec::Leaf { shard, primary, replica, meta } => ChildHandle {
                shard: Some(shard),
                metas: RwLock::new(vec![meta]),
                primary: Link::socket(primary),
                replica: replica.map(Link::socket),
            },
            ChildSpec::Node { addr, metas, .. } => ChildHandle {
                shard: None,
                metas: RwLock::new(metas),
                primary: Link::socket(addr),
                replica: None,
            },
        }
    }

    /// A child in this address space, carrying the summaries beneath it
    /// ([`Node::metas`]) as a socket edge carries its leaves' `Loaded` acks.
    /// `shard` marks a leaf. One address space holds one copy of a leaf: a
    /// replica is another process.
    pub fn local(node: Arc<Node>, shard: Option<u64>) -> ChildHandle {
        ChildHandle {
            shard,
            metas: RwLock::new(node.metas()),
            primary: Link::Local(node),
            replica: None,
        }
    }

    /// Whether `shard` is beneath this edge.
    pub(crate) fn holds(&self, shard: u64) -> bool {
        self.metas.read().iter().any(|meta| meta.shard == shard)
    }

    /// The restriction pre-skip: when the shard metadata beneath this
    /// child proves no row can match, synthesize the empty answer locally
    /// — full skip accounting, one `subtrees_pruned` for the edge that
    /// never carried the query, a zero-latency report per shard — and
    /// spend no hop at all. The chunks are additionally annotated as
    /// [`ScanStats::chunks_pruned_remote`](pd_core::ScanStats::chunks_pruned_remote)
    /// (*where* the proof happened, outside the skip/cache/scan balance).
    fn pruned_answer(metas: &[ShardMeta]) -> SubtreeAnswer {
        let mut answer = SubtreeAnswer::empty();
        answer.stats.subtrees_pruned = 1;
        for meta in metas {
            answer.stats.rows_total += meta.rows;
            answer.stats.rows_skipped += meta.rows;
            answer.stats.chunks_total += meta.chunks as usize;
            answer.stats.chunks_skipped += meta.chunks as usize;
            answer.stats.chunks_pruned_remote += meta.chunks as usize;
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
    pub(super) fn begin<'a>(&'a self, ask: &mut Ask<'_>) -> InFlight<'a> {
        let request = ask.request;
        // The prune precedes the failover logic deliberately: an answer
        // that never needs the server treats a dead primary as a non-event
        // (no failover recorded, and no replica missed).
        // The full layered check: shard zone map → blooms → how many chunks
        // survive. Zero live chunks prune the edge even when the shard
        // envelope cannot. (An edge naming no shard is not proven dead:
        // `all` over nothing is vacuously true.)
        let metas = self.metas.read();
        if !metas.is_empty()
            && metas.iter().all(|m| !meta::may_match(&request.query.restriction, m))
        {
            return InFlight::Pruned(ChildHandle::pruned_answer(&metas));
        }
        drop(metas);
        let mut primary = self.primary.hold();
        let replica = self.replica.as_ref().map(Link::hold);
        let sent = primary.send(ask);
        InFlight::Asked { shard: self.shard, primary, replica, sent }
    }

    /// Phase one of an append: take the child's copies (in [`Link::hold`]'s
    /// order) and write `append` — the rows beneath this edge — to each
    /// behind a socket, both of a pair. An in-memory child is applied in
    /// phase two, once. A failed write leaves acks unread: the driver drops
    /// a tree whose append failed.
    pub(crate) fn begin_append(
        &self,
        append: &AppendRequest,
        deadline: Instant,
    ) -> Result<Appending<'_>> {
        let mut copies = vec![self.primary.hold()];
        let mut written = 0;
        if let Held::Socket(_) = copies[0] {
            copies.extend(self.replica.as_ref().map(Link::hold));
            let frame = encode_frame(append, false)?;
            for copy in &mut copies {
                if let Held::Socket(client) = copy {
                    client.send(&frame, deadline)?;
                    written += frame.len() as u64;
                }
            }
        }
        Ok(Appending { copies, written })
    }
}

/// A child an append was written to: its copies and the bytes written.
pub(crate) struct Appending<'a> {
    copies: Vec<Held<'a>>,
    written: u64,
}

impl Appending<'_> {
    /// Phase two of an append: the child's ack, its bytes added. An
    /// in-memory child applies `append` here; a pair's acks must agree.
    pub(crate) fn finish(self, append: &AppendRequest, deadline: Instant) -> Result<AppendAck> {
        let mut acks = (self.copies.into_iter()).map(|copy| match copy {
            Held::Socket(mut client) => match client.recv(deadline)? {
                Response::Appended(ack) => Ok(ack),
                other => Err(refusal(other, "append")),
            },
            Held::Local(node) => node.append(append),
        });
        let mut ack = acks.next().unwrap_or_else(|| Ok(AppendAck::default()))?;
        for copy in acks {
            if copy?.receipts != ack.receipts {
                return Err(Error::Data(
                    "append: a primary and its replica chunked it apart".into(),
                ));
            }
        }
        ack.bytes += self.written;
        Ok(ack)
    }
}

impl InFlight<'_> {
    /// Phase two of a fan-out: the child's answer. A leaf's reports are
    /// stamped with what the parent *measured* — its wall clock from the
    /// start of the fan-out to this answer in hand, transport, the wait
    /// for earlier siblings' replies and hedging included.
    pub(super) fn finish(self, ask: &mut Ask<'_>) -> Result<SubtreeAnswer> {
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
            report.failover = failover;
            report.hedged = hedged;
        }
        Ok(answer)
    }
}
