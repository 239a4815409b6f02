//! The §4 cluster driver: the root of the computation tree.
//!
//! §4: *"In a first step the server importing the data splits it into X
//! partitions. [...] such a query can be 'parallelized over rows' by
//! sending the query to all machines, each machine executing it on its
//! part of the data, and then merging the results."* — [`Cluster::build`]
//! splits the table into contiguous shards and builds a tree of
//! [`crate::node::Node`]s over them; [`Cluster::query`] parses once, hands
//! the analyzed query to the tree's root — a node like the others, held
//! here: it answers a signature it remembers without crossing an edge,
//! and otherwise fans out and folds the partials in fixed order — and
//! finalizes its answer. Every aggregation state merges associatively
//! (float sums are exact superaccumulators), so the result is bit-identical
//! to the single-store engine at any shard count, tree depth, thread count
//! or cache configuration. Where the nodes live is the [`Transport`]; the
//! node code, the pruning, the caches, the failover rule and this driver
//! are the same either way, and every number in a [`QueryOutcome`] is
//! measured.
//!
//! What the driver adds around the tree: it draws each query's faults from
//! the seeded [`ChaosModel`] (an unreachable primary's replica answers, or
//! the query fails when replication is off); one [`RpcConfig::budget`] is
//! spent end to end
//! (an exhausted budget is a typed [`pd_common::RpcError::Deadline`], not
//! a hang); slow primary *processes* are hedged after a delay derived from
//! the observed queue-delay p95 ([`QueryOutcome::hedges`]); and
//! [`AdmissionConfig`] sheds excess load with a typed
//! [`pd_common::RpcError::Overloaded`] *before* it can pile onto saturated
//! workers (the limit halves while the observed queue p95 sits above the
//! saturation threshold).

use crate::chaos::{leaf_primary, ChaosModel};
use crate::node::{Node, NodeSpec};
use crate::process::{WorkerAddr, Workers};
use crate::rpc::{AppendRequest, ChildHandle, QueryRequest, ShardReport};
use pd_common::sync::Mutex;
use pd_common::{Error, Result, RpcError, Schema, Value};
use pd_core::{finalize, BuildOptions, QueryResult, ScanStats};
use pd_data::Table;
use pd_encoding::TableDelta;
use pd_sql::{analyze, parse_query};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where the computation tree's nodes live.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum Transport {
    /// Every node is built inside the driver's address space and reached
    /// by reference: no frame, no serialization, no queue. Leaves scan and
    /// mixers fan out as tasks on the shared worker pool.
    #[default]
    InProcess,
    /// The paper's real topology: one `pd-dist-worker` OS process per
    /// shard replica plus spawned merge servers, talking the
    /// [`crate::rpc`] protocol over Unix sockets ([`WorkerAddr::Unix`])
    /// or loopback/multi-host TCP ([`WorkerAddr::Tcp`]), with optionally
    /// compressed frames. A worker that exhausts the query's
    /// [`RpcConfig::budget`] fails over exactly like an unreachable one
    /// ([`crate::ChaosFault::Unreachable`]). A shard reaches its worker as
    /// the coded columns an append ships ([`pd_encoding::TableDelta`]), and
    /// the worker's `Loaded` ack carries the leaf's summary to the parent
    /// that prunes by it — as an in-memory edge carries its leaf's, so
    /// either tree pre-skips the same subtrees
    /// ([`pd_core::ScanStats::subtrees_pruned`]).
    Rpc(RpcConfig),
}

/// Settings for the [`Transport::Rpc`] process split.
#[derive(Debug, Clone, PartialEq)]
pub struct RpcConfig {
    /// Path to the `pd-dist-worker` binary; `None` resolves via the
    /// `PD_DIST_WORKER_BIN` environment variable or next to the current
    /// executable.
    pub worker_bin: Option<PathBuf>,
    /// End-to-end time budget for one query. The *whole* tree shares it:
    /// each node decrements the remaining budget by its own queue delay
    /// before fanning out, an exhausted budget is a typed
    /// [`pd_common::RpcError::Deadline`], and the driver enforces it
    /// absolutely at the root.
    pub budget: Duration,
    /// Socket shape the workers listen on: `Unix` (single box) or
    /// `Tcp { host }` with one ephemeral port per worker.
    pub addr: WorkerAddr,
    /// Compress RPC frames with `pd-compress` (negotiated per connection;
    /// serialized partials are FloatSum-limb-heavy and shrink several-fold).
    pub compress: bool,
}

impl Default for RpcConfig {
    fn default() -> Self {
        RpcConfig {
            worker_bin: None,
            budget: Duration::from_secs(30),
            addr: WorkerAddr::Unix,
            compress: true,
        }
    }
}

/// Shape of the §4 computation tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeShape {
    /// Children per inner node ("one root server communicating with up to
    /// hundreds of other servers" is fanout ≫ 2; small fanouts add depth).
    pub fanout: usize,
}

impl Default for TreeShape {
    fn default() -> Self {
        TreeShape { fanout: 16 }
    }
}

impl TreeShape {
    /// Number of merge levels needed above `leaves` leaf servers.
    pub fn depth(&self, leaves: usize) -> usize {
        let fanout = self.fanout.max(2);
        let mut depth = 0;
        let mut width = leaves.max(1);
        while width > 1 {
            width = width.div_ceil(fanout);
            depth += 1;
        }
        depth
    }
}

/// Admission control at the driver: bound how many queries run at once
/// instead of letting excess load pile onto saturated workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Maximum concurrently admitted queries; `0` disables admission
    /// control entirely (the default — single-caller tests and benches
    /// never shed).
    pub max_in_flight: usize,
    /// Saturation threshold: while the p95 of recently observed worker
    /// queue delays is at or above this, the effective in-flight limit is
    /// halved — the cluster sheds *harder* exactly when the workers are
    /// already behind.
    pub saturation_queue: Duration,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig { max_in_flight: 0, saturation_queue: Duration::from_millis(250) }
    }
}

/// Cluster construction options.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of data shards (the paper's X partitions).
    pub shards: usize,
    /// Give every leaf a replica: a primary that is unreachable, faulted
    /// or (as a process) straggling is answered by its replica instead
    /// (§4's straggler mitigation).
    pub replication: bool,
    /// Import options for each shard's store.
    pub build: BuildOptions,
    /// Fault injection: seeded or pinned faults, drawn per query. The
    /// inactive default injects nothing.
    pub chaos: ChaosModel,
    /// Computation-tree shape: how many children a merge server owns.
    pub tree: TreeShape,
    /// Worker threads for each leaf's chunk scan and each in-memory
    /// fan-out (0 = `EXEC_THREADS` / available parallelism).
    pub threads: usize,
    /// Capacity (entries) of **every tree node's own result cache** — leaf,
    /// merge server and the root in the driver alike, on either transport;
    /// 0 disables them. A warm drill-down answers from the nearest node
    /// that remembers the signature, with zero child hops below it: a
    /// chart the root remembers costs no hop, no frame and no merge.
    pub shard_cache: usize,
    /// Where the tree's nodes live: in the driver's address space or one
    /// worker process each.
    pub transport: Transport,
    /// Driver-side admission control: shed queries beyond the in-flight
    /// budget with a typed [`pd_common::RpcError::Overloaded`].
    pub admission: AdmissionConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            shards: 4,
            replication: true,
            build: BuildOptions::default(),
            chaos: ChaosModel::default(),
            tree: TreeShape::default(),
            threads: 0,
            shard_cache: 1024,
            transport: Transport::InProcess,
            admission: AdmissionConfig::default(),
        }
    }
}

/// The §4 single-datacenter model: X shards + a computation tree, driven
/// from its root.
pub struct Cluster {
    /// The root: a mixer over the top tree level, in the driver on both
    /// transports. `None` once an append or rebuild failed part-way: the
    /// shards may hold different data, so nothing is served until
    /// [`Cluster::rebuild`] succeeds.
    root: Option<Node>,
    /// The processes beneath the root of a [`Transport::Rpc`] tree.
    workers: Option<Workers>,
    /// How many contiguous shards the rows are split into.
    shard_count: usize,
    /// Schema of the data the tree serves; appends must match it.
    schema: Schema,
    config: ClusterConfig,
    /// Monotonically increasing rebuild epoch, carried by every message to
    /// a node; a node that meets one it was not told of drops its result
    /// cache.
    epoch: u64,
    /// Per-query sequence number: the deterministic axis of every fault
    /// draw (draws depend on (seed, query, node), never on scheduling).
    queries: AtomicU64,
    /// Per-shard `(total queue delay, samples)` as the nodes measured it.
    observed_queue: Mutex<Vec<(Duration, u64)>>,
    /// The most recent queue-delay samples (capped ring of
    /// `(when observed, delay)`), feeding two adaptive policies: the hedge
    /// delay (p95-derived — hedge as soon as a primary looks slower than
    /// the cluster's recent tail) and the admission saturation check.
    /// Samples older than [`RECENT_QUEUE_TTL`] are expired on read: a
    /// queue spike must stop shedding once the workers have drained, even
    /// if no fresh sample has displaced it from the ring.
    recent_queue: Mutex<VecDeque<(Instant, Duration)>>,
    /// Queries currently admitted (only tracked when admission control is
    /// on).
    in_flight: AtomicU64,
    /// Queries shed by admission control since construction.
    sheds: AtomicU64,
}

/// How many queue-delay samples feed the hedge / saturation estimates.
const RECENT_QUEUE_CAP: usize = 256;

/// How long a queue-delay sample stays relevant. A burst that filled the
/// ring with 400ms delays describes the cluster *then*; ten seconds later
/// those processes have long drained and the estimates must forget them
/// rather than keep halving admission against a load that no longer
/// exists.
const RECENT_QUEUE_TTL: Duration = Duration::from_secs(10);

/// RAII permit for one admitted query; dropping it frees the slot.
#[derive(Debug)]
struct AdmitPermit<'a> {
    in_flight: Option<&'a AtomicU64>,
}

impl Drop for AdmitPermit<'_> {
    fn drop(&mut self) {
        if let Some(in_flight) = self.in_flight {
            in_flight.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// What one [`Cluster::append`] shipped and applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppendOutcome {
    /// Rows appended across all shards.
    pub rows: u64,
    /// The shards written, in the order of the batch's pieces: piece `i`,
    /// the `i`-th contiguous range of the batch, went to `shards[i]`.
    pub shards: Vec<u64>,
    /// Serialized bytes of every request frame the append caused: the
    /// `Append` each node wrote each child behind a socket — once per copy
    /// of a leaf pair — with the deltas beneath it; everything the append
    /// put on a wire except the few bytes of acks; 0 when no node is behind
    /// a wire.
    pub bytes_shipped: u64,
}

/// What one distributed query cost. Every duration is measured wall time.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    pub result: QueryResult,
    /// Scan statistics summed over all shards.
    pub stats: ScanStats,
    /// End to end: the whole fan-out (slowest subquery plus every merge
    /// level above it), then the root's finalize.
    pub latency: Duration,
    /// Per shard: the subquery as its parent saw it — wall clock around
    /// the hop, transport, queueing and failover included (zero for a
    /// shard beneath a pruned edge or a cache hit of a node above its
    /// leaf — a merge server's, or the root's: then all are zero).
    pub subquery_latencies: Vec<Duration>,
    /// Shards whose primary failed and whose replica computed the answer.
    pub failovers: Vec<usize>,
    /// Shards whose primary process outlived the hedge delay and was raced
    /// against its replica process (whichever answer arrived first won).
    pub hedges: Vec<usize>,
    /// Shards whose contribution came out of a node's result cache — the
    /// leaf's own, a merge server's above it, or the root's (then every
    /// shard counts) — without reaching the shard's store.
    pub shard_cache_hits: usize,
    /// Per shard: time the subquery spent queued inside worker processes
    /// (leaf + every merge server above it); an in-memory edge has no
    /// queue and contributes zero.
    pub queue_delays: Vec<Duration>,
}

impl QueryOutcome {
    /// Tree nodes (leaves, merge servers or the root) that answered this
    /// query from their own result cache, aggregated up the tree. One
    /// merge-server hit covers every shard beneath it and a root hit is
    /// the only one there is, so this is at most
    /// [`QueryOutcome::shard_cache_hits`]. Derived from the aggregated
    /// [`ScanStats`], the single source of truth the nodes report into.
    pub fn worker_cache_hits(&self) -> usize {
        self.stats.worker_cache_hits
    }
}

impl Cluster {
    /// Split `table` into contiguous shards and build the tree over them:
    /// the leaves, the merge levels [`ClusterConfig::tree`] asks for, and
    /// the root the driver holds — every node in this address space, or
    /// each beneath the root in a worker process of its own
    /// ([`ClusterConfig::transport`]).
    pub fn build(table: &Table, config: &ClusterConfig) -> Result<Cluster> {
        let epoch = 1u64;
        let (root, workers, shard_count) = build_tree(table, config, epoch)?;
        Ok(Cluster {
            root: Some(root),
            workers,
            shard_count,
            schema: table.schema().clone(),
            config: config.clone(),
            epoch,
            queries: AtomicU64::new(0),
            observed_queue: Mutex::new(vec![(Duration::ZERO, 0); shard_count]),
            recent_queue: Mutex::new(VecDeque::with_capacity(RECENT_QUEUE_CAP)),
            in_flight: AtomicU64::new(0),
            sheds: AtomicU64::new(0),
        })
    }

    /// Re-import every shard from `table` (the §5 "table rebuild": new
    /// data, a fresh tree — worker processes are respawned) under a bumped
    /// epoch, so no node can ever serve a partial cached against the old
    /// stores. Also the way back from a failed [`Cluster::append`]. Every
    /// row is re-imported even if only a fraction changed; for append-only
    /// growth prefer [`Cluster::append`], which bumps the same epoch but
    /// ships only the new rows.
    pub fn rebuild(&mut self, table: &Table) -> Result<()> {
        // Drop (and kill) the old tree before building its successor.
        (self.root, self.workers) = (None, None);
        let (root, workers, shard_count) = build_tree(table, &self.config, self.epoch + 1)?;
        (self.root, self.workers, self.shard_count) = (Some(root), workers, shard_count);
        self.epoch += 1;
        self.schema = table.schema().clone();
        *self.observed_queue.lock() = vec![(Duration::ZERO, 0); shard_count];
        // A fresh tree starts with nobody waiting at its workers: stale
        // saturation / hedge estimates from the old processes would shed
        // or hedge against load that no longer exists.
        self.recent_queue.lock().clear();
        Ok(())
    }

    /// Stream `delta`'s rows into the live cluster — the incremental
    /// alternative to [`Cluster::rebuild`]. The batch lands where a chunk
    /// would (§2: chunks are large so per-chunk work amortizes): it is cut
    /// into `min(shards, ⌈rows / max_chunk_rows⌉)` contiguous pieces (one
    /// for an unpartitioned build), and each piece goes whole to a
    /// different shard — those holding the fewest rows, ties to the lowest
    /// shard id ([`AppendOutcome::shards`]), read off the summaries the
    /// root's edges hold, so both transports and both copies of a leaf
    /// pair agree. A piece is coded as self-contained columns
    /// ([`pd_encoding::TableDelta`]: the receiver resolves it against its
    /// resident dictionaries, so **every existing global id stays stable**
    /// and folded partials stay bit-identical, whichever shard holds a
    /// row). The pieces walk the tree from the root as a query does
    /// ([`Node::append`], on either edge kind): a leaf that gets one
    /// applies it in place (its chunk results stay) and acks a receipt;
    /// every mixer above it, the root included, absorbs the same delta
    /// into its copy of the shard summary and into the tail that brings
    /// what it remembers up to date — so a chart the root answered before
    /// is still a root hit. Every other node hears only the new epoch and
    /// keeps its cache. Nothing is respawned, re-wired or re-dialed.
    ///
    /// The epoch bumps once every piece is applied. Requires `&mut self`:
    /// no query can observe a half-applied append. A delta whose schema is
    /// not the cluster's is rejected, and one without rows ignored, before
    /// anything changes. An error *after* the first shard was touched
    /// leaves shards (or a primary and its replica) at different data: the
    /// tree is dropped, and [`Cluster::query`] refuses to serve until
    /// [`Cluster::rebuild`] succeeds.
    pub fn append(&mut self, delta: &Table) -> Result<AppendOutcome> {
        let root = self.root.as_ref().ok_or_else(needs_rebuild)?;
        if delta.schema() != &self.schema {
            return Err(Error::Schema("append: delta schema does not match the cluster's".into()));
        }
        if delta.is_empty() {
            return Ok(AppendOutcome { rows: 0, shards: Vec::new(), bytes_shipped: 0 });
        }
        let max_chunk_rows =
            self.config.build.partition.as_ref().map_or(usize::MAX, |spec| spec.max_chunk_rows);
        let pieces = delta.len().div_ceil(max_chunk_rows.max(1)).min(self.shard_count);
        let mut loads = root.shard_rows();
        loads.sort_unstable_by_key(|&(shard, rows)| (rows, shard));
        let shards: Vec<u64> = loads.iter().take(pieces).map(|&(shard, _)| shard).collect();
        let deltas = (shards.iter().enumerate())
            .map(|(i, &shard)| Ok((shard, contiguous_piece(delta, i, pieces)?)))
            .collect::<Result<Vec<_>>>()?;
        // From here on a failure may have touched some shards and not
        // others.
        let epoch = self.epoch + 1;
        match root.append(&AppendRequest { epoch, deltas }) {
            Ok(ack) => {
                self.epoch = epoch;
                if let Some(workers) = &mut self.workers {
                    workers.bytes_shipped += ack.bytes;
                }
                // Unlike a rebuild, worker processes (and whoever waits at
                // them) survive: the queue / saturation estimates are kept.
                Ok(AppendOutcome { rows: delta.len() as u64, shards, bytes_shipped: ack.bytes })
            }
            Err(e) => {
                (self.root, self.workers) = (None, None);
                Err(e)
            }
        }
    }

    /// Cumulative serialized bytes of data-bearing requests (`Load` and
    /// `Append` frames) shipped to worker processes since the tree was last
    /// (re)built; 0 when no node is behind a wire. Wiring
    /// (`Attach`) and queries are not data.
    pub fn shipped_bytes(&self) -> u64 {
        self.workers.as_ref().map_or(0, |workers| workers.bytes_shipped)
    }

    /// Swap the fault injection model. Draws depend only on `(seed, query
    /// id, node name)`, so setting the same model on a fresh cluster
    /// replays the same faults against the same queries.
    pub fn set_chaos(&mut self, chaos: ChaosModel) {
        self.config.chaos = chaos;
    }

    /// Queries shed by admission control so far.
    pub fn shed_count(&self) -> u64 {
        self.sheds.load(Ordering::SeqCst)
    }

    /// Admit one query or shed it. The permit holds an in-flight slot
    /// until dropped (i.e. for the whole query, including merge and
    /// finalize). While workers look saturated the effective limit halves:
    /// shedding is cheapest *before* the fan-out, and saturation means the
    /// queries already admitted are about to get slower.
    fn admit(&self) -> Result<AdmitPermit<'_>> {
        let max = self.config.admission.max_in_flight;
        if max == 0 {
            return Ok(AdmitPermit { in_flight: None });
        }
        let saturated =
            self.queue_p95().is_some_and(|p95| p95 >= self.config.admission.saturation_queue);
        let limit = if saturated { (max / 2).max(1) } else { max } as u64;
        let previous = self.in_flight.fetch_add(1, Ordering::SeqCst);
        if previous >= limit {
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
            self.sheds.fetch_add(1, Ordering::SeqCst);
            let detail = if saturated { " (halved: workers saturated)" } else { "" };
            return Err(Error::Rpc(RpcError::Overloaded(format!(
                "cluster: {previous} queries in flight, limit {limit}{detail}"
            ))));
        }
        Ok(AdmitPermit { in_flight: Some(&self.in_flight) })
    }

    /// p95 of the recent queue-delay samples; `None` before any query has
    /// reported (or after every sample has aged past [`RECENT_QUEUE_TTL`]
    /// — an idle cluster is a cold cluster, not a saturated one).
    ///
    /// Percentile rank: with fewer than 20 samples a nearest-rank "p95"
    /// *is* the sample max — one outlier would then drive the hedge delay
    /// (8×p95) and the saturation check, so small rings conservatively
    /// report the median instead. At ≥ 20 samples the ceiling nearest-rank
    /// index `⌈0.95 n⌉ − 1` is used (the floor form `⌊0.95 n⌋` also
    /// degenerates to the max for every n < 20 and overshoots the rank by
    /// one thereafter).
    fn queue_p95(&self) -> Option<Duration> {
        let mut recent = self.recent_queue.lock();
        let now = Instant::now();
        while recent.front().is_some_and(|&(when, _)| now.duration_since(when) > RECENT_QUEUE_TTL) {
            recent.pop_front();
        }
        if recent.is_empty() {
            return None;
        }
        let mut sorted: Vec<Duration> = recent.iter().map(|&(_, d)| d).collect();
        sorted.sort_unstable();
        let n = sorted.len();
        let idx = if n < 20 { n / 2 } else { (n * 95).div_ceil(100) - 1 };
        Some(sorted[idx])
    }

    /// How long to wait for a primary before racing its replica. Derived
    /// from the observed queue-delay p95 — a primary that has already
    /// out-waited several tail queue delays is likely struggling — and
    /// clamped into `[25ms, budget/2]` so cold clusters neither hedge
    /// instantly nor wait out most of the budget first.
    fn hedge_delay(&self, budget: Duration) -> Duration {
        let base = match self.queue_p95() {
            Some(p95) => p95 * 8 + Duration::from_millis(2),
            None => budget / 8,
        };
        base.clamp(Duration::from_millis(25), (budget / 2).max(Duration::from_millis(25)))
    }

    /// The current rebuild epoch (starts at 1; every successful
    /// [`Cluster::rebuild`] and [`Cluster::append`] bumps it). Carried by
    /// every message to a node: one that was not told how the data reached
    /// this epoch invalidates.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// Mean measured queue delay per shard, reported up the tree by the
    /// nodes themselves (all zeros before any query, and for shards behind
    /// in-memory edges, which have no queue).
    pub fn observed_queue_delays(&self) -> Vec<Duration> {
        self.observed_queue
            .lock()
            .iter()
            .map(|&(total, samples)| {
                if samples == 0 {
                    Duration::ZERO
                } else {
                    total / u32::try_from(samples).unwrap_or(u32::MAX)
                }
            })
            .collect()
    }

    /// `(hits, misses)` so far, summed over the node result caches in the
    /// driver's address space: the root's, plus every node's beneath it in
    /// an in-process tree (the caches of worker processes count where they
    /// live).
    pub fn shard_cache_stats(&self) -> (u64, u64) {
        self.root.as_ref().map_or((0, 0), Node::cache_stats)
    }

    /// Run `sql` over every shard — concurrently — and merge the partial
    /// results in fixed order. The driver holds the root of the tree: it
    /// answers from its cache, or fans out to its children (leaves or
    /// merge servers) and folds their answers associatively; the driver
    /// finalizes what it hands up. This query's faults are drawn
    /// *here*, once ([`ChaosModel::draw`]); the directives travel down with
    /// the query, so a parent told its leaf primary is unreachable goes to
    /// the replica through the same failover code a deadline expiry
    /// triggers.
    pub fn query(&self, sql: &str) -> Result<QueryOutcome> {
        // Admission first: a shed query must cost nothing downstream —
        // not even the parse.
        let _permit = self.admit()?;
        let root = self.root.as_ref().ok_or_else(needs_rebuild)?;
        let analyzed = analyze(&parse_query(sql)?)?;
        let qid = self.queries.fetch_add(1, Ordering::Relaxed);
        let shard_count = self.shard_count;
        let budget = match &self.config.transport {
            Transport::InProcess => RpcConfig::default().budget,
            Transport::Rpc(rpc) => rpc.budget,
        };
        // Hedge delay from the observed queue tail; zero disables racing
        // entirely when there are no replica processes to race.
        let hedge_micros = if self.config.replication && self.workers.is_some() {
            u64::try_from(self.hedge_delay(budget).as_micros()).unwrap_or(u64::MAX)
        } else {
            0
        };
        // Worker-applied faults target processes: a local node must never
        // be able to exit the driver. (Edge-applied faults target leaf
        // primaries, which the shard count names.)
        let processes = self.workers.as_ref().map_or(&[][..], |workers| &workers.names);
        let request = QueryRequest {
            query: analyzed,
            budget,
            hedge_micros,
            epoch: self.epoch,
            chaos: self.config.chaos.draw(qid, processes, shard_count),
        };

        let fan_out_started = Instant::now();
        // The root — which nothing queues for.
        let answer = root.query(&request, Duration::ZERO)?;
        // The whole fan-out: leaf hops *and* every merge-node fold and
        // root-hop transport above them — time the per-shard reports
        // (stamped by each leaf's immediate parent) cannot see at depth ≥ 2.
        let fan_out_elapsed = fan_out_started.elapsed();

        // Index the per-shard observations the tree reported up.
        let mut subquery_latencies = vec![Duration::ZERO; shard_count];
        let mut queue_delays = vec![Duration::ZERO; shard_count];
        let mut failovers = Vec::new();
        let mut hedges = Vec::new();
        let mut shard_cache_hits = 0;
        for report in &answer.reports {
            let s = report.shard as usize;
            if s >= shard_count {
                return Err(Error::Data(format!("rpc: worker reported unknown shard {s}")));
            }
            subquery_latencies[s] = report.latency;
            queue_delays[s] = report.queue;
            if report.failover {
                failovers.push(s);
            }
            if report.hedged {
                hedges.push(s);
            }
            shard_cache_hits += usize::from(report.cache_hit);
        }
        failovers.sort_unstable();
        hedges.sort_unstable();
        // An answer out of the root's cache crossed no edge: its reports
        // are synthesized — cache-flagged, no latency, no queue — and say
        // nothing about the workers. Fed to the estimates, a run of
        // repeated charts would fill the ring with zeros and switch the
        // saturation halving off.
        let synthesized = |r: &ShardReport| r.cache_hit && r.latency.is_zero() && r.queue.is_zero();
        if !answer.reports.iter().all(synthesized) {
            let mut observed = self.observed_queue.lock();
            for (slot, queued) in observed.iter_mut().zip(&queue_delays) {
                slot.0 += *queued;
                slot.1 += 1;
            }
            drop(observed);
            // Feed the adaptive hedge / saturation estimates, stamped so
            // `queue_p95` can expire them.
            let now = Instant::now();
            let mut recent = self.recent_queue.lock();
            for queued in &queue_delays {
                if recent.len() == RECENT_QUEUE_CAP {
                    recent.pop_front();
                }
                recent.push_back((now, *queued));
            }
        }

        let finalize_started = Instant::now();
        let mut stats = answer.stats;
        let result = finalize(&request.query, answer.partial)?;
        let latency = fan_out_elapsed + finalize_started.elapsed();
        stats.elapsed = latency;

        Ok(QueryOutcome {
            result,
            stats,
            latency,
            subquery_latencies,
            failovers,
            hedges,
            shard_cache_hits,
            queue_delays,
        })
    }
}

/// The error of a cluster whose last mutation failed part-way.
fn needs_rebuild() -> Error {
    Error::Data(
        "cluster: an append or rebuild failed part-way and left no consistent tree; \
         call Cluster::rebuild"
            .into(),
    )
}

/// Split `table` into one contiguous row range per shard (not round-robin:
/// that preserves the "implicit clustering" of log records the paper's
/// partitioning benefits from, §2.2 — an append keeps it too, landing each
/// of its pieces whole on one shard) and build the tree over them at
/// `epoch`: one leaf (pair) per shard — each shard's rows
/// dictionary-coded once ([`contiguous_piece`]) and handed to a local leaf
/// or put in a `Load` frame — then merge levels, bottom-up, until one fits
/// the fanout. Returns the root that mixes that top level, the worker
/// processes beneath it, and the shard count. Where
/// [`ClusterConfig::transport`] is read.
fn build_tree(
    table: &Table,
    config: &ClusterConfig,
    epoch: u64,
) -> Result<(Node, Option<Workers>, usize)> {
    if table.is_empty() {
        return Err(Error::Data("cannot build a tree over a table with no rows".into()));
    }
    let shard_count = config.shards.clamp(1, table.len());
    let fanout = config.tree.fanout.max(2);
    let coded = |shard: u64| contiguous_piece(table, shard as usize, shard_count);
    let (children, workers) = match &config.transport {
        Transport::InProcess => {
            let mut level = Vec::with_capacity(shard_count);
            for shard in 0..shard_count as u64 {
                // The edge takes the summary the leaf read off its
                // dictionaries, as a socket parent takes the `Loaded` ack.
                let spec = node_spec(config, leaf_primary(shard), epoch);
                let (leaf, _) = Node::leaf(shard, coded(shard)?, &config.build, spec)?;
                level.push(ChildHandle::local(Arc::new(leaf), Some(shard), config.replication));
            }
            let top = stack_levels(level, fanout, |height, i, group| {
                let spec = node_spec(config, format!("m{height}_{i}"), epoch);
                Ok(ChildHandle::local(Arc::new(Node::mixer(group, spec)), None, false))
            })?;
            (top, None)
        }
        Transport::Rpc(rpc) => {
            // Dropping `workers` on an early return reaps what was spawned
            // so far.
            let mut workers = Workers::new(rpc)?;
            let mut level = Vec::with_capacity(shard_count);
            for shard in 0..shard_count as u64 {
                level.push(workers.load_leaf(shard, coded(shard)?, config, epoch)?);
            }
            // Each shard's summary moves up with its spec — into the
            // `Attach` of the parent that prunes with it, and on into the
            // root's handles; the driver keeps no other copy.
            let top = stack_levels(level, fanout, |height, i, group| {
                // Socket children are other processes: the fan-out writes
                // to each and then reads each on one thread, so a merge
                // server has no width to choose.
                let spec =
                    NodeSpec { threads: 1, ..node_spec(config, format!("m{height}_{i}"), epoch) };
                workers.attach_mixer(group, spec)
            })?;
            let compress = workers.compress;
            let top = top.into_iter().map(|spec| ChildHandle::new(spec, compress)).collect();
            (top, Some(workers))
        }
    };
    let root = Node::mixer(children, node_spec(config, "root".into(), epoch));
    Ok((root, workers, shard_count))
}

/// Group `level` into subtrees of `fanout` children, one `mixer` each, until
/// one level fits the fanout; returns that top level. `mixer` gets the
/// level's height (≥ 1), the group's index in it, and the group.
fn stack_levels<C>(
    mut level: Vec<C>,
    fanout: usize,
    mut mixer: impl FnMut(u64, usize, Vec<C>) -> Result<C>,
) -> Result<Vec<C>> {
    let mut height = 1u64;
    while level.len() > fanout {
        let mut next = Vec::with_capacity(level.len().div_ceil(fanout));
        let mut rest = level.into_iter().peekable();
        while rest.peek().is_some() {
            let group: Vec<C> = rest.by_ref().take(fanout).collect();
            next.push(mixer(height, next.len(), group)?);
        }
        level = next;
        height += 1;
    }
    Ok(level)
}

/// What every node of a tree built from `config` is told besides its name.
pub(crate) fn node_spec(config: &ClusterConfig, name: String, epoch: u64) -> NodeSpec {
    NodeSpec { name, cache_entries: config.shard_cache, epoch, threads: config.threads }
}

/// Piece `i` of `table` cut into `pieces` contiguous row ranges of near
/// equal size — a build's shard `i` of `pieces` shards, or an append's
/// piece `i` — as column slices, dictionary-coded once: the one form in
/// which rows reach a leaf. Never empty while `pieces` ≤ the row count.
fn contiguous_piece(table: &Table, i: usize, pieces: usize) -> Result<TableDelta> {
    let n = table.len();
    let rows = n * i / pieces..n * (i + 1) / pieces;
    let columns: Vec<&[Value]> =
        (0..table.schema().len()).map(|c| &table.column(c)[rows.clone()]).collect();
    TableDelta::from_columns(table.schema().clone(), &columns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_common::Value;
    use pd_core::{query, DataStore};
    use pd_data::{generate_logs, LogsSpec};

    fn logs_cluster(shards: usize, replication: bool) -> (Table, Cluster) {
        let table = generate_logs(&LogsSpec::scaled(2_000));
        let mut build = BuildOptions::production(&["country", "table_name"]);
        if let Some(spec) = &mut build.partition {
            spec.max_chunk_rows = 200;
        }
        let cluster = Cluster::build(
            &table,
            &ClusterConfig { shards, replication, build, ..Default::default() },
        )
        .unwrap();
        (table, cluster)
    }

    #[test]
    fn cluster_matches_single_store() {
        let (table, cluster) = logs_cluster(4, true);
        let store = DataStore::build(&table, &BuildOptions::basic()).unwrap();
        for sql in [
            "SELECT country, COUNT(*) as c FROM logs GROUP BY country ORDER BY c DESC LIMIT 10",
            "SELECT country, SUM(timestamp) as s FROM logs GROUP BY country ORDER BY s DESC LIMIT 5",
            "SELECT COUNT(*) FROM logs WHERE country = 'DE'",
        ] {
            let (expect, _) = query(&store, sql).unwrap();
            let outcome = cluster.query(sql).unwrap();
            assert_eq!(outcome.result, expect, "{sql}");
            assert_eq!(outcome.subquery_latencies.len(), 4);
            assert!(outcome.failovers.is_empty());
        }
    }

    #[test]
    fn append_matches_a_full_rebuild_bit_identically() {
        // Split a table into a base import plus two append batches; after
        // each append the cluster must answer exactly like a cluster (and
        // a single store) built from scratch over the same prefix.
        let table = generate_logs(&LogsSpec::scaled(3_000));
        let sqls = [
            "SELECT country, COUNT(*) c FROM logs GROUP BY country ORDER BY c DESC LIMIT 10",
            "SELECT country, SUM(latency) s FROM logs GROUP BY country ORDER BY s DESC LIMIT 5",
            "SELECT MIN(user) lo, MAX(user) hi FROM logs",
            "SELECT COUNT(*) FROM logs WHERE country = 'DE'",
        ];
        let mut build = BuildOptions::production(&["country", "table_name"]);
        if let Some(spec) = &mut build.partition {
            spec.max_chunk_rows = 200;
        }
        let config = ClusterConfig { shards: 4, build, ..Default::default() };
        let slice = |lo: usize, hi: usize| {
            let rows: Vec<usize> = (lo..hi).collect();
            table.select_rows(&rows)
        };
        let mut cluster = Cluster::build(&slice(0, 2_400), &config).unwrap();
        for batch_end in [2_700, 3_000] {
            let batch_start = batch_end - 300;
            let outcome = cluster.append(&slice(batch_start, batch_end)).unwrap();
            assert_eq!(outcome.rows, 300);
            assert_eq!(outcome.bytes_shipped, 0, "in-process appends ship nothing");
            let fresh = Cluster::build(&slice(0, batch_end), &config).unwrap();
            let store = DataStore::build(&slice(0, batch_end), &BuildOptions::basic()).unwrap();
            for sql in sqls {
                let appended = cluster.query(sql).unwrap().result;
                assert_eq!(appended, fresh.query(sql).unwrap().result, "{sql} @ {batch_end}");
                assert_eq!(appended, query(&store, sql).unwrap().0, "{sql} @ {batch_end}");
            }
        }
    }

    #[test]
    fn append_bumps_the_epoch_and_invalidates_the_shard_cache() {
        let (table, mut cluster) = logs_cluster(4, true);
        let sql = "SELECT country, COUNT(*) c FROM logs GROUP BY country ORDER BY c DESC LIMIT 5";
        let cold = cluster.query(sql).unwrap();
        assert_eq!(cluster.query(sql).unwrap().shard_cache_hits, 4);
        let epoch_before = cluster.epoch();
        let rows: Vec<usize> = (0..100).collect();
        cluster.append(&table.select_rows(&rows)).unwrap();
        assert_eq!(cluster.epoch(), epoch_before + 1, "append advances the rebuild epoch");
        // The root remembers the chart, and was told what arrived: the
        // stale partial never answers as it stands — it is brought forward.
        let warm = cluster.query(sql).unwrap();
        assert_ne!(warm.result, cold.result, "the appended rows change the counts");
        let all: Vec<usize> = (0..table.len()).chain(rows).collect();
        let store = DataStore::build(&table.select_rows(&all), &BuildOptions::basic()).unwrap();
        assert_eq!(warm.result, query(&store, sql).unwrap().0, "stale partials never answer");
        assert_eq!((warm.shard_cache_hits, warm.stats.rows_total), (4, 2_100));
    }

    #[test]
    fn a_rejected_delta_changes_nothing() {
        // The delta's schema is checked before any shard or the epoch is
        // touched: the cluster keeps its epoch, its caches and its answers.
        let (_, mut cluster) = logs_cluster(3, true);
        let sql = "SELECT country, COUNT(*) c FROM logs GROUP BY country ORDER BY c DESC LIMIT 5";
        let before = cluster.query(sql).unwrap();
        let mut alien = Table::new(pd_common::Schema::of(&[("k", pd_common::DataType::Str)]));
        alien.push_row(pd_common::Row(vec![Value::from("x")])).unwrap();
        let err = cluster.append(&alien).unwrap_err();
        assert!(matches!(err, Error::Schema(_)), "typed rejection: {err}");
        assert_eq!(cluster.epoch(), 1, "a rejected delta must not advance the epoch");
        let after = cluster.query(sql).unwrap();
        assert_eq!(after.result, before.result);
        assert_eq!(after.shard_cache_hits, 3, "nothing was invalidated");
    }

    #[test]
    fn epochs_advance_monotonically_across_append_and_rebuild() {
        // Interleave appends, rebuilds and queries: the epoch must tick
        // once per mutation (never stall, never jump), and each query must
        // see exactly the data of the latest mutation.
        let table = generate_logs(&LogsSpec::scaled(1_200));
        let slice = |lo: usize, hi: usize| {
            let rows: Vec<usize> = (lo..hi).collect();
            table.select_rows(&rows)
        };
        let sql = "SELECT COUNT(*) c FROM logs";
        let count = |cluster: &Cluster| match cluster.query(sql).unwrap().result.rows[0].0[0] {
            Value::Int(n) => n,
            ref other => panic!("COUNT(*) must be an Int, got {other:?}"),
        };
        let mut cluster =
            Cluster::build(&slice(0, 1_000), &ClusterConfig { shards: 3, ..Default::default() })
                .unwrap();
        assert_eq!((cluster.epoch(), count(&cluster)), (1, 1_000));
        cluster.append(&slice(1_000, 1_100)).unwrap();
        assert_eq!((cluster.epoch(), count(&cluster)), (2, 1_100));
        cluster.rebuild(&slice(0, 500)).unwrap();
        assert_eq!((cluster.epoch(), count(&cluster)), (3, 500));
        cluster.append(&slice(500, 1_200)).unwrap();
        assert_eq!((cluster.epoch(), count(&cluster)), (4, 1_200));
        // Repeating a query does not advance the epoch.
        assert_eq!((cluster.epoch(), count(&cluster)), (4, 1_200));
    }

    #[test]
    fn shard_stats_accumulate() {
        let (_, cluster) = logs_cluster(3, false);
        let outcome = cluster.query("SELECT COUNT(*) FROM logs WHERE country = 'SG'").unwrap();
        assert_eq!(outcome.stats.rows_total, 2_000);
        assert_eq!(
            outcome.stats.rows_skipped + outcome.stats.rows_cached + outcome.stats.rows_scanned,
            outcome.stats.rows_total
        );
    }

    #[test]
    fn repeated_queries_hit_the_shard_cache() {
        let (_, cluster) = logs_cluster(4, true);
        let sql = "SELECT country, COUNT(*) c FROM logs GROUP BY country ORDER BY c DESC LIMIT 5";
        let cold = cluster.query(sql).unwrap();
        assert_eq!(cold.shard_cache_hits, 0);
        let warm = cluster.query(sql).unwrap();
        assert_eq!(warm.shard_cache_hits, 4, "every shard partial is reused");
        assert_eq!(warm.result, cold.result, "cache must not change results");
        assert_eq!(warm.stats.rows_cached, warm.stats.rows_total);
        assert_eq!(warm.stats.rows_scanned, 0);
        // A different LIMIT shares the same partials (presentation-only).
        let limited = cluster
            .query("SELECT country, COUNT(*) c FROM logs GROUP BY country ORDER BY c DESC LIMIT 2")
            .unwrap();
        assert_eq!(limited.shard_cache_hits, 4);
        assert_eq!(limited.result.rows.len(), 2);
    }

    #[test]
    fn tree_depth_shrinks_with_fanout() {
        assert_eq!(TreeShape { fanout: 2 }.depth(1024), 10);
        assert_eq!(TreeShape { fanout: 4 }.depth(1024), 5);
        assert_eq!(TreeShape { fanout: 64 }.depth(1024), 2);
        assert_eq!(TreeShape { fanout: 16 }.depth(1), 0);
    }

    #[test]
    fn admission_sheds_beyond_the_in_flight_budget() {
        let table = generate_logs(&LogsSpec::scaled(200));
        let cluster = Cluster::build(
            &table,
            &ClusterConfig {
                shards: 2,
                admission: AdmissionConfig { max_in_flight: 2, ..Default::default() },
                ..Default::default()
            },
        )
        .unwrap();
        let first = cluster.admit().unwrap();
        let _second = cluster.admit().unwrap();
        let shed = cluster.admit().unwrap_err();
        assert!(matches!(shed, Error::Rpc(RpcError::Overloaded(_))), "typed shed: {shed}");
        assert_eq!(cluster.shed_count(), 1);
        // Dropping a permit frees its slot.
        drop(first);
        let _third = cluster.admit().unwrap();
        // Saturation halves the limit: with the observed queue p95 past
        // the threshold, max 2 becomes 1 — the second slot is gone even
        // though it is nominally free.
        {
            let now = Instant::now();
            let mut recent = cluster.recent_queue.lock();
            for _ in 0..32 {
                recent.push_back((now, Duration::from_millis(400)));
            }
        }
        let shed = cluster.admit().unwrap_err();
        assert!(matches!(shed, Error::Rpc(RpcError::Overloaded(_))), "typed shed: {shed}");
        assert!(shed.to_string().contains("saturated"), "{shed}");
        assert_eq!(cluster.shed_count(), 2);
    }

    #[test]
    fn hedge_delay_tracks_the_observed_queue_tail() {
        let table = generate_logs(&LogsSpec::scaled(200));
        let cluster =
            Cluster::build(&table, &ClusterConfig { shards: 2, ..Default::default() }).unwrap();
        let budget = Duration::from_secs(30);
        // Cold cluster: no observations yet, fall back to budget/8.
        assert_eq!(cluster.hedge_delay(budget), budget / 8);
        // A fast queue tail clamps to the 25 ms floor (8×1ms + 2ms = 10ms).
        cluster.recent_queue.lock().extend(vec![(Instant::now(), Duration::from_millis(1)); 64]);
        assert_eq!(cluster.hedge_delay(budget), Duration::from_millis(25));
        // A pathological tail is capped at half the budget: hedging later
        // than that cannot beat the deadline anyway.
        cluster.recent_queue.lock().extend(vec![(Instant::now(), Duration::from_secs(10)); 64]);
        assert_eq!(cluster.hedge_delay(Duration::from_secs(1)), Duration::from_millis(500));
    }

    #[test]
    fn answers_out_of_the_roots_cache_leave_the_queue_estimates_alone() {
        let (_, cluster) = logs_cluster(4, false);
        let sql = "SELECT country, COUNT(*) c FROM logs GROUP BY country ORDER BY c DESC LIMIT 5";
        // A saturated ring, then one miss: its four reports crossed an edge
        // and are samples like any other.
        cluster
            .recent_queue
            .lock()
            .extend(vec![(Instant::now(), Duration::from_millis(400)); RECENT_QUEUE_CAP - 40]);
        assert_eq!(cluster.query(sql).unwrap().worker_cache_hits(), 0);
        let after_the_miss = (cluster.queue_p95(), cluster.recent_queue.lock().len());
        assert_eq!(after_the_miss, (Some(Duration::from_millis(400)), RECENT_QUEUE_CAP - 36));
        let observed = cluster.observed_queue.lock().clone();
        // 64 repeats × 4 synthesized zero-queue reports would displace the
        // whole ring and read "nobody is waiting".
        for _ in 0..64 {
            let hit = cluster.query(sql).unwrap();
            assert_eq!((hit.worker_cache_hits(), hit.shard_cache_hits), (1, 4));
        }
        assert_eq!((cluster.queue_p95(), cluster.recent_queue.lock().len()), after_the_miss);
        assert_eq!(*cluster.observed_queue.lock(), observed);
    }

    #[test]
    fn stale_queue_samples_expire_and_sheds_stop() {
        let table = generate_logs(&LogsSpec::scaled(200));
        let cluster = Cluster::build(
            &table,
            &ClusterConfig {
                shards: 2,
                admission: AdmissionConfig { max_in_flight: 2, ..Default::default() },
                ..Default::default()
            },
        )
        .unwrap();
        // A queue spike that ended long ago: every sample predates the
        // TTL. Before samples carried timestamps this ring kept reporting
        // a 400 ms "current" p95 forever (nothing displaced it), so the
        // halved limit outlived the spike indefinitely.
        let stale = Instant::now()
            .checked_sub(RECENT_QUEUE_TTL + Duration::from_secs(1))
            .expect("process uptime exceeds the sample TTL");
        {
            let mut recent = cluster.recent_queue.lock();
            for _ in 0..32 {
                recent.push_back((stale, Duration::from_millis(400)));
            }
        }
        assert_eq!(cluster.queue_p95(), None, "expired samples must not report a p95");
        // Both nominal slots admit again — the limit is no longer halved.
        let _first = cluster.admit().unwrap();
        let _second = cluster.admit().unwrap();
        assert_eq!(cluster.shed_count(), 0, "sheds must stop once the spike has aged out");
        // The hedge delay falls back to its cold estimate too.
        let budget = Duration::from_secs(30);
        assert_eq!(cluster.hedge_delay(budget), budget / 8);
        assert!(cluster.recent_queue.lock().is_empty(), "expiry prunes the ring in place");
    }

    #[test]
    fn small_sample_p95_is_the_median_not_the_max() {
        let table = generate_logs(&LogsSpec::scaled(200));
        let cluster =
            Cluster::build(&table, &ClusterConfig { shards: 2, ..Default::default() }).unwrap();
        let now = Instant::now();
        // Ten samples: one 500 ms outlier among nine 1 ms delays. The old
        // nearest-rank index (10·95/100 = 9) selected the outlier — the
        // sample *max* — and the hedge delay ballooned to 8×500ms. Small
        // rings now report the median.
        {
            let mut recent = cluster.recent_queue.lock();
            for _ in 0..9 {
                recent.push_back((now, Duration::from_millis(1)));
            }
            recent.push_back((now, Duration::from_millis(500)));
        }
        assert_eq!(cluster.queue_p95(), Some(Duration::from_millis(1)));
        assert_eq!(
            cluster.hedge_delay(Duration::from_secs(30)),
            Duration::from_millis(25),
            "one outlier in a small ring must not inflate the hedge delay"
        );
        // At n ≥ 20 the estimate is a true nearest-rank p95: for 1..=100 ms
        // the 95th of 100 sorted samples is 95 ms (the old floor index
        // overshot to 96 ms).
        {
            let mut recent = cluster.recent_queue.lock();
            recent.clear();
            for ms in 1..=100 {
                recent.push_back((now, Duration::from_millis(ms)));
            }
        }
        assert_eq!(cluster.queue_p95(), Some(Duration::from_millis(95)));
    }
}
