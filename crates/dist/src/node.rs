//! One node of the §4 computation tree — the same code wherever it runs.
//!
//! The paper's tree is uniform: every server, leaf or mixer, does the same
//! thing to the query it is handed and does not care where its children
//! live. [`Node`] is that server. A **leaf** owns a shard's
//! [`pd_core::DataStore`] and executes the shipped query over it; a
//! **mixer** owns children ([`ChildHandle`]s — each a socket to a worker
//! process or a reference to another `Node`), fans the query out and folds
//! their partials. Both own a [`WorkerCache`] keyed by the normalized query
//! signature and an epoch that names the data it describes; an entry shares
//! its table with the answers it came from and serves, so remembering
//! copies nothing. An append walks the tree a query walks ([`Node::append`]):
//! every node is told of it, a mixer keeps what it remembers and brings it
//! up to date from the rows that arrived since (its tail); a node that
//! meets an epoch it was not told of forgets. A `pd-dist-worker` process
//! holds one `Node` behind its FIFO turnstile ([`crate::worker`]); a
//! [`crate::Transport::InProcess`] cluster holds a whole tree of them; and
//! the driver of either holds the root — a mixer over the top level
//! ([`crate::Cluster`]), which is why a chart asked before costs no hop at
//! all. [`Node::query`] and [`Node::append`] are the only query and append
//! paths any of them has.

use crate::meta::{self, ShardMeta};
use crate::rpc::{
    absorb_into, fan_out, AppendAck, AppendReceipt, AppendRequest, ChildHandle, QueryRequest,
    ShardReport, SubtreeAnswer, LOAD_TIMEOUT,
};
use crate::shard_cache::{query_signature, CachedSubtree, TailMark, WorkerCache};
use pd_common::sync::RwLock;
use pd_common::{Error, Result, RpcError};
use pd_core::{
    execute_partial_seeded, scheduler, BuildOptions, ChunkActivity, DataStore, ExecContext,
    PartialResult, ResultCache, ScanStats,
};
use pd_encoding::TableDelta;
use pd_sql::AnalyzedQuery;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a node is told when it is assigned its role — the non-data half of
/// a `Load` / `Attach` message, and the same bytes in both.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Tree-wide name (`l0p`, `m1_0`, ...): what chaos directives target.
    pub name: String,
    /// Capacity (signatures) of the node's result cache; 0 disables it.
    pub cache_entries: usize,
    /// Rebuild epoch of the data beneath this node.
    pub epoch: u64,
    /// Width of this node's parallel work — a leaf's chunk scan, a mixer's
    /// fan-out over in-memory children (0 = auto). A fan-out over socket
    /// children has no width: it runs on the calling thread.
    pub threads: usize,
}

/// A leaf's executable state.
struct Leaf {
    shard: u64,
    store: DataStore,
    ctx: ExecContext,
    /// The shard's summary, read off the store's dictionaries when it was
    /// built and brought up to date by every append: the copy the parent
    /// edge prunes by is equal to it, and it seeds this leaf's scans.
    meta: ShardMeta,
}

enum Role {
    /// Behind a lock so [`Node::append`] can reach the store through the
    /// shared references queries hold (a mixer's summaries are behind
    /// their edges' locks).
    Leaf(Box<RwLock<Leaf>>),
    Mixer(Vec<ChildHandle>),
}

/// The rows that arrived beneath a mixer since its cache last started
/// empty, as a store of their own: what a remembered partial lacks is the
/// answer over the tail chunks past its [`TailMark`], and every state
/// column merges exactly, so scanning those and merging brings it up to
/// date bit for bit — without a hop. Built by the calls a leaf makes
/// ([`DataStore::from_coded`], then [`DataStore::append_delta`]), one
/// chunk per appended delta, unpartitioned: the recipe the leaves were
/// built by never reaches a merge server, and answers do not depend on it.
struct Tail {
    store: DataStore,
    ctx: ExecContext,
    /// Everything in `store`: what an entry stamped now records.
    mark: TailMark,
}

impl Tail {
    /// `query` over the rows past `from` alone: their partial, and stats
    /// that count them and nothing else.
    fn scan_past(
        &self,
        from: TailMark,
        query: &AnalyzedQuery,
    ) -> Result<(PartialResult, ScanStats)> {
        let seeds = vec![ChunkActivity::Skip; from.chunks];
        let (partial, mut stats) =
            execute_partial_seeded(&self.store, query, &self.ctx, Some(&seeds))?;
        // The seeded chunks came back counted as skipped: they are the
        // rows the entry already holds, not rows of this scan.
        stats.chunks_skipped -= from.chunks;
        stats.rows_skipped -= from.rows;
        stats.rows_total -= from.rows;
        stats.chunks_total = self.mark.leaf_chunks - from.leaf_chunks;
        Ok((partial, stats))
    }
}

/// A tail is dropped, and the cache with it, once it holds more bytes than
/// the tables the cache keeps alive — the node's memory at most doubles —
/// but never below this: a dashboard of small charts is worth bringing
/// forward too, and a tail this size is not what a node runs out of.
const TAIL_FLOOR_BYTES: usize = 1 << 20;

/// What a node scans with: its width and a chunk-result cache of its own.
fn scan_context(threads: usize) -> ExecContext {
    ExecContext {
        threads,
        result_cache: Some(Arc::new(ResultCache::new(1 << 14))),
        ..Default::default()
    }
}

/// Append `delta` to `store`, keeping the chunk results `ctx` holds: old
/// chunks are immutable and their ids stable. They are cleared only if the
/// store had to drop a virtual field, whose rebuild renumbers its ids.
fn append_rows(store: &mut DataStore, ctx: &ExecContext, delta: &TableDelta) -> Result<()> {
    let old_virtuals = store.virtual_names();
    store.append_delta(delta)?;
    if let (Some(results), true) = (&ctx.result_cache, store.virtual_names() != old_virtuals) {
        results.clear();
    }
    Ok(())
}

/// A tree node: leaf server or mixer.
pub struct Node {
    name: String,
    cache: Option<WorkerCache>,
    /// Epoch of the data the cache describes — with the tail's rows, on a
    /// mixer told of appends; a query carrying another one drops both
    /// first.
    epoch: AtomicU64,
    /// A mixer's appended rows ([`Tail`]); `None` until the first append
    /// it keeps its cache through, after every [`Node::invalidate`], and on
    /// a node without a cache.
    tail: RwLock<Option<Tail>>,
    threads: usize,
    /// The sketch size this node's partials are computed at — part of its
    /// cache signature (a mixer folds whatever its leaves used: 0).
    sketch_m: usize,
    role: Role,
}

impl Node {
    fn new(spec: NodeSpec, sketch_m: usize, role: Role) -> Node {
        Node {
            name: spec.name,
            cache: (spec.cache_entries > 0).then(|| WorkerCache::new(spec.cache_entries)),
            epoch: AtomicU64::new(spec.epoch),
            tail: RwLock::new(None),
            threads: if spec.threads == 0 { scheduler::default_threads() } else { spec.threads },
            sketch_m,
            role,
        }
    }

    /// Build shard `shard`'s leaf from its rows as coded columns — how they
    /// arrive whether a frame or the driver's own split brought them. Every
    /// leaf keeps a [`ShardMeta`] of exactly these rows, made here and
    /// nowhere else: read off the dictionaries of the *built* store — its
    /// chunk dictionaries say which values each chunk scan visits, which is
    /// what every query-time verdict must hold for. Returned beside the
    /// node, as a worker's `Loaded` ack carries it.
    pub fn leaf(
        shard: u64,
        delta: TableDelta,
        build: &BuildOptions,
        spec: NodeSpec,
    ) -> Result<(Node, ShardMeta)> {
        let store = DataStore::from_coded(delta, build)?;
        let meta = ShardMeta::of_store(shard, &store)?;
        let leaf = Leaf { shard, store, ctx: scan_context(spec.threads), meta: meta.clone() };
        let node = Node::new(spec, leaf.ctx.sketch_m(), Role::Leaf(Box::new(RwLock::new(leaf))));
        Ok((node, meta))
    }

    /// A merge server over `children`.
    pub fn mixer(children: Vec<ChildHandle>, spec: NodeSpec) -> Node {
        Node::new(spec, 0, Role::Mixer(children))
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Resolved width of this node's parallel work (see [`NodeSpec::threads`]).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The current summaries of the shards beneath this node: a leaf's own,
    /// or the copies a mixer's edges hold — what an edge to this node
    /// prunes by.
    pub fn metas(&self) -> Vec<ShardMeta> {
        match &self.role {
            Role::Leaf(leaf) => vec![leaf.read().meta.clone()],
            Role::Mixer(children) => children.iter().flat_map(|c| c.metas.read().clone()).collect(),
        }
    }

    /// `(shard, rows)` of every shard beneath this node, read in place off
    /// the summaries [`Node::metas`] copies: what an append is routed by.
    pub(crate) fn shard_rows(&self) -> Vec<(u64, u64)> {
        let mut rows = Vec::new();
        match &self.role {
            Role::Leaf(leaf) => {
                let leaf = leaf.read();
                rows.push((leaf.shard, leaf.meta.rows));
            }
            Role::Mixer(children) => {
                for child in children {
                    rows.extend(child.metas.read().iter().map(|meta| (meta.shard, meta.rows)));
                }
            }
        }
        rows
    }

    /// Summed `(hits, misses)` of this node's result cache and of every
    /// node beneath it that is reachable in this address space.
    pub fn cache_stats(&self) -> (u64, u64) {
        let (mut hits, mut misses) = self.cache.as_ref().map_or((0, 0), WorkerCache::stats);
        if let Role::Mixer(children) = &self.role {
            for child in children {
                let (h, m) = child.cache_stats();
                hits += h;
                misses += m;
            }
        }
        (hits, misses)
    }

    /// Drop every cached partial and the tail that could bring them forward
    /// — this node was not told how the data reached `epoch`, or the tail
    /// outgrew what it serves — and adopt `epoch`.
    fn invalidate(&self, epoch: u64) {
        if let Some(cache) = &self.cache {
            cache.invalidate();
        }
        *self.tail.write() = None;
        self.epoch.store(epoch, Ordering::SeqCst);
    }

    /// Answer one query: execute it (leaf) or fan it out and fold (mixer),
    /// unless this node's cache already holds the partial. `queued` is how
    /// long the request waited before reaching this call — for its turn in
    /// a worker process; zero over an in-memory edge.
    pub fn query(&self, request: &QueryRequest, queued: Duration) -> Result<SubtreeAnswer> {
        // The budget is the whole query's: decrement it by our own queue
        // delay, and fail typed and *immediately* once it is spent —
        // children are never asked to run a query nobody is waiting for.
        let budget = request.budget.saturating_sub(queued);
        if budget.is_zero() {
            return Err(Error::Rpc(RpcError::Deadline(format!(
                "{}: budget spent after {queued:?} queued",
                self.name
            ))));
        }
        // A node told of every append ([`Node::append`]) is at the request's
        // epoch already; one at another epoch was not told what changed.
        // (Freshly built trees get their epoch at construction.)
        if self.epoch.load(Ordering::SeqCst) != request.epoch {
            self.invalidate(request.epoch);
        }
        let signature = self.cache.as_ref().map(|_| query_signature(&request.query, self.sketch_m));
        // Where the tail stands now: what a fresh entry will contain, and
        // what a remembered one may lack. No append runs beside a query.
        let tail = self.tail.read();
        let now = tail.as_ref().map_or(TailMark::default(), |tail| tail.mark);
        if let (Some(cache), Some(signature)) = (&self.cache, &signature) {
            if let Some(entry) = cache.get(signature) {
                // The nearest-cache answer: the cached table itself, zero
                // child hops, every row beneath accounted as cached.
                let Some(tail) = tail.as_ref().filter(|_| entry.at() != now) else {
                    return Ok(entry.to_answer(queued));
                };
                // Remembered, but rows arrived since: scan those alone and
                // merge. Still no hop, and the old rows are still cached;
                // the new ones count as their scan found them. A scan that
                // fails (a delta left a virtual field two-typed) leaves
                // the miss path to report it.
                let brought = tail
                    .scan_past(entry.at(), &request.query)
                    .and_then(|(fresh, scan)| Ok((entry.brought_forward(fresh, now)?, scan)));
                if let Ok((forward, scan)) = brought {
                    let mut answer = entry.to_answer(queued);
                    answer.partial = forward.partial.clone();
                    answer.stats += &scan;
                    cache.put(signature, Arc::new(forward));
                    return Ok(answer);
                }
            }
        }
        drop(tail);
        let answer = match &self.role {
            Role::Leaf(leaf) => execute_leaf(&leaf.read(), request, queued)?,
            Role::Mixer(children) => {
                let forwarded;
                let request = if queued.is_zero() {
                    request
                } else {
                    forwarded = QueryRequest { budget, ..request.clone() };
                    &forwarded
                };
                let mut answer = fan_out(children, request)?;
                for report in &mut answer.reports {
                    // This node's own queueing delays every shard beneath.
                    report.queue += queued;
                }
                answer
            }
        };
        if let (Some(cache), Some(signature)) = (&self.cache, &signature) {
            // Admission is cost-aware: the cells scanned beneath this node
            // are what a future miss would scan again.
            cache.put(signature, Arc::new(CachedSubtree::capture(&answer, now)));
        }
        Ok(answer)
    }

    /// Apply an append to the shards beneath this node — the one append
    /// path, over the edges a query walks. A leaf applies its shard's delta
    /// (`Leaf::apply`); a mixer writes each child the deltas beneath it,
    /// grows its tail by the same rows while they apply, and absorbs their
    /// receipts into its copies of the summaries ([`absorb_into`]). A shard
    /// named twice or not beneath the node refuses the whole request before
    /// anything is written or applied. Told in order (the epoch after its
    /// own), a node keeps what it remembers — short, not wrong: [`Node::query`]
    /// brings it forward from the tail — unless it is a leaf whose shard got
    /// rows, or a mixer that remembers nothing or whose tail outgrew the
    /// tables it serves (and a 1 MiB floor). Returns every receipt beneath
    /// the node and the bytes written to get them.
    pub fn append(&self, append: &AppendRequest) -> Result<AppendAck> {
        let told = self.epoch.load(Ordering::SeqCst) + 1 == append.epoch;
        let (ack, kept) = match &self.role {
            Role::Leaf(leaf) => {
                let receipts = leaf.write().apply(&self.name, &append.deltas)?;
                let kept = told && receipts.is_empty();
                (AppendAck { receipts, bytes: 0 }, kept)
            }
            Role::Mixer(children) => self.append_to(children, append, told)?,
        };
        if kept {
            self.epoch.store(append.epoch, Ordering::SeqCst);
        } else {
            self.invalidate(append.epoch);
        }
        Ok(ack)
    }

    /// A mixer's part of [`Node::append`]; returns whether it keeps its
    /// cache beside the ack.
    fn append_to(
        &self,
        children: &[ChildHandle],
        append: &AppendRequest,
        told: bool,
    ) -> Result<(AppendAck, bool)> {
        let name = &self.name;
        // Per child, what it is written and the indexes of those deltas.
        let mut requests =
            vec![AppendRequest { epoch: append.epoch, deltas: Vec::new() }; children.len()];
        let mut routes: Vec<Vec<usize>> = vec![Vec::new(); children.len()];
        for (i, (shard, delta)) in append.deltas.iter().enumerate() {
            let Some(child) = children.iter().position(|child| child.holds(*shard)) else {
                return Err(Error::Data(format!("append: shard {shard} not beneath {name}")));
            };
            if requests[child].deltas.iter().any(|(other, _)| other == shard) {
                return Err(Error::Data(format!("append: shard {shard} named twice")));
            }
            requests[child].deltas.push((*shard, delta.clone()));
            routes[child].push(i);
        }
        let deadline = Instant::now() + LOAD_TIMEOUT;
        let flights = (children.iter().zip(&requests))
            .map(|(child, request)| child.begin_append(request, deadline))
            .collect::<Result<Vec<_>>>()?;
        let cache = self.cache.as_ref().filter(|cache| told && !cache.is_empty());
        let kept = cache.is_some_and(|cache| {
            let bound = cache.table_bytes().max(TAIL_FLOOR_BYTES);
            self.grow_tail(&append.deltas).is_ok_and(|bytes| bytes <= bound)
        });
        let (mut receipts, mut bytes) = (vec![None; append.deltas.len()], 0);
        for ((flight, request), route) in flights.into_iter().zip(&requests).zip(&routes) {
            let ack = flight.finish(request, deadline)?;
            bytes += ack.bytes;
            for (&i, receipt) in route.iter().zip(ack.receipts) {
                receipts[i] = Some(receipt);
            }
        }
        let receipts: Vec<AppendReceipt> = (receipts.into_iter().collect::<Option<_>>())
            .ok_or_else(|| Error::Data(format!("append: {name} missed a receipt")))?;
        absorb_into(children, &append.deltas, &receipts)?;
        if let (true, Some(tail)) = (kept, self.tail.write().as_mut()) {
            tail.mark.leaf_chunks += receipts.iter().map(|r| r.new_chunk_rows.len()).sum::<usize>();
        }
        Ok((AppendAck { receipts, bytes }, kept))
    }

    /// Append `deltas`' rows to the tail, starting it with the first;
    /// returns the bytes it now holds. The mark's leaf chunks wait for the
    /// receipts. After an `Err` the tail is not to be used.
    fn grow_tail(&self, deltas: &[(u64, TableDelta)]) -> Result<usize> {
        let mut tail = self.tail.write();
        // A delta without rows makes no chunk, and a store cannot start empty.
        for (_, delta) in deltas.iter().filter(|(_, delta)| delta.rows > 0) {
            let tail = match &mut *tail {
                Some(tail) => {
                    append_rows(&mut tail.store, &tail.ctx, delta)?;
                    tail
                }
                None => tail.insert(Tail {
                    store: DataStore::from_coded(delta.clone(), &BuildOptions::basic())?,
                    ctx: scan_context(self.threads),
                    mark: TailMark::default(),
                }),
            };
            tail.mark.chunks = tail.store.chunk_count();
            tail.mark.rows += delta.rows;
        }
        Ok(tail.as_ref().map_or(0, |tail| tail.store.total_bytes()))
    }
}

impl Leaf {
    /// Apply this leaf's delta in `deltas` (none: the append fell
    /// elsewhere) in place: extend the store's dictionaries (existing ids
    /// stay stable), encode the rows as fresh chunks — the chunk results of
    /// the old ones stay good — and absorb exactly those into the summary.
    /// Returns the receipt with which every parent absorbs the same delta.
    fn apply(&mut self, name: &str, deltas: &[(u64, TableDelta)]) -> Result<Vec<AppendReceipt>> {
        let delta = match deltas {
            [] => return Ok(Vec::new()),
            [(shard, delta)] if *shard == self.shard => delta,
            _ => {
                let shards: Vec<u64> = deltas.iter().map(|(shard, _)| *shard).collect();
                return Err(Error::Data(format!("append: {name} handed shards {shards:?}")));
            }
        };
        let old_chunks = self.store.chunk_count();
        append_rows(&mut self.store, &self.ctx, delta)?;
        let receipt = AppendReceipt {
            new_chunk_rows: (old_chunks..self.store.chunk_count())
                .map(|c| self.store.chunk_rows(c) as u64)
                .collect(),
        };
        // The new chunks' zone maps and the column blooms absorb exactly
        // the delta rows, so pruning stays sound without a re-summarize
        // scan of the resident data.
        self.meta.absorb_append(delta, &receipt.new_chunk_rows)?;
        Ok(vec![receipt])
    }
}

fn execute_leaf(leaf: &Leaf, request: &QueryRequest, queued: Duration) -> Result<SubtreeAnswer> {
    let started = Instant::now();
    // Seed the scan with the metadata verdicts the parent already pruned
    // by: chunks the zone maps prove dead are skipped without consulting
    // the dictionaries, and the sound-verdict lattice composes the rest
    // with the local analysis (`seed.and(local)` — never less precise).
    let seeds = meta::chunk_verdicts(&request.query.restriction, &leaf.meta);
    let (partial, stats) =
        execute_partial_seeded(&leaf.store, &request.query, &leaf.ctx, Some(&seeds))?;
    Ok(SubtreeAnswer {
        partial,
        stats,
        reports: vec![ShardReport {
            shard: leaf.shard,
            // The parent overwrites latency with its own wall-clock
            // observation; the compute time is the fallback.
            latency: started.elapsed(),
            queue: queued,
            failover: false,
            hedged: false,
            cache_hit: false,
        }],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::{chunk_verdicts, may_match, MAX_DISTINCT};
    use pd_common::rng::Rng;
    use pd_common::{DataType, Schema, Value};
    use pd_sql::{parse_query, Restriction};
    use std::sync::Arc;

    fn restriction(where_sql: &str) -> Restriction {
        let q = parse_query(&format!("SELECT COUNT(*) FROM t WHERE {where_sql}")).unwrap();
        Restriction::from_expr(&q.where_clause.unwrap())
    }

    /// `(k, n)` rows for every `n` of `ns`, coded as a delta: `k` cycles
    /// through three values.
    fn kn_schema() -> Schema {
        Schema::of(&[("k", DataType::Str), ("n", DataType::Int)])
    }

    fn kn_delta(ns: std::ops::Range<i64>) -> TableDelta {
        let k: Vec<Value> =
            ns.clone().map(|n| Value::from(["a", "b", "c"][n as usize % 3])).collect();
        let n: Vec<Value> = ns.map(Value::Int).collect();
        TableDelta::from_columns(kn_schema(), &[&k, &n]).unwrap()
    }

    fn request(sql: &str, epoch: u64) -> QueryRequest {
        QueryRequest {
            query: pd_sql::analyze(&parse_query(sql).unwrap()).unwrap(),
            budget: Duration::from_secs(30),
            hedge_micros: 0,
            epoch,
            chaos: Vec::new(),
        }
    }

    fn spec(name: &str, cache_entries: usize) -> NodeSpec {
        NodeSpec { name: name.into(), cache_entries, epoch: 1, threads: 1 }
    }

    /// A root over one in-memory leaf holding `kn_delta(0..rows)`: the
    /// smallest tree with a tail.
    fn root_over_a_leaf(rows: i64, cache_entries: usize) -> Node {
        let build = BuildOptions::basic();
        let (leaf, _) = Node::leaf(0, kn_delta(0..rows), &build, spec("l0p", 4)).unwrap();
        let child = ChildHandle::local(Arc::new(leaf), Some(0), false);
        Node::mixer(vec![child], spec("root", cache_entries))
    }

    /// An append of `delta` to shard 0 at `epoch`.
    fn to_shard_0(delta: TableDelta, epoch: u64) -> AppendRequest {
        AppendRequest { epoch, deltas: vec![(0, delta)] }
    }

    /// One `Cluster::append` on that tree: the leaf applies, the root
    /// absorbs the receipt.
    fn append(root: &Node, delta: TableDelta, epoch: u64) {
        assert_eq!(root.append(&to_shard_0(delta, epoch)).unwrap().receipts.len(), 1);
    }

    // An integer for every row below 1000; a string once `n` reaches it.
    const BY_SIZE: &str = "SELECT COUNT(*) as c FROM t GROUP BY if(n >= 1000, 'big', 0)";
    const BY_K: &str = "SELECT k, COUNT(*) as c FROM t GROUP BY k";

    #[test]
    fn an_append_keeps_the_chunk_results_unless_it_drops_a_virtual_field() {
        let (leaf, _) =
            Node::leaf(0, kn_delta(0..90), &BuildOptions::basic(), spec("l0p", 4)).unwrap();
        let ask = |sql: &str, epoch: u64| {
            leaf.query(&request(sql, epoch), Duration::ZERO).map(|answer| answer.stats)
        };
        let append = |ns: std::ops::Range<i64>, epoch: u64| {
            leaf.append(&to_shard_0(kn_delta(ns), epoch)).unwrap()
        };
        ask(BY_SIZE, 1).unwrap();
        assert_eq!(ask(BY_K, 1).unwrap().rows_scanned, 90);

        // The field is extended: the old chunk's result is still good. (A
        // leaf is told of an append by applying it, and keeps no tail: its
        // node cache goes, its chunk results bring the rest.)
        append(90..100, 2);
        let kept = ask(BY_K, 2).unwrap();
        assert_eq!((kept.chunks_cached, kept.rows_scanned, kept.worker_cache_hits), (1, 10, 0));
        ask(BY_SIZE, 2).unwrap();

        // The field cannot hold 'big' and is dropped: whatever was cached
        // under its old ids goes, and so does everything else.
        append(1_000..1_010, 3);
        let cleared = ask(BY_K, 3).unwrap();
        assert_eq!((cleared.chunks_cached, cleared.rows_scanned), (0, 110));
        assert!(ask(BY_SIZE, 3).is_err(), "the field is now of two types");
    }

    #[test]
    fn a_virtual_field_an_append_leaves_two_typed_fails_as_a_miss_would() {
        let root = root_over_a_leaf(90, 4);
        // The same tree without a root cache: every answer is the miss path's.
        let bare = root_over_a_leaf(90, 0);
        let ask =
            |node: &Node, sql: &str, epoch: u64| node.query(&request(sql, epoch), Duration::ZERO);
        ask(&root, BY_SIZE, 1).unwrap();
        ask(&root, BY_K, 1).unwrap();

        // Integers still: both charts are brought forward, the tail
        // materializing the field over its own rows.
        append(&root, kn_delta(90..100), 2);
        append(&bare, kn_delta(90..100), 2);
        let forward = ask(&root, BY_SIZE, 2).unwrap();
        assert_eq!((forward.stats.worker_cache_hits, forward.stats.rows_scanned), (1, 10));
        assert_eq!(forward.partial, ask(&bare, BY_SIZE, 2).unwrap().partial);

        // 'big' arrives: the tail's field cannot hold it either. The
        // remembered chart fails with the error the leaf reports, while one
        // that does not name the field is still brought forward.
        append(&root, kn_delta(1_000..1_010), 3);
        append(&bare, kn_delta(1_000..1_010), 3);
        let missed = ask(&bare, BY_SIZE, 3).unwrap_err();
        assert_eq!(ask(&root, BY_SIZE, 3).unwrap_err().to_string(), missed.to_string());
        let by_k = ask(&root, BY_K, 3).unwrap();
        assert_eq!((by_k.stats.worker_cache_hits, by_k.stats.rows_total), (1, 110));
        assert_eq!(by_k.partial, ask(&bare, BY_K, 3).unwrap().partial);
    }

    #[test]
    fn a_tail_past_its_bound_goes_with_the_cache_it_served() {
        let root = root_over_a_leaf(100, 4);
        let tail_bytes = |root: &Node| root.tail.read().as_ref().map(|t| t.store.total_bytes());
        let cached = |root: &Node| root.cache.as_ref().unwrap().len();
        let ask =
            |root: &Node, epoch: u64| root.query(&request(BY_K, epoch), Duration::ZERO).unwrap();
        ask(&root, 1);
        // One small chart is remembered, so the bound is the floor. The
        // batch repeats 100 rows: bytes grow with rows, dictionaries do not.
        const BATCH: u64 = 25_000;
        let k: Vec<Value> =
            (0..BATCH).map(|i| Value::from(["a", "b", "c"][i as usize % 3])).collect();
        let n: Vec<Value> = (0..BATCH).map(|i| Value::Int(i as i64 % 100)).collect();
        let batch = TableDelta::from_columns(kn_schema(), &[&k, &n]).unwrap();
        let (mut rows, mut epoch, mut drops, mut peak) = (100u64, 1u64, 0, 0);
        while drops < 2 {
            epoch += 1;
            append(&root, batch.clone(), epoch);
            rows += BATCH;
            match tail_bytes(&root) {
                Some(bytes) => {
                    assert!(bytes <= TAIL_FLOOR_BYTES, "a kept tail is within its bound: {bytes}");
                    peak = bytes.max(peak);
                    let forward = ask(&root, epoch);
                    assert_eq!(forward.stats.worker_cache_hits, 1, "brought forward @ {rows}");
                    assert_eq!(forward.stats.rows_scanned, BATCH);
                }
                None => {
                    drops += 1;
                    assert_eq!(cached(&root), 0, "the cache went with the tail @ {rows}");
                    // Nothing is remembered: the next answer is a miss, and
                    // a correct one — the leaf holds every row.
                    let miss = ask(&root, epoch);
                    assert_eq!((miss.stats.worker_cache_hits, miss.stats.rows_total), (0, rows));
                    assert_eq!(cached(&root), 1);
                    assert!(tail_bytes(&root).is_none(), "a tail starts with the next append");
                }
            }
            assert!(epoch < 100, "the tail never reached its bound: {peak} bytes");
        }
        assert!(peak > TAIL_FLOOR_BYTES / 2, "the bound was approached from below: {peak}");
        // And a node that remembers nothing keeps no tail at all.
        let forgetful = root_over_a_leaf(100, 0);
        append(&forgetful, kn_delta(100..200), 2);
        assert!(tail_bytes(&forgetful).is_none());
    }

    /// Four leaves holding `kn_delta(0..100)` in quarters, two mixers over
    /// them that remember 8 charts each, and a root remembering
    /// `root_cache`: the root and the leaves.
    fn two_level_tree(root_cache: usize) -> (Node, Vec<Arc<Node>>) {
        let leaves: Vec<Arc<Node>> = (0..4u64)
            .map(|shard| {
                let rows = kn_delta(shard as i64 * 25..(shard as i64 + 1) * 25);
                let spec = spec(&format!("l{shard}p"), 8);
                Arc::new(Node::leaf(shard, rows, &BuildOptions::basic(), spec).unwrap().0)
            })
            .collect();
        let mixer = |name: &str, shards: [u64; 2]| {
            let children = shards
                .map(|shard| {
                    ChildHandle::local(Arc::clone(&leaves[shard as usize]), Some(shard), false)
                })
                .into();
            ChildHandle::local(Arc::new(Node::mixer(children, spec(name, 8))), None, false)
        };
        let children = vec![mixer("m1_0", [0, 1]), mixer("m1_1", [2, 3])];
        (Node::mixer(children, spec("root", root_cache)), leaves)
    }

    const A: &str = "SELECT k, COUNT(*) as c, SUM(n) as s FROM t GROUP BY k";

    /// Every in-process mixer is told of an append. Four leaves, two mixers
    /// that remember a chart, a root that remembers nothing: a one-row
    /// append to the last shard is brought forward by that shard's mixer
    /// over its one-row tail, and the other mixer, told with no deltas,
    /// keeps the chart as it stands.
    #[test]
    fn an_append_tells_every_in_process_mixer() {
        let (root, _) = two_level_tree(0);
        let cold = root.query(&request(A, 1), Duration::ZERO).unwrap();
        assert_eq!((cold.stats.worker_cache_hits, cold.stats.rows_scanned), (0, 100));

        let ack = root.append(&AppendRequest { epoch: 2, deltas: vec![(3, kn_delta(100..101))] });
        let receipt = AppendReceipt { new_chunk_rows: vec![1] };
        assert_eq!(ack.unwrap(), AppendAck { receipts: vec![receipt], bytes: 0 });
        let warm = root.query(&request(A, 2), Duration::ZERO).unwrap();
        let shard_hits = warm.reports.iter().filter(|report| report.cache_hit).count();
        assert_eq!(warm.stats.worker_cache_hits, 2, "both mixers remembered A");
        assert_eq!((shard_hits, warm.stats.rows_scanned), (4, 1), "and asked no leaf");
        let store = DataStore::from_coded(kn_delta(0..101), &BuildOptions::basic()).unwrap();
        let query = request(A, 2).query;
        let want = pd_core::query(&store, A).unwrap().0;
        assert_eq!(pd_core::finalize(&query, warm.partial).unwrap(), want);
    }

    /// A misrouted append is refused whole, typed, before any frame is
    /// written or any row applied: the same shard twice, a shard not beneath
    /// the node, a leaf handed another shard's delta (or two). Every node's
    /// epoch, cache, tail and summaries are as they were — the repeat is
    /// still the root's hit, with no row brought forward — and the append
    /// routed right then applies as the first of the epoch: in any shard
    /// order, each receipt absorbed into the copy of its own shard.
    #[test]
    fn a_misrouted_append_is_refused_whole() {
        let (root, leaves) = two_level_tree(8);
        let cold = root.query(&request(A, 1), Duration::ZERO).unwrap();
        let row = || kn_delta(100..101);
        let (metas, leaf_metas) = (root.metas(), leaves[0].metas());
        let refusals = [
            (&root, vec![(3, row()), (3, row())], "shard 3 named twice"),
            (&root, vec![(1, row()), (7, row())], "shard 7 not beneath root"),
            (&*leaves[0], vec![(1, row())], "l0p handed shards [1]"),
            (&*leaves[0], vec![(0, row()), (0, row())], "handed shards [0, 0]"),
        ];
        for (node, deltas, why) in refusals {
            match node.append(&AppendRequest { epoch: 2, deltas }) {
                Err(Error::Data(message)) => assert!(message.contains(why), "{message}"),
                other => panic!("{why}: refused typed, got {other:?}"),
            }
            assert_eq!((root.metas(), leaves[0].metas()), (metas.clone(), leaf_metas.clone()));
            let repeat = root.query(&request(A, 1), Duration::ZERO).unwrap();
            assert_eq!(
                (repeat.stats.worker_cache_hits, repeat.stats.rows_scanned),
                (1, 0),
                "{why}"
            );
            assert_eq!(repeat.partial, cold.partial, "{why}");
            let leaf = leaves[0].query(&request(A, 1), Duration::ZERO).unwrap();
            assert_eq!(leaf.stats.worker_cache_hits, 1, "{why}: the leaf remembers");
        }
        let deltas = vec![(3, kn_delta(100..102)), (0, kn_delta(102..103))];
        let ack = root.append(&AppendRequest { epoch: 2, deltas }).unwrap();
        let chunks: Vec<Vec<u64>> = ack.receipts.into_iter().map(|r| r.new_chunk_rows).collect();
        assert_eq!(chunks, [vec![2], vec![1]], "one receipt per delta, in request order");
        let copies: Vec<ShardMeta> = leaves.iter().flat_map(|leaf| leaf.metas()).collect();
        assert_eq!(root.metas(), copies, "every copy absorbed its own shard's receipt");
        let forward = root.query(&request(A, 2), Duration::ZERO).unwrap();
        assert_eq!((forward.stats.worker_cache_hits, forward.stats.rows_scanned), (1, 3));
    }

    #[test]
    fn a_parent_absorbing_receipts_keeps_its_copy_equal_to_the_leafs() {
        // `term` starts 8 values under the distinct cap and every append
        // brings new ones, so it crosses the cap — and gets its bloom —
        // mid-run; `n` is degraded from the start; `k` stays exact.
        const MAX_CHUNK_ROWS: usize = 40;
        let schema =
            Schema::of(&[("k", DataType::Str), ("term", DataType::Str), ("n", DataType::Int)]);
        let mut rng = Rng::seed_from_u64(0x18ab_507b);
        let mut next_term = 0usize;
        // `count` rows as columns, the first `fresh_terms` of them with
        // terms never seen before.
        fn columns(
            rng: &mut Rng,
            next_term: &mut usize,
            count: usize,
            fresh_terms: usize,
        ) -> Vec<Vec<Value>> {
            let first_fresh = *next_term;
            *next_term += fresh_terms;
            let term = |i: usize, rng: &mut Rng| {
                if i < fresh_terms {
                    first_fresh + i
                } else {
                    rng.range_usize(0, *next_term)
                }
            };
            vec![
                (0..count).map(|_| Value::from(["a", "b", "c"][rng.range_usize(0, 3)])).collect(),
                (0..count).map(|i| Value::from(format!("t{:03}", term(i, rng)))).collect(),
                (0..count).map(|_| Value::Int(rng.range_i64_inclusive(0, 5_000))).collect(),
            ]
        }
        let coded = |batch: &[Vec<Value>]| {
            let slices: Vec<&[Value]> = batch.iter().map(Vec::as_slice).collect();
            TableDelta::from_columns(schema.clone(), &slices).unwrap()
        };
        let base = columns(&mut rng, &mut next_term, 400, MAX_DISTINCT - 8);
        let mut build = BuildOptions::production(&["k"]);
        build.partition.as_mut().unwrap().max_chunk_rows = MAX_CHUNK_ROWS;
        let spec = NodeSpec { name: "l0p".into(), cache_entries: 4, epoch: 1, threads: 1 };
        let (leaf, mut parents) = Node::leaf(0, coded(&base), &build, spec).unwrap();
        assert!(parents.column("term").unwrap().values.is_some(), "under the cap at load");
        assert!(parents.column("n").unwrap().values.is_none(), "degraded at load");

        for step in 0..30u64 {
            let count = rng.range_usize(1, 3 * MAX_CHUNK_ROWS + 1);
            let fresh_terms = rng.range_usize(0, 3).min(count);
            let batch = columns(&mut rng, &mut next_term, count, fresh_terms);
            let delta = coded(&batch);
            let ack = leaf.append(&to_shard_0(delta.clone(), 2 + step)).unwrap();
            let [receipt] = ack.receipts.try_into().unwrap();
            assert_eq!(receipt.new_chunk_rows.len(), count.div_ceil(MAX_CHUNK_ROWS), "step {step}");
            parents.absorb_append(&delta, &receipt.new_chunk_rows).unwrap();

            let [leafs] = leaf.metas().try_into().unwrap();
            assert_eq!(parents, leafs, "step {step}: the copies diverged");
            for _ in 0..12 {
                let where_sql = match rng.range_usize(0, 4) {
                    // Present (maybe only in the last delta) or never seen.
                    0 => format!("term = 't{:03}'", rng.range_usize(0, next_term + 20)),
                    1 => format!("n = {}", rng.range_i64_inclusive(0, 5_200)),
                    2 => {
                        let lo = rng.range_i64_inclusive(-100, 5_100);
                        format!("n >= {lo} AND n < {}", lo + rng.range_i64_inclusive(1, 60))
                    }
                    _ => format!("k = 'c' AND term > 't{:03}'", rng.range_usize(0, next_term + 5)),
                };
                let r = restriction(&where_sql);
                assert_eq!(may_match(&r, &parents), may_match(&r, &leafs), "{where_sql}");
                assert_eq!(chunk_verdicts(&r, &parents), chunk_verdicts(&r, &leafs), "{where_sql}");
            }
        }
        let term = parents.column("term").unwrap();
        assert!(term.values.is_none(), "the run crossed the distinct cap");
        assert!(parents.blooms.iter().any(|b| b.name == "term"), "and built the bloom on the way");
        // A receipt that does not account for the delta's rows is refused,
        // and changes nothing.
        let before = parents.clone();
        let delta = TableDelta::from_columns(
            schema,
            &[&[Value::from("a")], &[Value::from("t000")], &[Value::Int(1)]],
        )
        .unwrap();
        assert!(parents.absorb_append(&delta, &[2]).is_err());
        assert!(parents.absorb_append(&delta, &[]).is_err());
        assert!(parents.absorb_append(&delta, &[u64::MAX, 2]).is_err());
        assert_eq!(parents, before);
    }
}
