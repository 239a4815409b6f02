//! One node of the §4 computation tree — the same code wherever it runs.
//!
//! The paper's tree is uniform: every server, leaf or mixer, does the same
//! thing to the query it is handed and does not care where its children
//! live. [`Node`] is that server. A **leaf** owns a shard's
//! [`pd_core::DataStore`] and executes the shipped query over it; a
//! **mixer** owns children ([`ChildHandle`]s — each a socket to a worker
//! process or a reference to another `Node`), fans the query out and folds
//! their partials. Both own a [`WorkerCache`] keyed by the normalized query
//! signature and an epoch that invalidates it. A `pd-dist-worker` process
//! holds one `Node` behind its FIFO turnstile ([`crate::worker`]); a
//! [`crate::Transport::InProcess`] cluster holds a whole tree of them.
//! [`Node::query`] is the only query path either has.

use crate::meta::{self, ShardMeta};
use crate::rpc::{fan_out, AppendRequest, ChildHandle, QueryRequest, ShardReport, SubtreeAnswer};
use crate::shard_cache::{query_signature, CachedSubtree, WorkerCache};
use pd_common::sync::RwLock;
use pd_common::{Error, Result, RpcError, Value};
use pd_core::{
    execute_partial_seeded, scheduler, BuildOptions, CachePolicy, DataStore, ExecContext,
    ResultCache, TieredCache,
};
use pd_data::Table;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a node is told when it is assigned its role — the non-data half of
/// a `Load` / `Attach` message.
#[derive(Debug, Clone)]
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
    /// The shard's summary, when one was built (a worker's `Loaded` ack
    /// needs one, and it seeds the scans). Without one every edge answers
    /// "maybe" and scans go unseeded — same rows, found by the chunk
    /// dictionaries alone.
    meta: Option<ShardMeta>,
}

enum Role {
    /// Behind a lock so [`Node::append`] can reach the store through the
    /// shared references queries hold.
    Leaf(Box<RwLock<Leaf>>),
    Mixer(Vec<ChildHandle>),
}

/// A tree node: leaf server or mixer.
pub struct Node {
    name: String,
    cache: Option<WorkerCache>,
    /// Epoch of the data the cache describes; a query or append carrying
    /// another one drops the cache first.
    epoch: AtomicU64,
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
            threads: if spec.threads == 0 { scheduler::default_threads() } else { spec.threads },
            sketch_m,
            role,
        }
    }

    /// Import `table` as shard `shard`'s leaf. `meta` is the row-level
    /// summary of exactly these rows ([`ShardMeta::summarize`]) when the
    /// caller needs one kept; its chunk-granular layers are finished here,
    /// from the *built* store — its partitioning says which rows each chunk
    /// scan visits, which is what every query-time verdict must hold for.
    pub fn leaf(
        shard: u64,
        table: &Table,
        build: &BuildOptions,
        cache_budget: usize,
        mut meta: Option<ShardMeta>,
        spec: NodeSpec,
    ) -> Result<Node> {
        let store = DataStore::build(table, build)?;
        if let Some(meta) = &mut meta {
            meta.chunks = store.chunk_count() as u64;
            let columns: Vec<&[Value]> =
                (0..table.schema().fields().len()).map(|i| table.column(i)).collect();
            meta.summarize_chunks(table.schema(), &columns, store.partitioning());
            meta.build_blooms(table.schema(), &columns);
        }
        let ctx = ExecContext {
            sketch_m: 0,
            threads: spec.threads,
            result_cache: Some(Arc::new(ResultCache::new(1 << 14))),
            tiered: Some(Arc::new(TieredCache::new(
                CachePolicy::Arc,
                cache_budget,
                cache_budget / 2,
            ))),
            kernels: Default::default(),
        };
        let leaf = Leaf { shard, store, ctx, meta };
        Ok(Node::new(spec, leaf.ctx.sketch_m(), Role::Leaf(Box::new(RwLock::new(leaf)))))
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

    /// A leaf's current shard summary (`None` for mixers and for leaves
    /// built without one).
    pub fn meta(&self) -> Option<ShardMeta> {
        match &self.role {
            Role::Leaf(leaf) => leaf.read().meta.clone(),
            Role::Mixer(_) => None,
        }
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

    /// Drop every cached partial (they describe the data before `epoch`)
    /// and adopt `epoch`.
    fn invalidate(&self, epoch: u64) {
        if let Some(cache) = &self.cache {
            cache.invalidate();
        }
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
        // (Freshly built trees get their epoch at construction, so this is
        // the guarantee for any node that outlives a rebuild or append.)
        if self.epoch.load(Ordering::SeqCst) != request.epoch {
            self.invalidate(request.epoch);
        }
        let signature = self.cache.as_ref().map(|_| query_signature(&request.query, self.sketch_m));
        if let (Some(cache), Some(signature)) = (&self.cache, &signature) {
            if let Some(entry) = cache.get(signature) {
                // The nearest-cache answer: identical partial, zero child
                // hops, every row beneath accounted as cached.
                return Ok(entry.to_answer(queued));
            }
        }
        let started = Instant::now();
        let stolen_before = scheduler::stolen_time();
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
            // Admission is cost-aware: what this node just spent computing
            // the answer (scan, or fan-out + fold) is what a future miss
            // would spend again. On the shared pool a waiting fan-out
            // drains *foreign* tasks meanwhile; that time is not ours.
            let stolen = scheduler::stolen_time().saturating_sub(stolen_before);
            let recompute = started.elapsed().saturating_sub(stolen);
            cache.put_costed(signature, Arc::new(CachedSubtree::capture(&answer)), recompute);
        }
        Ok(answer)
    }

    /// Apply a streaming delta in place (leaf only): extend the store's
    /// dictionaries (existing ids stay stable), encode the delta rows as
    /// fresh chunks, refresh the shard summary for exactly those chunks,
    /// drop every cache layer that describes the pre-append data and adopt
    /// the epoch the append establishes. Returns the refreshed summary.
    pub fn append(&self, append: &AppendRequest) -> Result<Option<ShardMeta>> {
        let Role::Leaf(leaf) = &self.role else {
            return Err(Error::Data(format!("Append sent to {}, which is not a leaf", self.name)));
        };
        let mut leaf = leaf.write();
        if append.shard != leaf.shard {
            return Err(Error::Data(format!(
                "Append for shard {} sent to leaf {}",
                append.shard, leaf.shard
            )));
        }
        let old_chunks = leaf.store.chunk_count();
        leaf.store.append_delta(&append.delta)?;
        let Leaf { store, ctx, meta, .. } = &mut *leaf;
        if let Some(meta) = meta {
            // The new chunks' zone maps and the column blooms absorb
            // exactly the delta rows, so parent-side pruning stays sound
            // without a re-summarize scan of the resident data.
            let columns = append.delta.materialized_columns();
            let slices: Vec<&[Value]> = columns.iter().map(|c| c.as_slice()).collect();
            let part = store.partitioning();
            let new_chunk_rows: Vec<usize> =
                (old_chunks..part.chunk_count()).map(|c| part.chunk_range(c).len()).collect();
            meta.absorb_delta(store.schema(), &slices, &new_chunk_rows);
        }
        if let Some(results) = &ctx.result_cache {
            results.clear();
        }
        if let Some(tiered) = &ctx.tiered {
            tiered.clear();
        }
        let meta = meta.clone();
        drop(leaf);
        self.invalidate(append.epoch);
        Ok(meta)
    }
}

fn execute_leaf(leaf: &Leaf, request: &QueryRequest, queued: Duration) -> Result<SubtreeAnswer> {
    let started = Instant::now();
    // Seed the scan with the metadata verdicts the parent already pruned
    // by: chunks the zone maps prove dead are skipped without consulting
    // the dictionaries, and the sound-verdict lattice composes the rest
    // with the local analysis (`seed.and(local)` — never less precise).
    let seeds = leaf
        .meta
        .as_ref()
        .filter(|meta| request.chunk_pruning && !meta.chunk_metas.is_empty())
        .map(|meta| meta::chunk_verdicts(&request.query.restriction, meta));
    let (partial, stats) =
        execute_partial_seeded(&leaf.store, &request.query, &leaf.ctx, seeds.as_deref())?;
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
