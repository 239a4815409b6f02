//! One node of the §4 computation tree — the same code wherever it runs.
//!
//! The paper's tree is uniform: every server, leaf or mixer, does the same
//! thing to the query it is handed and does not care where its children
//! live. [`Node`] is that server. A **leaf** owns a shard's
//! [`pd_core::DataStore`] and executes the shipped query over it; a
//! **mixer** owns children ([`ChildHandle`]s — each a socket to a worker
//! process or a reference to another `Node`), fans the query out and folds
//! their partials. Both own a [`WorkerCache`] keyed by the normalized query
//! signature and an epoch that invalidates it; an entry shares its table
//! with the answers it came from and serves, so remembering copies
//! nothing. A `pd-dist-worker` process holds one `Node` behind its FIFO
//! turnstile ([`crate::worker`]); a [`crate::Transport::InProcess`] cluster
//! holds a whole tree of them; and the driver of either holds the root — a
//! mixer over the top level ([`crate::process::Tree`]), which is why a
//! chart asked before costs no hop at all. [`Node::query`] is the only
//! query path any of them has.

use crate::meta::{self, ShardMeta};
use crate::rpc::{
    absorb_into, fan_out, AbsorbRequest, AppendReceipt, AppendRequest, ChildHandle, QueryRequest,
    ShardReport, SubtreeAnswer,
};
use crate::shard_cache::{query_signature, CachedSubtree, WorkerCache};
use pd_common::sync::RwLock;
use pd_common::{Error, Result, RpcError, Value};
use pd_core::{
    execute_partial_seeded, scheduler, BuildOptions, DataStore, ExecContext, ResultCache,
};
use pd_encoding::TableDelta;
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

    /// Build shard `shard`'s leaf from its rows as coded columns — how they
    /// arrive whether a frame or the driver's own split brought them. With
    /// `keep_summary` the leaf also keeps a [`ShardMeta`] of exactly these
    /// rows, made here and nowhere else: the row-level layer from the
    /// values, the chunk-granular layers from the *built* store — its
    /// partitioning says which rows each chunk scan visits, which is what
    /// every query-time verdict must hold for.
    pub fn leaf(
        shard: u64,
        delta: TableDelta,
        build: &BuildOptions,
        keep_summary: bool,
        spec: NodeSpec,
    ) -> Result<Node> {
        delta.validate()?;
        // The store consumes the codes; the summary reads the values.
        let values = keep_summary.then(|| delta.materialized_columns());
        let store = DataStore::from_coded(delta, build)?;
        let meta = values.map(|values| {
            let columns: Vec<&[Value]> = values.iter().map(Vec::as_slice).collect();
            let mut meta = ShardMeta::summarize_columns(shard, store.schema(), &columns);
            meta.chunks = store.chunk_count() as u64;
            meta.summarize_chunks(store.schema(), &columns, store.partitioning());
            meta.build_blooms(store.schema(), &columns);
            meta
        });
        let ctx = ExecContext {
            threads: spec.threads,
            result_cache: Some(Arc::new(ResultCache::new(1 << 14))),
            ..Default::default()
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
                // The nearest-cache answer: the cached table itself, zero
                // child hops, every row beneath accounted as cached.
                return Ok(entry.to_answer(queued));
            }
        }
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
            let cells = answer.stats.cells_scanned;
            cache.put(signature, Arc::new(CachedSubtree::capture(&answer)), cells);
        }
        Ok(answer)
    }

    /// Apply a streaming delta in place (leaf only): extend the store's
    /// dictionaries (existing ids stay stable), encode the delta rows as
    /// fresh chunks, absorb exactly those chunks into the shard summary,
    /// drop this node's cached partials — the shard's answer did change —
    /// and adopt the epoch the append establishes. The leaf's chunk-result
    /// cache is kept: old chunks are immutable and their ids stable, so the
    /// next query folds the cached tables and scans only the new chunks
    /// (it is cleared only if the store had to drop a virtual field, whose
    /// rebuild renumbers that field's ids). Returns the receipt — how the
    /// store chunked the delta — with which every parent absorbs the same
    /// delta into its own copy of the summary ([`Node::absorb`]); the
    /// summary itself stays here.
    pub fn append(&self, append: &AppendRequest) -> Result<AppendReceipt> {
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
        let old_virtuals = leaf.store.virtual_names();
        leaf.store.append_delta(&append.delta)?;
        let Leaf { store, ctx, meta, .. } = &mut *leaf;
        let receipt = AppendReceipt {
            new_chunk_rows: (old_chunks..store.chunk_count())
                .map(|c| store.chunk_rows(c) as u64)
                .collect(),
        };
        if let Some(meta) = meta {
            // The new chunks' zone maps and the column blooms absorb
            // exactly the delta rows, so pruning stays sound without a
            // re-summarize scan of the resident data.
            meta.absorb_append(&append.delta, &receipt.new_chunk_rows)?;
        }
        if let (Some(results), true) = (&ctx.result_cache, store.virtual_names() != old_virtuals) {
            results.clear();
        }
        drop(leaf);
        self.invalidate(append.epoch);
        Ok(receipt)
    }

    /// Absorb appends the leaves beneath this merge server applied: bring
    /// the children's shard summaries up to date in place, drop the cached
    /// partials that describe the pre-append data and adopt the epoch. The
    /// children's links are left alone — an append costs the tree no
    /// connection.
    pub fn absorb(&mut self, absorb: &AbsorbRequest) -> Result<()> {
        let Role::Mixer(children) = &mut self.role else {
            return Err(Error::Data(format!(
                "Absorb sent to {}, which is not a merge server",
                self.name
            )));
        };
        absorb_into(children, &absorb.applied)?;
        self.invalidate(absorb.epoch);
        Ok(())
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
        .filter(|meta| !meta.chunk_metas.is_empty())
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::{chunk_verdicts, may_match, MAX_DISTINCT};
    use pd_common::rng::Rng;
    use pd_common::{DataType, Schema};
    use pd_sql::{parse_query, Restriction};

    fn restriction(where_sql: &str) -> Restriction {
        let q = parse_query(&format!("SELECT COUNT(*) FROM t WHERE {where_sql}")).unwrap();
        Restriction::from_expr(&q.where_clause.unwrap())
    }

    #[test]
    fn an_append_keeps_the_chunk_results_unless_it_drops_a_virtual_field() {
        let schema = Schema::of(&[("k", DataType::Str), ("n", DataType::Int)]);
        let rows = |ns: std::ops::Range<i64>| -> Vec<Vec<Value>> {
            vec![
                ns.clone().map(|n| Value::from(["a", "b", "c"][n as usize % 3])).collect(),
                ns.map(Value::Int).collect(),
            ]
        };
        let coded = |batch: Vec<Vec<Value>>| {
            let slices: Vec<&[Value]> = batch.iter().map(Vec::as_slice).collect();
            TableDelta::from_columns(schema.clone(), &slices).unwrap()
        };
        let spec = NodeSpec { name: "l0p".into(), cache_entries: 4, epoch: 1, threads: 1 };
        let leaf = Node::leaf(0, coded(rows(0..90)), &BuildOptions::basic(), false, spec).unwrap();
        let ask = |sql: &str, epoch: u64| {
            let request = QueryRequest {
                query: pd_sql::analyze(&parse_query(sql).unwrap()).unwrap(),
                budget: Duration::from_secs(30),
                hedge_micros: 0,
                epoch,
                chaos: Vec::new(),
            };
            leaf.query(&request, Duration::ZERO).map(|answer| answer.stats)
        };
        let append = |ns: std::ops::Range<i64>, epoch: u64| {
            leaf.append(&AppendRequest { shard: 0, delta: coded(rows(ns)), epoch }).unwrap()
        };
        // An integer for every row so far; a string once `n` reaches 1000.
        let by_size = "SELECT COUNT(*) as c FROM t GROUP BY if(n >= 1000, 'big', 0)";
        let by_k = "SELECT k, COUNT(*) as c FROM t GROUP BY k";
        ask(by_size, 1).unwrap();
        assert_eq!(ask(by_k, 1).unwrap().rows_scanned, 90);

        // The field is extended: the old chunk's result is still good.
        append(90..100, 2);
        let kept = ask(by_k, 2).unwrap();
        assert_eq!((kept.chunks_cached, kept.rows_scanned, kept.worker_cache_hits), (1, 10, 0));
        ask(by_size, 2).unwrap();

        // The field cannot hold 'big' and is dropped: whatever was cached
        // under its old ids goes, and so does everything else.
        append(1_000..1_010, 3);
        let cleared = ask(by_k, 3).unwrap();
        assert_eq!((cleared.chunks_cached, cleared.rows_scanned), (0, 110));
        assert!(ask(by_size, 3).is_err(), "the field is now of two types");
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
        let leaf = Node::leaf(0, coded(&base), &build, true, spec).unwrap();
        let mut parents = leaf.meta().unwrap();
        assert!(parents.column("term").unwrap().values.is_some(), "under the cap at load");
        assert!(parents.column("n").unwrap().values.is_none(), "degraded at load");

        for step in 0..30u64 {
            let count = rng.range_usize(1, 3 * MAX_CHUNK_ROWS + 1);
            let fresh_terms = rng.range_usize(0, 3).min(count);
            let batch = columns(&mut rng, &mut next_term, count, fresh_terms);
            let append = AppendRequest { shard: 0, delta: coded(&batch), epoch: 2 + step };
            let receipt = leaf.append(&append).unwrap();
            assert_eq!(receipt.new_chunk_rows.len(), count.div_ceil(MAX_CHUNK_ROWS), "step {step}");
            parents.absorb_append(&append.delta, &receipt.new_chunk_rows).unwrap();

            let leafs = leaf.meta().unwrap();
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
