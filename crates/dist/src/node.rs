//! One node of the §4 computation tree — the same code wherever it runs.
//!
//! The paper's tree is uniform: every server, leaf or mixer, does the same
//! thing to the query it is handed and does not care where its children
//! live. [`Node`] is that server. A **leaf** owns a shard's
//! [`pd_core::DataStore`] and executes the shipped query over it; a
//! **mixer** owns children ([`ChildHandle`]s — each a socket to a worker
//! process or a reference to another `Node`), fans the query out and folds
//! their partials — asking them in child order on the calling thread,
//! whichever their links, so only a leaf's chunk scan wakes the worker
//! pool. An append walks the tree a query walks
//! ([`Node::append`]): a leaf applies its rows in place, a mixer writes
//! each child the rows beneath it and absorbs their receipts. A node
//! remembers no answer: every query enters the tree at its root, in the
//! driver ([`crate::Cluster`]), and the root alone remembers what it
//! answered ([`crate::shard_cache`]) — which is why a chart asked before
//! costs no hop at all. A `pd-dist-worker` process holds one `Node` behind
//! its FIFO turnstile ([`crate::worker`]); a
//! [`crate::Transport::InProcess`] cluster holds a whole tree of them; and
//! the driver of either holds the mixer over the top level. [`Node::query`]
//! and [`Node::append`] are the only query and append paths any of them
//! has.

use crate::meta::ShardMeta;
use crate::rpc::{
    absorb_into, fan_out, AppendAck, AppendReceipt, AppendRequest, ChildHandle, QueryRequest,
    ShardReport, SubtreeAnswer, LOAD_TIMEOUT,
};
use pd_common::sync::RwLock;
use pd_common::{Error, Result, RpcError};
use pd_core::{execute_partial, BuildOptions, DataStore, ExecContext, ResultCache};
use pd_encoding::TableDelta;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a node is told when it is assigned its role — the non-data half of
/// a `Load` / `Attach` message, and the same bytes in both.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Tree-wide name (`l0p`, `l0r`, `m1_0`, ...), for messages. It is also
    /// what a test's fault relay in front of a worker process reads off the
    /// relayed `Load` / `Attach` to pick this node's faults: none are
    /// injected in the engine.
    pub name: String,
    /// Width of a leaf's chunk scan (0 = auto). A mixer has no width: its
    /// fan-out asks its children in order on the calling thread.
    pub threads: usize,
}

/// A leaf's executable state.
struct Leaf {
    shard: u64,
    store: DataStore,
    ctx: ExecContext,
    /// The shard's summary, read off the store's dictionaries when it was
    /// built and brought up to date by every append: the copy the parent
    /// edge prunes by is equal to it. The leaf's scans judge chunks by the
    /// dictionaries it was read off.
    meta: ShardMeta,
}

enum Role {
    /// Behind a lock so [`Node::append`] can reach the store through the
    /// shared references queries hold (a mixer's summaries are behind
    /// their edges' locks).
    Leaf(Box<RwLock<Leaf>>),
    Mixer(Vec<ChildHandle>),
}

/// What a node scans with: its width and a chunk-result cache of its own.
pub(crate) fn scan_context(threads: usize) -> ExecContext {
    ExecContext {
        threads,
        result_cache: Some(Arc::new(ResultCache::new(1 << 14))),
        ..Default::default()
    }
}

/// A tree node: leaf server or mixer.
pub struct Node {
    name: String,
    role: Role,
}

impl Node {
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
        Ok((Node { name: spec.name, role: Role::Leaf(Box::new(RwLock::new(leaf))) }, meta))
    }

    /// A merge server over `children`.
    pub fn mixer(children: Vec<ChildHandle>, spec: NodeSpec) -> Node {
        Node { name: spec.name, role: Role::Mixer(children) }
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

    /// `(hits, misses)` of a leaf's chunk-result cache: a scan of an
    /// unrestricted query moves them, so a leaf asked nothing keeps them.
    #[cfg(test)]
    pub(crate) fn chunk_lookups(&self) -> (u64, u64) {
        let Role::Leaf(leaf) = &self.role else { panic!("{} is a mixer", self.name) };
        leaf.read().ctx.result_cache.as_ref().map_or((0, 0), |cache| cache.stats())
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

    /// Answer one query: execute it (leaf) or fan it out and fold (mixer).
    /// `queued` is how long the request waited before reaching this call —
    /// for its turn in a worker process; zero over an in-memory edge.
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
        match &self.role {
            Role::Leaf(leaf) => execute_leaf(&leaf.read(), request, queued),
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
                Ok(answer)
            }
        }
    }

    /// Apply an append to the shards beneath this node — the one append
    /// path, over the edges a query walks. A leaf applies its shard's delta
    /// (`Leaf::apply`); a mixer writes each child beneath which rows land
    /// the deltas beneath it — no other — and absorbs their receipts into
    /// its copies of the summaries ([`absorb_into`]). A shard named twice or
    /// not beneath the node refuses the whole request before anything is
    /// written or applied. Returns every receipt beneath the node and the
    /// bytes written to get them.
    pub fn append(&self, append: &AppendRequest) -> Result<AppendAck> {
        Ok(self.append_while(append, || ())?.0)
    }

    /// [`Node::append`], running `meanwhile` once the request is routed
    /// and written, while the children apply it.
    pub(crate) fn append_while<T>(
        &self,
        append: &AppendRequest,
        meanwhile: impl FnOnce() -> T,
    ) -> Result<(AppendAck, T)> {
        let children = match &self.role {
            Role::Leaf(leaf) => {
                let receipts = leaf.write().apply(&self.name, &append.deltas)?;
                return Ok((AppendAck { receipts, bytes: 0 }, meanwhile()));
            }
            Role::Mixer(children) => children,
        };
        let name = &self.name;
        // Per child, the indexes of the deltas beneath it.
        let mut routes: Vec<Vec<usize>> = vec![Vec::new(); children.len()];
        for (i, (shard, _)) in append.deltas.iter().enumerate() {
            let Some(child) = children.iter().position(|child| child.holds(*shard)) else {
                return Err(Error::Data(format!("append: shard {shard} not beneath {name}")));
            };
            if routes[child].iter().any(|&j| append.deltas[j].0 == *shard) {
                return Err(Error::Data(format!("append: shard {shard} named twice")));
            }
            routes[child].push(i);
        }
        // What each child that gets rows is written, and its route.
        let written: Vec<(&ChildHandle, AppendRequest, &[usize])> = (children.iter().zip(&routes))
            .filter(|(_, route)| !route.is_empty())
            .map(|(child, route)| {
                let deltas = route.iter().map(|&i| append.deltas[i].clone()).collect();
                (child, AppendRequest { deltas }, route.as_slice())
            })
            .collect();
        let deadline = Instant::now() + LOAD_TIMEOUT;
        let flights = (written.iter())
            .map(|(child, request, _)| child.begin_append(request, deadline))
            .collect::<Result<Vec<_>>>()?;
        let meanwhile = meanwhile();
        let (mut receipts, mut bytes) = (vec![None; append.deltas.len()], 0);
        for (flight, (_, request, route)) in flights.into_iter().zip(&written) {
            let ack = flight.finish(request, deadline)?;
            bytes += ack.bytes;
            for (&i, receipt) in route.iter().zip(ack.receipts) {
                receipts[i] = Some(receipt);
            }
        }
        let receipts: Vec<AppendReceipt> = (receipts.into_iter().collect::<Option<_>>())
            .ok_or_else(|| Error::Data(format!("append: {name} missed a receipt")))?;
        absorb_into(children, &append.deltas, &receipts)?;
        Ok((AppendAck { receipts, bytes }, meanwhile))
    }
}

impl Leaf {
    /// Apply this leaf's delta in `deltas` (none: nothing to do) in place:
    /// merge the rows' values into the store's sorted dictionaries, encode
    /// the rows as fresh chunks — the chunk results of the old ones, held in
    /// chunk-ids, stay good — and absorb exactly those into the summary.
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
        self.store.append_delta(delta)?;
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
    // The store's chunk dictionaries judge its chunks: the summary the
    // parent pruned this edge by was read off them, and proves no Skip
    // they do not wherever a literal resolves exactly.
    let (partial, stats) = execute_partial(&leaf.store, &request.query, &leaf.ctx)?;
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
    use crate::rpc::testkit::{kn_delta, request, spec, to_shard_0};
    use crate::shard_cache::Root;
    use pd_common::rng::Rng;
    use pd_common::{DataType, Schema, Value};
    use pd_sql::{parse_query, Restriction};
    use std::sync::Arc;

    fn restriction(where_sql: &str) -> Restriction {
        let q = parse_query(&format!("SELECT COUNT(*) FROM t WHERE {where_sql}")).unwrap();
        Restriction::from_expr(&q.where_clause.unwrap())
    }

    // An integer for every row below 1000; a string once `n` reaches it.
    const BY_SIZE: &str = "SELECT COUNT(*) as c FROM t GROUP BY if(n >= 1000, 'big', 0)";
    const BY_K: &str = "SELECT k, COUNT(*) as c FROM t GROUP BY k";

    #[test]
    fn an_append_keeps_the_chunk_results_even_when_it_drops_a_virtual_field() {
        let (leaf, _) =
            Node::leaf(0, kn_delta(0..90), &BuildOptions::basic(), spec("l0p")).unwrap();
        let ask = |sql: &str| leaf.query(&request(sql), Duration::ZERO).map(|answer| answer.stats);
        let append = |ns: std::ops::Range<i64>| leaf.append(&to_shard_0(kn_delta(ns))).unwrap();
        ask(BY_SIZE).unwrap();
        assert_eq!(ask(BY_K).unwrap().rows_scanned, 90);

        // The field is extended: the old chunk's result is still good. (A
        // leaf remembers no answer: its chunk results bring the rest.)
        append(90..100);
        let kept = ask(BY_K).unwrap();
        assert_eq!((kept.chunks_cached, kept.rows_scanned, kept.worker_cache_hits), (1, 10, 0));
        ask(BY_SIZE).unwrap();

        // The field cannot hold 'big' and is dropped; cached chunk results
        // hold chunk-ids, a function of their chunk's rows, and stay.
        append(1_000..1_010);
        let kept = ask(BY_K).unwrap();
        assert_eq!((kept.chunks_cached, kept.rows_scanned), (2, 10));
        assert!(ask(BY_SIZE).is_err(), "the field is now of two types");
    }

    /// Four leaves holding `kn_delta(0..100)` in quarters, two mixers over
    /// them, and a root remembering 8 charts over those: the root and the
    /// leaves.
    fn two_level_tree() -> (Root, Vec<Arc<Node>>) {
        let leaves: Vec<Arc<Node>> = (0..4u64)
            .map(|shard| {
                let rows = kn_delta(shard as i64 * 25..(shard as i64 + 1) * 25);
                let spec = spec(&format!("l{shard}p"));
                Arc::new(Node::leaf(shard, rows, &BuildOptions::basic(), spec).unwrap().0)
            })
            .collect();
        let mixer = |name: &str, shards: [u64; 2]| {
            let children = shards
                .map(|shard| ChildHandle::local(Arc::clone(&leaves[shard as usize]), Some(shard)))
                .into();
            ChildHandle::local(Arc::new(Node::mixer(children, spec(name))), None)
        };
        let children = vec![mixer("m1_0", [0, 1]), mixer("m1_1", [2, 3])];
        (Root::new(Node::mixer(children, spec("root")), 8, 1), leaves)
    }

    const A: &str = "SELECT k, COUNT(*) as c, SUM(n) as s FROM t GROUP BY k";

    /// Four leaves, two mixers, a root that remembers a chart: a one-row
    /// append to the last shard is brought forward by the root over its
    /// one-row tail, and no leaf is asked. The answer is one store's over
    /// the same rows.
    #[test]
    fn the_root_brings_a_chart_forward_over_a_one_row_append_and_asks_no_leaf() {
        let (root, leaves) = two_level_tree();
        let cold = root.query(&request(A)).unwrap();
        assert_eq!((cold.stats.worker_cache_hits, cold.stats.rows_scanned), (0, 100));
        let lookups: Vec<_> = leaves.iter().map(|leaf| leaf.chunk_lookups()).collect();

        let ack = root.append(&AppendRequest { deltas: vec![(3, kn_delta(100..101))] });
        let receipt = AppendReceipt { new_chunk_rows: vec![1] };
        assert_eq!(ack.unwrap(), AppendAck { receipts: vec![receipt], bytes: 0 });
        let warm = root.query(&request(A)).unwrap();
        assert_eq!(warm.stats.worker_cache_hits, 1, "the root remembered A");
        assert_eq!((warm.reports.len(), warm.stats.rows_scanned), (0, 1), "and no shard reports");
        let after: Vec<_> = leaves.iter().map(|leaf| leaf.chunk_lookups()).collect();
        assert_eq!(after, lookups, "no leaf was asked");
        let store = DataStore::from_coded(kn_delta(0..101), &BuildOptions::basic()).unwrap();
        let want = pd_core::query(&store, A).unwrap().0;
        assert_eq!(pd_core::finalize(&request(A).query, warm.partial).unwrap(), want);
    }

    /// A misrouted append is refused whole, typed, before any frame is
    /// written or any row applied: the same shard twice, a shard not beneath
    /// the node, a leaf handed another shard's delta (or two). The root's
    /// cache, tail and every node's summaries are as they were — the repeat
    /// is still the root's hit, with no row brought forward — and the
    /// append routed right then applies: in any shard order, each receipt
    /// absorbed into the copy of its own shard.
    #[test]
    fn a_misrouted_append_is_refused_whole() {
        let (root, leaves) = two_level_tree();
        let cold = root.query(&request(A)).unwrap();
        let row = || kn_delta(100..101);
        let (metas, leaf_metas) = (root.node().metas(), leaves[0].metas());
        // `true`: to the root; `false`: to leaf 0.
        let refusals = [
            (true, vec![(3, row()), (3, row())], "shard 3 named twice"),
            (true, vec![(1, row()), (7, row())], "shard 7 not beneath root"),
            (false, vec![(1, row())], "l0p handed shards [1]"),
            (false, vec![(0, row()), (0, row())], "handed shards [0, 0]"),
        ];
        for (to_root, deltas, why) in refusals {
            let append = AppendRequest { deltas };
            let refused = if to_root { root.append(&append) } else { leaves[0].append(&append) };
            match refused {
                Err(Error::Data(message)) => assert!(message.contains(why), "{message}"),
                other => panic!("{why}: refused typed, got {other:?}"),
            }
            let now = (root.node().metas(), leaves[0].metas());
            assert_eq!(now, (metas.clone(), leaf_metas.clone()), "{why}");
            let repeat = root.query(&request(A)).unwrap();
            let work = (repeat.stats.worker_cache_hits, repeat.stats.rows_scanned);
            assert_eq!(work, (1, 0), "{why}");
            assert_eq!(repeat.partial, cold.partial, "{why}");
        }
        let deltas = vec![(3, kn_delta(100..102)), (0, kn_delta(102..103))];
        let ack = root.append(&AppendRequest { deltas }).unwrap();
        let chunks: Vec<Vec<u64>> = ack.receipts.into_iter().map(|r| r.new_chunk_rows).collect();
        assert_eq!(chunks, [vec![2], vec![1]], "one receipt per delta, in request order");
        let copies: Vec<ShardMeta> = leaves.iter().flat_map(|leaf| leaf.metas()).collect();
        assert_eq!(root.node().metas(), copies, "every copy absorbed its own shard's receipt");
        let forward = root.query(&request(A)).unwrap();
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
        let (leaf, mut parents) = Node::leaf(0, coded(&base), &build, spec("l0p")).unwrap();
        assert!(parents.column("term").unwrap().values.is_some(), "under the cap at load");
        assert!(parents.column("n").unwrap().values.is_none(), "degraded at load");

        for step in 0..30u64 {
            let count = rng.range_usize(1, 3 * MAX_CHUNK_ROWS + 1);
            let fresh_terms = rng.range_usize(0, 3).min(count);
            let batch = columns(&mut rng, &mut next_term, count, fresh_terms);
            let delta = coded(&batch);
            let ack = leaf.append(&to_shard_0(delta.clone())).unwrap();
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
