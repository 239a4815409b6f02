//! Result caching for the §4 serving tree — at its root, the one node
//! every query enters by.
//!
//! §6 observes that drill-down traffic is dominated by *re-asked*
//! subqueries: a mouse click refreshes many charts, and every chart except
//! the one being filtered re-issues a query the tree has answered before.
//! The chunk-result cache (§6, [`pd_core::ResultCache`]) exploits this per
//! fully-active chunk *inside* one shard; this module is the distributed
//! counterpart: the root in the driver ([`crate::Cluster`]) remembers the
//! whole tree's partials, keyed by the normalized [`query_signature`] —
//! table, keys, restriction and sketch size, *not* the slots — so a chart
//! it remembers crosses no edge at all. Every repeat is the root's to
//! answer, so no node beneath it remembers anything: a leaf scans (its
//! chunk-result cache still serves its unchanged chunks) and a merge
//! server fans out and folds.
//!
//! One entry per chart group: a partial names the slot each of its columns
//! holds, so an entry is a hit for every query whose slots it holds (a
//! *subset hit*: semantic caching, Dar et al., VLDB 1996); the asking
//! query's aggregates find their slots among the entry's by name at
//! finalize, in place. A query asking for a slot the entry lacks is a miss
//! that computes the **union** — its slots and the entry's — so an entry
//! only grows. The root also **remembers, per key set**, the slots asked
//! since that key set's restriction last changed: a mouse click redraws a
//! dashboard of charts under one new restriction, so a miss asks for what
//! the key set was asked under the previous one as well, and its other
//! charts are hits.
//!
//! An append walks the tree from the root ([`crate::node::Node::append`]),
//! and the root keeps what it remembers: each entry records how much of
//! the root's tail — the rows appended since its cache last started empty
//! — its table contains (a `TailMark`), and one that is behind is brought
//! forward at its next probe by scanning the missing rows and merging. The
//! second property below is what makes that the recomputed answer, bit for
//! bit. A rebuild builds a new root, which remembers nothing.
//!
//! Two properties make the cache safe:
//!
//! - partials are *pre-finalize* states ([`pd_core::PartialResult`]), so
//!   the signature deliberately excludes `HAVING` / `ORDER BY` / `LIMIT` —
//!   drill-down queries differing only in presentation share entries —
//!   and no slot: a partial carries no aggregate list, the asking query
//!   maps its aggregates onto the slots it holds at finalize, so a
//!   `SUM(x)` chart and its `AVG(x)` twin (beside a `COUNT(*)`),
//!   `COUNT(x)` and `COUNT(*)`, or a chart of fewer slots, read one entry;
//! - every state column of a partial merges associatively and
//!   commutatively (counts add, a float slot is exact whether it is a
//!   double-double pair or a superaccumulator, MIN/MAX keep the extreme,
//!   sketches union), so serving a cached partial is bit-identical to
//!   re-asking the tree. Capacity eviction can therefore change
//!   [`pd_core::ScanStats`], never results. An entry shares its table with
//!   the answer it was captured from and with every answer it serves
//!   ([`pd_core::PartialResult`] is copy-on-write): a put and a hit copy
//!   no column.
//!
//! Admission/eviction reuses [`pd_core::BoundedCache`], the chunk-result
//! cache's cost-aware machinery: the root scores an entry by `bytes × cells
//! scanned beneath it` ([`pd_core::cost_score`]), so a full cache keeps the
//! partials that are most expensive to regenerate — and, the score being a
//! function of the query and the data, holds the same entries whenever the
//! same queries arrive in the same order.

use crate::node::{scan_context, Node};
use crate::rpc::{AppendAck, AppendRequest, QueryRequest, ShardReport, SubtreeAnswer};
use pd_common::sync::{Mutex, RwLock};
use pd_common::{Error, Result};
use pd_core::{
    cost_score, execute_partial_from, BoundedCache, BuildOptions, DataStore, ExecContext,
    PartialResult, ScanStats,
};
use pd_encoding::TableDelta;
use pd_sql::{AnalyzedQuery, Expr, Slot};
use std::collections::HashMap;
use std::fmt::Write;
use std::sync::Arc;
use std::time::Duration;

/// Normalized cache signature of an analyzed query: what names the table
/// its partial is a part of (table, keys, row restriction, sketch size),
/// and nothing that only affects finalization or which columns of that
/// table it reads — its slots included: an entry records the slots it
/// holds, and answers every query asking for some of them.
pub fn query_signature(analyzed: &AnalyzedQuery, sketch_m: usize) -> String {
    let mut signature = String::with_capacity(128);
    analyzed.write_key_shape(&mut signature);
    signature.push_str("|where:");
    if let Some(filter) = &analyzed.filter {
        write!(signature, "{filter}").expect("a String takes every write");
    }
    write!(signature, "|m:{sketch_m}").expect("a String takes every write");
    signature
}

/// How far the root's tail — the rows appended since its cache last
/// started empty — had grown at some moment. Every entry records the mark
/// its table is complete up to; a root that never kept a tail stands at the
/// default, and so do its entries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct TailMark {
    /// Chunks of the tail's own store: where a scan for the rest starts.
    chunks: usize,
    /// Rows and chunks as the leaves' receipts counted them: what the
    /// tree's totals grow by.
    rows: u64,
    leaf_chunks: usize,
}

/// The root's cached answer for a signature: the partial it would
/// recompute, plus the tree's shape needed to synthesize hit-side stats
/// and per-shard reports without touching any child.
struct CachedSubtree {
    /// The whole tree's mergeable group states.
    partial: PartialResult,
    /// The slots it was computed for: what it answers. (A partial of no
    /// groups beneath edges that were all pruned holds no column at all.)
    slots: Vec<Slot>,
    /// Shape the partial covers.
    rows_total: u64,
    chunks_total: usize,
    /// Every shard beneath the root, for hit-side report synthesis.
    shards: Vec<u64>,
    /// How much of the root's tail the partial already contains.
    at: TailMark,
    /// What the entry was admitted by: its table's bytes then, and the
    /// cells scanned beneath the root to compute it.
    bytes: usize,
    cells: u64,
}

impl CachedSubtree {
    /// Capture a freshly computed answer for `slots` for reuse, sharing
    /// its table. `at`: where the tail stood when the answer was asked for.
    fn capture(answer: &SubtreeAnswer, slots: Vec<Slot>, at: TailMark) -> CachedSubtree {
        CachedSubtree {
            partial: answer.partial.clone(),
            slots,
            rows_total: answer.stats.rows_total,
            chunks_total: answer.stats.chunks_total,
            shards: answer.reports.iter().map(|r| r.shard).collect(),
            at,
            bytes: answer.partial.approx_bytes(),
            cells: answer.stats.cells_scanned,
        }
    }

    /// Whether the entry answers every one of `slots`.
    fn holds(&self, slots: &[Slot]) -> bool {
        slots.iter().all(|slot| self.slots.contains(slot))
    }

    /// This entry with `fresh` — the partial over the tail rows between
    /// its mark and `now` — merged in: complete up to `now`, under the
    /// score it was admitted with. The merge is copy-on-write: answers
    /// this entry already served keep the table they were handed.
    fn brought_forward(&self, fresh: PartialResult, now: TailMark) -> Result<CachedSubtree> {
        let mut partial = self.partial.clone();
        if !fresh.is_empty() {
            partial.merge(fresh)?;
        }
        Ok(CachedSubtree {
            partial,
            slots: self.slots.clone(),
            rows_total: self.rows_total + (now.rows - self.at.rows),
            chunks_total: self.chunks_total + (now.leaf_chunks - self.at.leaf_chunks),
            shards: self.shards.clone(),
            at: now,
            bytes: self.bytes,
            cells: self.cells,
        })
    }

    /// The answer a cache hit hands the driver: the identical partial (the
    /// cached table itself, shared), stats that account every row as served
    /// from a cached result (one `worker_cache_hits`), and a zero-latency,
    /// zero-queue, cache-flagged report per shard.
    fn to_answer(&self) -> SubtreeAnswer {
        SubtreeAnswer {
            partial: self.partial.clone(),
            stats: ScanStats {
                chunks_total: self.chunks_total,
                chunks_cached: self.chunks_total,
                rows_total: self.rows_total,
                rows_cached: self.rows_total,
                worker_cache_hits: 1,
                ..Default::default()
            },
            reports: self
                .shards
                .iter()
                .map(|&shard| ShardReport {
                    shard,
                    latency: Duration::ZERO,
                    queue: Duration::ZERO,
                    failover: false,
                    hedged: false,
                    cache_hit: true,
                })
                .collect(),
        }
    }
}

/// The root's entries, keyed by [`query_signature`] alone — the root *is*
/// the tree, so no shard index is needed.
struct WorkerCache {
    entries: BoundedCache<Arc<str>, Arc<CachedSubtree>>,
}

impl WorkerCache {
    /// Cache at most `capacity` signatures.
    fn new(capacity: usize) -> WorkerCache {
        WorkerCache { entries: BoundedCache::new(capacity) }
    }

    /// The entry `signature` names, if any, and whether it holds every one
    /// of `slots` — a hit; else a miss, counted as one, whose computed
    /// table is to hold the entry's slots too.
    fn get(&self, signature: &str, slots: &[Slot]) -> Option<(Arc<CachedSubtree>, bool)> {
        self.entries.get(signature, |entry| entry.holds(slots))
    }

    /// Admit an entry, scored `partial bytes × cells scanned to compute
    /// it`: capacity pressure evicts the answers that are cheapest to
    /// regenerate. An entry brought forward replaces the one it came from
    /// under the same score.
    fn put(&self, signature: &str, entry: Arc<CachedSubtree>) {
        let cost = cost_score(entry.bytes, entry.cells);
        self.entries.put(signature.into(), entry, cost);
    }

    /// Bytes of the tables the resident entries keep alive, as each was
    /// admitted — what the tail is worth keeping for.
    fn table_bytes(&self) -> usize {
        self.entries.values().iter().map(|entry| entry.bytes).sum()
    }
}

/// The slots a dashboard asks of one key set: those asked since its
/// restriction last changed, and those asked under the one before.
#[derive(Default)]
struct Asked {
    filter: Option<Expr>,
    now: Vec<Slot>,
    before: Vec<Slot>,
}

impl Asked {
    /// Asked under `filter` from now on: if that is another restriction,
    /// what was asked so far is what was asked before.
    fn under(&mut self, filter: &Option<Expr>) -> &mut Asked {
        if self.filter != *filter {
            self.before = std::mem::take(&mut self.now);
            self.filter.clone_from(filter);
        }
        self
    }
}

/// The rows appended since the root's cache last started empty, as a store
/// of their own: what a remembered partial lacks is the answer over the
/// tail chunks past its [`TailMark`], and every state column merges
/// exactly, so scanning those and merging brings it up to date bit for bit
/// — without a hop. Built by the calls a leaf makes
/// ([`DataStore::from_coded`], then [`DataStore::append_delta`]), one chunk
/// per appended delta, unpartitioned: answers do not depend on the recipe
/// the leaves were built by.
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
        let (partial, mut stats) =
            execute_partial_from(&self.store, query, &self.ctx, from.chunks)?;
        stats.chunks_total = self.mark.leaf_chunks - from.leaf_chunks;
        Ok((partial, stats))
    }
}

/// The tail is dropped, and the cache with it, once it holds more bytes
/// than the tables the cache keeps alive — the root's memory at most
/// doubles — but never below this: a dashboard of small charts is worth
/// bringing forward too, and a tail this size costs the driver little
/// memory.
const TAIL_FLOOR_BYTES: usize = 1 << 20;

/// The root of the tree, in the driver on both transports: the mixer over
/// the top level, and the tree's one memory — its entries, what each key
/// set was asked lately, and the tail that keeps the entries answerable
/// through appends.
pub(crate) struct Root {
    node: Node,
    /// `None` when the root remembers nothing (`ClusterConfig::shard_cache`
    /// 0): then it keeps no tail either.
    cache: Option<WorkerCache>,
    /// Per key set ([`AnalyzedQuery::write_key_shape`]): what it was asked
    /// for lately ([`Root::predict`]). Dropped with the entries; at most
    /// `capacity` key sets, as many as the cache holds entries.
    asked: Mutex<HashMap<String, Asked>>,
    capacity: usize,
    /// `None` until the first append the cache is kept through, and after
    /// every [`Root::forget`].
    tail: RwLock<Option<Tail>>,
    /// Width of the tail's scan (0 = auto), like a leaf's.
    threads: usize,
}

impl Root {
    /// The root over `node` — a mixer — remembering at most
    /// `cache_entries` signatures (0: none), scanning its tail `threads`
    /// wide.
    pub(crate) fn new(node: Node, cache_entries: usize, threads: usize) -> Root {
        Root {
            node,
            cache: (cache_entries > 0).then(|| WorkerCache::new(cache_entries)),
            asked: Mutex::default(),
            capacity: cache_entries,
            tail: RwLock::new(None),
            threads,
        }
    }

    /// `(shard, rows)` of every shard in the tree ([`Node::shard_rows`]).
    pub(crate) fn shard_rows(&self) -> Vec<(u64, u64)> {
        self.node.shard_rows()
    }

    #[cfg(test)]
    pub(crate) fn node(&self) -> &Node {
        &self.node
    }

    /// `(hits, misses)` of the cache so far.
    pub(crate) fn cache_stats(&self) -> (u64, u64) {
        self.cache.as_ref().map_or((0, 0), |cache| cache.entries.stats())
    }

    /// Answer one query from what the root remembers — a table of the
    /// query's keys and restriction that holds its slots, perhaps among
    /// others — or else by asking the tree ([`Node::query`]), also for the
    /// slots the query's key set was asked for under its previous
    /// restriction ([`Root::predict`]), so the next charts of the click
    /// find them.
    pub(crate) fn query(&self, request: &QueryRequest) -> Result<SubtreeAnswer> {
        let Some(cache) = &self.cache else { return self.node.query(request, Duration::ZERO) };
        let mut keys = String::with_capacity(64);
        request.query.write_key_shape(&mut keys);
        let predicted = self.predict(&keys, &request.query);
        let answer = self.answer(cache, request, predicted)?;
        self.asked(&keys, &request.query);
        Ok(answer)
    }

    /// [`Root::query`], a miss computing the `wider` slots as well.
    fn answer(
        &self,
        cache: &WorkerCache,
        request: &QueryRequest,
        mut wider: Vec<Slot>,
    ) -> Result<SubtreeAnswer> {
        // A root folds whatever sketch size its leaves used: 0.
        let signature = query_signature(&request.query, 0);
        // Where the tail stands now: what a fresh entry will contain, and
        // what a remembered one may lack. No append runs beside a query.
        let tail = self.tail.read();
        let now = tail.as_ref().map_or(TailMark::default(), |tail| tail.mark);
        if let Some((entry, holds)) = cache.get(&signature, &request.query.slots) {
            // The root's answer: the cached table itself, no hop, every row
            // accounted as cached.
            match tail.as_ref().filter(|_| entry.at != now) {
                None if holds => return Ok(entry.to_answer()),
                // Remembered, but rows arrived since: scan those alone over
                // the entry's slots and merge. Still no hop, and the old
                // rows are still cached; the new ones count as their scan
                // found them. A scan that fails (a delta left a virtual
                // field two-typed) leaves the miss path to report it.
                Some(tail) if holds => {
                    let query = request.query.widened(&entry.slots);
                    let brought = (tail.scan_past(entry.at, &query))
                        .and_then(|(fresh, scan)| Ok((entry.brought_forward(fresh, now)?, scan)));
                    if let Ok((forward, scan)) = brought {
                        let mut answer = entry.to_answer();
                        answer.partial = forward.partial.clone();
                        answer.stats += &scan;
                        cache.put(&signature, Arc::new(forward));
                        return Ok(answer);
                    }
                }
                _ => {}
            }
            // A miss computes the entry's slots too: the table that
            // replaces it only grows.
            wider.extend_from_slice(&entry.slots);
        }
        drop(tail);
        let asked = &request.query;
        let ask = |request: &QueryRequest| self.node.query(request, Duration::ZERO);
        let (answer, slots) = if wider.iter().all(|slot| asked.slots.contains(slot)) {
            (ask(request)?, asked.slots.clone())
        } else {
            let wide = QueryRequest { query: asked.widened(&wider), ..request.clone() };
            match ask(&wide) {
                // A slot other charts asked for may fail where the query's
                // own do not (a virtual field an append left two-typed):
                // then the query is asked alone, and answers as it would.
                Err(Error::Rpc(fault)) => return Err(Error::Rpc(fault)),
                Err(_) => (ask(request)?, asked.slots.clone()),
                Ok(answer) => (answer, wide.query.slots),
            }
        };
        // Admission is cost-aware: the cells scanned beneath the root are
        // what a future miss would scan again.
        cache.put(&signature, Arc::new(CachedSubtree::capture(&answer, slots, now)));
        Ok(answer)
    }

    /// The slots a miss of `query` asks for beside its own — those its key
    /// set was asked for under its previous restriction. A click redraws a
    /// dashboard under one restriction, so the charts of one key set ask
    /// again what they asked under the last, and one table computed for all
    /// of them answers the rest. A key set is remembered only once asked
    /// with success ([`Root::asked`]); at most as many key sets as the
    /// cache holds entries are.
    fn predict(&self, keys: &str, query: &AnalyzedQuery) -> Vec<Slot> {
        let mut asked = self.asked.lock();
        asked.get_mut(keys).map_or(Vec::new(), |asked| asked.under(&query.filter).before.clone())
    }

    /// `query`, of key set `keys`, was answered.
    fn asked(&self, keys: &str, query: &AnalyzedQuery) {
        let mut asked = self.asked.lock();
        if !asked.contains_key(keys) && asked.len() >= self.capacity {
            asked.clear();
        }
        let asked = asked.entry(keys.to_owned()).or_default().under(&query.filter);
        for slot in &query.slots {
            if !asked.now.contains(slot) {
                asked.now.push(slot.clone());
            }
        }
    }

    /// Apply an append to the tree ([`Node::append`]) and keep what the
    /// root remembers — short, not wrong: [`Root::query`] brings it forward
    /// from the tail, which grows by the same rows while the children
    /// apply. The root forgets instead when it remembers nothing, or when
    /// the tail outgrows the tables it serves (and a 1 MiB floor). A request
    /// the tree refuses whole changes nothing here either.
    pub(crate) fn append(&self, append: &AppendRequest) -> Result<AppendAck> {
        let cache = self.cache.as_ref().filter(|cache| !cache.entries.is_empty());
        let (ack, kept) = self.node.append_while(append, || {
            cache.is_some_and(|cache| {
                let bound = cache.table_bytes().max(TAIL_FLOOR_BYTES);
                self.grow_tail(&append.deltas).is_ok_and(|bytes| bytes <= bound)
            })
        })?;
        if !kept {
            self.forget();
        } else if let Some(tail) = self.tail.write().as_mut() {
            tail.mark.leaf_chunks +=
                ack.receipts.iter().map(|r| r.new_chunk_rows.len()).sum::<usize>();
        }
        Ok(ack)
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
                    tail.store.append_delta(delta)?;
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

    /// Drop every entry, what was asked, and the tail that could bring the
    /// entries forward.
    fn forget(&self) {
        if let Some(cache) = &self.cache {
            cache.entries.clear();
        }
        self.asked.lock().clear();
        *self.tail.write() = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rpc::testkit::{kn_delta, kn_schema, request, spec, to_shard_0};
    use crate::rpc::ChildHandle;
    use pd_common::Value;
    use pd_sql::{analyze, parse_query};

    /// A root over one in-memory leaf holding `kn_delta(0..rows)`: the
    /// smallest tree with a tail.
    fn root_over_a_leaf(rows: i64, cache_entries: usize) -> Root {
        let build = BuildOptions::basic();
        let (leaf, _) = Node::leaf(0, kn_delta(0..rows), &build, spec("l0p")).unwrap();
        let child = ChildHandle::local(Arc::new(leaf), Some(0));
        Root::new(Node::mixer(vec![child], spec("root")), cache_entries, 1)
    }

    /// One `Cluster::append` on that tree: the leaf applies, the root
    /// absorbs the receipt.
    fn append(root: &Root, delta: TableDelta) {
        assert_eq!(root.append(&to_shard_0(delta)).unwrap().receipts.len(), 1);
    }

    // An integer for every row below 1000; a string once `n` reaches it.
    const BY_SIZE: &str = "SELECT COUNT(*) as c FROM t GROUP BY if(n >= 1000, 'big', 0)";
    const BY_K: &str = "SELECT k, COUNT(*) as c FROM t GROUP BY k";

    fn signature(sql: &str) -> String {
        query_signature(&analyze(&parse_query(sql).unwrap()).unwrap(), 4096)
    }

    #[test]
    fn signature_format_is_pinned() {
        // This exact string is the cache key of the root's tables —
        // `crates/sql/tests/signature_stability.rs` pins the fragments, this
        // pins the assembly.
        assert_eq!(
            signature(
                "SELECT country, COUNT(*) c, SUM(latency) s FROM logs \
                 WHERE latency > 100 GROUP BY country"
            ),
            "logs|keys:country|where:(latency > 100)|m:4096"
        );
        assert_eq!(signature("SELECT COUNT(*) FROM logs"), "logs|keys:|where:|m:4096");
        // No slots: every chart of the keys and restriction names one
        // table, whatever it aggregates; the sketch size is named.
        for other in [
            "SELECT country, AVG(latency) a FROM logs WHERE latency > 100 GROUP BY country",
            "SELECT country, MAX(user) FROM logs WHERE latency > 100 GROUP BY country",
        ] {
            assert_eq!(signature(other), "logs|keys:country|where:(latency > 100)|m:4096");
        }
        assert_eq!(
            signature("SELECT MAX(latency), COUNT(DISTINCT user) u, MIN(latency) FROM logs"),
            "logs|keys:|where:|m:4096"
        );
    }

    #[test]
    fn signature_ignores_presentation_clauses() {
        let base = signature("SELECT country, COUNT(*) c FROM logs GROUP BY country");
        assert_eq!(
            base,
            signature(
                "SELECT country, COUNT(*) c FROM logs GROUP BY country ORDER BY c DESC LIMIT 5"
            ),
            "ORDER BY / LIMIT do not change the partial"
        );
        assert_eq!(
            base,
            signature("SELECT country, COUNT(*) c FROM logs GROUP BY country HAVING c > 3"),
            "HAVING is applied at finalize time"
        );
    }

    #[test]
    fn signature_distinguishes_restrictions_and_shapes() {
        let base = signature("SELECT country, COUNT(*) c FROM logs GROUP BY country");
        for other in [
            "SELECT country, COUNT(*) c FROM logs WHERE country = 'DE' GROUP BY country",
            "SELECT table_name, COUNT(*) c FROM logs GROUP BY table_name",
            "SELECT country, user, COUNT(*) c FROM logs GROUP BY country, user",
        ] {
            assert_ne!(base, signature(other), "{other}");
        }
    }

    #[test]
    fn cached_subtrees_synthesize_all_cached_answers() {
        let computed = SubtreeAnswer {
            partial: PartialResult::default(),
            stats: ScanStats {
                chunks_total: 6,
                chunks_scanned: 4,
                chunks_skipped: 2,
                rows_total: 600,
                rows_scanned: 400,
                rows_skipped: 200,
                ..Default::default()
            },
            reports: vec![
                ShardReport {
                    shard: 2,
                    latency: Duration::from_micros(50),
                    queue: Duration::from_micros(9),
                    failover: true,
                    hedged: true,
                    cache_hit: false,
                },
                ShardReport {
                    shard: 5,
                    latency: Duration::from_micros(70),
                    queue: Duration::ZERO,
                    failover: false,
                    hedged: false,
                    cache_hit: false,
                },
            ],
        };
        let cached = CachedSubtree::capture(&computed, Vec::new(), TailMark::default());
        let hit = cached.to_answer();
        assert_eq!(hit.partial, computed.partial);
        assert_eq!(hit.stats.rows_total, 600);
        assert_eq!(hit.stats.rows_cached, 600);
        assert_eq!(hit.stats.rows_scanned, 0);
        assert_eq!(hit.stats.chunks_cached, 6);
        assert_eq!(hit.stats.worker_cache_hits, 1, "the root stopped the query");
        let shards: Vec<u64> = hit.reports.iter().map(|r| r.shard).collect();
        assert_eq!(shards, vec![2, 5], "every shard beneath still reports");
        for report in &hit.reports {
            assert!(report.cache_hit);
            assert!(!report.failover, "a hit never touches any replica");
            assert_eq!((report.latency, report.queue), (Duration::ZERO, Duration::ZERO));
        }
    }

    #[test]
    fn worker_cache_is_signature_keyed() {
        let cache = WorkerCache::new(8);
        let answer = SubtreeAnswer {
            partial: PartialResult::default(),
            stats: ScanStats::default(),
            reports: Vec::new(),
        };
        let entry = CachedSubtree::capture(&answer, Vec::new(), TailMark::default());
        cache.put("sig-a", Arc::new(entry));
        assert!(cache.get("sig-a", &[]).is_some_and(|(_, hit)| hit));
        assert!(cache.get("sig-b", &[]).is_none());
        assert_eq!(cache.entries.stats(), (1, 1));
    }

    /// An entry answers the charts whose slots it holds; one asking for a
    /// slot it lacks finds it, and is counted a miss.
    #[test]
    fn an_entry_is_a_hit_for_the_slots_it_holds() {
        let ctx = pd_core::ExecContext::default();
        let store = pd_core::DataStore::build(
            &pd_data::gen::generate_logs(&pd_data::gen::LogsSpec::scaled(200)),
            &pd_core::BuildOptions::basic(),
        )
        .unwrap();
        let analyzed = |sql: &str| analyze(&parse_query(sql).unwrap()).unwrap();
        let wide = analyzed("SELECT country, AVG(latency), MAX(user) FROM logs GROUP BY country");
        let (partial, stats) = pd_core::execute_partial(&store, &wide, &ctx).unwrap();
        let answer = SubtreeAnswer { partial, stats, reports: Vec::new() };
        let cache = WorkerCache::new(8);
        let entry = CachedSubtree::capture(&answer, wide.slots.clone(), TailMark::default());
        cache.put("sig", Arc::new(entry));
        for (sql, hit) in [
            ("SELECT country, SUM(latency) FROM logs GROUP BY country", true),
            ("SELECT country, MAX(user), COUNT(*) FROM logs GROUP BY country", true),
            ("SELECT country, MIN(user) FROM logs GROUP BY country", false),
            ("SELECT country, COUNT(DISTINCT user) FROM logs GROUP BY country", false),
        ] {
            let (entry, held) = cache.get("sig", &analyzed(sql).slots).unwrap();
            assert_eq!(held, hit, "{sql}");
            assert_eq!(entry.slots, wide.slots, "{sql}: the entry is as it was");
        }
        assert_eq!(cache.entries.stats(), (2, 2));
    }

    /// What the root remembers of a key set: the slots asked under its
    /// current restriction, and, once that changes, under the one before.
    #[test]
    fn the_root_predicts_what_the_last_restriction_asked() {
        let root = root_over_a_leaf(10, 2);
        let analyzed = |sql: &str| analyze(&parse_query(sql).unwrap()).unwrap();
        let slots = |sql: &str| analyzed(sql).slots;
        let (a, b) = (
            "SELECT country, COUNT(*) FROM logs WHERE latency > 1 GROUP BY country",
            "SELECT country, MAX(user) FROM logs WHERE latency > 1 GROUP BY country",
        );
        let next = "SELECT country, SUM(latency) FROM logs WHERE latency > 2 GROUP BY country";
        assert!(root.predict("k", &analyzed(a)).is_empty(), "nothing asked yet");
        root.asked("k", &analyzed(a));
        root.asked("k", &analyzed(b));
        assert!(root.predict("k", &analyzed(b)).is_empty(), "one restriction so far");
        let union = [slots(a), slots(b)].concat();
        assert_eq!(root.predict("k", &analyzed(next)), union, "the restriction moved");
        root.asked("k", &analyzed(next));
        assert_eq!(root.predict("k", &analyzed(next)), union, "and stays put");
        assert!(root.predict("other", &analyzed(a)).is_empty(), "per key set");
        root.forget();
        assert!(root.predict("k", &analyzed(a)).is_empty(), "dropped with the entries");
    }

    #[test]
    fn a_virtual_field_an_append_leaves_two_typed_fails_as_a_miss_would() {
        let root = root_over_a_leaf(90, 4);
        // The same tree without a root cache: every answer is the miss path's.
        let bare = root_over_a_leaf(90, 0);
        let ask = |root: &Root, sql: &str| root.query(&request(sql));
        ask(&root, BY_SIZE).unwrap();
        ask(&root, BY_K).unwrap();

        // Integers still: both charts are brought forward, the tail
        // materializing the field over its own rows.
        append(&root, kn_delta(90..100));
        append(&bare, kn_delta(90..100));
        let forward = ask(&root, BY_SIZE).unwrap();
        assert_eq!((forward.stats.worker_cache_hits, forward.stats.rows_scanned), (1, 10));
        assert_eq!(forward.partial, ask(&bare, BY_SIZE).unwrap().partial);

        // 'big' arrives: the tail's field cannot hold it either. The
        // remembered chart fails with the error the leaf reports, while one
        // that does not name the field is still brought forward.
        append(&root, kn_delta(1_000..1_010));
        append(&bare, kn_delta(1_000..1_010));
        let missed = ask(&bare, BY_SIZE).unwrap_err();
        assert_eq!(ask(&root, BY_SIZE).unwrap_err().to_string(), missed.to_string());
        let by_k = ask(&root, BY_K).unwrap();
        assert_eq!((by_k.stats.worker_cache_hits, by_k.stats.rows_total), (1, 110));
        assert_eq!(by_k.partial, ask(&bare, BY_K).unwrap().partial);
    }

    /// A slot remembered for other charts that an append leaves failing (a
    /// sum over a field now of two types) fails no chart that does not read
    /// it: the miss that would compute it beside the chart's own slots
    /// fails, and the chart is asked alone — it answers as it would on a
    /// tree that remembers nothing.
    #[test]
    fn a_remembered_slot_that_fails_fails_no_other_chart() {
        const SUMMED: &str = "SELECT k, SUM(if(n >= 1000, 'big', n)) as s FROM t GROUP BY k";
        const MAXED: &str = "SELECT k, MAX(n) as m FROM t GROUP BY k";
        let root = root_over_a_leaf(90, 4);
        let bare = root_over_a_leaf(90, 0);
        let ask = |root: &Root, sql: &str| root.query(&request(sql));
        ask(&root, SUMMED).unwrap();
        append(&root, kn_delta(1_000..1_010));
        append(&bare, kn_delta(1_000..1_010));
        let missed = ask(&bare, SUMMED).unwrap_err();
        assert_eq!(ask(&root, SUMMED).unwrap_err().to_string(), missed.to_string());
        let maxed = ask(&root, MAXED).unwrap();
        assert_eq!(maxed.partial, ask(&bare, MAXED).unwrap().partial, "the chart alone");
    }

    #[test]
    fn a_tail_past_its_bound_goes_with_the_cache_it_served() {
        let root = root_over_a_leaf(100, 4);
        let tail_bytes = |root: &Root| root.tail.read().as_ref().map(|t| t.store.total_bytes());
        let cached = |root: &Root| root.cache.as_ref().unwrap().entries.len();
        let ask = |root: &Root| root.query(&request(BY_K)).unwrap();
        ask(&root);
        // One small chart is remembered, so the bound is the floor. The
        // batch repeats 100 rows: bytes grow with rows, dictionaries do not.
        const BATCH: u64 = 25_000;
        let k: Vec<Value> =
            (0..BATCH).map(|i| Value::from(["a", "b", "c"][i as usize % 3])).collect();
        let n: Vec<Value> = (0..BATCH).map(|i| Value::Int(i as i64 % 100)).collect();
        let batch = TableDelta::from_columns(kn_schema(), &[&k, &n]).unwrap();
        let (mut rows, mut appends, mut drops, mut peak) = (100u64, 0, 0, 0);
        while drops < 2 {
            appends += 1;
            append(&root, batch.clone());
            rows += BATCH;
            match tail_bytes(&root) {
                Some(bytes) => {
                    assert!(bytes <= TAIL_FLOOR_BYTES, "a kept tail is within its bound: {bytes}");
                    peak = bytes.max(peak);
                    let forward = ask(&root);
                    assert_eq!(forward.stats.worker_cache_hits, 1, "brought forward @ {rows}");
                    assert_eq!(forward.stats.rows_scanned, BATCH);
                }
                None => {
                    drops += 1;
                    assert_eq!(cached(&root), 0, "the cache went with the tail @ {rows}");
                    // Nothing is remembered: the next answer is a miss, and
                    // a correct one — the leaf holds every row.
                    let miss = ask(&root);
                    assert_eq!((miss.stats.worker_cache_hits, miss.stats.rows_total), (0, rows));
                    assert_eq!(cached(&root), 1);
                    assert!(tail_bytes(&root).is_none(), "a tail starts with the next append");
                }
            }
            assert!(appends < 100, "the tail never reached its bound: {peak} bytes");
        }
        assert!(peak > TAIL_FLOOR_BYTES / 2, "the bound was approached from below: {peak}");
        // And a root that remembers nothing keeps no tail at all.
        let forgetful = root_over_a_leaf(100, 0);
        append(&forgetful, kn_delta(100..200));
        assert!(tail_bytes(&forgetful).is_none());
    }
}
