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
//! The root **plans each SQL text once**: it remembers, per text, the
//! analyzed query and its signature, written in one walk with the key set
//! as its prefix (a `Planned`), four times as many texts as it keeps
//! entries, the oldest first out. [`pd_sql::plan`] is a function of the
//! text alone, so a remembered plan is the plan; texts that differ in
//! presentation or an alias share a signature, never a plan. Only a miss
//! clones its plan into the [`QueryRequest`] it sends, so the wire is as
//! before. A text that fails to plan is not remembered.
//!
//! A text also remembers **the groups it returned** the last time a hit
//! answered it, and the entry that hit read: asked again while that entry
//! stands, it ranks nothing ([`pd_core::finalize_kept`]). A repeated chart
//! therefore costs two probes and its ≤ LIMIT rows — no parse, no
//! signature, no request, no HAVING, no order word. The entry is held as a
//! `Weak`, compared by allocation: an entry brought forward, widened by a
//! miss, evicted or forgotten is another allocation (the `Weak` keeps the
//! old one's from being reused), so the text ranks again against it.
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
//! The entries live in a [`pd_core::BoundedCache`], the chunk-result
//! cache's map: a full cache drops the entry it admitted first, so it holds
//! the same entries whenever the same queries arrive in the same order.

use crate::node::{scan_context, Node};
use crate::rpc::{AppendAck, AppendRequest, QueryRequest, SubtreeAnswer};
use pd_common::sync::{Mutex, RwLock};
use pd_common::{Error, Result};
use pd_core::{
    execute_partial_from, finalize, finalize_kept, BoundedCache, BuildOptions, DataStore,
    ExecContext, PartialResult, QueryResult, ScanStats,
};
use pd_encoding::TableDelta;
use pd_sql::{AnalyzedQuery, Expr, Slot};
use std::collections::HashMap;
use std::fmt::Write;
use std::sync::{Arc, Weak};
use std::time::Duration;

/// Normalized cache signature of an analyzed query: what names the table
/// its partial is a part of (table, keys, row restriction, sketch size),
/// and nothing that only affects finalization or which columns of that
/// table it reads — its slots included: an entry records the slots it
/// holds, and answers every query asking for some of them.
pub fn query_signature(analyzed: &AnalyzedQuery, sketch_m: usize) -> String {
    let mut signature = String::with_capacity(128);
    write_signature(analyzed, sketch_m, &mut signature);
    signature
}

/// Write [`query_signature`] into `out` in one walk; returns where its key
/// shape ([`AnalyzedQuery::write_key_shape`]) ends.
fn write_signature(analyzed: &AnalyzedQuery, sketch_m: usize, out: &mut String) -> usize {
    analyzed.write_key_shape(out);
    let keys = out.len();
    out.push_str("|where:");
    if let Some(filter) = &analyzed.filter {
        write!(out, "{filter}").expect("a String takes every write");
    }
    write!(out, "|m:{sketch_m}").expect("a String takes every write");
    keys
}

/// SQL text as the root plans it: the analyzed query, and its signature
/// with the key shape as its prefix — what a hit probes by and what the
/// root remembers per key set, written once per text.
pub(crate) struct Planned {
    pub(crate) query: AnalyzedQuery,
    /// [`query_signature`] at sketch size 0: a root folds whatever sketch
    /// size its leaves used.
    signature: Arc<str>,
    /// Length of the key-shape prefix of `signature`.
    keys: usize,
    /// What the text's last finalize of a hit returned: held by one query
    /// of the text at a time while it builds its rows.
    kept: Mutex<Kept>,
}

/// The groups a text's finalize returned ([`pd_core::finalize_kept`]) and
/// the entry whose table it ranked. The `Weak` keeps that entry's memory
/// from being reused while it is held, so an entry at the same address is
/// that entry.
#[derive(Default)]
struct Kept {
    from: Weak<CachedSubtree>,
    groups: Option<Vec<u32>>,
}

impl Planned {
    fn new(query: AnalyzedQuery) -> Planned {
        let mut signature = String::with_capacity(128);
        let keys = write_signature(&query, 0, &mut signature);
        Planned { query, signature: signature.into(), keys, kept: Mutex::default() }
    }

    /// The query's key set: `table|keys:…`.
    fn keys(&self) -> &str {
        &self.signature[..self.keys]
    }

    /// This text's rows of `partial`: ranked, unless `partial` is the table
    /// of `from` — the entry a hit read ([`Root::query`]) — and the text's
    /// last finalize of a hit ranked that entry; then they are the groups
    /// it returned. A hit's groups are kept for its entry.
    pub(crate) fn finalize(
        &self,
        partial: PartialResult,
        from: Option<&Arc<CachedSubtree>>,
    ) -> Result<QueryResult> {
        let Some(entry) = from else { return finalize(&self.query, partial) };
        let mut kept = self.kept.lock();
        if !std::ptr::eq(kept.from.as_ptr(), Arc::as_ptr(entry)) {
            *kept = Kept { from: Arc::downgrade(entry), groups: None };
        }
        finalize_kept(&self.query, partial, &mut kept.groups)
    }
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
/// recompute, plus the tree's shape its hit-side stats count.
pub(crate) struct CachedSubtree {
    /// The whole tree's mergeable group states.
    partial: PartialResult,
    /// The slots it was computed for: what it answers. (A partial of no
    /// groups beneath edges that were all pruned holds no column at all.)
    slots: Vec<Slot>,
    /// Shape the partial covers.
    rows_total: u64,
    chunks_total: usize,
    /// How much of the root's tail the partial already contains.
    at: TailMark,
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
            at,
        }
    }

    /// Whether the entry answers every one of `slots`.
    fn holds(&self, slots: &[Slot]) -> bool {
        slots.iter().all(|slot| self.slots.contains(slot))
    }

    /// This entry with `fresh` — the partial over the tail rows between
    /// its mark and `now` — merged in: complete up to `now`. The merge is
    /// copy-on-write: answers this entry already served keep the table
    /// they were handed.
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
            at: now,
        })
    }

    /// The answer a cache hit hands the driver: the identical partial (the
    /// cached table itself, shared), stats that account every row as served
    /// from a cached result (one `worker_cache_hits`), and no report: no
    /// shard was asked.
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
            reports: Vec::new(),
        }
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
/// than this: a tail this size costs the driver little memory.
const TAIL_BOUND_BYTES: usize = 1 << 20;

/// Texts the root plans per entry it keeps. A dashboard asks one table in
/// several texts — other aggregates, orders, limits — so a memo of one text
/// per entry re-plans what the root still answers: the seed-1 drill session
/// asks 1 922 distinct texts of 491 tables (3.9 per table), and a memo of
/// 1 024 texts found 2 841 of 4 900 per pass where one that keeps them all
/// finds 2 927.
const PLANS_PER_ENTRY: usize = 4;

/// The root of the tree, in the driver on both transports: the mixer over
/// the top level, and the tree's one memory — its entries, what each key
/// set was asked lately, the tail that keeps the entries answerable
/// through appends, and the plan of every SQL text it was asked lately.
pub(crate) struct Root {
    node: Node,
    /// Its entries, keyed by [`query_signature`] alone — the root *is* the
    /// tree, so no shard index is needed. `None` when the root remembers
    /// nothing (`ClusterConfig::shard_cache` 0): then it keeps no tail
    /// either, and no plan.
    cache: Option<BoundedCache<Arc<str>, Arc<CachedSubtree>>>,
    /// Per SQL text, its plan ([`Root::plan`]): [`PLANS_PER_ENTRY`] texts
    /// per entry the cache holds, oldest first out. A plan is a function of
    /// the text alone, so it outlives appends and [`Root::forget`].
    plans: Option<BoundedCache<Arc<str>, Arc<Planned>>>,
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
    /// `cache_entries` signatures and [`PLANS_PER_ENTRY`] plans per
    /// signature (0: none), scanning its tail `threads` wide.
    pub(crate) fn new(node: Node, cache_entries: usize, threads: usize) -> Root {
        Root {
            node,
            cache: (cache_entries > 0).then(|| BoundedCache::new(cache_entries)),
            plans: (cache_entries > 0).then(|| BoundedCache::new(PLANS_PER_ENTRY * cache_entries)),
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
        self.cache.as_ref().map_or((0, 0), BoundedCache::stats)
    }

    /// `sql`'s plan ([`pd_sql::plan`]) and signature: remembered, if the
    /// root was asked the text lately, or else worked out and remembered.
    /// A text that fails to plan is not: it fails again, alike, when asked
    /// again.
    pub(crate) fn plan(&self, sql: &str) -> Result<Arc<Planned>> {
        if let Some((planned, _)) = self.plans.as_ref().and_then(|plans| plans.get(sql, |_| true)) {
            return Ok(planned);
        }
        let planned = Arc::new(Planned::new(pd_sql::plan(sql)?));
        if let Some(plans) = &self.plans {
            plans.put(sql.into(), Arc::clone(&planned));
        }
        Ok(planned)
    }

    /// Answer one planned query ([`Root::plan`]) from what the root
    /// remembers — a table of the query's keys and restriction that holds
    /// its slots, perhaps among others — or else by asking the tree
    /// ([`Node::query`]) within `budget`, hedging after `hedge_micros`,
    /// also for the slots the query's key set was asked for under its
    /// previous restriction ([`Root::predict`]), so the next charts of the
    /// click find them. Only a miss builds the request it sends. Beside the
    /// answer, the entry a hit handed as it stands ([`Planned::finalize`]).
    pub(crate) fn query(
        &self,
        planned: &Planned,
        budget: Duration,
        hedge_micros: u64,
    ) -> Result<(SubtreeAnswer, Option<Arc<CachedSubtree>>)> {
        let Some(cache) = &self.cache else {
            let request = QueryRequest { query: planned.query.clone(), budget, hedge_micros };
            return Ok((self.node.query(&request, Duration::ZERO)?, None));
        };
        let answer = self.answer(cache, planned, budget, hedge_micros)?;
        self.asked(planned.keys(), &planned.query);
        Ok(answer)
    }

    /// [`Root::query`] with the cache.
    fn answer(
        &self,
        cache: &BoundedCache<Arc<str>, Arc<CachedSubtree>>,
        planned: &Planned,
        budget: Duration,
        hedge_micros: u64,
    ) -> Result<(SubtreeAnswer, Option<Arc<CachedSubtree>>)> {
        let signature = &planned.signature;
        let asked = &planned.query;
        // Where the tail stands now: what a fresh entry will contain, and
        // what a remembered one may lack. No append runs beside a query.
        let tail = self.tail.read();
        let now = tail.as_ref().map_or(TailMark::default(), |tail| tail.mark);
        // An entry holding every slot asked is a hit; one lacking some is
        // a miss, counted as one, whose computed table holds its slots too.
        let mut held = Vec::new();
        if let Some((entry, holds)) = cache.get(&**signature, |entry| entry.holds(&asked.slots)) {
            // The root's answer: the cached table itself, no hop, every row
            // accounted as cached.
            match tail.as_ref().filter(|_| entry.at != now) {
                None if holds => return Ok((entry.to_answer(), Some(entry))),
                // Remembered, but rows arrived since: scan those alone over
                // the entry's slots and merge. Still no hop, and the old
                // rows are still cached; the new ones count as their scan
                // found them. A scan that fails (a delta left a virtual
                // field two-typed) leaves the miss path to report it.
                Some(tail) if holds => {
                    let query = asked.widened(&entry.slots);
                    let brought = (tail.scan_past(entry.at, &query))
                        .and_then(|(fresh, scan)| Ok((entry.brought_forward(fresh, now)?, scan)));
                    if let Ok((forward, scan)) = brought {
                        let mut answer = entry.to_answer();
                        answer.partial = forward.partial.clone();
                        answer.stats += &scan;
                        cache.put(Arc::clone(signature), Arc::new(forward));
                        return Ok((answer, None));
                    }
                }
                _ => {}
            }
            // A miss computes the entry's slots too: the table that
            // replaces it only grows.
            held.extend_from_slice(&entry.slots);
        }
        drop(tail);
        let mut wider = self.predict(planned.keys(), asked);
        wider.append(&mut held);
        let request = |query| QueryRequest { query, budget, hedge_micros };
        let ask = |request: &QueryRequest| self.node.query(request, Duration::ZERO);
        let (answer, slots) = if wider.iter().all(|slot| asked.slots.contains(slot)) {
            (ask(&request(asked.clone()))?, asked.slots.clone())
        } else {
            let wide = request(asked.widened(&wider));
            match ask(&wide) {
                // A slot other charts asked for may fail where the query's
                // own do not (a virtual field an append left two-typed):
                // then the query is asked alone, and answers as it would.
                Err(Error::Rpc(fault)) => return Err(Error::Rpc(fault)),
                Err(_) => (ask(&request(asked.clone()))?, asked.slots.clone()),
                Ok(answer) => (answer, wide.query.slots),
            }
        };
        cache.put(Arc::clone(signature), Arc::new(CachedSubtree::capture(&answer, slots, now)));
        Ok((answer, None))
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
        if !asked.contains_key(keys) {
            if asked.len() >= self.capacity {
                asked.clear();
            }
            asked.insert(keys.to_owned(), Asked::default());
        }
        let asked = asked.get_mut(keys).expect("inserted above").under(&query.filter);
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
    /// the tail outgrows its bound. A request the tree refuses whole
    /// changes nothing here either.
    pub(crate) fn append(&self, append: &AppendRequest) -> Result<AppendAck> {
        let remembers = self.cache.as_ref().is_some_and(|cache| !cache.is_empty());
        let (ack, kept) = self.node.append_while(append, || {
            remembers && self.grow_tail(&append.deltas).is_ok_and(|b| b <= TAIL_BOUND_BYTES)
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
            cache.clear();
        }
        self.asked.lock().clear();
        *self.tail.write() = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rpc::testkit::{ask, kn_delta, kn_schema, spec, to_shard_0};
    use crate::rpc::ChildHandle;
    use pd_common::Value;
    use pd_sql::{analyze, parse_query};

    /// A root over one in-memory leaf holding `kn_delta(0..rows)`: the
    /// smallest tree with a tail.
    fn root_over_a_leaf(rows: i64, cache_entries: usize) -> Root {
        let build = BuildOptions::basic();
        let (leaf, _) = Node::leaf(0, kn_delta(0..rows), &build, spec("l0p")).unwrap();
        let child = ChildHandle::local(Arc::new(leaf), Some(0));
        Root::new(Node::mixer(vec![child], "root".into()), cache_entries, 1)
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

    /// A hit hands the driver the remembered table and nothing else: no
    /// leaf is asked, so no shard reports, and every row counts as cached.
    #[test]
    fn a_hit_has_no_report_and_asks_no_leaf() {
        let build = BuildOptions::basic();
        let leaf = Arc::new(Node::leaf(0, kn_delta(0..100), &build, spec("l0p")).unwrap().0);
        let child = ChildHandle::local(Arc::clone(&leaf), Some(0));
        let root = Root::new(Node::mixer(vec![child], "root".into()), 4, 1);
        let miss = ask(&root, BY_K).unwrap();
        assert_eq!((miss.stats.worker_cache_hits, miss.reports.len()), (0, 1));
        let lookups = leaf.chunk_lookups();
        let hit = ask(&root, BY_K).unwrap();
        assert_eq!(leaf.chunk_lookups(), lookups, "no leaf was asked");
        assert!(hit.reports.is_empty(), "and no shard reports");
        assert_eq!(hit.partial, miss.partial);
        let stats = hit.stats;
        assert_eq!((stats.worker_cache_hits, stats.rows_cached, stats.rows_scanned), (1, 100, 0));
        assert_eq!(stats.chunks_cached, miss.stats.chunks_total);
    }

    #[test]
    fn the_roots_cache_is_signature_keyed() {
        let cache: BoundedCache<Arc<str>, _> = BoundedCache::new(8);
        let answer = SubtreeAnswer {
            partial: PartialResult::default(),
            stats: ScanStats::default(),
            reports: Vec::new(),
        };
        let entry = CachedSubtree::capture(&answer, Vec::new(), TailMark::default());
        cache.put("sig-a".into(), Arc::new(entry));
        let holds = |entry: &Arc<CachedSubtree>| entry.holds(&[]);
        assert!(cache.get("sig-a", holds).is_some_and(|(_, hit)| hit));
        assert!(cache.get("sig-b", holds).is_none());
        assert_eq!(cache.stats(), (1, 1));
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
        let cache: BoundedCache<Arc<str>, _> = BoundedCache::new(8);
        let entry = CachedSubtree::capture(&answer, wide.slots.clone(), TailMark::default());
        cache.put("sig".into(), Arc::new(entry));
        for (sql, hit) in [
            ("SELECT country, SUM(latency) FROM logs GROUP BY country", true),
            ("SELECT country, MAX(user), COUNT(*) FROM logs GROUP BY country", true),
            ("SELECT country, MIN(user) FROM logs GROUP BY country", false),
            ("SELECT country, COUNT(DISTINCT user) FROM logs GROUP BY country", false),
        ] {
            let slots = analyzed(sql).slots;
            let (entry, held) = cache.get("sig", |entry| entry.holds(&slots)).unwrap();
            assert_eq!(held, hit, "{sql}");
            assert_eq!(entry.slots, wide.slots, "{sql}: the entry is as it was");
        }
        assert_eq!(cache.stats(), (2, 2));
    }

    /// A root of N entries keeps the plans of 4N texts, the oldest first
    /// out.
    #[test]
    fn a_root_of_n_entries_keeps_four_texts_per_entry() {
        let root = root_over_a_leaf(10, 2);
        let text = |i: usize| format!("SELECT k, COUNT(*) as c FROM t GROUP BY k LIMIT {i}");
        let planned: Vec<_> = (0..8).map(|i| root.plan(&text(i)).unwrap()).collect();
        for (i, plan) in planned.iter().enumerate() {
            assert!(Arc::ptr_eq(plan, &root.plan(&text(i)).unwrap()), "text {i} is kept");
        }
        root.plan(&text(8)).unwrap();
        assert!(Arc::ptr_eq(&planned[1], &root.plan(&text(1)).unwrap()), "the rest stay");
        assert!(!Arc::ptr_eq(&planned[0], &root.plan(&text(0)).unwrap()), "the oldest went");
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
        let cached = |root: &Root| root.cache.as_ref().unwrap().len();
        let ask_k = |root: &Root| ask(root, BY_K).unwrap();
        ask_k(&root);
        // The batch repeats 100 rows: bytes grow with rows, dictionaries do
        // not.
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
                    assert!(bytes <= TAIL_BOUND_BYTES, "a kept tail is within its bound: {bytes}");
                    peak = bytes.max(peak);
                    let forward = ask_k(&root);
                    assert_eq!(forward.stats.worker_cache_hits, 1, "brought forward @ {rows}");
                    assert_eq!(forward.stats.rows_scanned, BATCH);
                }
                None => {
                    drops += 1;
                    assert_eq!(cached(&root), 0, "the cache went with the tail @ {rows}");
                    // Nothing is remembered: the next answer is a miss, and
                    // a correct one — the leaf holds every row.
                    let miss = ask_k(&root);
                    assert_eq!((miss.stats.worker_cache_hits, miss.stats.rows_total), (0, rows));
                    assert_eq!(cached(&root), 1);
                    assert!(tail_bytes(&root).is_none(), "a tail starts with the next append");
                }
            }
            assert!(appends < 100, "the tail never reached its bound: {peak} bytes");
        }
        assert!(peak > TAIL_BOUND_BYTES / 2, "the bound was approached from below: {peak}");
        // And a root that remembers nothing keeps no tail at all.
        let forgetful = root_over_a_leaf(100, 0);
        append(&forgetful, kn_delta(100..200));
        assert!(tail_bytes(&forgetful).is_none());
    }
}
