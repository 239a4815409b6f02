//! Result caching for the §4 serving tree — at *every* node of it.
//!
//! §6 observes that drill-down traffic is dominated by *re-asked*
//! subqueries: a mouse click refreshes many charts, and every chart except
//! the one being filtered re-issues a query the tree has answered before.
//! The chunk-result cache (§6, [`pd_core::ResultCache`]) exploits this per
//! fully-active chunk *inside* one shard; [`WorkerCache`] is the
//! distributed counterpart, keyed by the normalized [`query_signature`] —
//! table, keys, restriction and sketch size, *not* the slots: every
//! [`crate::node::Node`] owns one — a leaf caches its shard's
//! [`pd_core::PartialResult`], a merge server the *folded subtree* partial,
//! the root in the driver the whole tree's — so a warm drill-down answers
//! from the topmost cache that has the signature, with **zero child hops**
//! below it; a chart the root remembers crosses no edge at all.
//!
//! One entry per chart group: a partial names the slot each of its columns
//! holds, so an entry is a hit for every query whose slots it holds (a
//! *subset hit*: semantic caching, Dar et al., VLDB 1996); the asking
//! query's aggregates find their slots among the entry's by name at
//! finalize, in place. A query asking for a slot the entry lacks is a miss
//! that computes the **union** — its slots and the entry's — so an entry
//! only grows, and a parent takes the slots it asked for out of a child's
//! wider answer. At the root the cache also **remembers, per key set**,
//! the slots asked since that key set's restriction last changed
//! ([`WorkerCache::predict`]): a mouse click redraws a dashboard of charts
//! under one new restriction, so a root miss asks for what the key set was
//! asked under the previous one as well, and its other charts are hits.
//!
//! The rebuild epoch carried by every `Load`/`Attach`/`Append`/`Query`
//! ([`crate::rpc`]) names the data an entry describes: a node drops its
//! cache the moment it meets an epoch it was not told of. A mixer that *is* told of an append
//! ([`crate::node::Node::append`]) keeps its entries:
//! each records how much of the node's tail — the rows appended beneath it
//! since — its table contains ([`TailMark`]), and one that is behind is
//! brought forward at its next probe by scanning the missing rows and
//! merging ([`CachedSubtree::brought_forward`]). The second property below
//! is what makes that the recomputed answer, bit for bit.
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
//!   rescanning the shard (or re-folding the subtree). Capacity eviction
//!   can therefore change [`pd_core::ScanStats`], never results. An entry
//!   shares its table with the answer it was captured from and with every
//!   answer it serves ([`pd_core::PartialResult`] is copy-on-write): a put
//!   and a hit copy no column.
//!
//! Admission/eviction reuses [`pd_core::BoundedCache`], the chunk-result
//! cache's cost-aware machinery: a node scores an entry by `bytes × cells
//! scanned beneath it` ([`pd_core::cost_score`]), so a full cache keeps the
//! partials that are most expensive to regenerate — and, the score being a
//! function of the query and the data, holds the same entries whenever the
//! same queries arrive in the same order.

use crate::rpc::{ShardReport, SubtreeAnswer};
use pd_common::sync::Mutex;
use pd_common::Result;
use pd_core::{cost_score, BoundedCache, PartialResult, ScanStats};
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

/// How far a mixer's tail — the rows appended beneath it since its cache
/// last started empty ([`crate::node::Node::append`]) — had grown at some
/// moment. Every entry records the mark its table is complete up to; a
/// node that never kept a tail stands at the default, and so do its entries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TailMark {
    /// Chunks of the tail's own store: where a scan for the rest starts.
    pub chunks: usize,
    /// Rows and chunks as the leaves' receipts counted them: what the
    /// subtree's totals grow by.
    pub rows: u64,
    pub leaf_chunks: usize,
}

/// One tree node's cached answer for a signature: the partial it would
/// recompute, plus the subtree shape needed to synthesize hit-side stats
/// and per-shard reports without touching any child.
pub struct CachedSubtree {
    /// The node's mergeable group states — a leaf's shard partial or a
    /// merge server's folded subtree partial.
    pub partial: PartialResult,
    /// The slots it was computed for: what it answers. (A partial of no
    /// groups beneath edges that were all pruned holds no column at all.)
    slots: Vec<Slot>,
    /// Subtree shape the partial covers.
    rows_total: u64,
    chunks_total: usize,
    /// Every shard beneath this node, for hit-side report synthesis.
    shards: Vec<u64>,
    /// How much of the node's tail the partial already contains.
    at: TailMark,
    /// What the entry was admitted by: its table's bytes then, and the
    /// cells scanned beneath the node to compute it.
    bytes: usize,
    cells: u64,
}

impl CachedSubtree {
    /// Capture a freshly computed answer for `slots` for reuse, sharing
    /// its table. `at`: where the node's tail stood when the answer was
    /// asked for.
    pub fn capture(answer: &SubtreeAnswer, slots: Vec<Slot>, at: TailMark) -> CachedSubtree {
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

    pub fn at(&self) -> TailMark {
        self.at
    }

    /// The slots the entry answers.
    pub fn slots(&self) -> &[Slot] {
        &self.slots
    }

    /// Whether the entry answers every one of `slots`.
    pub fn holds(&self, slots: &[Slot]) -> bool {
        slots.iter().all(|slot| self.slots.contains(slot))
    }

    /// This entry with `fresh` — the partial over the tail rows between
    /// its mark and `now` — merged in: complete up to `now`, under the
    /// score it was admitted with. The merge is copy-on-write: answers
    /// this entry already served keep the table they were handed.
    pub fn brought_forward(&self, fresh: PartialResult, now: TailMark) -> Result<CachedSubtree> {
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

    /// The answer a cache hit sends up the tree: the identical partial
    /// (the cached table itself, shared), stats that account every row beneath this node as served from a
    /// cached result (one `worker_cache_hits` for the node that stopped
    /// the query), and a zero-latency, cache-flagged report per shard.
    /// `queued` is this node's own measured queue delay, which applies to
    /// hits exactly as it does to computed answers.
    pub fn to_answer(&self, queued: Duration) -> SubtreeAnswer {
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
                    queue: queued,
                    failover: false,
                    hedged: false,
                    cache_hit: true,
                })
                .collect(),
        }
    }
}

/// A tree node's own result cache (leaf, merge server or the root), keyed
/// by [`query_signature`] alone — the node *is* its subtree, so no shard
/// index is needed.
pub struct WorkerCache {
    entries: BoundedCache<Arc<str>, Arc<CachedSubtree>>,
    /// At the root, per key set ([`AnalyzedQuery::write_key_shape`]): what
    /// it was asked for lately ([`WorkerCache::predict`]). Dropped with the
    /// entries.
    asked: Mutex<HashMap<String, Asked>>,
    capacity: usize,
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

impl WorkerCache {
    /// Cache at most `capacity` signatures.
    pub fn new(capacity: usize) -> WorkerCache {
        WorkerCache { entries: BoundedCache::new(capacity), asked: Mutex::default(), capacity }
    }

    /// The entry `signature` names, if any, and whether it holds every one
    /// of `slots` — a hit; else a miss, counted as one, whose computed
    /// table is to hold the entry's slots too.
    pub fn get(&self, signature: &str, slots: &[Slot]) -> Option<(Arc<CachedSubtree>, bool)> {
        self.entries.get(signature, |entry| entry.holds(slots))
    }

    /// At the root: the slots a miss of `query` asks for beside its own —
    /// those its key set was asked for under its previous restriction. A
    /// click redraws a dashboard under one restriction, so the charts of
    /// one key set ask again what they asked under the last, and one table
    /// computed for all of them answers the rest. A key set is remembered
    /// only once asked with success ([`WorkerCache::asked`]); at most as
    /// many key sets as the cache holds entries are.
    pub fn predict(&self, keys: &str, query: &AnalyzedQuery) -> Vec<Slot> {
        let mut asked = self.asked.lock();
        asked.get_mut(keys).map_or(Vec::new(), |asked| asked.under(&query.filter).before.clone())
    }

    /// At the root: `query`, of key set `keys`, was answered.
    pub fn asked(&self, keys: &str, query: &AnalyzedQuery) {
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

    /// Admit an entry, scored `partial bytes × cells scanned to compute
    /// it`: capacity pressure evicts the subtree answers that are cheapest
    /// to regenerate. An entry brought forward replaces the one it came
    /// from under the same score.
    pub fn put(&self, signature: &str, entry: Arc<CachedSubtree>) {
        let cost = cost_score(entry.bytes, entry.cells);
        self.entries.put(signature.into(), entry, cost);
    }

    /// Drop everything: the node was not told how the data changed (the
    /// epoch moved without an append), or its tail outgrew
    /// [`WorkerCache::table_bytes`].
    pub fn invalidate(&self) {
        self.entries.clear();
        self.asked.lock().clear();
    }

    /// Bytes of the tables the resident entries keep alive, as each was
    /// admitted — what a node's tail is worth keeping for.
    pub fn table_bytes(&self) -> usize {
        self.entries.values().iter().map(|entry| entry.bytes).sum()
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        self.entries.stats()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_sql::{analyze, parse_query};

    fn signature(sql: &str) -> String {
        query_signature(&analyze(&parse_query(sql).unwrap()).unwrap(), 4096)
    }

    #[test]
    fn signature_format_is_pinned() {
        // This exact string is the cache key of every node's table —
        // `crates/sql/tests/signature_stability.rs` pins the fragments, this
        // pins the assembly. Changing it cold-starts every worker cache.
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
        let hit = cached.to_answer(Duration::from_micros(123));
        assert_eq!(hit.partial, computed.partial);
        assert_eq!(hit.stats.rows_total, 600);
        assert_eq!(hit.stats.rows_cached, 600);
        assert_eq!(hit.stats.rows_scanned, 0);
        assert_eq!(hit.stats.chunks_cached, 6);
        assert_eq!(hit.stats.worker_cache_hits, 1, "one node stopped the query");
        let shards: Vec<u64> = hit.reports.iter().map(|r| r.shard).collect();
        assert_eq!(shards, vec![2, 5], "every shard beneath still reports");
        for report in &hit.reports {
            assert!(report.cache_hit);
            assert!(!report.failover, "a hit never touches any replica");
            assert_eq!(report.queue, Duration::from_micros(123));
        }
    }

    #[test]
    fn worker_cache_is_signature_keyed_and_invalidates() {
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
        assert_eq!(cache.stats(), (1, 1));
        cache.invalidate();
        assert!(cache.get("sig-a", &[]).is_none());
        assert!(cache.is_empty());
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
            assert_eq!(entry.slots(), wide.slots, "{sql}: the entry is as it was");
        }
        assert_eq!(cache.stats(), (2, 2));
    }

    /// What the root remembers of a key set: the slots asked under its
    /// current restriction, and, once that changes, under the one before.
    #[test]
    fn the_root_predicts_what_the_last_restriction_asked() {
        let cache = WorkerCache::new(2);
        let analyzed = |sql: &str| analyze(&parse_query(sql).unwrap()).unwrap();
        let slots = |sql: &str| analyzed(sql).slots;
        let (a, b) = (
            "SELECT country, COUNT(*) FROM logs WHERE latency > 1 GROUP BY country",
            "SELECT country, MAX(user) FROM logs WHERE latency > 1 GROUP BY country",
        );
        let next = "SELECT country, SUM(latency) FROM logs WHERE latency > 2 GROUP BY country";
        assert!(cache.predict("k", &analyzed(a)).is_empty(), "nothing asked yet");
        cache.asked("k", &analyzed(a));
        cache.asked("k", &analyzed(b));
        assert!(cache.predict("k", &analyzed(b)).is_empty(), "one restriction so far");
        let union = [slots(a), slots(b)].concat();
        assert_eq!(cache.predict("k", &analyzed(next)), union, "the restriction moved");
        cache.asked("k", &analyzed(next));
        assert_eq!(cache.predict("k", &analyzed(next)), union, "and stays put");
        assert!(cache.predict("other", &analyzed(a)).is_empty(), "per key set");
        cache.invalidate();
        assert!(cache.predict("k", &analyzed(a)).is_empty(), "dropped with the entries");
    }
}
