//! The §3/§5 residency model: two in-memory layers and the policies that
//! move column payloads between them.
//!
//! §3 ("Generic Compression Algorithm"): *"we decided to use a hybrid
//! approach with two 'layers' of data-structures held in-memory:
//! uncompressed and compressed. Moving items between these layers or
//! finally evicting them entirely can be done, e.g., with the well-known
//! LRU cache eviction heuristic."*
//!
//! §5 ("Improved Cache Heuristics"): *"one-time scans of large files may
//! invalidate the entire cache [...] we have implemented a more
//! sophisticated cache eviction policy, replacing LRU. We chose an approach
//! similar to the adaptive-replacement-cache \[22\] and the 2Q algorithm
//! \[19\]."* — [`CachePolicy::TwoQ`] and [`CachePolicy::Arc`] implement those.
//!
//! In this reproduction payloads always live in the [`DataStore`], so the
//! engine has no residency to manage and does not run this model. It is
//! driven from outside instead: [`touch_scan`] replays the accesses a
//! query's scan makes — every chunk the skip analysis leaves active, times
//! every column the query touches — against a [`TieredCache`], which
//! tracks what would be resident and returns the byte costs a real
//! deployment would pay (disk reads, decompressions).

use pd_common::sync::Mutex;
use pd_common::{FxHashMap, HeapSize, Result};
use pd_core::memory::query_columns;
use pd_core::skip::{ChunkActivity, SkipAnalysis};
use pd_core::DataStore;
use pd_sql::plan;
use std::collections::VecDeque;
use std::sync::Arc;

/// Cache key: (column identity, chunk index).
pub type CacheKey = (Arc<str>, u32);

/// Eviction policy selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePolicy {
    /// Least-recently-used.
    Lru,
    /// Johnson & Shasha's 2Q (A1in / A1out / Am).
    TwoQ,
    /// Megiddo & Modha's adaptive replacement cache.
    Arc,
}

/// What a chunk access cost in modeled I/O.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessCost {
    /// Bytes read from (modeled) disk — compressed representation.
    pub disk_bytes: u64,
    /// Bytes produced by decompression (compressed → uncompressed layer).
    pub decompressed_bytes: u64,
}

impl AccessCost {
    pub fn hit(&self) -> bool {
        self.disk_bytes == 0 && self.decompressed_bytes == 0
    }
}

/// The two-layer residency model.
pub struct TieredCache {
    inner: Mutex<TieredInner>,
}

struct TieredInner {
    uncompressed: Layer,
    compressed: Layer,
}

impl TieredCache {
    /// Budgets are in bytes per layer.
    pub fn new(policy: CachePolicy, uncompressed_budget: usize, compressed_budget: usize) -> Self {
        TieredCache {
            inner: Mutex::new(TieredInner {
                uncompressed: Layer::new(policy, uncompressed_budget),
                compressed: Layer::new(policy, compressed_budget),
            }),
        }
    }

    /// Record an access to a chunk payload with the given layer sizes,
    /// returning what the access cost.
    pub fn touch(&self, key: &CacheKey, uncompressed: usize, compressed: usize) -> AccessCost {
        let mut inner = self.inner.lock();
        if inner.uncompressed.access(key) {
            return AccessCost::default();
        }
        let from_compressed = inner.compressed.access(key);
        let cost = if from_compressed {
            AccessCost { disk_bytes: 0, decompressed_bytes: uncompressed as u64 }
        } else {
            AccessCost { disk_bytes: compressed as u64, decompressed_bytes: uncompressed as u64 }
        };
        // Promote into the uncompressed layer; demoted entries fall to the
        // compressed layer, whose own victims vanish entirely.
        let demoted = inner.uncompressed.insert(key.clone(), uncompressed);
        for (k, _) in demoted {
            // Compressed size of a demoted sibling is approximated by the
            // ratio of the entry being inserted; exact sizes only shift the
            // simulation slightly and are tracked when that key is touched
            // again.
            let approx = compressed.max(1);
            inner.compressed.insert(k, approx);
        }
        cost
    }

    /// Bytes currently resident in (uncompressed, compressed) layers.
    pub fn resident_bytes(&self) -> (usize, usize) {
        let inner = self.inner.lock();
        (inner.uncompressed.used, inner.compressed.used)
    }
}

/// One policy-managed layer with a byte budget.
struct Layer {
    budget: usize,
    used: usize,
    sizes: FxHashMap<CacheKey, usize>,
    state: PolicyState,
}

enum PolicyState {
    Lru {
        order: OrderedKeys,
    },
    TwoQ {
        a1in: VecDeque<CacheKey>,
        a1out: VecDeque<CacheKey>,
        am: OrderedKeys,
        a1in_bytes: usize,
    },
    Arc {
        t1: OrderedKeys,
        t2: OrderedKeys,
        b1: OrderedKeys,
        b2: OrderedKeys,
        /// Target size of t1, in bytes.
        p: usize,
    },
}

impl Layer {
    fn new(policy: CachePolicy, budget: usize) -> Layer {
        let state = match policy {
            CachePolicy::Lru => PolicyState::Lru { order: OrderedKeys::default() },
            CachePolicy::TwoQ => PolicyState::TwoQ {
                a1in: VecDeque::new(),
                a1out: VecDeque::new(),
                am: OrderedKeys::default(),
                a1in_bytes: 0,
            },
            CachePolicy::Arc => PolicyState::Arc {
                t1: OrderedKeys::default(),
                t2: OrderedKeys::default(),
                b1: OrderedKeys::default(),
                b2: OrderedKeys::default(),
                p: 0,
            },
        };
        Layer { budget, used: 0, sizes: FxHashMap::default(), state }
    }

    /// Is `key` resident? Updates recency structures on hit.
    fn access(&mut self, key: &CacheKey) -> bool {
        if !self.sizes.contains_key(key) {
            return false;
        }
        match &mut self.state {
            PolicyState::Lru { order } => order.move_to_back(key),
            PolicyState::TwoQ { a1in, am, .. } => {
                // A hit in A1in stays put (FIFO); a hit in Am refreshes.
                if !a1in.contains(key) {
                    am.move_to_back(key);
                }
            }
            PolicyState::Arc { t1, t2, .. } => {
                // Any resident hit promotes to the top of T2.
                if t1.remove(key) || t2.remove(key) {
                    t2.push_back(key.clone());
                }
            }
        }
        true
    }

    /// Insert `key` with `bytes`; returns the evicted entries.
    fn insert(&mut self, key: CacheKey, bytes: usize) -> Vec<(CacheKey, usize)> {
        if self.budget == 0 || bytes > self.budget {
            return Vec::new(); // Oversized entries are never cached.
        }
        if self.sizes.contains_key(&key) {
            self.access(&key);
            return Vec::new();
        }
        let mut evicted = Vec::new();
        // Make room.
        while self.used + bytes > self.budget {
            match self.victim(&key) {
                Some(v) => {
                    let sz = self.sizes.remove(&v).expect("victim is resident");
                    self.used -= sz;
                    evicted.push((v, sz));
                }
                None => return evicted,
            }
        }
        self.used += bytes;
        self.sizes.insert(key.clone(), bytes);
        match &mut self.state {
            PolicyState::Lru { order } => order.push_back(key),
            PolicyState::TwoQ { a1in, a1out, am, a1in_bytes } => {
                // Keys remembered in the ghost list go straight to Am.
                if let Some(pos) = a1out.iter().position(|k| k == &key) {
                    a1out.remove(pos);
                    am.push_back(key);
                } else {
                    *a1in_bytes += bytes;
                    a1in.push_back(key);
                }
            }
            PolicyState::Arc { t1, t2, b1, b2, p } => {
                // Ghost hits adapt p and insert into T2.
                if b1.remove(&key) {
                    *p = (*p + bytes).min(self.budget);
                    t2.push_back(key);
                } else if b2.remove(&key) {
                    *p = p.saturating_sub(bytes);
                    t2.push_back(key);
                } else {
                    t1.push_back(key);
                }
            }
        }
        evicted
    }

    /// Choose a victim according to the policy.
    fn victim(&mut self, incoming: &CacheKey) -> Option<CacheKey> {
        match &mut self.state {
            PolicyState::Lru { order } => order.pop_front(),
            PolicyState::TwoQ { a1in, a1out, am, a1in_bytes } => {
                // Evict from A1in while it exceeds ~25% of the budget;
                // remember victims in the ghost list.
                let kin = self.budget / 4;
                if *a1in_bytes > kin || am.is_empty() {
                    if let Some(k) = a1in.pop_front() {
                        *a1in_bytes -= self.sizes.get(&k).copied().unwrap_or(0);
                        a1out.push_back(k.clone());
                        while a1out.len() > 512 {
                            a1out.pop_front();
                        }
                        return Some(k);
                    }
                }
                am.pop_front().or_else(|| a1in.pop_front())
            }
            PolicyState::Arc { t1, t2, b1, b2, p } => {
                let t1_bytes: usize =
                    t1.keys().map(|k| self.sizes.get(k).copied().unwrap_or(0)).sum();
                let prefer_t1 =
                    t1_bytes > *p || (t1_bytes == *p && b2.contains(incoming)) || t2.is_empty();
                let (from, ghost) = if prefer_t1 && !t1.is_empty() { (t1, b1) } else { (t2, b2) };
                let victim = from.pop_front()?;
                ghost.push_back(victim.clone());
                while ghost.len() > 512 {
                    ghost.pop_front();
                }
                Some(victim)
            }
        }
    }
}

/// A queue with O(log n) arbitrary removal: (stamp ↔ key) maps.
#[derive(Default)]
struct OrderedKeys {
    by_stamp: std::collections::BTreeMap<u64, CacheKey>,
    stamps: FxHashMap<CacheKey, u64>,
    next: u64,
}

impl OrderedKeys {
    fn push_back(&mut self, key: CacheKey) {
        let stamp = self.next;
        self.next += 1;
        self.by_stamp.insert(stamp, key.clone());
        self.stamps.insert(key, stamp);
    }

    fn pop_front(&mut self) -> Option<CacheKey> {
        let (&stamp, _) = self.by_stamp.iter().next()?;
        let key = self.by_stamp.remove(&stamp).expect("present");
        self.stamps.remove(&key);
        Some(key)
    }

    fn move_to_back(&mut self, key: &CacheKey) {
        if self.remove(key) {
            self.push_back(key.clone());
        }
    }

    fn remove(&mut self, key: &CacheKey) -> bool {
        match self.stamps.remove(key) {
            Some(stamp) => {
                self.by_stamp.remove(&stamp);
                true
            }
            None => false,
        }
    }

    fn contains(&self, key: &CacheKey) -> bool {
        self.stamps.contains_key(key)
    }

    fn is_empty(&self) -> bool {
        self.stamps.is_empty()
    }

    fn len(&self) -> usize {
        self.stamps.len()
    }

    fn keys(&self) -> impl Iterator<Item = &CacheKey> {
        self.by_stamp.values()
    }
}

/// Replay the accesses of `sql`'s scan over `store` against `cache`, in
/// scan order — chunk by chunk, every column the query touches (group
/// keys, aggregate arguments, filter fields) — and return what they cost.
/// A chunk the skip analysis proves inactive is not touched. This is the
/// scan of a store with no chunk-result cache: every active chunk is read.
pub fn touch_scan(cache: &TieredCache, store: &DataStore, sql: &str) -> Result<AccessCost> {
    let analyzed = plan(sql)?;
    let mut columns = Vec::new();
    for expr in query_columns(sql)? {
        columns.push((Arc::<str>::from(expr.canonical()), store.column_for_expr(&expr)?));
    }
    let activity = SkipAnalysis::prepare(store, &analyzed.restriction)?.all(store.chunk_count());
    let mut total = AccessCost::default();
    for (c, activity) in activity.into_iter().enumerate() {
        if activity == ChunkActivity::Skip || store.chunk_rows(c) == 0 {
            continue;
        }
        for (name, col) in &columns {
            let chunk = &col.chunks[c];
            let uncompressed = chunk.dict.heap_bytes() + chunk.elements.heap_bytes();
            // Modeled compressed size: the paper's Zippy achieves ~4x on
            // chunked payloads; the exact per-chunk compression is
            // measured by the Table 3 experiment, not per access.
            let compressed = (uncompressed / 4).max(1);
            let cost = cache.touch(&(name.clone(), c as u32), uncompressed, compressed);
            total.disk_bytes += cost.disk_bytes;
            total.decompressed_bytes += cost.decompressed_bytes;
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_common::rng::Rng;
    use pd_core::BuildOptions;
    use pd_data::{generate_logs, LogsSpec};

    fn key(name: &str, chunk: u32) -> CacheKey {
        (Arc::from(name), chunk)
    }

    #[test]
    fn first_touch_pays_disk_then_hits() {
        let cache = TieredCache::new(CachePolicy::Lru, 10_000, 10_000);
        let k = key("col", 0);
        let c1 = cache.touch(&k, 1000, 300);
        assert_eq!(c1, AccessCost { disk_bytes: 300, decompressed_bytes: 1000 });
        let c2 = cache.touch(&k, 1000, 300);
        assert!(c2.hit());
    }

    #[test]
    fn demotion_to_compressed_layer_skips_disk() {
        let cache = TieredCache::new(CachePolicy::Lru, 2_000, 100_000);
        let a = key("col", 0);
        cache.touch(&a, 1500, 200);
        // Fill the tiny uncompressed layer so `a` demotes.
        for i in 1..4 {
            cache.touch(&key("col", i), 1500, 200);
        }
        let back = cache.touch(&a, 1500, 200);
        assert_eq!(back.disk_bytes, 0, "demoted entry re-enters from the compressed layer");
        assert_eq!(back.decompressed_bytes, 1500);
    }

    #[test]
    fn lru_evicts_oldest() {
        let cache = TieredCache::new(CachePolicy::Lru, 3_000, 0);
        let (a, b, c, d) = (key("x", 0), key("x", 1), key("x", 2), key("x", 3));
        cache.touch(&a, 1000, 100);
        cache.touch(&b, 1000, 100);
        cache.touch(&c, 1000, 100);
        cache.touch(&a, 1000, 100); // refresh a
        cache.touch(&d, 1000, 100); // evicts b (oldest)
        assert!(cache.touch(&a, 1000, 100).hit());
        assert!(!cache.touch(&b, 1000, 100).hit());
    }

    #[test]
    fn two_q_and_arc_resist_repeated_scans() {
        // Hot set of 4 entries, a 100-entry scan, one hot-set re-touch
        // (ghost-aware policies re-admit into the protected region), a
        // second scan, then measure: LRU loses the hot set to the second
        // scan; 2Q and ARC keep it.
        let run = |policy: CachePolicy| -> usize {
            let cache = TieredCache::new(policy, 8_000, 0);
            let hot: Vec<CacheKey> = (0..4).map(|i| key("hot", i)).collect();
            for _ in 0..5 {
                for k in &hot {
                    cache.touch(k, 1000, 100);
                }
            }
            for i in 0..100 {
                cache.touch(&key("scan", i), 1000, 100);
            }
            for k in &hot {
                cache.touch(k, 1000, 100);
            }
            for i in 100..200 {
                cache.touch(&key("scan", i), 1000, 100);
            }
            hot.iter().filter(|k| cache.touch(k, 1000, 100).hit()).count()
        };
        let lru_hits = run(CachePolicy::Lru);
        let twoq_hits = run(CachePolicy::TwoQ);
        let arc_hits = run(CachePolicy::Arc);
        assert_eq!(lru_hits, 0, "LRU is flushed by the scan");
        assert!(twoq_hits > 0, "2Q keeps hot entries (got {twoq_hits})");
        assert!(arc_hits > 0, "ARC keeps hot entries (got {arc_hits})");
    }

    #[test]
    fn oversized_entries_bypass_cache() {
        let cache = TieredCache::new(CachePolicy::Arc, 100, 100);
        let k = key("big", 0);
        cache.touch(&k, 1000, 500);
        assert!(!cache.touch(&k, 1000, 500).hit(), "entry larger than budget never caches");
    }

    /// Cache layers never exceed their byte budgets, and every access cost is
    /// consistent (a hit costs nothing).
    #[test]
    fn cache_respects_budget() {
        let mut rng = Rng::seed_from_u64(0xc04e_0002);
        for _ in 0..64 {
            let policy =
                [CachePolicy::Lru, CachePolicy::TwoQ, CachePolicy::Arc][rng.range_usize(0, 3)];
            let budget = rng.range_usize(1_000, 20_000);
            let cache = TieredCache::new(policy, budget, budget / 2);
            for _ in 0..rng.range_usize(1, 300) {
                let chunk = rng.range_u64(0, 64) as u32;
                let size = rng.range_usize(1, 5_000);
                let cost = cache.touch(&key("col", chunk), size, size / 3 + 1);
                if !cost.hit() {
                    assert_eq!(cost.decompressed_bytes as usize, size);
                }
                let (u, c) = cache.resident_bytes();
                assert!(u <= budget, "uncompressed layer over budget: {u} > {budget}");
                assert!(c <= budget / 2, "compressed layer over budget: {c}");
            }
        }
    }

    #[test]
    fn a_replayed_scan_touches_what_the_engine_scans() {
        let table = generate_logs(&LogsSpec::scaled(4_000));
        let mut build = BuildOptions::production(&["country", "table_name"]);
        build.partition.as_mut().unwrap().max_chunk_rows = 200;
        let store = DataStore::build(&table, &build).unwrap();
        let cold = |sql: &str| {
            let cache = TieredCache::new(CachePolicy::Lru, usize::MAX, usize::MAX);
            let cold = touch_scan(&cache, &store, sql).unwrap();
            assert!(touch_scan(&cache, &store, sql).unwrap().hit(), "resident on replay: {sql}");
            cold.decompressed_bytes as usize
        };
        // Nothing skipped: every chunk payload of both columns is read once.
        let all = "SELECT table_name, SUM(latency) s FROM logs GROUP BY table_name";
        let report = pd_core::memory::report_for_query(&store, all).unwrap();
        assert_eq!(cold(all), report.elements_and_chunk_dicts());
        // A restriction that skips chunks reads a third column, of fewer.
        let some = "SELECT table_name, SUM(latency) s FROM logs WHERE country = 'SG' \
                    GROUP BY table_name";
        assert!(pd_core::query(&store, some).unwrap().1.rows_skipped > 0);
        assert!(cold(some) < cold(all));
    }
}
