//! Caching: the chunk-result cache and the bounded map behind it.
//!
//! §6: *"additionally to skipping over inactive chunks, we also cache
//! results for chunks which are fully active"* — [`ResultCache`], built on
//! [`BoundedCache`], which the distributed layer's node caches share.
//!
//! The paper's other caches — §3's two in-memory layers (uncompressed and
//! compressed) and §5's ARC/2Q eviction between them — manage the residency
//! of column payloads. Here payloads always live in the owning
//! [`crate::DataStore`], so nothing in the engine has a residency to
//! manage; the model of those layers, for the §5 policy experiment, is
//! `pd_bench::residency`.

use pd_common::sync::Mutex;
use pd_common::FxHashMap;
use std::sync::Arc;

/// One cached group-by partial for a fully active chunk.
///
/// Keys are the **global-ids** of the group-by key columns (stable for the
/// lifetime of a store): the executor folds chunks in the id domain and
/// translates ids to [`pd_common::Value`]s only once per distinct result group, so a
/// cached chunk costs no dictionary lookups at all on a hit.
pub type ChunkGroups = Vec<(Box<[u32]>, Vec<crate::exec::AggState>)>;

/// A chunk's cached (or freshly computed) group-by contribution.
pub enum CachedChunk {
    /// Generic per-group aggregation states.
    Groups(ChunkGroups),
    /// The paper's fast path, kept in its raw form: a single plain group-by
    /// key and `COUNT(*)` only — counts indexed by **chunk-id**, no
    /// per-group allocation at all. The fold adds these straight into a
    /// global-id-indexed array via the chunk dictionary.
    DenseSingleCount(Vec<u64>),
}

impl CachedChunk {
    /// Approximate in-memory footprint, for cost-aware cache admission.
    pub fn approx_bytes(&self) -> usize {
        match self {
            CachedChunk::Groups(groups) => groups
                .iter()
                .map(|(key, states)| {
                    std::mem::size_of::<(Box<[u32]>, Vec<crate::exec::AggState>)>()
                        + key.len() * 4
                        + states.iter().map(|s| s.approx_bytes()).sum::<usize>()
                })
                .sum(),
            CachedChunk::DenseSingleCount(counts) => counts.len() * 8,
        }
    }
}

/// A thread-safe, capacity-bounded map with cost-aware admission and
/// hit/miss accounting — the shared bookkeeping behind the §6 chunk-result
/// cache and the distributed layer's shard/worker caches. Eviction only
/// ever drops entries, so a capacity bound can change *what is cached*,
/// never *what a query returns*.
///
/// Admission at capacity compares the incoming entry's cost (typically
/// bytes × measured recompute ns, see [`cost_score`]) with the cheapest
/// resident's: cheaper entries are rejected, costlier ones evict the
/// cheapest resident. Entries inserted with the plain [`BoundedCache::put`]
/// carry cost 0, where the policy degrades to exactly the old FIFO: among
/// equal costs the victim is the oldest entry.
pub struct BoundedCache<K, V> {
    inner: Mutex<BoundedInner<K, V>>,
}

struct BoundedEntry<V> {
    value: V,
    cost: u64,
    stamp: u64,
}

struct BoundedInner<K, V> {
    entries: FxHashMap<K, BoundedEntry<V>>,
    /// Victim index ordered by (cost, stamp): cheapest first, FIFO among
    /// equal costs — O(log n) victim selection.
    by_score: std::collections::BTreeMap<(u64, u64), K>,
    next_stamp: u64,
    capacity: usize,
    hits: u64,
    misses: u64,
    rejected: u64,
}

impl<K: std::hash::Hash + Eq + Clone, V: Clone> BoundedCache<K, V> {
    /// Cache at most `capacity` entries.
    pub fn new(capacity: usize) -> BoundedCache<K, V> {
        BoundedCache {
            inner: Mutex::new(BoundedInner {
                entries: FxHashMap::default(),
                by_score: std::collections::BTreeMap::new(),
                next_stamp: 0,
                capacity: capacity.max(1),
                hits: 0,
                misses: 0,
                rejected: 0,
            }),
        }
    }

    pub fn get(&self, key: &K) -> Option<V> {
        self.get_borrowed(key)
    }

    /// [`BoundedCache::get`] keyed by any borrowed form of `K` (e.g.
    /// `&str` for `String` keys), so lookup paths need not allocate a
    /// throwaway owned key.
    pub fn get_borrowed<Q>(&self, key: &Q) -> Option<V>
    where
        K: std::borrow::Borrow<Q>,
        Q: std::hash::Hash + Eq + ?Sized,
    {
        let mut inner = self.inner.lock();
        match inner.entries.get(key).map(|e| e.value.clone()) {
            Some(hit) => {
                inner.hits += 1;
                Some(hit)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Insert with cost 0 (pure FIFO admission among such entries).
    pub fn put(&self, key: K, value: V) {
        self.put_costed(key, value, 0)
    }

    /// Insert with an admission cost: at capacity the incoming entry must
    /// cost at least as much as the cheapest resident, which it evicts.
    pub fn put_costed(&self, key: K, value: V, cost: u64) {
        let mut inner = self.inner.lock();
        if let Some((old_cost, stamp)) = inner.entries.get(&key).map(|e| (e.cost, e.stamp)) {
            // Same key: replace in place, keeping the insertion stamp.
            if old_cost != cost {
                inner.by_score.remove(&(old_cost, stamp));
                inner.by_score.insert((cost, stamp), key.clone());
            }
            let e = inner.entries.get_mut(&key).expect("entry is present");
            e.value = value;
            e.cost = cost;
            return;
        }
        while inner.entries.len() >= inner.capacity {
            let (&(vcost, vstamp), _) = inner.by_score.iter().next().expect("index matches map");
            if cost < vcost {
                inner.rejected += 1;
                return;
            }
            let victim = inner.by_score.remove(&(vcost, vstamp)).expect("victim is present");
            inner.entries.remove(&victim);
        }
        let stamp = inner.next_stamp;
        inner.next_stamp += 1;
        inner.by_score.insert((cost, stamp), key.clone());
        inner.entries.insert(key, BoundedEntry { value, cost, stamp });
    }

    /// Drop every entry (hit/miss counters keep accumulating).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.entries.clear();
        inner.by_score.clear();
    }

    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        (inner.hits, inner.misses)
    }

    /// Inserts refused because the incoming cost was below every
    /// resident's at capacity.
    pub fn rejected(&self) -> u64 {
        self.inner.lock().rejected
    }
}

/// The cost-aware admission score: approximate entry bytes × measured
/// recompute nanoseconds. Saturating; never 0 for a real (non-empty,
/// measured) entry, so such entries always outrank plain cost-0 inserts.
pub fn cost_score(bytes: usize, recompute: std::time::Duration) -> u64 {
    let ns = recompute.as_nanos().min(u64::MAX as u128) as u64;
    (bytes as u64).max(1).saturating_mul(ns.max(1))
}

/// The §6 chunk-result cache: results of fully-active chunks, keyed by
/// (query signature, chunk).
pub struct ResultCache {
    entries: BoundedCache<(String, u32), Arc<CachedChunk>>,
}

impl ResultCache {
    /// Cache at most `capacity` chunk results (FIFO bound).
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache { entries: BoundedCache::new(capacity) }
    }

    pub fn get(&self, signature: &str, chunk: u32) -> Option<Arc<CachedChunk>> {
        self.entries.get(&(signature.to_owned(), chunk))
    }

    pub fn put(&self, signature: &str, chunk: u32, groups: Arc<CachedChunk>) {
        self.entries.put((signature.to_owned(), chunk), groups);
    }

    /// [`ResultCache::put`] with cost-aware admission: the entry's score is
    /// its approximate bytes × the measured time to recompute it.
    pub fn put_costed(
        &self,
        signature: &str,
        chunk: u32,
        groups: Arc<CachedChunk>,
        recompute: std::time::Duration,
    ) {
        let cost = cost_score(groups.approx_bytes(), recompute);
        self.entries.put_costed((signature.to_owned(), chunk), groups, cost);
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        self.entries.stats()
    }

    /// Drop every cached chunk result (used when an in-place append makes
    /// resident chunk results stale without a process respawn).
    pub fn clear(&self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_cache_round_trip_and_bound() {
        let rc = ResultCache::new(2);
        let groups: Arc<CachedChunk> = Arc::new(CachedChunk::Groups(vec![]));
        rc.put("sig", 0, groups.clone());
        rc.put("sig", 1, groups.clone());
        assert!(rc.get("sig", 0).is_some());
        rc.put("sig", 2, groups); // evicts chunk 0 (FIFO)
        assert!(rc.get("sig", 0).is_none());
        assert!(rc.get("sig", 2).is_some());
        let (hits, misses) = rc.stats();
        assert_eq!((hits, misses), (2, 1));
    }

    #[test]
    fn distinct_signatures_do_not_collide() {
        let rc = ResultCache::new(8);
        rc.put("q1", 0, Arc::new(CachedChunk::Groups(vec![])));
        assert!(rc.get("q2", 0).is_none());
    }

    #[test]
    fn bounded_cache_clear_invalidates_but_keeps_counters() {
        let cache: BoundedCache<u32, u32> = BoundedCache::new(4);
        cache.put(1, 10);
        assert_eq!(cache.get(&1), Some(10));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.get(&1), None);
        assert_eq!(cache.stats(), (1, 1), "counters accumulate across clears");
    }

    #[test]
    fn bounded_cache_put_is_idempotent_per_key() {
        let cache: BoundedCache<u32, u32> = BoundedCache::new(2);
        cache.put(1, 10);
        cache.put(1, 11); // replaces value, no duplicate FIFO slot
        cache.put(2, 20);
        cache.put(3, 30); // evicts key 1 only
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&1), None);
        assert_eq!(cache.get(&2), Some(20));
        assert_eq!(cache.get(&3), Some(30));
    }
}
