//! Caching: the chunk-result cache and the bounded map behind it.
//!
//! §6: *"additionally to skipping over inactive chunks, we also cache
//! results for chunks which are fully active"* — [`ResultCache`], built on
//! [`BoundedCache`], which the distributed layer's root cache shares.
//!
//! The paper's other caches — §3's two in-memory layers (uncompressed and
//! compressed) and §5's ARC/2Q eviction between them — manage the residency
//! of column payloads. Here payloads always live in the owning
//! [`crate::DataStore`], so nothing in the engine has a residency to
//! manage; the model of those layers, for the §5 policy experiment, is
//! `pd_bench::residency`.

use crate::groups::GroupTable;
use pd_common::sync::Mutex;
use pd_common::FxHashMap;
use std::sync::Arc;

/// A thread-safe, capacity-bounded map with cost-aware admission and
/// hit/miss accounting — the shared bookkeeping behind the §6 chunk-result
/// cache and the distributed layer's shard/worker caches. Eviction only
/// ever drops entries, so a capacity bound can change *what is cached*,
/// never *what a query returns*.
///
/// Admission at capacity compares the incoming entry's cost (bytes ×
/// cells scanned to produce it, see [`cost_score`]) with the cheapest
/// resident's: cheaper entries are rejected, costlier ones evict the
/// cheapest resident; among equal costs the victim is the oldest entry. A
/// cost is a function of the query and the data, never of a clock, so what
/// a cache holds is a function of the query sequence.
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
            }),
        }
    }

    /// Look `key` up by any borrowed form of `K` (e.g. `&str` for `String`
    /// keys), so lookup paths need not allocate a throwaway owned key,
    /// counting a hit only if its entry `fits` the asker: the entry, if
    /// any, and whether it was a hit.
    pub fn get<Q>(&self, key: &Q, fits: impl FnOnce(&V) -> bool) -> Option<(V, bool)>
    where
        K: std::borrow::Borrow<Q>,
        Q: std::hash::Hash + Eq + ?Sized,
    {
        let mut inner = self.inner.lock();
        let found = inner.entries.get(key).map(|e| (e.value.clone(), fits(&e.value)));
        match found {
            Some((_, true)) => inner.hits += 1,
            _ => inner.misses += 1,
        }
        found
    }

    /// Insert with an admission cost: at capacity the incoming entry must
    /// cost at least as much as the cheapest resident, which it evicts.
    pub fn put(&self, key: K, value: V, cost: u64) {
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

    /// Every resident value, in no particular order; counts as no lookup.
    pub fn values(&self) -> Vec<V> {
        self.inner.lock().entries.values().map(|e| e.value.clone()).collect()
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        (inner.hits, inner.misses)
    }
}

/// The cost-aware admission score: approximate entry bytes × the cells a
/// scan reads to recompute it. Saturating, and never 0.
pub fn cost_score(bytes: usize, cells: u64) -> u64 {
    (bytes as u64).max(1).saturating_mul(cells.max(1))
}

/// The §6 chunk-result cache: the group tables of fully-active chunks,
/// keyed by (query signature, chunk).
///
/// A payload is the chunk kernel's own group table (`crate::groups`) of
/// **chunk-ids**: the fold translates a cached table through the chunk
/// dictionaries exactly as it does a computed one, and ids become
/// [`pd_common::Value`]s only for the rows a query returns.
///
/// # Lifetime
///
/// An entry is a function of the rows of its chunk alone: a chunk-id is
/// the rank of its value among the chunk's values, whatever the global
/// dictionary around them holds (no restriction is in the key either: only
/// fully-active chunks are cached). It therefore outlives any change that
/// leaves the chunk's rows alone, and [`crate::DataStore::append_delta`]
/// does: delta rows land in fresh chunks, and the merge that renumbers
/// global-ids rewrites chunk dictionaries, never a chunk-id; a virtual
/// field dropped and rebuilt gives every chunk the chunk-ids it had. A
/// change that rewrites chunk *c* must drop chunk *c*'s entries; nothing
/// finer than [`Self::clear`] exists yet, because nothing rewrites a chunk
/// yet.
pub struct ResultCache {
    entries: BoundedCache<(Arc<str>, u32), Arc<GroupTable<u32>>>,
}

impl ResultCache {
    /// Cache at most `capacity` chunk results.
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache { entries: BoundedCache::new(capacity) }
    }

    pub(crate) fn get(&self, signature: &Arc<str>, chunk: u32) -> Option<Arc<GroupTable<u32>>> {
        self.entries.get(&(signature.clone(), chunk), |_| true).map(|(table, _)| table)
    }

    /// Admit a chunk's table, scored by its bytes × the `cells` its scan
    /// read.
    pub(crate) fn put(
        &self,
        signature: &Arc<str>,
        chunk: u32,
        groups: Arc<GroupTable<u32>>,
        cells: u64,
    ) {
        let cost = cost_score(groups.approx_bytes(), cells);
        self.entries.put((signature.clone(), chunk), groups, cost);
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        self.entries.stats()
    }

    /// Drop every cached chunk result: for a holder whose store changed in
    /// a way entries do not survive (see *Lifetime* above) — a cache about
    /// to serve another store.
    pub fn clear(&self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_table() -> Arc<GroupTable<u32>> {
        Arc::new(GroupTable::new(0, Vec::new(), Vec::new()))
    }

    #[test]
    fn result_cache_round_trip_and_bound() {
        let rc = ResultCache::new(2);
        let sig: Arc<str> = "sig".into();
        rc.put(&sig, 0, empty_table(), 1);
        rc.put(&sig, 1, empty_table(), 1);
        assert!(rc.get(&sig, 0).is_some());
        rc.put(&sig, 2, empty_table(), 1); // evicts chunk 0 (oldest of equal cost)
        assert!(rc.get(&sig, 0).is_none());
        assert!(rc.get(&sig, 2).is_some());
        assert_eq!(rc.stats(), (2, 1));
    }

    #[test]
    fn distinct_signatures_do_not_collide() {
        let rc = ResultCache::new(8);
        rc.put(&"q1".into(), 0, empty_table(), 1);
        // Equal text is the same key, whichever allocation holds it.
        assert!(rc.get(&"q1".into(), 0).is_some());
        assert!(rc.get(&"q2".into(), 0).is_none());
    }

    #[test]
    fn bounded_cache_clear_invalidates_but_keeps_counters() {
        let cache: BoundedCache<u32, u32> = BoundedCache::new(4);
        cache.put(1, 10, 0);
        assert_eq!(cache.get(&1, |_| true), Some((10, true)));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.get(&1, |_| true), None);
        assert_eq!(cache.stats(), (1, 1), "counters accumulate across clears");
    }

    #[test]
    fn bounded_cache_put_is_idempotent_per_key() {
        let cache: BoundedCache<u32, u32> = BoundedCache::new(2);
        cache.put(1, 10, 0);
        cache.put(1, 11, 0); // replaces value, no duplicate slot
        cache.put(2, 20, 0);
        cache.put(3, 30, 0); // evicts key 1 only
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&1, |_| true), None);
        assert_eq!(cache.get(&2, |_| true), Some((20, true)));
        assert_eq!(cache.get(&3, |_| true), Some((30, true)));
    }

    #[test]
    fn admission_rejects_the_cheaper_and_evicts_the_cheapest() {
        let cache: BoundedCache<u32, u32> = BoundedCache::new(2);
        cache.put(1, 10, cost_score(100, 50));
        cache.put(2, 20, cost_score(10, 50));
        cache.put(3, 30, cost_score(1, 1)); // cheaper than every resident
        let get = |key| cache.get(&key, |_| true).map(|(value, _)| value);
        assert_eq!(get(3), None);
        cache.put(4, 40, cost_score(10, 60)); // evicts key 2, the cheapest
        assert_eq!((get(2), get(1), get(4)), (None, Some(10), Some(40)));
    }
}
