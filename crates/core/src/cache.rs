//! Caching: the chunk-result cache and the bounded map behind it.
//!
//! §6: *"additionally to skipping over inactive chunks, we also cache
//! results for chunks which are fully active"* — [`ResultCache`], built on
//! [`BoundedCache`], which the distributed layer's root cache shares. Both
//! drop their oldest entry when full.
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
use std::collections::VecDeque;
use std::sync::Arc;

/// A thread-safe, capacity-bounded map with hit/miss accounting — the
/// shared bookkeeping behind the §6 chunk-result cache and the distributed
/// layer's root cache. Eviction only ever drops entries, so a capacity
/// bound can change *what is cached*, never *what a query returns*.
///
/// At capacity a new key evicts the entry admitted first. A lookup moves
/// nothing and a re-put keeps its entry's place, so what a cache holds is a
/// function of the sequence of puts, never of a clock.
pub struct BoundedCache<K, V> {
    inner: Mutex<BoundedInner<K, V>>,
}

struct BoundedInner<K, V> {
    entries: FxHashMap<K, V>,
    /// Every key of `entries`, oldest admission first: the next victim.
    order: VecDeque<K>,
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
                order: VecDeque::new(),
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
        let found = inner.entries.get(key).map(|value| (value.clone(), fits(value)));
        match found {
            Some((_, true)) => inner.hits += 1,
            _ => inner.misses += 1,
        }
        found
    }

    /// Insert `value` under `key`: a key already held takes the new value
    /// in its old place; a new one evicts the oldest entry at capacity.
    pub fn put(&self, key: K, value: V) {
        let mut inner = self.inner.lock();
        if let Some(held) = inner.entries.get_mut(&key) {
            *held = value;
            return;
        }
        if inner.entries.len() >= inner.capacity {
            let victim = inner.order.pop_front().expect("order lists every entry");
            inner.entries.remove(&victim);
        }
        inner.order.push_back(key.clone());
        inner.entries.insert(key, value);
    }

    /// Drop every entry (hit/miss counters keep accumulating).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.entries.clear();
        inner.order.clear();
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

    /// Admit a chunk's table.
    pub(crate) fn put(&self, signature: &Arc<str>, chunk: u32, groups: Arc<GroupTable<u32>>) {
        self.entries.put((signature.clone(), chunk), groups);
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
        rc.put(&sig, 0, empty_table());
        rc.put(&sig, 1, empty_table());
        assert!(rc.get(&sig, 0).is_some());
        rc.put(&sig, 2, empty_table()); // evicts chunk 0, the oldest
        assert!(rc.get(&sig, 0).is_none());
        assert!(rc.get(&sig, 2).is_some());
        assert_eq!(rc.stats(), (2, 1));
    }

    #[test]
    fn distinct_signatures_do_not_collide() {
        let rc = ResultCache::new(8);
        rc.put(&"q1".into(), 0, empty_table());
        // Equal text is the same key, whichever allocation holds it.
        assert!(rc.get(&"q1".into(), 0).is_some());
        assert!(rc.get(&"q2".into(), 0).is_none());
    }

    #[test]
    fn bounded_cache_clear_invalidates_but_keeps_counters() {
        let cache: BoundedCache<u32, u32> = BoundedCache::new(4);
        cache.put(1, 10);
        assert_eq!(cache.get(&1, |_| true), Some((10, true)));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.get(&1, |_| true), None);
        assert_eq!(cache.stats(), (1, 1), "counters accumulate across clears");
    }

    #[test]
    fn bounded_cache_put_is_idempotent_per_key() {
        let cache: BoundedCache<u32, u32> = BoundedCache::new(2);
        cache.put(1, 10);
        cache.put(1, 11); // replaces value, no duplicate slot
        cache.put(2, 20);
        cache.put(3, 30); // evicts key 1 only
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&1, |_| true), None);
        assert_eq!(cache.get(&2, |_| true), Some((20, true)));
        assert_eq!(cache.get(&3, |_| true), Some((30, true)));
    }

    #[test]
    fn at_capacity_the_first_admitted_goes_and_a_re_put_keeps_its_place() {
        let cache: BoundedCache<u32, u32> = BoundedCache::new(2);
        cache.put(1, 10);
        cache.put(2, 20);
        let get = |key| cache.get(&key, |_| true).map(|(value, _)| value);
        assert_eq!(get(1), Some(10)); // a lookup moves nothing
        cache.put(1, 11); // nor does a re-put
        cache.put(3, 30); // evicts key 1, the first admitted
        assert_eq!((get(1), get(2), get(3)), (None, Some(20), Some(30)));
        cache.put(4, 40); // then key 2
        assert_eq!((get(2), get(3), get(4)), (None, Some(30), Some(40)));
    }
}
