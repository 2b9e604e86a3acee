//! The bucketed-map flavor: shards that are whole [`BucketMap`]s.
//!
//! [`ShardedSkipList`](crate::ShardedSkipList) partitions one ordered
//! structure to split head-tower contention while keeping a global
//! ordered scan. [`ShardedMap`] partitions at a coarser grain for pure
//! key-value traffic: each shard is an independent `lf-map`
//! [`BucketMap`] with its **own** reclamation domain and node pool, so
//! epoch bookkeeping, retire queues, and pool traffic — shared by all
//! buckets *within* a map — are split `P` ways as well. Within a
//! shard, the map's power-of-two FR-list buckets give O(1) expected
//! point ops exactly as in `lf-map`.
//!
//! A routed operation hashes its key once ([`lf_map::hash_key`]): the
//! shard index is the word's raw high half, and the shard's `_hashed`
//! entry point folds the same word into the bucket index — two slices
//! of one SipHash (see `router::map_shard_of` for why they differ), so
//! a shard's keys still spread over all of its buckets.

use std::fmt;
use std::hash::Hash;

use lf_core::{ChainIter, ConcurrentMap, MapHandle};
use lf_map::{hash_key, BucketMap, BucketMapHandle, BucketMapSnapshot};
use lf_reclaim::{Ebr, Pod, Publish, Reclaim};

use crate::router;

/// A hash-partitioned dictionary over `P` independent
/// [`BucketMap`] shards (see the [module docs](self) for how this
/// differs from [`ShardedSkipList`](crate::ShardedSkipList)).
///
/// Obtain a per-thread [`ShardedMapHandle`] with
/// [`handle`](ShardedMap::handle) and operate through it; the
/// convenience methods on the map itself register a fresh handle per
/// call.
pub struct ShardedMap<K, V, R = Ebr>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim,
{
    /// The partitions. Not `CachePadded`: a `BucketMap`'s own hot
    /// state (bucket sentinels, length counters) is already padded
    /// internally; the shard array itself is read-only after build.
    shards: Box<[BucketMap<K, V, R>]>,
    /// Shard count − 1 (shard count is a power of two).
    mask: usize,
}

impl<K, V> ShardedMap<K, V>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    /// A map with `shards` partitions (power of two), each a
    /// [`BucketMap`] of `buckets_per_shard` chains (power of two),
    /// over the default EBR backend.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `buckets_per_shard` is zero or not a
    /// power of two.
    #[must_use]
    pub fn new(shards: usize, buckets_per_shard: usize) -> Self {
        Self::with_backend(shards, buckets_per_shard)
    }
}

impl<K, V, R> ShardedMap<K, V, R>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    /// A map with `shards` partitions of `buckets_per_shard` chains
    /// over the reclamation backend `R`.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `buckets_per_shard` is zero or not a
    /// power of two.
    #[must_use]
    pub fn with_backend(shards: usize, buckets_per_shard: usize) -> Self {
        assert!(
            shards.is_power_of_two(),
            "shard count must be a nonzero power of two, got {shards}"
        );
        let shards = (0..shards)
            .map(|_| BucketMap::with_backend(buckets_per_shard))
            .collect::<Box<[_]>>();
        let mask = shards.len() - 1;
        ShardedMap { shards, mask }
    }

    /// Register a per-thread handle (one [`BucketMapHandle`] per
    /// shard — the shards are independent domains, so unlike within a
    /// single `BucketMap` there is one registration per partition).
    #[must_use]
    pub fn handle(&self) -> ShardedMapHandle<'_, K, V, R> {
        ShardedMapHandle {
            map: self,
            handles: self.shards.iter().map(|s| s.handle()).collect(),
        }
    }

    /// Insert through a temporary handle. See
    /// [`ShardedMapHandle::insert`].
    ///
    /// # Errors
    ///
    /// Returns the rejected pair if `key` is already present.
    pub fn insert(&self, key: K, value: V) -> Result<(), (K, V)> {
        self.handle().insert(key, value)
    }

    /// Remove through a temporary handle. See
    /// [`ShardedMapHandle::remove`].
    pub fn remove(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.handle().remove(key)
    }

    /// Lookup through a temporary handle. See
    /// [`ShardedMapHandle::get`].
    pub fn get(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.handle().get(key)
    }

    /// Membership test through a temporary handle.
    pub fn contains(&self, key: &K) -> bool {
        self.handle().contains(key)
    }
}

impl<K, V, R> ShardedMap<K, V, R>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim,
{
    /// Number of partitions.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.mask + 1
    }

    /// The shard index `key` routes to — stable for the map's lifetime
    /// and across maps with the same shard count.
    #[must_use]
    pub fn shard_of(&self, key: &K) -> usize {
        router::map_shard_of(key, self.mask)
    }

    /// The shards' reclamation domains, in shard order (all distinct:
    /// each shard is its own [`BucketMap`]) — e.g. to read the
    /// backend's gauges off the structure under test.
    pub fn domains(&self) -> impl Iterator<Item = &R::Domain> {
        self.shards.iter().map(BucketMap::domain)
    }

    /// Total number of keys, summed across shards (racy-fresh under
    /// concurrency).
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(BucketMap::len).sum()
    }

    /// Whether every shard is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(BucketMap::is_empty)
    }

    /// Per-shard bucket statistics, one [`BucketMapSnapshot`] per
    /// shard in index order (each covers that shard's buckets; see
    /// [`BucketMap::snapshot`]).
    #[must_use]
    pub fn snapshot(&self) -> Vec<BucketMapSnapshot> {
        self.shards.iter().map(BucketMap::snapshot).collect()
    }

    /// Validate every shard's structural invariants; quiescent only.
    ///
    /// # Panics
    ///
    /// Panics (with a description) if any shard's invariant is
    /// violated.
    pub fn validate_quiescent(&self) {
        for s in self.shards.iter() {
            s.validate_quiescent();
        }
    }
}

impl<K, V, R> fmt::Debug for ShardedMap<K, V, R>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedMap")
            .field("backend", &R::NAME)
            .field("shards", &self.shard_count())
            .field(
                "buckets_per_shard",
                &self.shards.first().map_or(0, BucketMap::bucket_count),
            )
            .field("len", &self.len())
            .finish()
    }
}

/// A registered per-thread handle to a [`ShardedMap`]: one
/// [`BucketMapHandle`] per shard, operations routed by the high half
/// of the key's one hash (`router::map_shard_of`).
pub struct ShardedMapHandle<'s, K, V, R = Ebr>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim,
{
    map: &'s ShardedMap<K, V, R>,
    handles: Box<[BucketMapHandle<'s, K, V, R>]>,
}

impl<'s, K, V, R> ShardedMapHandle<'s, K, V, R>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    /// The handle of the shard `hash` (the key's [`hash_key`]) picks.
    #[inline]
    fn shard(&self, hash: u64) -> &BucketMapHandle<'s, K, V, R> {
        &self.handles[router::map_shard_of_hash(hash, self.map.mask)]
    }

    /// Insert `(key, value)` into the key's shard.
    ///
    /// # Errors
    ///
    /// Returns the rejected pair if `key` is already present.
    pub fn insert(&self, key: K, value: V) -> Result<(), (K, V)> {
        let hash = hash_key(&key);
        self.shard(hash).insert_hashed(hash, key, value)
    }

    /// Remove `key` from its shard, returning its value.
    pub fn remove(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.remove_with(key, V::clone)
    }

    /// Remove `key` from its shard and apply `f` to a borrow of its
    /// value, without cloning; see [`BucketMapHandle::remove_with`].
    pub fn remove_with<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        let hash = hash_key(key);
        self.shard(hash).remove_with_hashed(hash, key, f)
    }

    /// Look up `key` in its shard, returning a clone of its value.
    pub fn get(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        let hash = hash_key(key);
        self.shard(hash).get_hashed(hash, key)
    }

    /// Pin-free lookup when the backend supports it; see
    /// [`BucketMapHandle::try_read`].
    pub fn try_read(&self, key: &K) -> Option<V>
    where
        K: Pod,
        V: Pod,
    {
        let hash = hash_key(key);
        self.shard(hash).try_read_hashed(hash, key)
    }

    /// Zero-copy lookup; see [`BucketMapHandle::get_with`].
    pub fn get_with<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        let hash = hash_key(key);
        self.shard(hash).get_with_hashed(hash, key, f)
    }

    /// Whether `key` is present in its shard.
    pub fn contains(&self, key: &K) -> bool {
        let hash = hash_key(key);
        self.shard(hash).contains_hashed(hash, key)
    }

    /// Unordered iteration over every shard's every bucket: each
    /// shard is walked under its own single amortized pin
    /// ([`BucketMapHandle::iter`]), shards in index order. All `P`
    /// pins are taken up front and held for the scan's duration (the
    /// shards are independent domains — there is no single pin that
    /// could cover them). Weakly consistent per bucket, no cross-shard
    /// atomicity claim.
    pub fn iter(&self) -> ShardedMapIter<'_, 's, K, V, R>
    where
        K: Clone,
        V: Clone,
    {
        ShardedMapIter {
            iters: self.handles.iter().map(BucketMapHandle::iter).collect(),
            idx: 0,
        }
    }

    /// Total number of keys, summed across shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether every shard is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The map this handle operates on.
    #[must_use]
    pub fn map(&self) -> &'s ShardedMap<K, V, R> {
        self.map
    }

    /// Announce a quiescent point on every shard handle; see
    /// [`BucketMapHandle::quiesce`].
    pub fn quiesce(&self) {
        for h in self.handles.iter() {
            h.quiesce();
        }
    }

    /// Drain deferred reclamation on every shard handle; see
    /// [`BucketMapHandle::flush_reclamation`].
    pub fn flush_reclamation(&self) {
        for h in self.handles.iter() {
            h.flush_reclamation();
        }
    }

    /// Set pin amortization on every shard handle; see
    /// [`BucketMapHandle::amortize_pins`]. As with
    /// [`ShardedHandle`](crate::ShardedHandle), the counter is
    /// per-shard-handle: a routed workload advances each one `P`×
    /// slower than the op stream.
    pub fn amortize_pins(&self, every: u32) {
        for h in self.handles.iter() {
            h.amortize_pins(every);
        }
    }
}

impl<K, V, R> fmt::Debug for ShardedMapHandle<'_, K, V, R>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedMapHandle")
            .field("shards", &self.handles.len())
            .finish()
    }
}

impl<K, V, R> ConcurrentMap for ShardedMap<K, V, R>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    type Key = K;
    type Value = V;
    type Handle<'a>
        = ShardedMapHandle<'a, K, V, R>
    where
        Self: 'a;

    fn handle(&self) -> Self::Handle<'_> {
        ShardedMap::handle(self)
    }

    fn len(&self) -> usize {
        ShardedMap::len(self)
    }

    fn partition_of(&self, key: &K) -> Option<usize> {
        Some(self.shard_of(key))
    }
}

impl<K, V, R> MapHandle<K, V> for ShardedMapHandle<'_, K, V, R>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    fn insert(&self, key: K, value: V) -> Result<(), (K, V)> {
        ShardedMapHandle::insert(self, key, value)
    }

    fn remove_with<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        ShardedMapHandle::remove_with(self, key, f)
    }

    fn get_with<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        ShardedMapHandle::get_with(self, key, f)
    }

    fn amortize_pins(&self, every: u32) {
        ShardedMapHandle::amortize_pins(self, every);
    }

    fn quiesce(&self) {
        ShardedMapHandle::quiesce(self);
    }

    fn flush_reclamation(&self) {
        ShardedMapHandle::flush_reclamation(self);
    }
}

/// Iterator over every shard of a [`ShardedMap`], produced by
/// [`ShardedMapHandle::iter`]: a concatenation of per-shard
/// [`ChainIter`]s, holding one pin per shard for its whole lifetime.
/// Drop it promptly in long-running threads.
pub struct ShardedMapIter<'h, 's, K, V, R: Reclaim = Ebr> {
    iters: Vec<ChainIter<'h, 's, K, V, R>>,
    idx: usize,
}

impl<K, V, R: Reclaim> fmt::Debug for ShardedMapIter<'_, '_, K, V, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ShardedMapIter")
    }
}

impl<K, V, R> Iterator for ShardedMapIter<'_, '_, K, V, R>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    type Item = (K, V);

    fn next(&mut self) -> Option<(K, V)> {
        while let Some(it) = self.iters.get_mut(self.idx) {
            if let Some(pair) = it.next() {
                return Some(pair);
            }
            self.idx += 1;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lf_vbr::Vbr;

    #[test]
    fn point_ops_route_consistently() {
        let map: ShardedMap<u64, u64> = ShardedMap::new(4, 16);
        let h = map.handle();
        for k in 0..500u64 {
            assert!(h.insert(k, k * 10).is_ok());
        }
        assert_eq!(map.len(), 500);
        for k in 0..500u64 {
            assert_eq!(h.get(&k), Some(k * 10));
            assert!(h.contains(&k));
            assert_eq!(h.get_with(&k, |v| v + 1), Some(k * 10 + 1));
        }
        assert!(h.insert(7, 0).is_err());
        for k in 0..500u64 {
            assert_eq!(h.remove(&k), Some(k * 10));
        }
        assert!(map.is_empty());
        map.validate_quiescent();
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_shards_rejected() {
        let _ = ShardedMap::<u64, u64>::new(6, 16);
    }

    #[test]
    fn iter_concatenates_all_shards() {
        let map: ShardedMap<u64, u64> = ShardedMap::new(4, 8);
        let h = map.handle();
        for k in 0..300u64 {
            assert!(h.insert(k, k).is_ok());
        }
        let mut keys: Vec<u64> = h.iter().map(|(k, _)| k).collect();
        assert_eq!(keys.len(), 300);
        keys.sort_unstable();
        assert_eq!(keys, (0..300).collect::<Vec<_>>());
    }

    #[test]
    fn shards_fill_all_their_buckets() {
        // The decorrelated router must not confine a shard's keys to a
        // bucket subset (see `router::map_shard_of`).
        let map: ShardedMap<u64, u64> = ShardedMap::new(4, 8);
        let h = map.handle();
        for k in 0..4000u64 {
            assert!(h.insert(k, k).is_ok());
        }
        for (i, snap) in map.snapshot().into_iter().enumerate() {
            let empty = snap
                .per_partition
                .iter()
                .filter(|b| b.occupancy == 0)
                .count();
            assert_eq!(empty, 0, "shard {i} left {empty} buckets unused");
        }
    }

    #[test]
    fn domains_are_one_per_shard_and_distinct() {
        let map: ShardedMap<u64, u64> = ShardedMap::new(4, 8);
        let domains: Vec<_> = map.domains().collect();
        assert_eq!(domains.len(), map.shard_count());
        for (i, a) in domains.iter().enumerate() {
            for b in &domains[i + 1..] {
                assert!(!std::ptr::eq(*a, *b));
            }
        }
        // They are the shards' own domains: retiring through shard 0
        // moves shard 0's gauge and nobody else's.
        let h = map.handle();
        let key = (0u64..).find(|k| map.shard_of(k) == 0).unwrap();
        assert!(h.insert(key, 1).is_ok());
        assert_eq!(h.remove(&key), Some(1));
        let retired: Vec<u64> = domains
            .iter()
            .map(|d| Ebr::gauge(d).snapshot().retired)
            .collect();
        assert_eq!(retired, [1, 0, 0, 0]);
    }

    #[test]
    fn vbr_backend_end_to_end() {
        let map: ShardedMap<u64, u64, Vbr> = ShardedMap::with_backend(2, 8);
        let h = map.handle();
        for k in 0..200u64 {
            assert!(h.insert(k, k * 3).is_ok());
        }
        for k in 0..200u64 {
            assert_eq!(h.try_read(&k), Some(k * 3));
        }
        assert_eq!(h.try_read(&1000), None);
        for k in 0..200u64 {
            assert_eq!(h.remove(&k), Some(k * 3));
            assert_eq!(h.try_read(&k), None);
        }
        assert!(map.is_empty());
        map.validate_quiescent();
    }
}
