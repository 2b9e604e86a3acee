//! `lf-map`: a Michael-style lock-free hash map over FR-list buckets.
//!
//! Routes each key to one of `B` (power of two) Fomitchev–Ruppert
//! [`FrList`] buckets, the shape of Michael's lock-free hash map
//! (PODC 2002) with the paper's backlink/flag list as the bucket
//! structure. A point operation touches exactly one short chain, so
//! its expected cost is `O(n/B + c(bucket))` — the paper's amortized
//! list bound evaluated at the bucket's occupancy, with the contention
//! term `c` a *per-bucket* quantity. Where the skip list (and
//! `lf-shard`'s partitioning of it) serves ordered traffic in
//! `O(log n)`, the bucketed map is the serving tier for pure key-value
//! traffic: O(1) expected point ops, no ordering, no level-1 sentinel
//! hot spot.
//!
//! The buckets are siblings ([`FrList::new_sibling`]): they share one
//! reclamation domain **and one node pool**, so a thread registers
//! once ([`BucketMap::handle`]) and a single guard covers whichever
//! bucket an operation routes to. Pool sharing means a block retired
//! from one bucket can be re-tenanted into another; pin-free readers
//! stay sound because birth-stamp validation rejects re-tenanted
//! blocks no matter which bucket's chain they resurface on (see
//! `lf-core`'s sibling read). The unordered
//! [`iter`](BucketMapHandle::iter) walks every bucket under **one** amortized
//! pin via [`ChainIter`].
//!
//! Like the rest of the stack, the map is generic over the reclamation
//! backend (`R`, default [`Ebr`]): construct with
//! [`BucketMap::with_backend`] to run the buckets over VBR, whose
//! [`BucketMapHandle::try_read`] serves point lookups without touching
//! the shared reclamation domain at all.
//!
//! Every operation is attributed to [`Structure::Map`] in the shared
//! `lf-metrics` histograms (so map and skip-list latencies never
//! alias in mixed deployments) and tagged with its bucket index for
//! `lf-trace` causal traces. The map keeps no per-bucket statistics:
//! the histograms already hold its step distributions, and `lf-shard`
//! counts ops per shard, the one partition figure a reader asks for.
//!
//! # The routed-op fast path
//!
//! A point operation hashes its key **once**: [`hash_key`] is the
//! tier's only SipHash, the bucket index is a fold of that word, and
//! the `_hashed` entry points ([`BucketMapHandle::get_with_hashed`], …;
//! the handle's [`MapHandle`] ops hash the key and call them) take the
//! word from a caller that already holds it (`lf-shard`'s `ShardedMap`
//! slices its shard index from the same word). One `lf-metrics`
//! bracket surrounds the bucket op. An empty `BucketMap::new(1024)`
//! allocates ~240 KiB; a handle holds one list registration and no
//! per-bucket storage.
//!
//! # Examples
//!
//! ```
//! use lf_core::MapHandle;
//! use lf_map::BucketMap;
//!
//! let map: BucketMap<u64, &str> = BucketMap::new(16);
//! let h = map.handle();
//! assert!(h.insert(1, "one").is_ok());
//! assert!(h.insert(2, "two").is_ok());
//! assert_eq!(h.get(&1), Some("one"));
//! assert_eq!(h.get_with(&2, |v| v.len()), Some(3));
//!
//! // Unordered scan of every bucket under one pin.
//! let mut pairs: Vec<(u64, &str)> = h.iter().collect();
//! pairs.sort_unstable();
//! assert_eq!(pairs, vec![(1, "one"), (2, "two")]);
//!
//! assert_eq!(h.remove(&1), Some("one"));
//! assert_eq!(map.len(), 1);
//! ```

mod router;

pub use router::hash_key;

use std::fmt;
use std::hash::Hash;

use lf_core::{ChainIter, ConcurrentMap, FrList, ListHandle, MapHandle};
use lf_metrics::Structure;
use lf_reclaim::{Ebr, Pod, Publish, Reclaim};
use lf_tagged::CachePadded;

/// Default bucket count: deep enough that benchmark-scale key spaces
/// keep expected chain length in the single digits, shallow enough
/// that the bucket array stays cache-resident.
pub const DEFAULT_BUCKETS: usize = 64;

/// A lock-free hash map over `B` sibling [`FrList`] buckets.
///
/// Obtain a per-thread [`BucketMapHandle`] with
/// [`handle`](BucketMap::handle) and operate through it. See the
/// [crate docs](crate) for the design rationale.
///
/// `R` selects the safe-memory-reclamation backend shared by every
/// bucket (default epoch-based; see
/// [`with_backend`](BucketMap::with_backend)).
pub struct BucketMap<K, V, R = Ebr>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim,
{
    /// The buckets. Each is `CachePadded` so one bucket's hot head
    /// sentinel and length counter never share a line with its
    /// neighbor.
    buckets: Box<[CachePadded<FrList<K, V, R>>]>,
    /// Bucket count − 1 (bucket count is a power of two).
    mask: usize,
}

impl<K, V> BucketMap<K, V>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    /// A map with `buckets` chains (power of two) over the default EBR
    /// backend.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is zero or not a power of two.
    #[must_use]
    pub fn new(buckets: usize) -> Self {
        Self::with_backend(buckets)
    }
}

impl<K, V, R> BucketMap<K, V, R>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    /// A map with `buckets` chains over the reclamation backend `R`.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is zero or not a power of two.
    #[must_use]
    pub fn with_backend(buckets: usize) -> Self {
        assert!(
            buckets.is_power_of_two(),
            "bucket count must be a nonzero power of two, got {buckets}"
        );
        let first = FrList::with_backend();
        let mut vec = Vec::with_capacity(buckets);
        for _ in 1..buckets {
            vec.push(CachePadded::new(first.new_sibling()));
        }
        vec.insert(0, CachePadded::new(first));
        BucketMap {
            buckets: vec.into_boxed_slice(),
            mask: buckets - 1,
        }
    }

    /// Register the calling thread and return an operation handle.
    ///
    /// One registration covers every bucket: the handle holds a single
    /// [`ListHandle`] (on bucket 0) and runs each routed operation on
    /// its key's bucket via the sibling ops — so unlike a
    /// handle-per-partition design, the pin-amortization cadence
    /// advances once per *map* operation, not once per `B` operations
    /// landing on the same partition.
    #[must_use]
    pub fn handle(&self) -> BucketMapHandle<'_, K, V, R> {
        BucketMapHandle {
            map: self,
            handle: self.buckets[0].handle(),
        }
    }
}

impl<K, V, R> BucketMap<K, V, R>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim,
{
    /// Number of buckets.
    #[must_use]
    pub fn bucket_count(&self) -> usize {
        self.mask + 1
    }

    /// The bucket index `key` routes to — stable for the map's
    /// lifetime and across maps with the same bucket count.
    #[must_use]
    pub fn bucket_of(&self, key: &K) -> usize {
        router::bucket_of_hash(hash_key(key), self.mask)
    }

    /// Total number of keys, summed across buckets (each bucket's
    /// count is maintained as in [`FrList::len`]; the sum is
    /// racy-fresh under concurrency).
    #[must_use]
    pub fn len(&self) -> usize {
        self.buckets.iter().map(|b| b.len()).sum()
    }

    /// Whether every bucket is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(|b| b.is_empty())
    }

    /// The reclamation domain shared by every bucket.
    #[must_use]
    pub fn domain(&self) -> &R::Domain {
        self.buckets[0].domain()
    }

    /// Validate every bucket's structural invariants; quiescent only.
    ///
    /// # Panics
    ///
    /// Panics (with a description) if any bucket's invariant is
    /// violated.
    pub fn validate_quiescent(&self)
    where
        K: Ord,
    {
        for b in self.buckets.iter() {
            b.validate_quiescent();
        }
    }
}

impl<K, V, R> Default for BucketMap<K, V, R>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    fn default() -> Self {
        Self::with_backend(DEFAULT_BUCKETS)
    }
}

impl<K, V, R> fmt::Debug for BucketMap<K, V, R>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BucketMap")
            .field("backend", &R::NAME)
            .field("buckets", &self.bucket_count())
            .field("len", &self.len())
            .finish()
    }
}

/// A registered per-thread handle to a [`BucketMap`].
///
/// Holds **one** [`ListHandle`] registration (one epoch slot, one
/// local pool cache, one pin-amortization counter) and routes each
/// operation to its key's bucket through the sibling ops. Every
/// operation records an [`lf_metrics`] op boundary attributed to
/// [`Structure::Map`] and carries its bucket index as the `lf-trace`
/// shard tag.
pub struct BucketMapHandle<'m, K, V, R = Ebr>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim,
{
    map: &'m BucketMap<K, V, R>,
    handle: ListHandle<'m, K, V, R>,
}

impl<'m, K, V, R> BucketMapHandle<'m, K, V, R>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    /// Run `op` on the bucket `hash` routes to, inside the bracket every
    /// routed operation shares: the bucket index as the causal-trace
    /// tag (events the bucket op records carry it; free when tracing is
    /// off) and one [`lf_metrics`] op boundary attributed to
    /// [`Structure::Map`].
    #[inline]
    fn routed<T>(
        &self,
        hash: u64,
        op: impl FnOnce(&ListHandle<'m, K, V, R>, &FrList<K, V, R>) -> T,
    ) -> T {
        let i = router::bucket_of_hash(hash, self.map.mask);
        let _t = lf_trace::shard_scope(i as u16);
        let token = lf_metrics::op_begin_for(Structure::Map);
        let res = op(&self.handle, &self.map.buckets[i]);
        lf_metrics::op_end(token);
        res
    }

    /// [`MapHandle::insert`], inherent because `stackbench/src/tier.rs` calls it by path.
    pub fn insert(&self, key: K, value: V) -> Result<(), (K, V)> {
        MapHandle::insert(self, key, value)
    }

    /// [`MapHandle::remove`], inherent because `stackbench/src/tier.rs` calls it by path.
    pub fn remove(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        MapHandle::remove(self, key)
    }

    /// [`MapHandle::get`], inherent because `stackbench/src/tier.rs` calls it by path.
    pub fn get(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        MapHandle::get(self, key)
    }

    /// Look up `key` in its bucket without pinning the reclamation
    /// domain, when the backend supports it; see
    /// [`ListHandle::try_read_in`]. Falls back to the pinned
    /// [`get`](Self::get) path on pinned backends or after repeated
    /// validation races (pool sharing makes those validations reject
    /// blocks re-tenanted into *any* sibling bucket, not just this
    /// one).
    pub fn try_read(&self, key: &K) -> Option<V>
    where
        K: Pod,
        V: Pod,
    {
        self.try_read_hashed(hash_key(key), key)
    }

    /// [`insert`](Self::insert) given `hash == hash_key(&key)`. As for
    /// every `_hashed` entry point, a `hash` that is not the key's is
    /// memory-safe but routes to the wrong bucket, where the key's
    /// other operations will not look.
    ///
    /// # Errors
    ///
    /// Returns the rejected pair if `key` is already present.
    pub fn insert_hashed(&self, hash: u64, key: K, value: V) -> Result<(), (K, V)> {
        debug_assert_eq!(hash, hash_key(&key));
        self.routed(hash, |h, bucket| h.insert_in(bucket, key, value))
    }

    /// [`remove_with`](MapHandle::remove_with) given `hash == hash_key(key)`.
    pub fn remove_with_hashed<T>(&self, hash: u64, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        debug_assert_eq!(hash, hash_key(key));
        self.routed(hash, |h, bucket| h.remove_with_in(bucket, key, f))
    }

    /// [`try_read`](Self::try_read) given `hash == hash_key(key)`.
    pub fn try_read_hashed(&self, hash: u64, key: &K) -> Option<V>
    where
        K: Pod,
        V: Pod,
    {
        debug_assert_eq!(hash, hash_key(key));
        self.routed(hash, |h, bucket| h.try_read_in(bucket, key))
    }

    /// [`get_with`](MapHandle::get_with) given `hash == hash_key(key)`.
    pub fn get_with_hashed<T>(&self, hash: u64, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        debug_assert_eq!(hash, hash_key(key));
        self.routed(hash, |h, bucket| h.get_with_in(bucket, key, f))
    }

    /// Unordered iteration over every bucket under **one** amortized
    /// pin ([`ChainIter`]): each bucket's pairs come out in key order,
    /// buckets in index order — which is hash order, i.e. no order at
    /// all. Weakly consistent per bucket (pairs present for the whole
    /// scan appear exactly once) with no cross-bucket atomicity claim.
    pub fn iter(&self) -> ChainIter<'_, 'm, K, V, R>
    where
        K: Clone,
        V: Clone,
    {
        self.handle
            .iter_chain(self.map.buckets.iter().map(|b| &**b))
    }

    /// Total number of keys, summed across buckets.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether every bucket is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The map this handle operates on.
    #[must_use]
    pub fn map(&self) -> &'m BucketMap<K, V, R> {
        self.map
    }
}

impl<K, V, R> fmt::Debug for BucketMapHandle<'_, K, V, R>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BucketMapHandle")
            .field("buckets", &self.map.bucket_count())
            .finish()
    }
}

impl<K, V, R> ConcurrentMap for BucketMap<K, V, R>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    type Key = K;
    type Value = V;
    type Handle<'a>
        = BucketMapHandle<'a, K, V, R>
    where
        Self: 'a;

    fn handle(&self) -> Self::Handle<'_> {
        BucketMap::handle(self)
    }

    fn len(&self) -> usize {
        BucketMap::len(self)
    }

    fn partition_of(&self, key: &K) -> Option<usize> {
        Some(self.bucket_of(key))
    }
}

impl<K, V, R> MapHandle<K, V> for BucketMapHandle<'_, K, V, R>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    /// Insert `(key, value)` into the key's bucket.
    ///
    /// # Errors
    ///
    /// Returns the rejected pair if `key` is already present.
    fn insert(&self, key: K, value: V) -> Result<(), (K, V)> {
        self.insert_hashed(hash_key(&key), key, value)
    }

    /// Remove `key` from its bucket and apply `f` to a borrow of its
    /// value, without cloning.
    fn remove_with<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        self.remove_with_hashed(hash_key(key), key, f)
    }

    /// Zero-copy lookup: run `f` over the value in place (under the
    /// bucket's epoch pin) instead of cloning it out. Keep `f` short —
    /// the pin delays reclamation for the whole shared domain.
    fn get_with<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        self.get_with_hashed(hash_key(key), key, f)
    }

    /// Set pin amortization on the one list handle. The counter is per
    /// map handle, so it advances once per routed operation regardless
    /// of which bucket the key lands in.
    fn amortize_pins(&self, every: u32) {
        self.handle.amortize_pins(every);
    }

    /// Announce a quiescent point. One call covers every bucket (single
    /// registration).
    fn quiesce(&self) {
        self.handle.quiesce();
    }

    /// Drain deferred reclamation. One call covers every bucket.
    fn flush_reclamation(&self) {
        self.handle.flush_reclamation();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lf_vbr::Vbr;

    #[test]
    fn buckets_share_one_domain() {
        let map: BucketMap<u64, u64> = BucketMap::new(8);
        for w in map.buckets.windows(2) {
            assert!(w[0].shares_domain_with(&w[1]));
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn zero_buckets_rejected() {
        let _ = BucketMap::<u64, u64>::new(0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = BucketMap::<u64, u64>::new(48);
    }

    #[test]
    fn point_ops_route_consistently() {
        let map: BucketMap<u64, u64> = BucketMap::new(16);
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
    fn iter_covers_every_bucket_once() {
        let map: BucketMap<u64, u64> = BucketMap::new(8);
        let h = map.handle();
        for k in 0..300u64 {
            assert!(h.insert(k, k * 2).is_ok());
        }
        let mut pairs: Vec<(u64, u64)> = h.iter().collect();
        assert_eq!(pairs.len(), 300);
        pairs.sort_unstable();
        for (i, (k, v)) in pairs.into_iter().enumerate() {
            assert_eq!(k, i as u64);
            assert_eq!(v, k * 2);
        }
    }

    #[test]
    fn single_bucket_degenerates_to_plain_list() {
        let map: BucketMap<u64, u64> = BucketMap::new(1);
        let h = map.handle();
        for k in (0..100u64).rev() {
            assert!(h.insert(k, k).is_ok());
        }
        let keys: Vec<u64> = h.iter().map(|(k, _)| k).collect();
        // One bucket: chain order is key order.
        assert_eq!(keys, (0..100).collect::<Vec<_>>());
        assert_eq!(map.buckets[0].len(), 100);
    }

    #[test]
    fn sequential_keys_spread_over_buckets() {
        let map: BucketMap<u64, u64> = BucketMap::new(4);
        let h = map.handle();
        for k in 0..400u64 {
            assert!(h.insert(k, k).is_ok());
        }
        let chains: Vec<usize> = map.buckets.iter().map(|b| b.len()).collect();
        assert_eq!(chains.iter().sum::<usize>(), 400);
        // No chain may hold >60% of the keys.
        assert!(chains.iter().all(|&n| n * 10 < 400 * 6), "{chains:?}");
        // Every key sits in the bucket `bucket_of` names.
        for (i, &n) in chains.iter().enumerate() {
            let routed = (0..400u64).filter(|k| map.bucket_of(k) == i).count();
            assert_eq!(n, routed, "bucket {i}");
        }
    }

    #[test]
    fn ops_attribute_to_map_structure_in_metrics() {
        let map: BucketMap<u64, u64> = BucketMap::new(4);
        let h = map.handle();
        let before = lf_metrics::snapshot();
        for k in 0..32u64 {
            assert!(h.insert(k, k).is_ok());
        }
        for k in 0..32u64 {
            assert_eq!(h.get(&k), Some(k));
        }
        let delta = lf_metrics::snapshot() - before;
        assert!(
            delta.ops_for(Structure::Map) >= 64,
            "map ops under-attributed: {}",
            delta.ops_for(Structure::Map)
        );
    }

    #[test]
    fn vbr_backend_end_to_end() {
        let map: BucketMap<u64, u64, Vbr> = BucketMap::with_backend(8);
        let h = map.handle();
        for k in 0..300u64 {
            assert!(h.insert(k, k * 3).is_ok());
        }
        for k in 0..300u64 {
            // Pin-free read path routes like the pinned ops.
            assert_eq!(h.try_read(&k), Some(k * 3));
        }
        assert_eq!(h.try_read(&1000), None);
        let mut keys: Vec<u64> = h.iter().map(|(k, _)| k).collect();
        keys.sort_unstable();
        assert_eq!(keys, (0..300).collect::<Vec<_>>());
        for k in 0..300u64 {
            assert_eq!(h.remove(&k), Some(k * 3));
            assert_eq!(h.try_read(&k), None);
        }
        assert!(map.is_empty());
        map.validate_quiescent();
    }
}
