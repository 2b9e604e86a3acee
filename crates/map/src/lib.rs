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
//! [`BucketMap::with_backend`] to run the buckets over hazard pointers
//! or VBR. On a pin-free backend (VBR), [`BucketMapHandle::try_read`]
//! serves point lookups without touching the shared reclamation
//! domain at all.
//!
//! Every operation is attributed to [`Structure::Map`] in the shared
//! `lf-metrics` histograms (so map and skip-list latencies never
//! alias in mixed deployments), tagged with its bucket index for
//! `lf-trace` causal traces, and credited to per-bucket occupancy /
//! contention statistics ([`BucketMap::snapshot`]).
//!
//! # The routed-op fast path
//!
//! A point operation hashes its key **once**: [`hash_key`] is the
//! tier's only SipHash, the bucket index is a fold of that word, and
//! the `_hashed` entry points ([`BucketMapHandle::get_hashed`], … —
//! the plain ops are thin wrappers) take the word from a caller that
//! already holds it (`lf-shard`'s `ShardedMap` slices its shard index
//! from the same word). One `lf-metrics` bracket surrounds the bucket
//! op; the step delta its `op_end` returns is credited to the bucket
//! in a block of cells the *handle* owns
//! ([`lf_metrics::PartitionTally`]: owner-only bumps, no RMW, no
//! shared line). The map holds no per-bucket statistics storage: an
//! empty `BucketMap::new(1024)` allocates ~240 KiB, a handle another
//! 256 B per bucket.
//!
//! # Examples
//!
//! ```
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

/// Statistics of one bucket (or, merged, of the whole map).
pub use lf_metrics::PartitionSnapshot as BucketSnapshot;
/// Statistics of every bucket of a [`BucketMap`], in index order.
pub use lf_metrics::TallySnapshot as BucketMapSnapshot;
pub use router::hash_key;

use std::fmt;
use std::hash::Hash;

use lf_core::{ChainIter, ConcurrentMap, FrList, ListHandle, MapHandle};
use lf_metrics::{PartitionTally, Structure, TallyWriter};
use lf_reclaim::{Ebr, Pod, Publish, Reclaim};
use lf_tagged::CachePadded;

/// Default bucket count: deep enough that benchmark-scale key spaces
/// keep expected chain length in the single digits, shallow enough
/// that the bucket array stays cache-resident.
pub const DEFAULT_BUCKETS: usize = 64;

/// A lock-free hash map over `B` sibling [`FrList`] buckets.
///
/// Obtain a per-thread [`BucketMapHandle`] with
/// [`handle`](BucketMap::handle) and operate through it; the
/// convenience methods on the map itself register a fresh handle per
/// call. See the [crate docs](crate) for the design rationale.
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
    /// Per-bucket statistics, written through each handle's own block.
    tally: PartitionTally,
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
            tally: PartitionTally::new(buckets),
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
    /// landing on the same partition. The handle also takes a block
    /// of per-bucket statistics cells of its own (256 B per bucket; a
    /// dropped handle's block is reused).
    #[must_use]
    pub fn handle(&self) -> BucketMapHandle<'_, K, V, R> {
        BucketMapHandle {
            map: self,
            handle: self.buckets[0].handle(),
            tally: self.tally.writer(),
        }
    }

    /// Insert through a temporary handle. See
    /// [`BucketMapHandle::insert`].
    ///
    /// # Errors
    ///
    /// Returns the rejected pair if `key` is already present.
    pub fn insert(&self, key: K, value: V) -> Result<(), (K, V)> {
        self.handle().insert(key, value)
    }

    /// Remove through a temporary handle. See
    /// [`BucketMapHandle::remove`].
    pub fn remove(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.handle().remove(key)
    }

    /// Lookup through a temporary handle. See [`BucketMapHandle::get`].
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

    /// Per-bucket statistics plus occupancy; see [`BucketMapSnapshot`].
    #[must_use]
    pub fn snapshot(&self) -> BucketMapSnapshot {
        self.tally.snapshot(|i| self.buckets[i].len())
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
/// [`Structure::Map`], carries its bucket index as the `lf-trace`
/// shard tag, and credits its step delta to the bucket's statistics.
pub struct BucketMapHandle<'m, K, V, R = Ebr>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim,
{
    map: &'m BucketMap<K, V, R>,
    handle: ListHandle<'m, K, V, R>,
    tally: TallyWriter,
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
    /// off), one [`lf_metrics`] op boundary attributed to
    /// [`Structure::Map`], and that boundary's step delta credited to
    /// the bucket in this handle's tally block.
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
        self.tally.record(i, lf_metrics::op_end(token));
        res
    }

    /// Insert `(key, value)` into the key's bucket. Returns the
    /// rejected pair if `key` is already present.
    ///
    /// # Errors
    ///
    /// Returns the rejected pair if `key` is already present.
    pub fn insert(&self, key: K, value: V) -> Result<(), (K, V)> {
        self.insert_hashed(hash_key(&key), key, value)
    }

    /// Remove `key` from its bucket, returning its value.
    pub fn remove(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.remove_hashed(hash_key(key), key)
    }

    /// Remove `key` from its bucket and apply `f` to a borrow of its
    /// value, without cloning; see [`ListHandle::remove_with`].
    pub fn remove_with<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        self.remove_with_hashed(hash_key(key), key, f)
    }

    /// Look up `key` in its bucket, returning a clone of its value.
    pub fn get(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.get_hashed(hash_key(key), key)
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

    /// Zero-copy lookup: run `f` over the value in place (under the
    /// bucket's epoch pin) instead of cloning it out. Keep `f` short —
    /// the pin delays reclamation for the whole shared domain.
    pub fn get_with<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        self.get_with_hashed(hash_key(key), key, f)
    }

    /// Whether `key` is present in its bucket.
    pub fn contains(&self, key: &K) -> bool {
        self.contains_hashed(hash_key(key), key)
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

    /// [`remove`](Self::remove) given `hash == hash_key(key)`.
    pub fn remove_hashed(&self, hash: u64, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.remove_with_hashed(hash, key, V::clone)
    }

    /// [`remove_with`](Self::remove_with) given `hash == hash_key(key)`.
    pub fn remove_with_hashed<T>(&self, hash: u64, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        debug_assert_eq!(hash, hash_key(key));
        self.routed(hash, |h, bucket| h.remove_with_in(bucket, key, f))
    }

    /// [`get`](Self::get) given `hash == hash_key(key)`.
    pub fn get_hashed(&self, hash: u64, key: &K) -> Option<V>
    where
        V: Clone,
    {
        debug_assert_eq!(hash, hash_key(key));
        self.routed(hash, |h, bucket| h.get_in(bucket, key))
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

    /// [`get_with`](Self::get_with) given `hash == hash_key(key)`.
    pub fn get_with_hashed<T>(&self, hash: u64, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        debug_assert_eq!(hash, hash_key(key));
        self.routed(hash, |h, bucket| h.get_with_in(bucket, key, f))
    }

    /// [`contains`](Self::contains) given `hash == hash_key(key)`.
    pub fn contains_hashed(&self, hash: u64, key: &K) -> bool {
        debug_assert_eq!(hash, hash_key(key));
        self.routed(hash, |h, bucket| h.contains_in(bucket, key))
    }

    /// Unordered iteration over every bucket under **one** amortized
    /// pin ([`ChainIter`]): each bucket's pairs come out in key order,
    /// buckets in index order — which is hash order, i.e. no order at
    /// all. Weakly consistent per bucket (pairs present for the whole
    /// scan appear exactly once) with no cross-bucket atomicity claim.
    /// Iteration work is not attributed to per-bucket statistics.
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

    /// Announce a quiescent point; see [`ListHandle::quiesce`]. One
    /// call covers every bucket (single registration).
    pub fn quiesce(&self) {
        self.handle.quiesce();
    }

    /// Drain deferred reclamation; see
    /// [`ListHandle::flush_reclamation`]. One call covers every bucket.
    pub fn flush_reclamation(&self) {
        self.handle.flush_reclamation();
    }

    /// Set pin amortization; see [`ListHandle::amortize_pins`]. The
    /// counter is per map handle, so it advances once per routed
    /// operation regardless of which bucket the key lands in.
    pub fn amortize_pins(&self, every: u32) {
        self.handle.amortize_pins(every);
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
    fn insert(&self, key: K, value: V) -> Result<(), (K, V)> {
        BucketMapHandle::insert(self, key, value)
    }

    fn remove_with<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        BucketMapHandle::remove_with(self, key, f)
    }

    fn get_with<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        BucketMapHandle::get_with(self, key, f)
    }

    fn amortize_pins(&self, every: u32) {
        BucketMapHandle::amortize_pins(self, every);
    }

    fn quiesce(&self) {
        BucketMapHandle::quiesce(self);
    }

    fn flush_reclamation(&self) {
        BucketMapHandle::flush_reclamation(self);
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
        let snap = map.snapshot();
        assert_eq!(snap.per_partition[0].ops, 100);
    }

    #[test]
    fn snapshot_attributes_ops_and_occupancy_to_buckets() {
        let map: BucketMap<u64, u64> = BucketMap::new(4);
        let h = map.handle();
        for k in 0..400u64 {
            assert!(h.insert(k, k).is_ok());
        }
        let snap = map.snapshot();
        assert_eq!(snap.per_partition.len(), 4);
        let merged = snap.merged();
        assert_eq!(merged.ops, 400);
        assert_eq!(merged.occupancy, 400);
        // Sequential keys must spread: no bucket may own >60% of keys.
        assert!(snap.max_occupancy_share() < 0.6, "{snap:?}");
        assert!(snap.max_ops_share() < 0.6, "{snap:?}");
        // Every op routed to bucket i bumped bucket i's count only.
        for (i, s) in snap.per_partition.iter().enumerate() {
            assert_eq!(s.ops as usize, s.occupancy, "bucket {i}");
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

    #[test]
    fn hazard_backend_end_to_end() {
        let map: BucketMap<u64, u64, lf_hazard::Hp> = BucketMap::with_backend(4);
        let h = map.handle();
        for k in 0..100u64 {
            assert!(h.insert(k, k).is_ok());
        }
        for k in 0..100u64 {
            assert_eq!(h.get(&k), Some(k));
            // On a pinned backend try_read is the pinned get.
            assert_eq!(h.try_read(&k), Some(k));
        }
        for k in 0..100u64 {
            assert_eq!(h.remove(&k), Some(k));
        }
        assert!(map.is_empty());
        map.validate_quiescent();
    }
}
