//! `lf-shard`: a hash-partitioned lock-free dictionary.
//!
//! Routes each key to one of `P` independent partitions (`P` a power of
//! two). Under write-heavy load a single skip list funnels every
//! operation through one head tower, so the paper's `O(n(S) + c(S))`
//! amortized bound is dominated by the contention term `c(S)` at the
//! shared entry point; partitioning makes `c(S)` a *per-shard* quantity
//! while each shard keeps the paper's semantics and proofs unchanged.
//!
//! One wrapper, [`Sharded`], serves both tiers, and its shard type
//! picks the tier: [`ShardedSkipList`] partitions over sibling skip
//! lists and keeps an ordered cross-shard scan; [`ShardedMap`]
//! partitions over whole bucketed hash maps for pure key-value traffic.
//! Every routed operation hashes its key once ([`lf_map::hash_key`]).
//! The two tiers slice that word differently (see `router`): the
//! ordered tier folds its halves, the hash tier takes its high half and
//! passes the word down to the map's `_hashed` entry points, whose
//! bucket fold then uses bits the shard index did not.
//!
//! Like the underlying structures, both tiers are generic over the
//! reclamation backend (`R`, default [`Ebr`]): construct with
//! `with_backend` to run all shards over hazard pointers or VBR
//! instead. On a pin-free backend (VBR), [`RoutedHandle::try_read`]
//! serves point lookups without touching the shared reclamation domain
//! at all.
//!
//! # Examples
//!
//! ```
//! use lf_shard::ShardedSkipList;
//!
//! let map: ShardedSkipList<u64, &str> = ShardedSkipList::new(8);
//! let h = map.handle();
//! assert!(h.insert(1, "one").is_ok());
//! assert!(h.insert(2, "two").is_ok());
//! assert_eq!(h.get(&1), Some("one"));
//! assert_eq!(h.get_with(&2, |v| v.len()), Some(3));
//!
//! // Ordered scan across every shard, zero-copy.
//! let mut keys = Vec::new();
//! h.range(.., |k, _v| {
//!     keys.push(*k);
//!     true
//! });
//! assert_eq!(keys, vec![1, 2]);
//!
//! assert_eq!(h.remove(&1), Some("one"));
//! assert_eq!(map.len(), 1);
//! ```

mod map_flavor;
mod router;
mod skip_flavor;

/// Statistics of one shard (or, merged, of the whole map).
pub use lf_metrics::PartitionSnapshot as ShardSnapshot;
/// Statistics of every shard of a [`ShardedSkipList`], in index order.
pub use lf_metrics::TallySnapshot as ShardedSnapshot;
pub use map_flavor::ShardedMapIter;

use std::fmt;
use std::hash::Hash;

use lf_core::skiplist::SkipList;
use lf_core::{ConcurrentMap, MapHandle};
use lf_map::{hash_key, BucketMap};
use lf_reclaim::{Ebr, Pod};
use lf_tagged::CachePadded;

/// Default shard count: enough to split head-tower contention across a
/// typical benchmark machine's cores without diluting per-shard
/// occupancy at small map sizes.
pub const DEFAULT_SHARDS: usize = 8;

/// The ordered tier: `P` sibling Fomitchev–Ruppert [`SkipList`]s
/// ([`SkipList::new_sibling`]). They share one epoch-reclamation domain
/// and one tower-node pool, so a single pin covers traversals of all of
/// them. That is what makes the cross-shard
/// [`range`](ShardedHandle::range) scan — a k-way merge of per-shard
/// level-1 traversals — possible under **one** amortized epoch pin,
/// with each cursor helping physical deletion exactly as a paper search
/// does. Per-shard telemetry (`ops`, search hops, CAS retries,
/// occupancy) credits the step delta of each routed operation's own op
/// boundary to its shard, in a block of cells the handle owns; see
/// [`ShardedSkipList::snapshot`].
pub type ShardedSkipList<K, V, R = Ebr> = Sharded<SkipList<K, V, R>>;
/// A registered per-thread handle to a [`ShardedSkipList`].
pub type ShardedHandle<'s, K, V, R = Ebr> = RoutedHandle<'s, SkipList<K, V, R>>;
/// The hash tier: `P` independent `lf-map` [`BucketMap`]s, for pure
/// key-value traffic. Each shard has its **own** reclamation domain and
/// node pool, so epoch bookkeeping, retire queues, and pool traffic —
/// shared by all buckets *within* a map — are split `P` ways as well.
/// Within a shard, the map's power-of-two FR-list buckets give O(1)
/// expected point ops exactly as in `lf-map`.
pub type ShardedMap<K, V, R = Ebr> = Sharded<BucketMap<K, V, R>>;
/// A registered per-thread handle to a [`ShardedMap`].
pub type ShardedMapHandle<'s, K, V, R = Ebr> = RoutedHandle<'s, BucketMap<K, V, R>>;

mod sealed {
    pub trait Sealed {}
}

/// A structure [`Sharded`] partitions keys over: [`SkipList`] (the
/// ordered tier) or [`BucketMap`] (the hash tier). It carries only what
/// differs between the two; the wrapper does the rest. Sealed.
pub trait Shard: ConcurrentMap<Key: Hash> + sealed::Sealed {
    /// Per-shard statistics kept beside the shards (the hash tier's
    /// maps keep their own per bucket, so it keeps none here).
    type Tally: Send + Sync;
    /// A handle's write end of [`Tally`](Self::Tally).
    type Writer;

    /// A tally for `shards` shards.
    fn tally(shards: usize) -> Self::Tally;

    /// A new handle's writer into `tally`.
    fn writer(tally: &Self::Tally) -> Self::Writer;

    /// The shard (in `0..=mask`) of a key whose [`hash_key`] is `hash`.
    fn shard_of_hash(hash: u64, mask: usize) -> usize;

    /// Run `op` on `h`, the handle of shard `i`, inside the tier's
    /// per-operation bookkeeping (none by default).
    fn routed<'s, T>(
        writer: &Self::Writer,
        i: usize,
        h: &Self::Handle<'s>,
        op: impl FnOnce(&Self::Handle<'s>) -> T,
    ) -> T
    where
        Self: 's,
    {
        let _ = (writer, i);
        op(h)
    }

    /// [`MapHandle::insert`] on a shard handle, given the key's
    /// [`hash_key`]. A shard that does not route by hash ignores it.
    fn insert_hashed(
        h: &Self::Handle<'_>,
        hash: u64,
        key: Self::Key,
        value: Self::Value,
    ) -> Result<(), (Self::Key, Self::Value)> {
        let _ = hash;
        h.insert(key, value)
    }

    /// [`MapHandle::remove_with`] given the key's [`hash_key`].
    fn remove_with_hashed<T>(
        h: &Self::Handle<'_>,
        hash: u64,
        key: &Self::Key,
        f: impl FnOnce(&Self::Value) -> T,
    ) -> Option<T> {
        let _ = hash;
        h.remove_with(key, f)
    }

    /// [`MapHandle::get_with`] given the key's [`hash_key`].
    fn get_with_hashed<T>(
        h: &Self::Handle<'_>,
        hash: u64,
        key: &Self::Key,
        f: impl FnOnce(&Self::Value) -> T,
    ) -> Option<T> {
        let _ = hash;
        h.get_with(key, f)
    }

    /// The shard handle's pin-free lookup, given the key's
    /// [`hash_key`].
    fn try_read_hashed(h: &Self::Handle<'_>, hash: u64, key: &Self::Key) -> Option<Self::Value>
    where
        Self::Key: Pod,
        Self::Value: Pod;

    /// [`MapHandle::scan`] across all shards: the ordered tier merges
    /// them, the hash tier (unordered) keeps this default and visits
    /// nothing.
    fn scan(
        handles: &[Self::Handle<'_>],
        after: Option<&Self::Key>,
        visit: &mut dyn FnMut(&Self::Key, &Self::Value) -> bool,
    ) {
        let _ = (handles, after, visit);
    }

    /// Validate one shard's structural invariants; quiescent only.
    fn validate_quiescent(&self);
}

/// A hash-partitioned dictionary over `P` shards of type `S`: the
/// ordered [`ShardedSkipList`] or the hashed [`ShardedMap`].
///
/// Obtain a per-thread [`RoutedHandle`] with
/// [`handle`](Sharded::handle) and operate through it; the convenience
/// methods on the map itself register a fresh handle per call. See the
/// [crate docs](crate) for the partitioning rationale and the scan's
/// consistency contract.
pub struct Sharded<S: Shard> {
    /// The partitions. Each is `CachePadded` so one shard's hot entry
    /// point and length counter never share a line with its neighbor.
    shards: Box<[CachePadded<S>]>,
    /// Per-shard statistics, written through each handle's writer.
    tally: S::Tally,
    /// Shard count − 1 (shard count is a power of two).
    mask: usize,
}

impl<S: Shard> Sharded<S> {
    /// `count` shards: `first`, then `count − 1` more made by `next`
    /// from it (siblings sharing its domain, or independent maps).
    fn build(count: usize, first: S, next: impl Fn(&S) -> S) -> Self {
        assert!(
            count.is_power_of_two(),
            "shard count must be a nonzero power of two, got {count}"
        );
        let mut shards = Vec::with_capacity(count);
        for _ in 1..count {
            shards.push(CachePadded::new(next(&first)));
        }
        shards.insert(0, CachePadded::new(first));
        Sharded {
            shards: shards.into_boxed_slice(),
            tally: S::tally(count),
            mask: count - 1,
        }
    }

    /// Register a per-thread handle: one shard handle per shard, plus
    /// the handle's writer into the per-shard statistics.
    #[must_use]
    pub fn handle(&self) -> RoutedHandle<'_, S> {
        RoutedHandle {
            map: self,
            handles: self.shards.iter().map(|s| s.handle()).collect(),
            tally: S::writer(&self.tally),
        }
    }

    /// Insert through a temporary handle. See [`RoutedHandle::insert`].
    pub fn insert(&self, key: S::Key, value: S::Value) -> Result<(), (S::Key, S::Value)> {
        self.handle().insert(key, value)
    }

    /// Remove through a temporary handle. See [`RoutedHandle::remove`].
    pub fn remove(&self, key: &S::Key) -> Option<S::Value>
    where
        S::Value: Clone,
    {
        self.handle().remove(key)
    }

    /// Lookup through a temporary handle. See [`RoutedHandle::get`].
    pub fn get(&self, key: &S::Key) -> Option<S::Value>
    where
        S::Value: Clone,
    {
        self.handle().get(key)
    }

    /// Membership test through a temporary handle.
    pub fn contains(&self, key: &S::Key) -> bool {
        self.handle().contains(key)
    }

    /// Number of partitions.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.mask + 1
    }

    /// The shard index `key` routes to — stable for the map's lifetime
    /// and across maps with the same shard count.
    #[must_use]
    pub fn shard_of(&self, key: &S::Key) -> usize {
        S::shard_of_hash(hash_key(key), self.mask)
    }

    /// Total number of keys, summed across shards (racy-fresh under
    /// concurrency).
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// Whether every shard is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.is_empty())
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

impl<S: Shard> fmt::Debug for Sharded<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sharded")
            .field("shards", &self.shard_count())
            .field("len", &self.len())
            .finish()
    }
}

/// A registered per-thread handle to a [`Sharded`] map.
///
/// Owns one shard handle per shard; every operation hashes the key
/// once, routes it to its shard's handle, and runs it inside the
/// tier's bookkeeping (on the ordered tier, the steps that handle's op
/// boundary counted are credited to the shard; see
/// [`ShardedSkipList::snapshot`]).
pub struct RoutedHandle<'s, S: Shard + 's> {
    map: &'s Sharded<S>,
    handles: Box<[S::Handle<'s>]>,
    tally: S::Writer,
}

impl<'s, S: Shard + 's> RoutedHandle<'s, S> {
    /// Run `op` on the shard handle of the key whose [`hash_key`] is
    /// `hash`.
    #[inline]
    fn routed<T>(&self, hash: u64, op: impl FnOnce(&S::Handle<'s>) -> T) -> T {
        let i = S::shard_of_hash(hash, self.map.mask);
        S::routed(&self.tally, i, &self.handles[i], op)
    }

    /// Insert `(key, value)` into the key's shard; hands both back if
    /// `key` is present.
    pub fn insert(&self, key: S::Key, value: S::Value) -> Result<(), (S::Key, S::Value)> {
        let hash = hash_key(&key);
        self.routed(hash, |h| S::insert_hashed(h, hash, key, value))
    }

    /// Remove `key` from its shard, returning its value.
    pub fn remove(&self, key: &S::Key) -> Option<S::Value>
    where
        S::Value: Clone,
    {
        self.remove_with(key, S::Value::clone)
    }

    /// Remove `key` from its shard and apply `f` to a borrow of its
    /// value, without cloning.
    pub fn remove_with<T>(&self, key: &S::Key, f: impl FnOnce(&S::Value) -> T) -> Option<T> {
        let hash = hash_key(key);
        self.routed(hash, |h| S::remove_with_hashed(h, hash, key, f))
    }

    /// Look up `key` in its shard, returning a clone of its value.
    pub fn get(&self, key: &S::Key) -> Option<S::Value>
    where
        S::Value: Clone,
    {
        self.get_with(key, S::Value::clone)
    }

    /// Look up `key` in its shard without pinning the reclamation
    /// domain, when the backend supports it; falls back to the pinned
    /// [`get`](Self::get) path on pinned backends or after repeated
    /// validation races.
    pub fn try_read(&self, key: &S::Key) -> Option<S::Value>
    where
        S::Key: Pod,
        S::Value: Pod,
    {
        let hash = hash_key(key);
        self.routed(hash, |h| S::try_read_hashed(h, hash, key))
    }

    /// Zero-copy lookup: run `f` over the value in place (under the
    /// shard's epoch pin) instead of cloning it out.
    pub fn get_with<T>(&self, key: &S::Key, f: impl FnOnce(&S::Value) -> T) -> Option<T> {
        let hash = hash_key(key);
        self.routed(hash, |h| S::get_with_hashed(h, hash, key, f))
    }

    /// Whether `key` is present in its shard.
    pub fn contains(&self, key: &S::Key) -> bool {
        self.get_with(key, |_| ()).is_some()
    }
}

impl<'s, S: Shard + 's> fmt::Debug for RoutedHandle<'s, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RoutedHandle")
            .field("shards", &self.handles.len())
            .finish()
    }
}

impl<S: Shard> ConcurrentMap for Sharded<S> {
    type Key = S::Key;
    type Value = S::Value;
    type Handle<'a>
        = RoutedHandle<'a, S>
    where
        Self: 'a;

    const ORDERED: bool = S::ORDERED;

    fn handle(&self) -> Self::Handle<'_> {
        Sharded::handle(self)
    }

    fn len(&self) -> usize {
        Sharded::len(self)
    }

    fn partition_of(&self, key: &S::Key) -> Option<usize> {
        Some(self.shard_of(key))
    }
}

/// The pin methods act on every shard handle. Pin amortization counts
/// per shard handle: with `P` shards a routed workload advances each
/// counter `P`× slower, so epoch announcements are up to `P × every`
/// operations apart.
impl<'s, S: Shard + 's> MapHandle<S::Key, S::Value> for RoutedHandle<'s, S> {
    fn insert(&self, key: S::Key, value: S::Value) -> Result<(), (S::Key, S::Value)> {
        RoutedHandle::insert(self, key, value)
    }

    fn remove_with<T>(&self, key: &S::Key, f: impl FnOnce(&S::Value) -> T) -> Option<T> {
        RoutedHandle::remove_with(self, key, f)
    }

    fn get_with<T>(&self, key: &S::Key, f: impl FnOnce(&S::Value) -> T) -> Option<T> {
        RoutedHandle::get_with(self, key, f)
    }

    fn scan(&self, after: Option<&S::Key>, visit: &mut dyn FnMut(&S::Key, &S::Value) -> bool) {
        S::scan(&self.handles, after, visit);
    }

    fn amortize_pins(&self, every: u32) {
        for h in self.handles.iter() {
            h.amortize_pins(every);
        }
    }

    fn quiesce(&self) {
        for h in self.handles.iter() {
            h.quiesce();
        }
    }

    fn flush_reclamation(&self) {
        for h in self.handles.iter() {
            h.flush_reclamation();
        }
    }
}
