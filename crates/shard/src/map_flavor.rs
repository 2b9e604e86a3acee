//! The hash tier: [`Shard`] for [`BucketMap`], and the methods only
//! [`ShardedMap`] has.

use std::hash::Hash;
use std::iter::Flatten;
use std::vec;

use lf_core::ChainIter;
use lf_map::{BucketMap, BucketMapHandle};
use lf_reclaim::{Ebr, Pod, Publish, Reclaim};

use crate::{router, sealed, Shard, Sharded, ShardedMap, ShardedMapHandle, ShardedSnapshot};

impl<K, V, R> sealed::Sealed for BucketMap<K, V, R>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim,
{
}

impl<K, V, R> Shard for BucketMap<K, V, R>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    #[inline]
    fn shard_of_hash(hash: u64, mask: usize) -> usize {
        router::map_shard_of_hash(hash, mask)
    }

    fn insert_hashed(h: &Self::Handle<'_>, hash: u64, key: K, value: V) -> Result<(), (K, V)> {
        h.insert_hashed(hash, key, value)
    }

    fn remove_with_hashed<T>(
        h: &Self::Handle<'_>,
        hash: u64,
        key: &K,
        f: impl FnOnce(&V) -> T,
    ) -> Option<T> {
        h.remove_with_hashed(hash, key, f)
    }

    fn get_with_hashed<T>(
        h: &Self::Handle<'_>,
        hash: u64,
        key: &K,
        f: impl FnOnce(&V) -> T,
    ) -> Option<T> {
        h.get_with_hashed(hash, key, f)
    }

    fn try_read_hashed(h: &Self::Handle<'_>, hash: u64, key: &K) -> Option<V>
    where
        K: Pod,
        V: Pod,
    {
        h.try_read_hashed(hash, key)
    }

    fn validate_quiescent(&self) {
        BucketMap::validate_quiescent(self);
    }
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
        let shard = || BucketMap::with_backend(buckets_per_shard);
        Sharded::build(shards, shard(), |_| shard())
    }

    /// The shards' reclamation domains, in shard order (all distinct:
    /// each shard is its own [`BucketMap`]) — e.g. to read the
    /// backend's gauges off the structure under test.
    pub fn domains(&self) -> impl Iterator<Item = &R::Domain> {
        self.shards.iter().map(|s| s.domain())
    }

    /// Per-shard op counts and occupancy, one single-shard
    /// [`ShardedSnapshot`] per shard in index order, so shard `i`'s
    /// figures are `snapshot()[i].merged()`. [`ShardedSkipList`]'s
    /// `snapshot` returns one snapshot over all shards instead; this
    /// one keeps the shape `stackbench/src/tier.rs` reads.
    ///
    /// [`ShardedSkipList`]: crate::ShardedSkipList
    #[must_use]
    pub fn snapshot(&self) -> Vec<ShardedSnapshot> {
        self.shard_stats()
            .per_partition
            .into_iter()
            .map(|shard| ShardedSnapshot {
                per_partition: vec![shard],
            })
            .collect()
    }
}

impl<'s, K, V, R> ShardedMapHandle<'s, K, V, R>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    /// Unordered iteration over every shard's every bucket: each
    /// shard is walked under its own single amortized pin
    /// ([`BucketMapHandle::iter`]), shards in index order. All `P`
    /// pins are taken up front (the shards are independent domains —
    /// there is no single pin that could cover them); each is released
    /// once its shard is exhausted. Weakly consistent per bucket, no
    /// cross-shard atomicity claim.
    pub fn iter(&self) -> ShardedMapIter<'_, 's, K, V, R>
    where
        K: Clone,
        V: Clone,
    {
        let iters: Vec<_> = self.handles.iter().map(BucketMapHandle::iter).collect();
        iters.into_iter().flatten()
    }
}

/// Iterator over every shard of a [`ShardedMap`], produced by
/// [`ShardedMapHandle::iter`]: the per-shard [`ChainIter`]s in shard
/// order, all made (so all `P` pins taken) up front. Drop it promptly
/// in long-running threads.
pub type ShardedMapIter<'h, 's, K, V, R = Ebr> = Flatten<vec::IntoIter<ChainIter<'h, 's, K, V, R>>>;

#[cfg(test)]
mod tests {
    use super::*;
    use lf_core::MapHandle;
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
        let mut used = vec![[false; 8]; map.shard_count()];
        for k in 0..4000u64 {
            let i = map.shard_of(&k);
            used[i][map.shards[i].bucket_of(&k)] = true;
        }
        for (i, snap) in map.snapshot().into_iter().enumerate() {
            // The keys `shard_of` sends to shard i are the ones there.
            let routed = (0..4000u64).filter(|k| map.shard_of(k) == i).count();
            assert_eq!(snap.merged().occupancy, routed, "shard {i}");
            assert_eq!(snap.merged().ops as usize, routed, "shard {i}");
            let empty = used[i].iter().filter(|&&u| !u).count();
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
