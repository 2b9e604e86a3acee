//! The ordered tier: [`Shard`] for [`SkipList`], and the methods only
//! [`ShardedSkipList`] has.

use std::hash::Hash;
use std::ops::{Bound, RangeBounds};

use lf_core::skiplist::{merged_range, SkipList, SkipListHandle};
use lf_reclaim::{Pod, Publish, Reclaim};

use crate::DEFAULT_SHARDS;
use crate::{router, sealed, Shard, Sharded, ShardedHandle, ShardedSkipList, ShardedSnapshot};

impl<K, V, R> sealed::Sealed for SkipList<K, V, R> where R: Reclaim {}

impl<K, V, R> Shard for SkipList<K, V, R>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    #[inline]
    fn shard_of_hash(hash: u64, mask: usize) -> usize {
        router::shard_of_hash(hash, mask)
    }

    fn try_read_hashed(h: &SkipListHandle<'_, K, V, R>, _hash: u64, key: &K) -> Option<V>
    where
        K: Pod,
        V: Pod,
    {
        h.try_read(key)
    }

    /// The k-way merged range from strictly after `after`.
    fn scan(
        handles: &[SkipListHandle<'_, K, V, R>],
        after: Option<&K>,
        visit: &mut dyn FnMut(&K, &V) -> bool,
    ) {
        let start = after.map_or(Bound::Unbounded, Bound::Excluded);
        merged_range(handles, start, Bound::Unbounded, visit);
    }

    fn validate_quiescent(&self) {
        SkipList::validate_quiescent(self);
    }
}

impl<K, V> ShardedSkipList<K, V>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    /// A map with `shards` partitions (power of two) at the default
    /// per-shard level budget, over the default EBR backend.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or not a power of two.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        Self::with_backend(shards)
    }
}

impl<K, V, R> ShardedSkipList<K, V, R>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    /// A map with `shards` partitions over the reclamation backend
    /// `R`, at the default per-shard level budget.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or not a power of two.
    #[must_use]
    pub fn with_backend(shards: usize) -> Self {
        Sharded::build(shards, SkipList::with_backend(), SkipList::new_sibling)
    }

    /// The reclamation domain shared by every shard.
    #[must_use]
    pub fn domain(&self) -> &R::Domain {
        self.shards[0].domain()
    }

    /// Per-shard op counts and occupancy; see [`ShardedSnapshot`].
    #[must_use]
    pub fn snapshot(&self) -> ShardedSnapshot {
        self.shard_stats()
    }
}

impl<K, V, R> Default for ShardedSkipList<K, V, R>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    fn default() -> Self {
        Self::with_backend(DEFAULT_SHARDS)
    }
}

impl<K, V, R> ShardedHandle<'_, K, V, R>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    /// Ordered scan over the union of all shards: calls
    /// `visitor(key, value)` for each pair of the range in strictly
    /// ascending key order and returns the number of pairs visited
    /// (the visitor returns `false` to stop early).
    ///
    /// Implemented as a k-way merge of per-shard level-1 traversals
    /// under a single amortized epoch pin
    /// ([`merged_range`]); each cursor helps
    /// physical deletion as a paper search does. **No atomic snapshot
    /// across (or within) shards**: keys present for the scan's whole
    /// duration appear exactly once, keys absent throughout never
    /// appear, and concurrent insertions/deletions may or may not be
    /// observed. A scan is not counted in the per-shard op counts.
    pub fn range<B, F>(&self, range: B, visitor: F) -> usize
    where
        B: RangeBounds<K>,
        F: FnMut(&K, &V) -> bool,
    {
        merged_range(
            &self.handles,
            range.start_bound(),
            range.end_bound(),
            visitor,
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::ShardedSkipList;
    use lf_core::MapHandle;
    use lf_vbr::Vbr;

    #[test]
    fn shards_share_one_domain() {
        let map: ShardedSkipList<u64, u64> = ShardedSkipList::new(4);
        for w in map.shards.windows(2) {
            assert!(w[0].shares_domain_with(&w[1]));
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn zero_shards_rejected() {
        let _ = ShardedSkipList::<u64, u64>::new(0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = ShardedSkipList::<u64, u64>::new(6);
    }

    #[test]
    fn point_ops_route_consistently() {
        let map: ShardedSkipList<u64, u64> = ShardedSkipList::new(8);
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
    fn range_is_sorted_and_complete() {
        let map: ShardedSkipList<u64, u64> = ShardedSkipList::new(8);
        let h = map.handle();
        for k in 0..300u64 {
            assert!(h.insert(k, k).is_ok());
        }
        let mut seen = Vec::new();
        let n = h.range(10..=20, |k, v| {
            assert_eq!(k, v);
            seen.push(*k);
            true
        });
        assert_eq!(n, 11);
        assert_eq!(seen, (10..=20).collect::<Vec<_>>());

        // Unbounded scan covers everything, in order, exactly once.
        let mut all = Vec::new();
        h.range(.., |k, _| {
            all.push(*k);
            true
        });
        assert_eq!(all, (0..300).collect::<Vec<_>>());

        // Early stop.
        let mut count = 0;
        let n = h.range(.., |_, _| {
            count += 1;
            count < 5
        });
        assert_eq!(n, 5);
    }

    #[test]
    fn snapshot_attributes_ops_to_shards() {
        let map: ShardedSkipList<u64, u64> = ShardedSkipList::new(4);
        let h = map.handle();
        for k in 0..400u64 {
            assert!(h.insert(k, k).is_ok());
        }
        let snap = map.snapshot();
        assert_eq!(snap.per_partition.len(), 4);
        let merged = snap.merged();
        assert_eq!(merged.ops, 400);
        assert_eq!(merged.occupancy, 400);
        // Sequential keys must spread: no shard may own >60% of ops.
        assert!(snap.max_ops_share() < 0.6, "{:?}", snap);
        // Every op routed to shard i bumped shard i's count only.
        for (i, s) in snap.per_partition.iter().enumerate() {
            assert_eq!(s.ops as usize, s.occupancy, "shard {i}");
        }
    }

    #[test]
    fn single_shard_degenerates_to_plain_list() {
        let map: ShardedSkipList<u64, u64> = ShardedSkipList::new(1);
        let h = map.handle();
        for k in (0..100u64).rev() {
            assert!(h.insert(k, k).is_ok());
        }
        let mut seen = Vec::new();
        h.range(.., |k, _| {
            seen.push(*k);
            true
        });
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
        let snap = map.snapshot();
        assert_eq!(snap.per_partition[0].ops, 100);
    }

    #[test]
    fn vbr_backend_end_to_end() {
        let map: ShardedSkipList<u64, u64, Vbr> = ShardedSkipList::with_backend(4);
        let h = map.handle();
        for k in 0..300u64 {
            assert!(h.insert(k, k * 3).is_ok());
        }
        for k in 0..300u64 {
            // Pin-free read path routes like the pinned ops.
            assert_eq!(h.try_read(&k), Some(k * 3));
        }
        assert_eq!(h.try_read(&1000), None);
        let mut seen = Vec::new();
        h.range(.., |k, _| {
            seen.push(*k);
            true
        });
        assert_eq!(seen, (0..300).collect::<Vec<_>>());
        for k in 0..300u64 {
            assert_eq!(h.remove(&k), Some(k * 3));
            assert_eq!(h.try_read(&k), None);
        }
        assert!(map.is_empty());
        map.validate_quiescent();
    }
}
