use std::ops::Bound;

use lf_reclaim::{Publish, Reclaim};

use crate::{merged_range, FrList, ListHandle, SkipList, SkipListHandle};

/// The paper's dictionary (Insert, Delete, Search) as one interface:
/// a map shared by threads that each operate through their own
/// registered [`MapHandle`]. Every structure of the workspace implements
/// it by forwarding to its inherent methods.
pub trait ConcurrentMap: Send + Sync {
    /// Key type.
    type Key;
    /// Value type.
    type Value;
    /// The per-thread handle (usually not `Send`: it owns the thread's
    /// registration with the structure's reclamation domain).
    type Handle<'a>: MapHandle<Self::Key, Self::Value>
    where
        Self: 'a;

    /// Whether [`MapHandle::scan`] visits pairs in ascending key order.
    /// Hash-partitioned structures iterate in bucket order, so they keep
    /// the default `false` and their `scan` visits nothing.
    const ORDERED: bool = false;

    /// Register the calling thread.
    fn handle(&self) -> Self::Handle<'_>;

    /// Number of keys (racy-fresh under concurrency; exact when
    /// quiescent).
    fn len(&self) -> usize;

    /// Whether the map holds no keys (same caveat as [`len`](Self::len)).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The partition (shard or bucket) `key` routes to, for structures
    /// that partition their keys; `None` for a single structure.
    fn partition_of(&self, key: &Self::Key) -> Option<usize> {
        let _ = key;
        None
    }
}

/// The per-thread operations of a [`ConcurrentMap`].
pub trait MapHandle<K, V> {
    /// Insert `key → value`.
    ///
    /// # Errors
    ///
    /// If `key` is already present, hands both back.
    fn insert(&self, key: K, value: V) -> Result<(), (K, V)>;

    /// Remove `key` and apply `f` to a borrow of its value (`None`, and
    /// `f` not called, if the key was absent).
    fn remove_with<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T>;

    /// Look up `key` and apply `f` to a borrow of its value in place
    /// (`None`, and `f` not called, if the key is absent).
    fn get_with<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T>;

    /// Show `visit` the pairs with keys strictly after `after` (`None`:
    /// from the smallest key) in ascending key order, until it returns
    /// `false`. Unordered structures visit nothing (see
    /// [`ConcurrentMap::ORDERED`]).
    fn scan(&self, after: Option<&K>, visit: &mut dyn FnMut(&K, &V) -> bool) {
        let _ = (after, visit);
    }

    /// Share one epoch announcement across `every` consecutive ops.
    /// Structures that take no epoch pins (locks, hazard pointers) keep
    /// this default, and the two below, which do nothing.
    fn amortize_pins(&self, every: u32) {
        let _ = every;
    }

    /// Withdraw the standing epoch announcement (idle thread).
    fn quiesce(&self) {}

    /// Quiesce and opportunistically advance reclamation.
    fn flush_reclamation(&self) {}
}

impl<K, V, R> ConcurrentMap for FrList<K, V, R>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    type Key = K;
    type Value = V;
    type Handle<'a>
        = ListHandle<'a, K, V, R>
    where
        Self: 'a;

    const ORDERED: bool = true;

    fn handle(&self) -> Self::Handle<'_> {
        FrList::handle(self)
    }

    fn len(&self) -> usize {
        FrList::len(self)
    }
}

impl<K, V, R> MapHandle<K, V> for ListHandle<'_, K, V, R>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    fn insert(&self, key: K, value: V) -> Result<(), (K, V)> {
        ListHandle::insert(self, key, value)
    }

    fn remove_with<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        ListHandle::remove_with(self, key, f)
    }

    fn get_with<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        ListHandle::get_with(self, key, f)
    }

    fn scan(&self, after: Option<&K>, visit: &mut dyn FnMut(&K, &V) -> bool) {
        // The list iterates in key order; skip to strictly after the
        // cursor (no positioned descent on a list).
        let from_cursor = self
            .iter()
            .skip_while(|(k, _)| matches!(after, Some(a) if k <= a));
        for (k, v) in from_cursor {
            if !visit(&k, &v) {
                break;
            }
        }
    }

    fn amortize_pins(&self, every: u32) {
        ListHandle::amortize_pins(self, every);
    }

    fn quiesce(&self) {
        ListHandle::quiesce(self);
    }

    fn flush_reclamation(&self) {
        ListHandle::flush_reclamation(self);
    }
}

impl<K, V, R> ConcurrentMap for SkipList<K, V, R>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    type Key = K;
    type Value = V;
    type Handle<'a>
        = SkipListHandle<'a, K, V, R>
    where
        Self: 'a;

    const ORDERED: bool = true;

    fn handle(&self) -> Self::Handle<'_> {
        SkipList::handle(self)
    }

    fn len(&self) -> usize {
        SkipList::len(self)
    }
}

impl<K, V, R> MapHandle<K, V> for SkipListHandle<'_, K, V, R>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    fn insert(&self, key: K, value: V) -> Result<(), (K, V)> {
        SkipListHandle::insert(self, key, value)
    }

    fn remove_with<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        SkipListHandle::remove_with(self, key, f)
    }

    fn get_with<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        SkipListHandle::get_with(self, key, f)
    }

    fn scan(&self, after: Option<&K>, visit: &mut dyn FnMut(&K, &V) -> bool) {
        // The sharded tier's walk, over this one list.
        let start = after.map_or(Bound::Unbounded, Bound::Excluded);
        merged_range(&[self], start, Bound::Unbounded, visit);
    }

    fn amortize_pins(&self, every: u32) {
        SkipListHandle::amortize_pins(self, every);
    }

    fn quiesce(&self) {
        SkipListHandle::quiesce(self);
    }

    fn flush_reclamation(&self) {
        SkipListHandle::flush_reclamation(self);
    }
}
