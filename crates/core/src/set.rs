//! Set façade over any [`ConcurrentMap`] with unit values.

use std::fmt;

use lf_reclaim::Ebr;

use crate::{ConcurrentMap, FrList, MapHandle, SkipList};

/// A lock-free set of keys: a [`ConcurrentMap`] whose values are `()`.
///
/// Generic over the map, hence over its reclamation backend too;
/// [`ListSet`] and [`SkipSet`] name the two sorted ones.
///
/// # Examples
///
/// ```
/// use lf_core::{ListSet, SkipSet};
///
/// let set = ListSet::new();
/// let h = set.handle();
/// assert!(h.insert(10));
/// assert!(!h.insert(10));
/// assert!(h.contains(&10));
/// assert!(h.remove(&10));
/// assert!(!h.remove(&10));
///
/// let set = SkipSet::new();
/// let h = set.handle();
/// assert!(h.insert(3));
/// assert!(h.contains(&3));
/// ```
pub struct MapSet<M> {
    inner: M,
}

/// A lock-free sorted set of keys — [`FrList`] with unit values.
pub type ListSet<K, R = Ebr> = MapSet<FrList<K, (), R>>;
/// Per-thread handle to a [`ListSet`].
pub type SetHandle<'l, K, R = Ebr> = MapSetHandle<'l, FrList<K, (), R>>;
/// A lock-free sorted set of keys — [`SkipList`] with unit values.
pub type SkipSet<K, R = Ebr> = MapSet<SkipList<K, (), R>>;
/// Per-thread handle to a [`SkipSet`].
pub type SkipSetHandle<'l, K, R = Ebr> = MapSetHandle<'l, SkipList<K, (), R>>;

impl<M: fmt::Debug> fmt::Debug for MapSet<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MapSet").field("map", &self.inner).finish()
    }
}

impl<M: ConcurrentMap<Value = ()> + Default> Default for MapSet<M> {
    fn default() -> Self {
        Self::with_backend()
    }
}

impl<K> ListSet<K>
where
    K: Ord + Send + Sync + 'static,
{
    /// Create an empty list set over the default EBR backend.
    pub fn new() -> Self {
        Self::with_backend()
    }
}

impl<K> SkipSet<K>
where
    K: Ord + Send + Sync + 'static,
{
    /// Create an empty skip-list set over the default EBR backend.
    pub fn new() -> Self {
        Self::with_backend()
    }
}

impl<M: ConcurrentMap<Value = ()>> MapSet<M> {
    /// Create an empty set over the map's default construction (for
    /// the list and the skip list: an empty one over the backend `R`).
    pub fn with_backend() -> Self
    where
        M: Default,
    {
        MapSet {
            inner: M::default(),
        }
    }

    /// Register the calling thread and return an operation handle.
    pub fn handle(&self) -> MapSetHandle<'_, M> {
        MapSetHandle {
            inner: self.inner.handle(),
        }
    }

    /// Number of keys (exact when quiescent).
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the set is empty (same caveat as [`len`](Self::len)).
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// The underlying map.
    pub fn as_map(&self) -> &M {
        &self.inner
    }
}

/// Per-thread handle to a [`MapSet`].
pub struct MapSetHandle<'a, M: ConcurrentMap + 'a> {
    inner: M::Handle<'a>,
}

impl<'a, M: ConcurrentMap + 'a> fmt::Debug for MapSetHandle<'a, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("MapSetHandle")
    }
}

impl<'a, M: ConcurrentMap<Value = ()> + 'a> MapSetHandle<'a, M> {
    /// Insert `key`; returns `false` if it was already present.
    pub fn insert(&self, key: M::Key) -> bool {
        self.inner.insert(key, ()).is_ok()
    }

    /// Remove `key`; returns whether it was present.
    pub fn remove(&self, key: &M::Key) -> bool {
        self.inner.remove_with(key, |_| ()).is_some()
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &M::Key) -> bool {
        self.inner.contains(key)
    }
}
