/// The paper's dictionary (Insert, Delete, Search) as one interface:
/// a map shared by threads that each operate through their own
/// registered [`MapHandle`]. Every structure of the workspace implements
/// it beside its handle, whose `MapHandle` impl holds the operations.
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

/// The per-thread operations of a [`ConcurrentMap`]: each structure
/// writes `insert`, `remove_with` and `get_with` once, in its impl of
/// this trait; `get`, `remove` and `contains` are derived from them
/// here.
pub trait MapHandle<K, V> {
    /// Insert `key → value`.
    ///
    /// # Errors
    ///
    /// If `key` is already present, hands both back.
    fn insert(&self, key: K, value: V) -> Result<(), (K, V)>;

    /// Remove `key` and apply `f` to a borrow of its value (`None`, and
    /// `f` not called, if the key was absent or another remover won).
    fn remove_with<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T>;

    /// Look up `key` and apply `f` to a borrow of its value in place
    /// (`None`, and `f` not called, if the key is absent).
    fn get_with<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T>;

    /// Remove `key`, returning a clone of its value.
    fn remove(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.remove_with(key, V::clone)
    }

    /// Look up `key`, returning a clone of its value.
    fn get(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.get_with(key, V::clone)
    }

    /// Whether `key` is present.
    fn contains(&self, key: &K) -> bool {
        self.get_with(key, |_| ()).is_some()
    }

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

/// A borrowed handle is a handle: how the lock-based structures, each
/// its own handle, serve as their `ConcurrentMap::Handle` (`&Self`).
impl<K, V, H: MapHandle<K, V>> MapHandle<K, V> for &H {
    fn insert(&self, key: K, value: V) -> Result<(), (K, V)> {
        (**self).insert(key, value)
    }

    fn remove_with<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        (**self).remove_with(key, f)
    }

    fn get_with<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        (**self).get_with(key, f)
    }

    fn scan(&self, after: Option<&K>, visit: &mut dyn FnMut(&K, &V) -> bool) {
        (**self).scan(after, visit);
    }

    fn amortize_pins(&self, every: u32) {
        (**self).amortize_pins(every);
    }

    fn quiesce(&self) {
        (**self).quiesce();
    }

    fn flush_reclamation(&self) {
        (**self).flush_reclamation();
    }
}
