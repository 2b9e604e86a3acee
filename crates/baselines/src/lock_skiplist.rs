//! Pugh's skip list under a global `RwLock` — the lock-based skip list
//! comparator (readers run in parallel; any writer excludes everyone).

use std::fmt;

use lf_core::{ConcurrentMap, MapHandle};
use parking_lot::RwLock;

use crate::{metered, SeqSkipList};

/// A reader-writer-locked skip list.
///
/// # Examples
///
/// ```
/// use lf_baselines::LockSkipList;
///
/// let sl = LockSkipList::new();
/// assert!(sl.insert(1, "one").is_ok());
/// assert_eq!(sl.get(&1), Some("one"));
/// assert_eq!(sl.remove(&1), Some("one"));
/// ```
pub struct LockSkipList<K, V> {
    inner: RwLock<SeqSkipList<K, V>>,
}

impl<K, V> fmt::Debug for LockSkipList<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LockSkipList")
            .field("len", &self.inner.read().len())
            .finish()
    }
}

impl<K: Ord + Send + Sync, V: Send + Sync> Default for LockSkipList<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Send + Sync, V: Send + Sync> LockSkipList<K, V> {
    /// Create an empty skip list.
    pub fn new() -> Self {
        LockSkipList {
            inner: RwLock::new(SeqSkipList::new()),
        }
    }

    /// Create with a deterministic coin-flip seed.
    pub fn with_seed(seed: u64) -> Self {
        LockSkipList {
            inner: RwLock::new(SeqSkipList::with_seed(seed)),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// Whether the skip list is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.read().is_empty()
    }

    /// Insert `key → value`; hands both back if `key` is present.
    pub fn insert(&self, key: K, value: V) -> Result<(), (K, V)> {
        metered(|| self.inner.write().insert(key, value))
    }

    /// Remove `key`, returning its value. The skip list owns its nodes
    /// outright, so this is the removal body: the value moves out.
    pub fn remove(&self, key: &K) -> Option<V> {
        metered(|| self.inner.write().remove(key))
    }

    /// Remove `key` and apply `f` to a borrow of its value.
    pub fn remove_with<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        self.remove(key).map(|v| f(&v))
    }

    /// Look up `key` and apply `f` to a borrow of its value (under the
    /// read lock).
    pub fn get_with<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        metered(|| self.inner.read().get(key).map(f))
    }

    /// Look up `key`, cloning its value.
    pub fn get(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.get_with(key, V::clone)
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &K) -> bool {
        self.get_with(key, |_| ()).is_some()
    }
}

impl<K, V> ConcurrentMap for LockSkipList<K, V>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    type Key = K;
    type Value = V;
    type Handle<'a>
        = &'a Self
    where
        Self: 'a;

    fn handle(&self) -> &Self {
        self
    }

    fn len(&self) -> usize {
        LockSkipList::len(self)
    }
}

/// The lock is the whole protocol: no handle state, no pins.
impl<K, V> MapHandle<K, V> for &LockSkipList<K, V>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    fn insert(&self, key: K, value: V) -> Result<(), (K, V)> {
        LockSkipList::insert(self, key, value)
    }

    fn remove_with<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        LockSkipList::remove_with(self, key, f)
    }

    fn get_with<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        LockSkipList::get_with(self, key, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn sequential_roundtrip() {
        let sl = LockSkipList::with_seed(5);
        for k in 0..100u32 {
            assert!(sl.insert(k, k).is_ok());
        }
        assert_eq!(sl.insert(50, 0), Err((50, 0)));
        assert_eq!(sl.len(), 100);
        assert_eq!(sl.get(&99), Some(99));
        assert_eq!(sl.remove(&99), Some(99));
        assert!(!sl.contains(&99));
    }

    #[test]
    fn concurrent_readers_and_writers() {
        let sl = Arc::new(LockSkipList::with_seed(9));
        for k in 0..64u32 {
            assert!(sl.insert(k, k).is_ok());
        }
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let sl = sl.clone();
                s.spawn(move || {
                    for r in 0..300u32 {
                        let k = (r * (t + 1)) % 64;
                        match t {
                            0 => {
                                let _ = sl.insert(k + 64, r);
                            }
                            1 => {
                                let _ = sl.remove(&(k + 64));
                            }
                            _ => {
                                let _ = sl.contains(&k);
                            }
                        }
                    }
                });
            }
        });
        for k in 0..64u32 {
            assert!(sl.contains(&k));
        }
    }
}
