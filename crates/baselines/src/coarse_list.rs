//! Sorted singly-linked list under one global mutex.
//!
//! The simplest correct comparator: every operation takes the same
//! lock, so there is no parallelism at all and a delayed lock holder
//! delays everyone — the failure mode lock-free structures exist to
//! avoid.

use std::fmt;

use lf_core::{ConcurrentMap, MapHandle};
use parking_lot::Mutex;

use crate::metered;

struct Node<K, V> {
    key: K,
    value: V,
    next: Option<Box<Node<K, V>>>,
}

/// A coarse-grained locked sorted list.
///
/// # Examples
///
/// ```
/// use lf_baselines::CoarseLockList;
///
/// let list = CoarseLockList::new();
/// assert!(list.insert(2, "two").is_ok());
/// assert!(list.insert(1, "one").is_ok());
/// assert_eq!(list.insert(1, "dup"), Err((1, "dup")));
/// assert_eq!(list.get(&1), Some("one"));
/// assert_eq!(list.remove(&2), Some("two"));
/// ```
pub struct CoarseLockList<K, V> {
    inner: Mutex<ListInner<K, V>>,
}

struct ListInner<K, V> {
    head: Option<Box<Node<K, V>>>,
    len: usize,
}

impl<K, V> fmt::Debug for CoarseLockList<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CoarseLockList")
            .field("len", &self.len())
            .finish()
    }
}

impl<K: Ord, V> Default for CoarseLockList<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> CoarseLockList<K, V> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.inner.lock().len
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: Ord, V> CoarseLockList<K, V> {
    /// Create an empty list.
    pub fn new() -> Self {
        CoarseLockList {
            inner: Mutex::new(ListInner { head: None, len: 0 }),
        }
    }

    /// Insert `key → value`; hands both back if `key` is present.
    pub fn insert(&self, key: K, value: V) -> Result<(), (K, V)> {
        metered(|| {
            let mut inner = self.inner.lock();
            let mut slot = &mut inner.head;
            loop {
                match slot {
                    Some(node) if node.key < key => {
                        lf_metrics::record_curr_update();
                        slot = &mut slot.as_mut().unwrap().next;
                    }
                    Some(node) if node.key == key => return Err((key, value)),
                    _ => break,
                }
            }
            let next = slot.take();
            *slot = Some(Box::new(Node { key, value, next }));
            inner.len += 1;
            Ok(())
        })
    }

    /// Remove `key`, returning its value. The list owns its nodes
    /// outright, so this is the removal body: the value moves out.
    pub fn remove(&self, key: &K) -> Option<V> {
        metered(|| {
            let mut inner = self.inner.lock();
            let mut slot = &mut inner.head;
            loop {
                match slot {
                    Some(node) if node.key < *key => {
                        lf_metrics::record_curr_update();
                        slot = &mut slot.as_mut().unwrap().next;
                    }
                    Some(node) if node.key == *key => {
                        let removed = slot.take().unwrap();
                        *slot = removed.next;
                        inner.len -= 1;
                        return Some(removed.value);
                    }
                    _ => return None,
                }
            }
        })
    }

    /// Remove `key` and apply `f` to a borrow of its value.
    pub fn remove_with<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        self.remove(key).map(|v| f(&v))
    }

    /// Look up `key` and apply `f` to a borrow of its value (under
    /// the lock).
    pub fn get_with<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        metered(|| {
            let inner = self.inner.lock();
            let mut cur = inner.head.as_deref();
            while let Some(node) = cur {
                if node.key == *key {
                    return Some(f(&node.value));
                }
                if node.key > *key {
                    return None;
                }
                lf_metrics::record_curr_update();
                cur = node.next.as_deref();
            }
            None
        })
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

impl<K, V> ConcurrentMap for CoarseLockList<K, V>
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
        CoarseLockList::len(self)
    }
}

/// The lock is the whole protocol: no handle state, no pins.
impl<K, V> MapHandle<K, V> for &CoarseLockList<K, V>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    fn insert(&self, key: K, value: V) -> Result<(), (K, V)> {
        CoarseLockList::insert(self, key, value)
    }

    fn remove_with<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        CoarseLockList::remove_with(self, key, f)
    }

    fn get_with<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        CoarseLockList::get_with(self, key, f)
    }
}

impl<K, V> Drop for CoarseLockList<K, V> {
    fn drop(&mut self) {
        // Iterative teardown: the default recursive drop of a long
        // `Option<Box<Node>>` chain can overflow the stack.
        let mut cur = self.inner.get_mut().head.take();
        while let Some(mut node) = cur {
            cur = node.next.take();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn sequential_roundtrip() {
        let list = CoarseLockList::new();
        for k in [5, 3, 8, 1, 9] {
            assert!(list.insert(k, k * 2).is_ok());
        }
        assert_eq!(list.insert(3, 0), Err((3, 0)));
        assert_eq!(list.len(), 5);
        assert_eq!(list.get(&8), Some(16));
        assert_eq!(list.remove(&8), Some(16));
        assert_eq!(list.remove(&8), None);
        assert!(!list.contains(&8));
        assert!(list.contains(&9));
    }

    #[test]
    fn long_list_drop_does_not_overflow() {
        let list = CoarseLockList::new();
        // Descending inserts keep each insert O(1) while still
        // building a 100k-node chain for the drop to tear down.
        for k in (0..100_000u32).rev() {
            assert!(list.insert(k, ()).is_ok());
        }
        drop(list); // must not blow the stack
    }

    #[test]
    fn concurrent_exclusive_counts() {
        let list = Arc::new(CoarseLockList::new());
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let list = list.clone();
                s.spawn(move || {
                    for i in 0..200u32 {
                        assert!(list.insert(t * 200 + i, ()).is_ok());
                    }
                });
            }
        });
        assert_eq!(list.len(), 800);
    }
}
