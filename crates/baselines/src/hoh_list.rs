//! Sorted list with hand-over-hand (lock-coupling) per-node locking.
//!
//! Traversal holds at most two node locks at a time, acquiring the next
//! node's lock before releasing the current one, so disjoint operations
//! on different parts of the list can proceed in parallel — but every
//! traversal still serializes behind any operation ahead of it, and a
//! stalled lock holder blocks everyone behind it.

use std::fmt;
use std::sync::Arc;

use lf_core::{ConcurrentMap, MapHandle};
use parking_lot::Mutex;

use crate::{metered, Bound};

/// A held lock on some node's `next` pointer.
type NextGuard<'a, K, V> = parking_lot::MutexGuard<'a, Option<Arc<Node<K, V>>>>;

struct Node<K, V> {
    key: Bound<K>,
    value: Option<V>,
    next: Mutex<Option<Arc<Node<K, V>>>>,
}

/// A hand-over-hand locked sorted list.
///
/// # Examples
///
/// ```
/// use lf_baselines::HohLockList;
/// use lf_core::MapHandle;
///
/// let list = HohLockList::new();
/// assert!(list.insert(1, "one").is_ok());
/// assert!(list.contains(&1));
/// assert_eq!(list.remove(&1), Some("one"));
/// assert!(list.is_empty());
/// ```
pub struct HohLockList<K, V> {
    head: Arc<Node<K, V>>,
    len: std::sync::atomic::AtomicUsize,
}

impl<K, V> fmt::Debug for HohLockList<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HohLockList")
            .field("len", &self.len())
            .finish()
    }
}

impl<K: Ord, V> Default for HohLockList<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> HohLockList<K, V> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: Ord, V> HohLockList<K, V> {
    /// Create an empty list.
    pub fn new() -> Self {
        let tail = Arc::new(Node {
            key: Bound::PosInf,
            value: None,
            next: Mutex::new(None),
        });
        let head = Arc::new(Node {
            key: Bound::NegInf,
            value: None,
            next: Mutex::new(Some(tail)),
        });
        HohLockList {
            head,
            len: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// Lock-couple to the node pair `(pred, curr)` with `pred.key < k
    /// <= curr.key`, returning `pred` and its held next-guard.
    ///
    /// The returned guard locks `pred.next`; `curr` is the node behind
    /// it.
    fn find<'a>(&'a self, key: &K) -> (Arc<Node<K, V>>, NextGuard<'a, K, V>) {
        // Hand-over-hand: hold pred's next-lock, peek curr; to advance,
        // lock curr's next, then release pred's.
        let mut pred = self.head.clone();
        // SAFETY of lifetimes: guards are re-created per node; we use a
        // raw-pointer-free approach by transmuting lifetimes via Arc
        // ownership — the guard borrows the node, which the Arc keeps
        // alive for the duration.
        // SAFETY: lifetime-only transmute — the guard borrows the
        // node, which the `Arc` keeps alive for 'a (see comment above).
        let mut guard = unsafe {
            std::mem::transmute::<NextGuard<'_, K, V>, NextGuard<'a, K, V>>(pred.next.lock())
        };
        loop {
            let advance = {
                let curr = guard.as_ref().expect("interior node always has next");
                match &curr.key {
                    Bound::PosInf => false,
                    Bound::NegInf => unreachable!("head is never a successor"),
                    Bound::Key(ck) => ck < key,
                }
            };
            if !advance {
                return (pred, guard);
            }
            let curr = guard.as_ref().unwrap().clone();
            lf_metrics::record_curr_update();
            // SAFETY: as above — lifetime-only transmute, node kept
            // alive by the `Arc` chain.
            let next_guard = unsafe {
                std::mem::transmute::<NextGuard<'_, K, V>, NextGuard<'a, K, V>>(curr.next.lock())
            };
            drop(guard); // release pred only after curr is locked
            pred = curr;
            guard = next_guard;
        }
    }
}

impl<K, V> ConcurrentMap for HohLockList<K, V>
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
        HohLockList::len(self)
    }
}

/// The node locks are the whole protocol: no handle state, no pins.
impl<K: Ord, V> MapHandle<K, V> for HohLockList<K, V> {
    /// Insert `key → value`; hands both back if `key` is present.
    fn insert(&self, key: K, value: V) -> Result<(), (K, V)> {
        metered(|| {
            let (_pred, mut guard) = self.find(&key);
            let curr = guard.as_ref().unwrap().clone();
            if curr.key.as_key() == Some(&key) {
                return Err((key, value));
            }
            let node = Arc::new(Node {
                key: Bound::Key(key),
                value: Some(value),
                next: Mutex::new(Some(curr)),
            });
            *guard = Some(node);
            self.len.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            Ok(())
        })
    }

    /// Remove `key` and apply `f` to a borrow of its value (under the
    /// predecessor's lock).
    fn remove_with<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        metered(|| {
            let (_pred, mut guard) = self.find(key);
            let curr = guard.as_ref().unwrap().clone();
            if curr.key.as_key() != Some(key) {
                return None;
            }
            let next = curr.next.lock().clone();
            *guard = next;
            self.len.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
            curr.value.as_ref().map(f)
        })
    }

    /// Look up `key` and apply `f` to a borrow of its value (under the
    /// predecessor's lock).
    fn get_with<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        metered(|| {
            let (_pred, guard) = self.find(key);
            let curr = guard.as_ref().unwrap();
            (curr.key.as_key() == Some(key)).then(|| f(curr.value.as_ref().unwrap()))
        })
    }
}

impl<K, V> Drop for HohLockList<K, V> {
    fn drop(&mut self) {
        // Iterative teardown to avoid recursive Arc drops on long lists.
        let mut cur = self.head.next.lock().take();
        while let Some(node) = cur {
            cur = node.next.lock().take();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_roundtrip() {
        let list = HohLockList::new();
        for k in [4, 2, 7, 1] {
            assert!(list.insert(k, k * 10).is_ok());
        }
        assert_eq!(list.insert(2, 0), Err((2, 0)));
        assert_eq!(list.len(), 4);
        assert_eq!(list.get(&7), Some(70));
        assert_eq!(list.remove(&7), Some(70));
        assert_eq!(list.remove(&7), None);
        assert!(list.contains(&4));
        assert!(!list.contains(&7));
    }

    #[test]
    #[cfg_attr(miri, ignore = "a drop test needs a long chain: too slow interpreted")]
    fn long_list_drop_does_not_overflow() {
        let list = HohLockList::new();
        for k in (0..50_000u32).rev() {
            assert!(list.insert(k, ()).is_ok());
        }
        drop(list);
    }

    #[test]
    fn concurrent_disjoint_inserts() {
        let list = std::sync::Arc::new(HohLockList::new());
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let list = list.clone();
                s.spawn(move || {
                    for i in 0..150u32 {
                        assert!(list.insert(t * 150 + i, ()).is_ok());
                    }
                });
            }
        });
        assert_eq!(list.len(), 600);
    }

    #[test]
    fn concurrent_mixed_ops() {
        let list = std::sync::Arc::new(HohLockList::new());
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let list = list.clone();
                s.spawn(move || {
                    for r in 0..200u32 {
                        let k = (r * (t + 2)) % 32;
                        match t % 2 {
                            0 => {
                                let _ = list.insert(k, r);
                            }
                            _ => {
                                let _ = list.remove(&k);
                            }
                        }
                    }
                });
            }
        });
        for k in 0..32u32 {
            let _ = list.contains(&k);
        }
    }
}
