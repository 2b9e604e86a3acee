//! Pugh's sequential skip list (*Skip lists: a probabilistic
//! alternative to balanced trees*, CACM 1990) — the substrate under the
//! lock-based comparator, implemented with the original
//! array-of-forward-pointers node layout.
//!
//! Deliberately records **no** `lf_metrics` ops: it is not a benchmark
//! adapter itself but the structure inside
//! [`LockSkipList`](crate::LockSkipList), whose public methods own the
//! `op_begin`/`op_end` boundary. Counting here too would double-count
//! every lock-skiplist operation.

use std::fmt;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const MAX_LEVEL: usize = 32;

struct Node<K, V> {
    key: K,
    value: V,
    /// `forward[i]` is the next node at level `i + 1`.
    forward: Vec<*mut Node<K, V>>,
}

/// A single-threaded skip list (Pugh 1990).
///
/// Deterministic when built with [`SeqSkipList::with_seed`]; used under
/// a `RwLock` by [`LockSkipList`](crate::LockSkipList).
///
/// # Examples
///
/// ```
/// use lf_baselines::SeqSkipList;
///
/// let mut sl = SeqSkipList::new();
/// assert!(sl.insert(3, "three").is_ok());
/// assert_eq!(sl.insert(3, "dup"), Err((3, "dup")));
/// assert_eq!(sl.get(&3), Some(&"three"));
/// assert_eq!(sl.remove(&3), Some("three"));
/// ```
pub struct SeqSkipList<K, V> {
    /// `head[i]` is the first node at level `i + 1` (null if none).
    head: Vec<*mut Node<K, V>>,
    level: usize,
    len: usize,
    rng: SmallRng,
}

// SAFETY: `&mut self` on all mutators; raw pointers are owned solely by
// this structure.
unsafe impl<K: Send, V: Send> Send for SeqSkipList<K, V> {}
// SAFETY: same argument as `Send` above; `&self` methods only read.
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for SeqSkipList<K, V> {}

impl<K, V> fmt::Debug for SeqSkipList<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SeqSkipList")
            .field("len", &self.len)
            .field("level", &self.level)
            .finish()
    }
}

impl<K: Ord, V> Default for SeqSkipList<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> SeqSkipList<K, V> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the skip list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<K: Ord, V> SeqSkipList<K, V> {
    /// Create an empty skip list seeded from the OS.
    pub fn new() -> Self {
        Self::with_seed(rand::random())
    }

    /// Create an empty skip list with a deterministic coin-flip seed.
    pub fn with_seed(seed: u64) -> Self {
        SeqSkipList {
            head: vec![std::ptr::null_mut(); MAX_LEVEL],
            level: 1,
            len: 0,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    fn random_level(&mut self) -> usize {
        let mut lvl = 1;
        while lvl < MAX_LEVEL && self.rng.gen::<bool>() {
            lvl += 1;
        }
        lvl
    }

    /// Per-level predecessors of `key`: `update[i]` is the last node at
    /// level `i + 1` whose key is `< key` (null = level head).
    fn predecessors(&self, key: &K) -> Vec<*mut Node<K, V>> {
        let mut update: Vec<*mut Node<K, V>> = vec![std::ptr::null_mut(); self.level];
        for i in (0..self.level).rev() {
            let mut cur = if i + 1 < self.level && !update[i + 1].is_null() {
                update[i + 1]
            } else {
                std::ptr::null_mut()
            };
            // SAFETY: every non-null pointer in the structure is a live
            // Box-allocated node owned exclusively by this list.
            let mut next = if cur.is_null() {
                self.head[i]
            } else {
                // SAFETY: as above.
                unsafe { (&(*cur).forward)[i] }
            };
            // SAFETY: as above.
            while !next.is_null() && unsafe { &(*next).key } < key {
                lf_metrics::record_curr_update();
                cur = next;
                // SAFETY: as above.
                next = unsafe { (&(*next).forward)[i] };
            }
            update[i] = cur;
        }
        update
    }

    fn next_at(&self, pred: *mut Node<K, V>, level: usize) -> *mut Node<K, V> {
        if pred.is_null() {
            self.head[level]
        } else {
            // SAFETY: non-null pointers in the structure are live nodes
            // owned exclusively by this list.
            unsafe { (&(*pred).forward)[level] }
        }
    }

    /// Insert `key → value`; hands both back if `key` is present.
    #[allow(clippy::needless_range_loop)] // indices mirror Pugh's pseudocode
    pub fn insert(&mut self, key: K, value: V) -> Result<(), (K, V)> {
        let update = self.predecessors(&key);
        let at_bottom = self.next_at(update[0], 0);
        // SAFETY: non-null pointers in the structure are live nodes.
        if !at_bottom.is_null() && unsafe { &(*at_bottom).key } == &key {
            return Err((key, value));
        }
        let lvl = self.random_level();
        let node = Box::into_raw(Box::new(Node {
            key,
            value,
            forward: vec![std::ptr::null_mut(); lvl],
        }));
        for i in 0..lvl.min(self.level) {
            let pred = update[i];
            // SAFETY: `node` was just allocated; `&mut self` gives
            // exclusive access.
            unsafe {
                (&mut (*node).forward)[i] = self.next_at(pred, i);
            }
            if pred.is_null() {
                self.head[i] = node;
            } else {
                // SAFETY: `pred` is a live node; `&mut self` gives
                // exclusive access.
                unsafe { (&mut (*pred).forward)[i] = node };
            }
        }
        // New levels above the current height hang directly off the head.
        for i in self.level..lvl {
            self.head[i] = node;
        }
        self.level = self.level.max(lvl);
        self.len += 1;
        Ok(())
    }

    /// Remove `key`, returning its value.
    #[allow(clippy::manual_range_contains)]
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let update = self.predecessors(key);
        let target = self.next_at(update[0], 0);
        // SAFETY: non-null pointers in the structure are live nodes.
        if target.is_null() || unsafe { &(*target).key } != key {
            return None;
        }
        // SAFETY: as above.
        let height = unsafe { (*target).forward.len() };
        for i in 0..height.min(self.level) {
            let pred = update.get(i).copied().unwrap_or(std::ptr::null_mut());
            if self.next_at(pred, i) == target {
                // SAFETY: `target` is a live node (checked above).
                let next = unsafe { (&(*target).forward)[i] };
                if pred.is_null() {
                    self.head[i] = next;
                } else {
                    // SAFETY: `pred` is a live node; `&mut self` gives
                    // exclusive access.
                    unsafe { (&mut (*pred).forward)[i] = next };
                }
            }
        }
        while self.level > 1 && self.head[self.level - 1].is_null() {
            self.level -= 1;
        }
        self.len -= 1;
        // SAFETY: `target` is unlinked from every level above, so this
        // is the sole remaining owner of the Box allocation.
        let boxed = unsafe { Box::from_raw(target) };
        Some(boxed.value)
    }

    /// Borrow the value for `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        let update = self.predecessors(key);
        let target = self.next_at(update[0], 0);
        // SAFETY: non-null pointers in the structure are live nodes.
        if target.is_null() || unsafe { &(*target).key } != key {
            None
        } else {
            // SAFETY: as above; the borrow is tied to `&self`.
            Some(unsafe { &(*target).value })
        }
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Iterate in key order.
    pub fn iter(&self) -> SeqIter<'_, K, V> {
        SeqIter {
            cur: self.head[0],
            _marker: std::marker::PhantomData,
        }
    }
}

/// Borrowing in-order iterator over a [`SeqSkipList`].
pub struct SeqIter<'a, K, V> {
    cur: *mut Node<K, V>,
    _marker: std::marker::PhantomData<&'a ()>,
}

impl<'a, K: 'a, V: 'a> Iterator for SeqIter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cur.is_null() {
            return None;
        }
        // SAFETY: `cur` is non-null (checked) and borrowed from a live
        // list, which keeps its nodes alive for 'a.
        let node = unsafe { &*self.cur };
        self.cur = node.forward[0];
        Some((&node.key, &node.value))
    }
}

impl<K, V> Drop for SeqSkipList<K, V> {
    fn drop(&mut self) {
        let mut cur = self.head[0];
        while !cur.is_null() {
            // SAFETY: &mut self — exclusive access; every node appears
            // on level 0, so this walk frees each node exactly once.
            let next = unsafe { (&(*cur).forward)[0] };
            // SAFETY: as above.
            drop(unsafe { Box::from_raw(cur) });
            cur = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn roundtrip_against_btreemap() {
        let mut sl = SeqSkipList::with_seed(42);
        let mut oracle = BTreeMap::new();
        // Deterministic pseudo-random op sequence.
        let mut x: u64 = 12345;
        for _ in 0..2000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = (x >> 33) % 200;
            match x % 3 {
                0 => {
                    assert_eq!(
                        sl.insert(k, k * 2).is_ok(),
                        oracle.insert(k, k * 2).is_none()
                    );
                }
                1 => {
                    assert_eq!(sl.remove(&k), oracle.remove(&k));
                }
                _ => {
                    assert_eq!(sl.get(&k), oracle.get(&k));
                }
            }
            assert_eq!(sl.len(), oracle.len());
        }
        let ours: Vec<u64> = sl.iter().map(|(k, _)| *k).collect();
        let theirs: Vec<u64> = oracle.keys().copied().collect();
        assert_eq!(ours, theirs);
    }

    #[test]
    fn empty_edge_cases() {
        let mut sl: SeqSkipList<u32, ()> = SeqSkipList::with_seed(1);
        assert!(sl.is_empty());
        assert_eq!(sl.remove(&1), None);
        assert_eq!(sl.get(&1), None);
        assert_eq!(sl.iter().count(), 0);
    }

    #[test]
    fn duplicate_rejected() {
        let mut sl = SeqSkipList::with_seed(7);
        assert!(sl.insert(1, "a").is_ok());
        assert_eq!(sl.insert(1, "b"), Err((1, "b")));
        assert_eq!(sl.get(&1), Some(&"a"));
    }

    #[test]
    fn level_shrinks_after_removals() {
        let mut sl = SeqSkipList::with_seed(3);
        for k in 0..1000u32 {
            assert!(sl.insert(k, ()).is_ok());
        }
        let high = sl.level;
        for k in 0..1000u32 {
            sl.remove(&k);
        }
        assert!(sl.is_empty());
        assert!(sl.level <= high);
        assert_eq!(sl.level, 1);
    }
}
