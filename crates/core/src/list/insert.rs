//! `Insert` (paper Fig. 5) and `Delete` (Fig. 4); their level
//! routines are the shared protocol in [`super::level`].

use std::sync::atomic::Ordering;

use lf_reclaim::{Publish, Reclaim};

use super::level::{FlagStatus, Level, LevelKeys};
use super::{FrList, Mode};
use crate::pool::LocalPool;
use crate::tower::{cell_at, tower_of, Tower};

impl<K, V, R> FrList<K, V, R>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    /// Paper `Insert(k, e)` (Fig. 5).
    ///
    /// # Safety
    ///
    /// `guard` must pin this list's domain; `pool` must front this
    /// list's shared pool.
    pub(crate) unsafe fn insert_impl(
        &self,
        key: K,
        value: V,
        pool: &LocalPool<Tower<K, V, R>>,
        guard: &R::Guard<'_>,
    ) -> Result<(), (K, V)> {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            // Line 1–3: locate the insertion point, reject duplicates.
            let (mut prev, mut next) = self.search_from(&key, self.head, Mode::Le, guard);
            if self.key_ref(prev).as_key() == Some(&key) {
                return Err((key, value));
            }
            // Line 4: create the node on a pooled height-1 block
            // (ownership of key/value moves in; we read them back out if
            // the insert ultimately fails). Recycled blocks are
            // re-initialized through the seqlock protocol under pin-free
            // backends.
            let (block, recycled) = pool.acquire(1);
            Tower::init_at(block, 1, key, value, R::birth_epoch(guard), recycled);
            let new_node = cell_at(block, 1);

            // Lines 5–22.
            if self.insert_node(new_node, &mut prev, &mut next, guard) {
                // Line 12–13: success. Relaxed: `len` is a pure
                // statistic (never dereferenced, orders nothing).
                // ord: Relaxed — STAT.len: pure statistic
                self.len.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
            // Line 20–22: a concurrent insert won the key. The node was
            // never published, so move key/element back out and return
            // the block to the thread-local pool. (No stale reader can
            // hold this tenant's stamp — it was never reachable — so
            // releasing without a grace period is sound even under
            // pin-free backends.)
            let pair = Tower::take_pair(block);
            pool.release(block, 1);
            Err(pair)
        }
    }

    /// Paper `Delete(k)` (Fig. 4). Returns `f` applied to the removed
    /// value, which it borrows in place under `guard`.
    ///
    /// # Safety
    ///
    /// `guard` must pin this list's domain.
    pub(crate) unsafe fn delete_impl<T>(
        &self,
        k: &K,
        guard: &R::Guard<'_>,
        f: impl FnOnce(&V) -> T,
    ) -> Option<T> {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            // Line 1: SearchFrom(k − ε, head).
            let (prev, del) = self.search_from(k, self.head, Mode::Lt, guard);
            // Line 2–3: k is not in the list.
            if self.key_ref(del).as_key() != Some(k) {
                return None;
            }
            // Line 4–8: flag the predecessor, then mark and unlink.
            // Another operation's deletion wins, or `del` vanished.
            // ord: Release/Acquire/Relaxed — LIST.flag-cas: wrapped flagging C&S; pred is dereferenced
            if self.delete_node(prev, del, guard).1 != FlagStatus::Placed {
                return None;
            }
            // Line 9: success — this operation owns the deletion. Relaxed:
            // pure statistic (see `insert_impl`).
            // ord: Relaxed — STAT.len: pure statistic
            self.len.fetch_sub(1, Ordering::Relaxed);
            // Reading `del`'s element is safe: its initialization
            // happened-before the Acquire load that gave us `del` in
            // SearchFrom, and the guard keeps it from being reclaimed.
            let element = &(*tower_of(del, 1)).element;
            Some(f(element.as_ref().expect("user node has element")))
        }
    }
}
