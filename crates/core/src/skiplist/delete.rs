//! `Delete_SL`: root-first deletion, then top-down dismantling (§4).

use std::sync::atomic::Ordering;

use lf_reclaim::{Publish, Reclaim};

use super::level::FlagStatus;
use super::node::SkipNode;
use super::{Mode, SkipList};

impl<K, V, R> SkipList<K, V, R>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    /// `Delete_SL(k)`: delete the tower with key `k`.
    ///
    /// Deletes the root node first — linearizing the deletion when the
    /// root is marked and making the whole tower *superfluous* — then
    /// dismantles the upper levels top-down by searching for `k` down
    /// to level 2 (the search physically deletes every superfluous node
    /// it meets). Returns `f` applied to the removed value, which it
    /// borrows in place under `guard`.
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
            // ord: Release/Acquire/Relaxed — LIST.flag-cas: descent helps flagged deletions (wrapped C&S)
            let (prev, del) = self.search_to_level(k, 1, Mode::Lt, guard);
            if (*del).key_ref().as_key() != Some(k) {
                return None;
            }
            if !self.delete_node(prev, del, guard) {
                // Another operation owns this deletion (it reports the
                // success), or the node vanished first.
                return None;
            }
            // Relaxed: `len` is a pure statistic (never dereferenced,
            // orders nothing).
            // ord: Relaxed — STAT.len: pure statistic, no ordering role
            self.len.fetch_sub(1, Ordering::Relaxed);
            // The root is retired only when the whole tower's references
            // drain, and we hold a guard — the element stays readable.
            let value = f((*del).element.as_ref().expect("root node has element"));
            // Dismantle the now-superfluous upper nodes from top to bottom.
            if self.max_level > 2 {
                // ord: Release/Acquire/Relaxed — LIST.flag-cas: cleaning search deletes superfluous towers (wrapped C&S)
                let _ = self.search_to_level(k, 2, Mode::Le, guard);
            }
            Some(value)
        }
    }

    /// Delete one node at its level: the linked-list `Delete` steps —
    /// `TryFlag` the predecessor, then `HelpFlagged` (mark + unlink).
    ///
    /// Returns `true` iff this call placed the flag, i.e. owns the
    /// deletion.
    ///
    /// # Safety
    ///
    /// `prev`/`del` are nodes of one level protected by `guard`, `prev`
    /// a last-known predecessor of `del`.
    pub(crate) unsafe fn delete_node(
        &self,
        prev: *mut SkipNode<K, V, R>,
        del: *mut SkipNode<K, V, R>,
        guard: &R::Guard<'_>,
    ) -> bool {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            // ord: Release/Acquire/Relaxed — LIST.flag-cas: wrapped flagging C&S; pred is dereferenced
            let (prev, status, did_flag) = self.try_flag_node(prev, del, guard);
            if status == FlagStatus::In {
                self.help_flagged(prev, del, guard);
            }
            did_flag
        }
    }
}
