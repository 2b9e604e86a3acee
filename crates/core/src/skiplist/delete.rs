//! `Delete_SL`: root-first deletion, then top-down dismantling (§4).
//!
//! The paper follows the level-1 search with a second top-down search
//! to level 2 that deletes the now-superfluous tower on its way. Here
//! the level-1 descent records its `(n1, n2)` pair at every level
//! ([`SearchPath`](super::SearchPath)), and the dismantling runs
//! `SearchRight` once per level of the tower, top-down, from the
//! recorded `n1` — after a backlink walk to an unmarked node, since
//! `n1` may have been deleted meanwhile and a marked node's frozen
//! successor can skip past a node linked later. A height-1 tower has
//! nothing to dismantle, and neither has a level emptied since the
//! descent. A tower taller than the descent's start level had upper
//! nodes linked after that level was searched; it falls back to the
//! paper's search from the top.

use std::sync::atomic::Ordering;

use lf_reclaim::{Publish, Reclaim};

use super::{Mode, SkipList};
use crate::list::{FlagStatus, Level, LevelKeys, LevelNode};

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
    /// dismantles the upper levels top-down by searching for `k` on
    /// each of them from the recorded path (the search physically
    /// deletes every superfluous node it meets). Returns `f` applied to
    /// the removed value, which it borrows in place under `guard`.
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
            let path = self.search_path(k, Mode::Lt, guard);
            let (prev, del) = path.at(1).expect("level 1 is always recorded");
            let root_level = self.at(1);
            if root_level.key_ref(del).as_key() != Some(k) {
                return None;
            }
            // ord: Release/Acquire/Relaxed — LIST.flag-cas: wrapped flagging C&S; pred is dereferenced
            if root_level.delete_node(prev, del, guard).1 != FlagStatus::Placed {
                // Another operation owns this deletion (it reports the
                // success), or the node vanished first.
                return None;
            }
            // Relaxed: `len` is a pure statistic (never dereferenced,
            // orders nothing).
            // ord: Relaxed — STAT.len: pure statistic, no ordering role
            self.len.fetch_sub(1, Ordering::Relaxed);
            // The tower is retired only when all its references drain,
            // and we hold a guard — the element stays readable.
            let tower = root_level.tower(del);
            let value = f((*tower).element.as_ref().expect("user tower has element"));
            // Dismantle the now-superfluous upper cells from top to bottom.
            // The block's capacity bounds the tower's height.
            let height = usize::from((*tower).height);
            if height > path.top() {
                // ord: Release/Acquire/Relaxed — LIST.flag-cas: cleaning search deletes superfluous towers (wrapped C&S)
                let _ = self.search_to_level(k, 2, Mode::Le, guard);
            } else {
                // A level emptied since the descent holds no cell of this
                // tower: one linked there later is its inserter's to
                // delete, as the inserter sees the root marked. So start
                // at the highest non-empty level, as the paper's descent
                // would.
                for level in (2..=self.highest_nonempty(height, 1)).rev() {
                    let (n1, _) = path.at(level).expect("levels up to the start are recorded");
                    // ord: Acquire — LIST.backlink-walk: recovered pred is dereferenced
                    let from = LevelNode::first_unmarked(n1);
                    // ord: Release/Acquire/Relaxed — LIST.flag-cas: cleaning search deletes superfluous towers (wrapped C&S)
                    let _ = self.at(level).search_right(k, from, Mode::Le, guard);
                }
            }
            Some(value)
        }
    }
}
