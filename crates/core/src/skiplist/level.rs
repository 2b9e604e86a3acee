//! Per-level routines: each skip list level is an instance of the
//! linked list, running the list's own level protocol ([`Level`]) over
//! the level's cells. A [`SkipLevel`] is the view of one level: it
//! knows its level number, so it finds a cell's key and birth word in
//! the tower's header by arithmetic. A level differs from the list in
//! two hooks only: its search, `SearchRight`, physically deletes every
//! cell of a *superfluous* tower (root marked) that it encounters,
//! performing all three deletion steps if necessary (§4); and an
//! unlink releases one reference on the cell's tower instead of
//! retiring the cell.

use std::sync::atomic::{AtomicU64, Ordering};

use lf_reclaim::{Publish, Reclaim};
use lf_tagged::{step, StepKind};

use super::SkipList;
use crate::list::search_key_before as key_before;
use crate::list::{Level, LevelKeys, LevelNode, Mode};
use crate::tower::{tower_of, Bound, LevelCell, Tower};

/// One level of a skip list: the list protocol's view of it.
pub(crate) struct SkipLevel<'a, K, V, R: Reclaim> {
    pub(crate) list: &'a SkipList<K, V, R>,
    /// 1-based; every cell this view is handed lives at this level.
    pub(crate) level: usize,
}

impl<K, V, R: Reclaim> SkipList<K, V, R> {
    /// The view of level `level` (1-based).
    #[inline]
    pub(crate) fn at(&self, level: usize) -> SkipLevel<'_, K, V, R> {
        debug_assert!(level >= 1 && level <= self.max_level);
        SkipLevel { list: self, level }
    }
}

impl<K, V, R: Reclaim> SkipLevel<'_, K, V, R> {
    /// The header of `cell`'s tower.
    ///
    /// # Safety
    ///
    /// `cell` is a cell of this level.
    #[inline]
    pub(crate) unsafe fn tower(&self, cell: *mut LevelCell<K, V, R>) -> *mut Tower<K, V, R> {
        // SAFETY: forwarded contract.
        unsafe { tower_of(cell, self.level) }
    }

    /// Whether `cell`'s tower is superfluous (its level-1 cell marked).
    ///
    /// # Safety
    ///
    /// `cell` is a cell of this level protected by a guard (its tower
    /// is then alive).
    #[inline]
    pub(crate) unsafe fn is_superfluous(&self, cell: *mut LevelCell<K, V, R>) -> bool {
        // SAFETY: the level-1 cell is `level - 1` cells below, in the
        // same block.
        unsafe { (*cell.sub(self.level - 1)).is_marked() }
    }
}

impl<K, V, R> SkipLevel<'_, K, V, R>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    /// `SearchRight(k, curr_node)` on this level, with mode selecting
    /// the `<=`/`<` comparison exactly as in the list's `SearchFrom`.
    ///
    /// Finds consecutive cells `(n1, n2)` on this level around `k`,
    /// deleting every superfluous tower's cell encountered on the way.
    /// Each candidate's key is compared once.
    ///
    /// # Safety
    ///
    /// `curr` must be a cell of this level protected by `guard`
    /// satisfying the search precondition (`curr.key` before `k`).
    // escape: ESC.node-search: returned cells are protected by the caller's
    // `guard`; the `# Safety` contract bounds their life to it
    pub(crate) unsafe fn search_right(
        &self,
        k: &K,
        mut curr: *mut LevelCell<K, V, R>,
        mode: Mode,
        guard: &R::Guard<'_>,
    ) -> (*mut LevelCell<K, V, R>, *mut LevelCell<K, V, R>) {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            step(StepKind::Read);
            let mut next = (*curr).right();
            let mut before = key_before(self.key_ref(next), k, mode);
            while before {
                // Delete superfluous towers in our way (the search performs
                // all three deletion steps itself when needed, so repeated
                // traversals of long backlink chains cannot be forced).
                loop {
                    step(StepKind::Read);
                    if !self.is_superfluous(next) {
                        break;
                    }
                    // ord: Release/Acquire/Relaxed — LIST.flag-cas: wrapped flagging C&S; pred is dereferenced
                    curr = self.delete_node(curr, next, guard).0;
                    step(StepKind::Read);
                    next = (*curr).right();
                    lf_metrics::record_next_update();
                    // Only towers up to `k` are in our way. Flagging a
                    // superfluous `next` beyond `k` could relocate `curr`
                    // past `k` (its relocation searches up to *that*
                    // cell's key), and the descent would then skip this
                    // level's cells between `k` and the new `curr`.
                    before = key_before(self.key_ref(next), k, mode);
                    if !before {
                        break;
                    }
                }
                if before {
                    step(StepKind::Traverse);
                    curr = next;
                    lf_metrics::record_curr_update();
                    step(StepKind::Read);
                    next = (*curr).right();
                    before = key_before(self.key_ref(next), k, mode);
                }
            }
            (curr, next)
        }
    }
}

impl<K, V, R> SkipList<K, V, R>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    /// Release one reference on `tower`; retire the tower's block once
    /// the count reaches zero.
    ///
    /// # Safety
    ///
    /// `tower` must be a tower header protected by `guard`; each
    /// reference (linked cell or construction reference) is released
    /// exactly once.
    pub(crate) unsafe fn release_tower_ref(
        &self,
        tower: *mut Tower<K, V, R>,
        guard: &R::Guard<'_>,
    ) {
        // AcqRel, exactly as `Arc`'s strong-count drop: Release so each
        // releasing thread's prior accesses to the tower happen-before
        // the final decrement (via the RMW chain on this counter),
        // Acquire so the final decrementer sees them all before
        // retiring the block.
        // SAFETY: `tower` is a live tower (the fn's `# Safety` contract).
        // ord: AcqRel — TOWER.release: Arc-drop argument on the tower refcount
        if unsafe { (*tower).remaining.fetch_sub(1, Ordering::AcqRel) } == 1 {
            // Last reference: every linked cell of the tower is
            // unlinked and construction has finished, so the whole
            // block is unreachable to new operations. Retire it with a
            // single pool release; only the header carries owned data.
            // SAFETY: as above; the zero-crossing decrement happens
            // once per tenant.
            // unlink: UNLINK.tower-del: refcount zero means every level's
            // unlink C&S fired — the whole tower block is unreachable
            unsafe { Tower::retire(tower, &self.pool, guard) };
        }
    }
}

/// A skip-list level's cells keep their key and birth word in the
/// tower's header, `level - 1` cells and one header back.
impl<K, V, R: Reclaim> LevelKeys<K, R> for SkipLevel<'_, K, V, R> {
    type Node = LevelCell<K, V, R>;

    // SAFETY: arithmetic within the cell's block, then a field read
    // the trait's guard contract keeps valid.
    #[inline]
    unsafe fn key_ref<'n>(&self, cell: *mut LevelCell<K, V, R>) -> &'n Bound<K> {
        // SAFETY: the trait's `# Safety` contract: the guard keeps the
        // tower, header included, alive.
        unsafe { &(*self.tower(cell)).key }
    }

    /// One birth word per tower, so every cell of a tower yields the
    /// tower's stamp.
    // SAFETY: as for `key_ref`.
    #[inline]
    unsafe fn birth_cell<'n>(&self, cell: *mut LevelCell<K, V, R>) -> &'n AtomicU64 {
        // SAFETY: as for `key_ref`.
        unsafe { &(*self.tower(cell)).birth }
    }
}

impl<K, V, R> Level<K, R> for SkipLevel<'_, K, V, R>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    /// `SearchRight` is a skip-list level's search.
    ///
    /// # Safety
    ///
    /// As for [`Level::search_level`].
    // escape: ESC.node-search: returned cells are protected by the caller's
    // `guard`; the `# Safety` contract bounds their life to it
    unsafe fn search_level(
        &self,
        k: &K,
        curr: *mut LevelCell<K, V, R>,
        mode: Mode,
        guard: &R::Guard<'_>,
    ) -> (*mut LevelCell<K, V, R>, *mut LevelCell<K, V, R>) {
        // SAFETY: forwarded contract.
        // ord: Release/Acquire/Relaxed — LIST.flag-cas: per-level search helps deletions (wrapped C&S)
        unsafe { self.search_right(k, curr, mode, guard) }
    }

    /// An unlinked cell releases its tower reference; the whole tower
    /// is retired once its last cell is unlinked.
    ///
    /// # Safety
    ///
    /// As for [`Level::unlinked`].
    unsafe fn unlinked(&self, del: *mut LevelCell<K, V, R>, guard: &R::Guard<'_>) {
        // SAFETY: `del` is protected by `guard`, so its tower is alive.
        unsafe { self.list.release_tower_ref(self.tower(del), guard) };
    }
}
