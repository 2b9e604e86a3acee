//! Per-level routines: each skip list level is an instance of the
//! linked list, running the list's own level protocol
//! ([`Level`]). A level differs in two hooks only: its search,
//! `SearchRight`, physically deletes every node of a *superfluous*
//! tower (root marked) that it encounters, performing all three
//! deletion steps if necessary (§4); and an unlink releases one
//! reference on the node's tower instead of retiring the node.

use std::sync::atomic::Ordering;

use lf_reclaim::{Publish, Reclaim};
use lf_tagged::{step, StepKind};

use super::node::SkipNode;
use super::SkipList;
use crate::list::search_key_before as key_before;
use crate::list::{Level, LevelNode, Mode};

impl<K, V, R> SkipList<K, V, R>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    /// `SearchRight(k, curr_node)` on one level, with mode selecting the
    /// `<=`/`<` comparison exactly as in the list's `SearchFrom`.
    ///
    /// Finds consecutive nodes `(n1, n2)` on this level around `k`,
    /// deleting every superfluous tower node encountered on the way.
    ///
    /// # Safety
    ///
    /// `curr` must be a node of this skip list protected by `guard`
    /// satisfying the search precondition (`curr.key` before `k`).
    // escape: ESC.node-search: returned nodes are protected by the caller's
    // `guard`; the `# Safety` contract bounds their life to it
    pub(crate) unsafe fn search_right(
        &self,
        k: &K,
        mut curr: *mut SkipNode<K, V, R>,
        mode: Mode,
        guard: &R::Guard<'_>,
    ) -> (*mut SkipNode<K, V, R>, *mut SkipNode<K, V, R>) {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            step(StepKind::Read);
            let mut next = (*curr).right();
            while key_before((*next).key_ref(), k, mode) {
                // Delete superfluous towers in our way (the search performs
                // all three deletion steps itself when needed, so repeated
                // traversals of long backlink chains cannot be forced).
                loop {
                    step(StepKind::Read);
                    if !(*next).is_superfluous() {
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
                    // node's key), and the descent would then skip this
                    // level's nodes between `k` and the new `curr`.
                    if !key_before((*next).key_ref(), k, mode) {
                        break;
                    }
                }
                if key_before((*next).key_ref(), k, mode) {
                    step(StepKind::Traverse);
                    curr = next;
                    lf_metrics::record_curr_update();
                    step(StepKind::Read);
                    next = (*curr).right();
                }
            }
            (curr, next)
        }
    }

    /// Release one reference on `root`'s tower; retire the tower's
    /// contiguous block once the count reaches zero.
    ///
    /// # Safety
    ///
    /// `root` must be a tower root protected by `guard`; each reference
    /// (linked node or construction reference) is released exactly once.
    pub(crate) unsafe fn release_tower_ref(
        &self,
        root: *mut SkipNode<K, V, R>,
        guard: &R::Guard<'_>,
    ) {
        // AcqRel, exactly as `Arc`'s strong-count drop: Release so each
        // releasing thread's prior accesses to tower nodes
        // happen-before the final decrement (via the RMW chain on this
        // counter), Acquire so the final decrementer sees them all
        // before retiring the block.
        // SAFETY: `root` is a live tower root (the fn's `# Safety`
        // contract).
        // ord: AcqRel — TOWER.release: Arc-drop argument on the tower refcount
        if unsafe { (*root).remaining.fetch_sub(1, Ordering::AcqRel) } == 1 {
            // Last reference: every linked node of the tower is
            // unlinked and construction has finished, so the whole
            // block is unreachable to new operations. Retire it with a
            // single pool release; only the root carries owned data.
            let pool = std::sync::Arc::clone(&self.pool);
            let addr = root as usize;
            // SAFETY: as above.
            let cap = unsafe { (*root).height };
            // SAFETY: `root` is live under the guard; its birth is fixed
            // for the tenant's lifetime.
            // ord: Relaxed — VBR.birth-stamp: tenant-constant value, read under protection
            let birth = unsafe { (*root).birth.load(Ordering::Relaxed) };
            let destroy = move || {
                let root = addr as *mut SkipNode<K, V, R>;
                // SAFETY: grace elapsed, so no pinned thread can reach any
                // node of the block; the zero-crossing decrement fired
                // this closure exactly once. Key/element are dropped
                // here; the other fields have no drop glue, so the
                // block may be recycled. (Stale pin-free readers may
                // still snoop the shadow slots after this — sound
                // because pin-free payloads are `Pod` and the block
                // stays allocated in the pool.)
                unsafe {
                    std::ptr::drop_in_place(&mut (*root).key);
                    std::ptr::drop_in_place(&mut (*root).element);
                    pool.recycle(addr, cap);
                }
            };
            // SAFETY: the closure touches the block only after grace
            // elapses, when it is unreachable to pinned threads.
            // unlink: UNLINK.tower-del: refcount zero means every level's
            // unlink C&S fired — the whole tower block is unreachable
            unsafe { R::defer(guard, birth, destroy) };
        }
    }
}

impl<K, V, R> Level<K, R> for SkipList<K, V, R>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    type Node = SkipNode<K, V, R>;

    /// `SearchRight` is a skip-list level's search.
    ///
    /// # Safety
    ///
    /// As for [`Level::search_level`].
    // escape: ESC.node-search: returned nodes are protected by the caller's
    // `guard`; the `# Safety` contract bounds their life to it
    unsafe fn search_level(
        &self,
        k: &K,
        curr: *mut SkipNode<K, V, R>,
        mode: Mode,
        guard: &R::Guard<'_>,
    ) -> (*mut SkipNode<K, V, R>, *mut SkipNode<K, V, R>) {
        // SAFETY: forwarded contract.
        // ord: Release/Acquire/Relaxed — LIST.flag-cas: per-level search helps deletions (wrapped C&S)
        unsafe { self.search_right(k, curr, mode, guard) }
    }

    /// An unlinked node releases its tower reference; the whole tower
    /// is retired once its last node is unlinked.
    ///
    /// # Safety
    ///
    /// As for [`Level::unlinked`].
    unsafe fn unlinked(&self, del: *mut SkipNode<K, V, R>, guard: &R::Guard<'_>) {
        // SAFETY: `del` is protected by `guard`, so its tower is alive.
        // ord: Relaxed — TOWER.layout: tenant-invariant tower geometry
        unsafe { self.release_tower_ref((*del).root(), guard) };
    }
}
