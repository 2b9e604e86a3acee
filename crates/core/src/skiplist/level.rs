//! Per-level routines: each skip list level is an instance of the
//! linked-list algorithms, with one addition — `SearchRight` physically
//! deletes every node of a *superfluous* tower (root marked) that it
//! encounters, performing all three deletion steps if necessary (§4).

use std::sync::atomic::Ordering;

use lf_metrics::CasType;
use lf_reclaim::{Publish, Reclaim};
use lf_tagged::{step, Backoff, StepKind};

use super::node::SkipNode;
use super::SkipList;
use crate::list::search_key_before as key_before;
use crate::list::Mode;

/// Outcome of `TryFlagNode`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum FlagStatus {
    /// The predecessor's successor field is `(target, 0, 1)` — the flag
    /// is in place (placed by us iff the accompanying bool is true).
    In,
    /// `target` is no longer in this level's list.
    Deleted,
}

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
                    let (new_curr, status, _) = self.try_flag_node(curr, next, guard);
                    curr = new_curr;
                    if status == FlagStatus::In {
                        self.help_flagged(curr, next, guard);
                    }
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

    /// `TryFlagNode(prev_node, target_node)`: attempt the type-2
    /// (flagging) C&S on `target`'s predecessor at this level,
    /// relocating the predecessor through backlinks and re-searching as
    /// needed. Returns the updated predecessor, whether the flag is in
    /// place or the target vanished, and whether *this* call placed it.
    ///
    /// # Safety
    ///
    /// `prev` and `target` must be nodes of this level protected by
    /// `guard`, `prev` a last-known predecessor of `target`.
    // escape: ESC.node-search: the returned predecessor is protected by the
    // caller's `guard`; the `# Safety` contract bounds its life to it
    pub(crate) unsafe fn try_flag_node(
        &self,
        mut prev: *mut SkipNode<K, V, R>,
        target: *mut SkipNode<K, V, R>,
        guard: &R::Guard<'_>,
    ) -> (*mut SkipNode<K, V, R>, FlagStatus, bool) {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            // Stamp-carrying operands: `target`'s birth is constant while
            // the guard protects it, so every helper recomputes exactly
            // the stamp the publishing C&S stored.
            let flagged = SkipNode::flagged_ptr(target);
            let backoff = Backoff::new();
            loop {
                step(StepKind::Read);
                if (*prev).succ() == flagged {
                    return (prev, FlagStatus::In, false);
                }
                step(StepKind::CasFlag);
                // The flagging C&S (type 2). Release on success: the flag
                // freezes the edge prev → target and is read by helpers
                // through Acquire loads that then dereference `target`; as
                // an RMW it extends the release sequence of the C&S that
                // published `target`, and Release additionally orders this
                // thread's prior accesses for those helpers. Acquire on
                // failure: the found pointer may be dereferenced (flagged →
                // HelpFlagged) or its key read after the backlink walk.
                // ord: Release/Acquire/Relaxed — LIST.flag-cas: freeze edge; failure decoded
                let res = (*prev).succ.compare_exchange(
                    SkipNode::clean_ptr(target),
                    flagged,
                    Ordering::Release,
                    Ordering::Acquire,
                );
                lf_metrics::record_cas(CasType::Flag, res.is_ok());
                match res {
                    Ok(_) => return (prev, FlagStatus::In, true),
                    Err(found) => {
                        if found == flagged {
                            return (prev, FlagStatus::In, false);
                        }
                        // Contended edge: back off before the recovery walk.
                        backoff.spin();
                        loop {
                            step(StepKind::Read);
                            if !(*prev).is_marked() {
                                break;
                            }
                            step(StepKind::Backlink);
                            // ord: Acquire — LIST.backlink-walk: recovered pred is dereferenced
                            let back = (*prev).backlink();
                            debug_assert!(!back.is_null(), "marked node lacks backlink");
                            prev = back;
                            lf_metrics::record_backlink();
                        }
                        let key_ref = (*target).key_ref().as_key().expect("target has user key");
                        // ord: Release/Acquire/Relaxed — LIST.flag-cas: recovery search helps deletions (wrapped C&S)
                        let (p, d) = self.search_right(key_ref, prev, Mode::Lt, guard);
                        if d != target {
                            return (p, FlagStatus::Deleted, false);
                        }
                        prev = p;
                    }
                }
            }
        }
    }

    /// `HelpFlagged`: deletion steps two (backlink + mark) and three
    /// (physical unlink) for the deletion announced by `prev`'s flag.
    ///
    /// # Safety
    ///
    /// `prev`/`del` protected by `guard`; `prev.succ` was observed as
    /// `(del, 0, 1)`.
    pub(crate) unsafe fn help_flagged(
        &self,
        prev: *mut SkipNode<K, V, R>,
        del: *mut SkipNode<K, V, R>,
        guard: &R::Guard<'_>,
    ) {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            step(StepKind::Write);
            // The backlink is set *before* the node can be marked, and
            // every helper writes the same predecessor (the flag freezes
            // the edge prev → del until physical deletion), so it never
            // changes once set (INV 4). Release: recovery walks
            // Acquire-load this field and dereference `prev`; the edge
            // carries the happens-before to prev's initialization (which we
            // hold from the Acquire load that found the flag).
            // ord: Release — LIST.backlink-set: visible before the mark (INV 4)
            (*del).backlink.store(prev, Ordering::Release);
            step(StepKind::Read);
            if !(*del).is_marked() {
                self.try_mark(del, guard);
            }
            self.help_marked(prev, del, guard);
        }
    }

    /// `TryMark`: loop the type-3 (marking) C&S until `del` is marked.
    ///
    /// # Safety
    ///
    /// `del` protected by `guard`.
    pub(crate) unsafe fn try_mark(&self, del: *mut SkipNode<K, V, R>, guard: &R::Guard<'_>) {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            let backoff = Backoff::new();
            loop {
                step(StepKind::Read);
                let next = (*del).right();
                step(StepKind::CasMark);
                // The marking C&S (type 3). Release on success: the mark
                // freezes `succ` forever (INV 2); unlinkers Acquire-load
                // the frozen field and re-install its `next` into the
                // predecessor, relying on this RMW extending next's release
                // sequence. Acquire on failure: the found pointer is
                // dereferenced below when flagged. Both operands recompute
                // next's stamp (stable under the guard), so marking
                // preserves the stamp stored by the edge's publisher.
                // ord: Release/Acquire — LIST.mark-cas: freeze succ; failure dereferenced
                let res = (*del).succ.compare_exchange(
                    SkipNode::clean_ptr(next),
                    SkipNode::clean_ptr(next).with_mark(),
                    Ordering::Release,
                    Ordering::Acquire,
                );
                lf_metrics::record_cas(CasType::Mark, res.is_ok());
                if let Err(found) = res {
                    if found.is_flagged() {
                        self.help_flagged(del, found.ptr(), guard);
                    }
                }
                step(StepKind::Read);
                if (*del).is_marked() {
                    return;
                }
                // Still unmarked: we lost a C&S race on this field; back
                // off before retrying it.
                backoff.spin();
            }
        }
    }

    /// `HelpMarked`: the type-4 (physical deletion) C&S. On success the
    /// unlinked node's tower reference is released; the whole tower is
    /// retired once its last node is unlinked.
    ///
    /// # Safety
    ///
    /// `prev`/`del` protected by `guard`.
    pub(crate) unsafe fn help_marked(
        &self,
        prev: *mut SkipNode<K, V, R>,
        del: *mut SkipNode<K, V, R>,
        guard: &R::Guard<'_>,
    ) {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            step(StepKind::Read);
            // Acquire (via `right`): `next` was frozen into del.succ by the
            // marking C&S; we hold the happens-before to its initialization
            // before re-publishing it below.
            let next = (*del).right();
            step(StepKind::CasUnlink);
            // The unlink C&S (type 4). Release on success: installs `next`
            // into a field other threads Acquire-load and dereference, so
            // its initialization must be republished here. Relaxed on
            // failure: the result is discarded — some other helper
            // completed the physical deletion — and the found value is
            // never used. Both operands carry their target's birth stamp
            // (clean_ptr / flagged_ptr), so the republished edge keeps the
            // tenant id a pin-free reader validates against.
            // ord: Release/Relaxed — LIST.unlink-cas: republish next; failure discarded
            let res = (*prev).succ.compare_exchange(
                SkipNode::flagged_ptr(del),
                SkipNode::clean_ptr(next),
                Ordering::Release,
                Ordering::Relaxed,
            );
            lf_metrics::record_cas(CasType::Unlink, res.is_ok());
            if res.is_ok() {
                // ord: Relaxed — TOWER.layout: tenant-invariant tower geometry
                self.release_tower_ref((*del).root(), guard);
            }
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
