//! `SearchFrom` and `HelpMarked` (paper Fig. 3).

use std::sync::atomic::Ordering;

use lf_metrics::CasType;
use lf_reclaim::{Publish, Reclaim};
use lf_tagged::{step, StepKind};

use super::{Bound, FrList, Mode, Node};

/// `node_key OP k` where OP is `<=` (Le) or `<` (Lt), honouring the
/// sentinel ordering `-∞ < every key < +∞`.
#[inline]
pub(crate) fn key_before<K: Ord>(node_key: &Bound<K>, k: &K, mode: Mode) -> bool {
    match node_key {
        Bound::NegInf => true,
        Bound::PosInf => false,
        Bound::Key(nk) => match mode {
            Mode::Le => nk <= k,
            Mode::Lt => nk < k,
        },
    }
}

impl<K, V, R> FrList<K, V, R>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    /// Paper `SearchFrom(k, curr_node)` (Fig. 3), plus the `SearchFrom2`
    /// variant selected by [`Mode`].
    ///
    /// Starting from `curr`, finds consecutive nodes `(n1, n2)` with
    /// `n1.key <= k < n2.key` (Le) or `n1.key < k <= n2.key` (Lt), such
    /// that `n1.right == n2` held at some time during the call. Helps
    /// physically delete any marked node it encounters whose predecessor
    /// it holds (line 5).
    ///
    /// # Safety
    ///
    /// `curr` must be a node of this list protected by `guard` (i.e. it
    /// was reachable at some point while the guard was live), with
    /// `curr.key` satisfying the search precondition `curr.key <= k`.
    // escape: ESC.node-search: returned nodes are protected by the caller's
    // `guard`; the `# Safety` contract bounds their life to it
    pub(crate) unsafe fn search_from(
        &self,
        k: &K,
        mut curr: *mut Node<K, V, R>,
        mode: Mode,
        guard: &R::Guard<'_>,
    ) -> (*mut Node<K, V, R>, *mut Node<K, V, R>) {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            step(StepKind::Read);
            let mut next = (*curr).right();
            // Line 2: while next_node.key <= k (or < for SearchFrom2).
            while key_before(&(*next).key, k, mode) {
                // Lines 3–6: ensure either next is unmarked, or both curr
                // and next are marked and curr was marked earlier (we are
                // inside a deleted region and may traverse through it).
                loop {
                    step(StepKind::Read);
                    let next_succ = (*next).succ();
                    if !next_succ.is_marked() {
                        break;
                    }
                    step(StepKind::Read);
                    let curr_succ = (*curr).succ();
                    if curr_succ.is_marked() && curr_succ.ptr() == next {
                        break;
                    }
                    // Line 4–5: if curr still points at the marked next,
                    // help complete its physical deletion.
                    if (*curr).right() == next {
                        self.help_marked(curr, next, guard);
                    }
                    step(StepKind::Read);
                    // Line 6: re-read curr's right pointer.
                    next = (*curr).right();
                    lf_metrics::record_next_update();
                }
                // Line 7–9: advance if next still precedes k.
                if key_before(&(*next).key, k, mode) {
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

    /// Paper `Search(k)` core: returns the node with key `k` if the
    /// dictionary contains it.
    ///
    /// # Safety
    ///
    /// `guard` must pin this list's domain; the returned pointer is
    /// valid while `guard` lives.
    // escape: ESC.node-search: returned node is protected by the caller's
    // `guard`; the `# Safety` contract bounds its life to it
    pub(crate) unsafe fn search_impl(
        &self,
        k: &K,
        guard: &R::Guard<'_>,
    ) -> Option<*mut Node<K, V, R>> {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            let (curr, _next) = self.search_from(k, self.head, Mode::Le, guard);
            ((*curr).key.as_key() == Some(k)).then_some(curr)
        }
    }

    /// Paper `HelpMarked(prev_node, del_node)` (Fig. 3): the type-4
    /// (physical deletion) C&S. On success, `del` has been unlinked and
    /// is retired to the reclamation backend.
    ///
    /// # Safety
    ///
    /// `prev` and `del` must be nodes of this list protected by `guard`.
    pub(crate) unsafe fn help_marked(
        &self,
        prev: *mut Node<K, V, R>,
        del: *mut Node<K, V, R>,
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
            // The unlink C&S (type 4, Fig. 3). Release on success: installs
            // `next` into a field other threads Acquire-load and dereference,
            // so its initialization must be republished here. Relaxed on
            // failure: the result is discarded — some other helper completed
            // the physical deletion — and the found value is never used.
            // Both operands carry their target's birth stamp (clean_ptr /
            // flagged_ptr), so the republished edge keeps the tenant id a
            // pin-free reader validates against.
            // ord: Release/Relaxed — LIST.unlink-cas: republish next; failure discarded
            let res = (*prev).succ.compare_exchange(
                Node::flagged_ptr(del),
                Node::clean_ptr(next),
                Ordering::Release,
                Ordering::Relaxed,
            );
            lf_metrics::record_cas(CasType::Unlink, res.is_ok());
            if res.is_ok() {
                // Exactly one unlink C&S succeeds per node (its predecessor
                // is unique and flagged, and a physically deleted node can
                // never be re-linked), so this retire happens exactly once.
                // unlink: UNLINK.list-del: the type-4 C&S above made `del`
                // unreachable from the head before this retire
                self.retire(del, guard);
            }
        }
    }

    /// Queue a physically deleted node for recycling once the backend's
    /// grace period drains: key and element are dropped, the block goes
    /// back to the list's pool.
    ///
    /// # Safety
    ///
    /// `node` must be physically deleted (unreachable from the head) and
    /// retired at most once; `guard` must pin this list's domain.
    pub(crate) unsafe fn retire(&self, node: *mut Node<K, V, R>, guard: &R::Guard<'_>) {
        let pool = std::sync::Arc::clone(&self.pool);
        let addr = node as usize;
        // SAFETY: `node` is live under `guard` (just unlinked); its
        // birth is fixed for the tenant's lifetime.
        // ord: Relaxed — VBR.birth-stamp: tenant-constant value, read under the guard
        let birth = unsafe { (*node).birth.load(Ordering::Relaxed) };
        let destroy = move || {
            let node = addr as *mut Node<K, V, R>;
            // SAFETY: grace elapsed, so no pinned thread can reach
            // `node`; the unlink C&S fired this closure exactly once.
            // Key/element are dropped here; the atomics and shadow slots
            // have no drop glue, so the block may be recycled. (Stale
            // pin-free readers may still snoop the shadow slots after
            // this — sound because pin-free payloads are `Pod` and the
            // block stays allocated in the pool.)
            unsafe {
                std::ptr::drop_in_place(&mut (*node).key);
                std::ptr::drop_in_place(&mut (*node).element);
                pool.recycle(addr, 1);
            }
        };
        // SAFETY: the closure touches the node only after grace elapses
        // (the fn's `# Safety` contract makes it unreachable by then).
        // unlink: UNLINK.list-del: the fn's `# Safety` contract requires the
        // node already physically deleted (unlink C&S fired) and retired once
        unsafe { R::defer(guard, birth, destroy) };
    }
}
