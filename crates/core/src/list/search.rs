//! `SearchFrom` (paper Fig. 3), and the list's two hooks into the
//! shared level protocol.

use std::sync::atomic::AtomicU64;

use lf_reclaim::{Publish, Reclaim};
use lf_tagged::{step, StepKind};

use super::level::{Level, LevelKeys, LevelNode};
use super::{FrList, Mode};
use crate::tower::{tower_of, Bound, LevelCell, Tower};

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
        mut curr: *mut LevelCell<K, V, R>,
        mode: Mode,
        guard: &R::Guard<'_>,
    ) -> (*mut LevelCell<K, V, R>, *mut LevelCell<K, V, R>) {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            step(StepKind::Read);
            let mut next = (*curr).right();
            // Line 2: while next_node.key <= k (or < for SearchFrom2).
            while key_before(self.key_ref(next), k, mode) {
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
                if key_before(self.key_ref(next), k, mode) {
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
    ) -> Option<*mut Tower<K, V, R>> {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            let (curr, _next) = self.search_from(k, self.head, Mode::Le, guard);
            let node = tower_of(curr, 1);
            ((*node).key.as_key() == Some(k)).then_some(node)
        }
    }
}

/// A list node is a height-1 tower: its key and birth word are in the
/// block's header, one header back from its cell.
impl<K, V, R: Reclaim> LevelKeys<K, R> for FrList<K, V, R> {
    type Node = LevelCell<K, V, R>;

    // SAFETY: arithmetic within the node's block, then a field read the
    // trait's guard contract keeps valid.
    #[inline]
    unsafe fn key_ref<'n>(&self, node: *mut LevelCell<K, V, R>) -> &'n Bound<K> {
        // SAFETY: the trait's `# Safety` contract.
        unsafe { &(*tower_of(node, 1)).key }
    }

    // SAFETY: as for `key_ref`.
    #[inline]
    unsafe fn birth_cell<'n>(&self, node: *mut LevelCell<K, V, R>) -> &'n AtomicU64 {
        // SAFETY: the trait's `# Safety` contract.
        unsafe { &(*tower_of(node, 1)).birth }
    }
}

impl<K, V, R> Level<K, R> for FrList<K, V, R>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    /// `SearchFrom` is the list's level search.
    ///
    /// # Safety
    ///
    /// As for [`Level::search_level`].
    // escape: ESC.node-search: returned nodes are protected by the caller's
    // `guard`; the `# Safety` contract bounds their life to it
    unsafe fn search_level(
        &self,
        k: &K,
        curr: *mut LevelCell<K, V, R>,
        mode: Mode,
        guard: &R::Guard<'_>,
    ) -> (*mut LevelCell<K, V, R>, *mut LevelCell<K, V, R>) {
        // SAFETY: forwarded contract.
        unsafe { self.search_from(k, curr, mode, guard) }
    }

    /// Queue the unlinked node for recycling once the backend's grace
    /// period drains: key and element are dropped, the block goes back
    /// to the list's pool.
    ///
    /// # Safety
    ///
    /// As for [`Level::unlinked`].
    unsafe fn unlinked(&self, del: *mut LevelCell<K, V, R>, guard: &R::Guard<'_>) {
        // SAFETY: `del` is protected by `guard` (the trait's `# Safety`
        // contract) and its block's one cell is no longer linked.
        // unlink: UNLINK.list-del: the type-4 C&S in `help_marked` made `del`
        // unreachable from the head, and succeeds once per node
        unsafe { Tower::retire(tower_of(del, 1), &self.pool, guard) };
    }
}
