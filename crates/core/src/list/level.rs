//! The linked-list level protocol (paper Figs. 3–5), written once.
//!
//! The list is one level; every skip-list level is another instance of
//! the same list (§4). [`LevelNode`] gives a node type the `succ` and
//! `backlink` accessors the protocol needs, [`LevelKeys`] reads a
//! node's key and birth word (from the node on the list, from the
//! tower's header on a skip-list level, which is why those reads take
//! the level and not just the node), and [`Level`] runs the protocol
//! over one level:
//! `TryFlag`, `HelpFlagged`, `TryMark`, `HelpMarked`, the insertion
//! loop `InsertNode` and `Delete`'s flag-then-help step. A level
//! supplies only its search (`SearchFrom` on the list, `SearchRight` on
//! a skip-list level) and what follows a successful unlink (the list
//! retires the node; a skip-list level releases a tower reference).

use std::fmt;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

use lf_metrics::CasType;
use lf_reclaim::Reclaim;
use lf_tagged::{step, AtomicTaggedPtr, Backoff, StepKind, TaggedPtr};

use super::Mode;
use crate::tower::Bound;

/// Outcome of `TryFlag`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum FlagStatus {
    /// This call placed the flag: it owns the deletion.
    Placed,
    /// Another operation's flag is in place (that operation reports
    /// the deletion).
    Found,
    /// The target is no longer in this level's list.
    Deleted,
}

/// A node of one level: the paper's `succ` and `backlink` fields. Its
/// key and birth word are read through the level ([`LevelKeys`]): the
/// list keeps them in the node, a skip-list level in the tower's header.
pub(crate) trait LevelNode: Sized {
    /// The composite successor field `(right, mark, flag)`.
    fn succ_cell(&self) -> &AtomicTaggedPtr<Self>;
    /// Set (to the flagged predecessor) immediately before the node is
    /// marked; never changes afterwards (paper INV 4).
    fn backlink_cell(&self) -> &AtomicPtr<Self>;

    /// Load the successor field.
    ///
    /// Acquire: the `right` pointer in the returned snapshot may be
    /// dereferenced by the caller, so this load must synchronize with
    /// the Release C&S that published the pointee's initialization
    /// (insertion C&S, Fig. 5 line 11; or the unlink C&S of
    /// `HelpMarked`, Fig. 3, which re-publishes its `next` operand).
    #[inline]
    fn succ(&self) -> TaggedPtr<Self> {
        // ord: Acquire — LIST.traverse: loaded pointer is the next hop
        self.succ_cell().load(Ordering::Acquire)
    }

    /// The `right` pointer component of the successor field.
    #[inline]
    fn right(&self) -> *mut Self {
        self.succ().ptr()
    }

    /// Whether the node is marked (logically deleted at its level).
    #[inline]
    fn is_marked(&self) -> bool {
        self.succ().is_marked()
    }

    /// Load the backlink.
    ///
    /// Acquire: the returned predecessor is dereferenced by recovery
    /// walks; pairs with the Release store in `HelpFlagged` (Fig. 4
    /// line 1) to carry the happens-before edge to the predecessor's
    /// initialization.
    #[inline]
    // escape: ESC.node-accessor: the backlink stays valid while `self` is
    // protected by the caller's guard (backlinks point at older nodes)
    fn backlink(&self) -> *mut Self {
        // ord: Acquire — LIST.backlink-walk: predecessor is dereferenced
        self.backlink_cell().load(Ordering::Acquire)
    }

    /// The recovery walk (Fig. 5 lines 9–10 and 17–18): follow
    /// backlinks from `node` to the first unmarked node.
    ///
    /// # Safety
    ///
    /// `node` must be protected by the caller's guard.
    // escape: ESC.node-accessor: each hop is a backlink, valid while the
    // walk's start is protected by the caller's guard
    unsafe fn first_unmarked(mut node: *mut Self) -> *mut Self {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            loop {
                step(StepKind::Read);
                if !(*node).is_marked() {
                    return node;
                }
                step(StepKind::Backlink);
                // ord: Acquire — LIST.backlink-walk: recovered pred is dereferenced
                let back = (*node).backlink();
                debug_assert!(!back.is_null(), "marked node lacks backlink");
                node = back;
                lf_metrics::record_backlink();
            }
        }
    }
}

/// The header reads of one level's nodes: the key and the birth word
/// that stamps every published pointer to a node. The list reads both
/// from the node itself; a skip-list level finds them in the tower's
/// header, by arithmetic on the cell's address and the level.
pub(crate) trait LevelKeys<K, R: Reclaim> {
    /// The level's node type.
    type Node: LevelNode;

    /// `node`'s key.
    ///
    /// # Safety
    ///
    /// `node` must be a node of this level protected by a guard that
    /// outlives `'n`.
    unsafe fn key_ref<'n>(&self, node: *mut Self::Node) -> &'n Bound<K>;

    /// The birth-epoch word of `node`'s tenant (DESIGN.md §9.7).
    ///
    /// # Safety
    ///
    /// As for [`key_ref`](Self::key_ref).
    unsafe fn birth_cell<'n>(&self, node: *mut Self::Node) -> &'n AtomicU64;

    /// The 16-bit pointer stamp for `ptr`: the low bits of its current
    /// birth under pin-free backends, 0 otherwise (const-folds away).
    ///
    /// # Safety
    ///
    /// `ptr` must be null or a node of this level the caller's guard
    /// protects (its birth cannot change while protected, so the value
    /// equals the stamp embedded in every published pointer to this
    /// tenant).
    #[inline]
    unsafe fn stamp_of(&self, ptr: *mut Self::Node) -> u16 {
        if R::PIN_FREE_READS && !ptr.is_null() {
            // SAFETY: non-null and guard-protected per contract.
            // ord: Relaxed — VBR.birth-stamp: the value is fixed for
            // the tenant's lifetime; visibility rides the pointer's
            // own publication edge.
            (unsafe { self.birth_cell(ptr).load(Ordering::Relaxed) } & 0xffff) as u16
        } else {
            0
        }
    }

    /// A clean (unmarked, unflagged) tagged pointer to `ptr` carrying
    /// its birth stamp — the canonical form every C&S stores.
    ///
    /// # Safety
    ///
    /// Same contract as [`stamp_of`](Self::stamp_of).
    #[inline]
    unsafe fn clean_ptr(&self, ptr: *mut Self::Node) -> TaggedPtr<Self::Node> {
        // SAFETY: forwarded contract.
        TaggedPtr::unmarked(ptr).with_stamp(unsafe { self.stamp_of(ptr) })
    }

    /// A flagged tagged pointer to `ptr` carrying its birth stamp.
    ///
    /// # Safety
    ///
    /// Same contract as [`stamp_of`](Self::stamp_of).
    #[inline]
    unsafe fn flagged_ptr(&self, ptr: *mut Self::Node) -> TaggedPtr<Self::Node> {
        // SAFETY: forwarded contract.
        unsafe { self.clean_ptr(ptr) }.with_flag()
    }
}

/// One level's list: the protocol routines over its nodes. A level
/// provides its search and its unlink action; everything else is
/// shared.
pub(crate) trait Level<K: Ord, R: Reclaim>: LevelKeys<K, R> {
    /// The level's search from `curr`: `SearchFrom` on the list,
    /// `SearchRight` on a skip-list level. Returns consecutive nodes
    /// `(n1, n2)` around `k` per `mode`.
    ///
    /// # Safety
    ///
    /// `curr` must be a node of this level protected by `guard`,
    /// satisfying the search precondition (`curr.key` before `k`).
    unsafe fn search_level(
        &self,
        k: &K,
        curr: *mut Self::Node,
        mode: Mode,
        guard: &R::Guard<'_>,
    ) -> (*mut Self::Node, *mut Self::Node);

    /// Called once per node, right after the unlink C&S that removed
    /// `del` from this level succeeded.
    ///
    /// # Safety
    ///
    /// `del` was just unlinked by this thread's C&S and is protected
    /// by `guard`.
    unsafe fn unlinked(&self, del: *mut Self::Node, guard: &R::Guard<'_>);

    /// Paper `InsertNode` — `Insert`'s loop, Fig. 5 lines 5–22: link
    /// the unpublished `new_node` between `*prev` and `*next`, helping
    /// and recovering on C&S failure. Returns `false` if a node with
    /// `new_node`'s key occupies the level (`new_node` then stays
    /// unpublished). `prev`/`next` are updated in place so the caller
    /// can continue from the final position.
    ///
    /// # Safety
    ///
    /// `new_node` is unpublished at this level and owned by the caller;
    /// `*prev` and `*next` are nodes of this level protected by `guard`
    /// bracketing `new_node`'s key.
    unsafe fn insert_node(
        &self,
        new_node: *mut Self::Node,
        prev: &mut *mut Self::Node,
        next: &mut *mut Self::Node,
        guard: &R::Guard<'_>,
    ) -> bool {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            if self.key_ref(*prev) == self.key_ref(new_node) {
                return false;
            }
            let backoff = Backoff::new();
            loop {
                step(StepKind::Read);
                let prev_succ = (**prev).succ();
                if prev_succ.is_flagged() {
                    // Line 7–8: predecessor is flagged — help the deletion
                    // of its successor complete (which removes the flag).
                    self.help_flagged(*prev, prev_succ.ptr(), guard);
                } else {
                    // Line 10: set the new node's successor (stamped with
                    // next's birth so pin-free readers can validate the
                    // hop). Relaxed: the node is still unpublished (or
                    // builder-bit-guarded); the Release insertion C&S
                    // below is what publishes this store (and every other
                    // field) to readers that Acquire-load prev.succ.
                    // ord: Relaxed — LIST.node-init: node is thread-private until the insert C&S
                    (*new_node)
                        .succ_cell()
                        .store(self.clean_ptr(*next), Ordering::Relaxed);
                    step(StepKind::CasInsert);
                    // Line 11: the insertion C&S (type 1). Release on
                    // success publishes the new node's initialization —
                    // the invariant every traversal relies on when it
                    // dereferences a pointer it loaded with Acquire.
                    // Acquire on failure: the value found may be a flagged
                    // pointer whose target we dereference in HelpFlagged.
                    // The new value carries new_node's stamp so pin-free
                    // readers can validate the hop.
                    // ord: Release/Acquire — LIST.insert-cas: publish node init; inspect failure
                    let res = (**prev).succ_cell().compare_exchange(
                        self.clean_ptr(*next),
                        self.clean_ptr(new_node),
                        Ordering::Release,
                        Ordering::Acquire,
                    );
                    lf_metrics::record_cas(CasType::Insert, res.is_ok());
                    match res {
                        Ok(_) => return true,
                        Err(found) => {
                            // Contended edge: let the winning thread finish
                            // before we re-read and retry.
                            backoff.spin();
                            // Line 15–16: failure due to flagging — help.
                            if found.is_flagged() {
                                self.help_flagged(*prev, found.ptr(), guard);
                            }
                            // Line 17–18: failure possibly due to marking —
                            // walk backlinks to the first unmarked node.
                            // ord: Acquire — LIST.backlink-walk: recovered pred is dereferenced
                            *prev = Self::Node::first_unmarked(*prev);
                        }
                    }
                }
                // Line 19: re-search from the recovered position.
                let key_ref = self
                    .key_ref(new_node)
                    .as_key()
                    .expect("new node has user key");
                // ord: Release/Acquire/Relaxed — LIST.flag-cas: reposition after failed CAS helps deletions (wrapped C&S)
                let (p, n) = self.search_level(key_ref, *prev, Mode::Le, guard);
                *prev = p;
                *next = n;
                // Line 20–22: a concurrent insert won the key.
                if self.key_ref(*prev) == self.key_ref(new_node) {
                    return false;
                }
            }
        }
    }

    /// Paper `Delete` lines 4–8 (Fig. 4) on one level: `TryFlag`
    /// `del`'s predecessor, then — unless `del` vanished first —
    /// `HelpFlagged` completes the marking and physical deletion.
    ///
    /// Returns `TryFlag`'s last predecessor and status;
    /// [`FlagStatus::Placed`] means this call owns the deletion.
    ///
    /// # Safety
    ///
    /// `prev`/`del` are nodes of this level protected by `guard`, `prev`
    /// a last-known predecessor of `del`.
    // escape: ESC.node-search: the returned predecessor is protected by the
    // caller's `guard`; the `# Safety` contract bounds its life to it
    unsafe fn delete_node(
        &self,
        prev: *mut Self::Node,
        del: *mut Self::Node,
        guard: &R::Guard<'_>,
    ) -> (*mut Self::Node, FlagStatus) {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            // Line 4: first deletion step — flag the predecessor.
            // ord: Release/Acquire/Relaxed — LIST.flag-cas: wrapped flagging C&S; pred is dereferenced
            let (prev, status) = self.try_flag(prev, del, guard);
            // Line 5–6: if we know the flagged predecessor, complete the
            // marking and physical deletion (steps two and three).
            if status != FlagStatus::Deleted {
                self.help_flagged(prev, del, guard);
            }
            (prev, status)
        }
    }

    /// Paper `TryFlag(prev_node, target_node)` (Fig. 5): repeatedly
    /// attempt the type-2 (flagging) C&S on `target`'s predecessor,
    /// relocating the predecessor through backlinks and a search as
    /// needed. Returns the last predecessor and the outcome.
    ///
    /// # Safety
    ///
    /// `prev` and `target` must be nodes of this level protected by
    /// `guard`, with `prev` a last-known predecessor of `target`.
    // escape: ESC.node-search: the returned predecessor is protected by the
    // caller's `guard`; the `# Safety` contract bounds its life to it
    unsafe fn try_flag(
        &self,
        mut prev: *mut Self::Node,
        target: *mut Self::Node,
        guard: &R::Guard<'_>,
    ) -> (*mut Self::Node, FlagStatus) {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            // Stamp-carrying operands: `target`'s birth is constant while
            // the guard protects it, so every helper recomputes exactly
            // the stamp the publishing C&S stored.
            let flagged = self.flagged_ptr(target);
            let backoff = Backoff::new();
            loop {
                step(StepKind::Read);
                // Line 2–3: predecessor already flagged by someone else.
                if (*prev).succ() == flagged {
                    return (prev, FlagStatus::Found);
                }
                step(StepKind::CasFlag);
                // Line 4: the flagging C&S (type 2). Release on success: the
                // flag freezes the edge prev → target and is read by helpers
                // through Acquire loads that then dereference `target`; as
                // an RMW it extends the release sequence of the C&S that
                // published `target`, and Release additionally orders this
                // thread's prior accesses for those helpers. Acquire on
                // failure: the found pointer may be dereferenced (flagged →
                // HelpFlagged) or its key read after the backlink walk.
                // ord: Release/Acquire/Relaxed — LIST.flag-cas: freeze edge; failure is decoded
                let res = (*prev).succ_cell().compare_exchange(
                    self.clean_ptr(target),
                    flagged,
                    Ordering::Release,
                    Ordering::Acquire,
                );
                lf_metrics::record_cas(CasType::Flag, res.is_ok());
                match res {
                    // Line 5–6: we placed the flag.
                    Ok(_) => return (prev, FlagStatus::Placed),
                    Err(found) => {
                        // Line 7–8: concurrent operation flagged it first.
                        if found == flagged {
                            return (prev, FlagStatus::Found);
                        }
                        // Contended edge: back off before the recovery walk
                        // and retry (paper Fig. 5 lines 9–13).
                        backoff.spin();
                        // Line 9–10: recover from marking via backlinks.
                        // ord: Acquire — LIST.backlink-walk: recovered pred is dereferenced
                        prev = Self::Node::first_unmarked(prev);
                        // Line 11–13: relocate target's predecessor.
                        let key_ref = self.key_ref(target).as_key().expect("target has user key");
                        // ord: Release/Acquire/Relaxed — LIST.flag-cas: recovery search helps deletions (wrapped C&S)
                        let (p, d) = self.search_level(key_ref, prev, Mode::Lt, guard);
                        if d != target {
                            return (p, FlagStatus::Deleted);
                        }
                        prev = p;
                    }
                }
            }
        }
    }

    /// Paper `HelpFlagged(prev_node, del_node)` (Fig. 4): performs
    /// deletion steps two (backlink + mark) and three (physical delete)
    /// for the deletion announced by `prev`'s flag.
    ///
    /// # Safety
    ///
    /// `prev`/`del` must be nodes of this level protected by `guard`;
    /// `prev.succ` was observed flagged pointing at `del`.
    unsafe fn help_flagged(
        &self,
        prev: *mut Self::Node,
        del: *mut Self::Node,
        guard: &R::Guard<'_>,
    ) {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            step(StepKind::Write);
            // Line 1: the backlink is set *before* the node can be marked,
            // and every helper writes the same predecessor (the flag freezes
            // the edge prev → del until physical deletion), so the backlink
            // never changes once set (INV 4). Release: recovery walks
            // Acquire-load this field and dereference `prev`; the edge
            // carries the happens-before to prev's initialization (which we
            // hold from the Acquire load that found the flag). Backlinks
            // are walked only by pinned threads, so they carry no stamp.
            // ord: Release — LIST.backlink-set: set before mark, read after mark
            (*del).backlink_cell().store(prev, Ordering::Release);
            step(StepKind::Read);
            // Line 2–3: second deletion step.
            if !(*del).is_marked() {
                self.try_mark(del, guard);
            }
            // Line 4: third deletion step.
            self.help_marked(prev, del, guard);
        }
    }

    /// Paper `TryMark(del_node)` (Fig. 4): loop the type-3 (marking)
    /// C&S until `del` is marked (by us or anyone).
    ///
    /// # Safety
    ///
    /// `del` must be a node of this level protected by `guard`.
    unsafe fn try_mark(&self, del: *mut Self::Node, guard: &R::Guard<'_>) {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            let backoff = Backoff::new();
            loop {
                step(StepKind::Read);
                // Line 2: read the right pointer (Acquire via `right`; the
                // unlink C&S will re-install `next` into the predecessor).
                let next = (*del).right();
                step(StepKind::CasMark);
                // Line 3: the marking C&S (type 3). Release on success: the
                // mark freezes `succ` forever (INV 2); unlinkers Acquire-load
                // the frozen field and install its `next` into the
                // predecessor, relying on this RMW extending next's release
                // sequence. Acquire on failure: the found pointer is
                // dereferenced below when flagged. Both operands recompute
                // next's stamp (stable under the guard), so marking
                // preserves the stamp stored by the edge's publisher.
                // ord: Release/Acquire — LIST.mark-cas: mark freezes succ; failure decoded
                let res = (*del).succ_cell().compare_exchange(
                    self.clean_ptr(next),
                    self.clean_ptr(next).with_mark(),
                    Ordering::Release,
                    Ordering::Acquire,
                );
                lf_metrics::record_cas(CasType::Mark, res.is_ok());
                // Line 4–5: failure due to flagging — help that deletion
                // finish first (it will unflag `del`).
                if let Err(found) = res {
                    if found.is_flagged() {
                        self.help_flagged(del, found.ptr(), guard);
                    }
                }
                step(StepKind::Read);
                // Line 6: repeat until marked.
                if (*del).is_marked() {
                    return;
                }
                // Still unmarked: we lost a C&S race on this field; back off
                // before retrying it.
                backoff.spin();
            }
        }
    }

    /// Paper `HelpMarked(prev_node, del_node)` (Fig. 3): the type-4
    /// (physical deletion) C&S. On success, `del` has been unlinked and
    /// is handed to [`Level::unlinked`].
    ///
    /// # Safety
    ///
    /// `prev` and `del` must be nodes of this level protected by `guard`.
    unsafe fn help_marked(
        &self,
        prev: *mut Self::Node,
        del: *mut Self::Node,
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
            let res = (*prev).succ_cell().compare_exchange(
                self.flagged_ptr(del),
                self.clean_ptr(next),
                Ordering::Release,
                Ordering::Relaxed,
            );
            lf_metrics::record_cas(CasType::Unlink, res.is_ok());
            if res.is_ok() {
                // Exactly one unlink C&S succeeds per node (its predecessor
                // is unique and flagged, and a physically deleted node can
                // never be re-linked), so this runs exactly once per node.
                self.unlinked(del, guard);
            }
        }
    }
}

// ---------- quiescent diagnostics, one level at a time ----------

/// Check one quiescent level `lvl` from `head` to `tail`: no node
/// marked or flagged, every published stamp matching its pointee's
/// birth, keys strictly sorted, the chain ending at `tail`. Calls
/// `on_node` for each user node and returns their count. `l` numbers
/// the level in messages.
///
/// # Safety
///
/// No operation runs and nothing is reclaimed during the walk.
pub(crate) unsafe fn validate_level<K: Ord, R: Reclaim, L: LevelKeys<K, R>>(
    lvl: &L,
    head: *mut L::Node,
    tail: *mut L::Node,
    l: usize,
    mut on_node: impl FnMut(*mut L::Node),
) -> usize {
    let mut count = 0;
    let mut cur = head;
    // SAFETY: the fn's `# Safety` contract covers the whole body.
    unsafe {
        loop {
            // ord: Acquire — DIAG.quiescent: quiescent-only diagnostic walk
            let succ = (*cur).succ_cell().load(Ordering::Acquire);
            assert!(!succ.is_marked(), "marked node at level {l}");
            assert!(!succ.is_flagged(), "flagged node at level {l}");
            let next = succ.ptr();
            if next.is_null() {
                assert_eq!(cur, tail, "level {l} chain ends before the tail sentinel");
                return count;
            }
            assert_eq!(succ.stamp(), lvl.stamp_of(next), "stale stamp at level {l}");
            let key = lvl.key_ref(next);
            assert!(
                lvl.key_ref(cur) < key,
                "keys not strictly sorted at level {l}"
            );
            if key.as_key().is_some() {
                count += 1;
                on_node(next);
            }
            cur = next;
        }
    }
}

/// Check the paper's §3.3 invariants INV 1–5 on one level `lvl` from `head`
/// to `tail`, which may hold marked and flagged nodes (see
/// [`FrList::check_invariants`](crate::FrList::check_invariants)).
/// Calls `on_node` for each user node. `l` numbers the level in
/// messages.
///
/// # Safety
///
/// No operation runs and nothing is reclaimed during the walk.
pub(crate) unsafe fn check_level<K: Ord + fmt::Debug, R: Reclaim, L: LevelKeys<K, R>>(
    lvl: &L,
    head: *mut L::Node,
    tail: *mut L::Node,
    l: usize,
    mut on_node: impl FnMut(*mut L::Node),
) {
    let mut prev: *mut L::Node = std::ptr::null_mut();
    let mut prev_succ = TaggedPtr::null();
    let mut cur = head;
    // SAFETY: the fn's `# Safety` contract covers the whole body.
    unsafe {
        loop {
            let succ = (*cur).succ();
            let key = lvl.key_ref(cur);
            assert!(
                !(succ.is_marked() && succ.is_flagged()),
                "INV5 at level {l}: node {key:?} both marked and flagged"
            );
            if !prev.is_null() {
                let prev_key = lvl.key_ref(prev);
                assert!(prev_key < key, "INV1 at level {l}: {prev_key:?} !< {key:?}");
                // Logically deleted: marked, linked from a regular node.
                if succ.is_marked() && !prev_succ.is_marked() {
                    assert!(
                        prev_succ.is_flagged(),
                        "INV3 at level {l}: pred {prev_key:?} of logically deleted {key:?} is not flagged"
                    );
                    assert!(
                        !(*succ.ptr()).is_marked(),
                        "INV3 at level {l}: successor of logically deleted {key:?} is marked"
                    );
                    // ord: Acquire — DIAG.quiescent: diagnostic walk, no operation running
                    let back = (*cur).backlink();
                    assert_eq!(
                        back, prev,
                        "INV4 at level {l}: backlink of logically deleted {key:?} is not its pred {prev_key:?}"
                    );
                }
            }
            if key.as_key().is_some() {
                on_node(cur);
            }
            let next = succ.ptr();
            if next.is_null() {
                assert_eq!(cur, tail, "INV2: level {l} chain does not end at the tail");
                return;
            }
            prev = cur;
            prev_succ = succ;
            cur = next;
        }
    }
}

/// `(key, marked, flagged)` for every node of one level `lvl` from `head`,
/// sentinels included (their key is `None`).
///
/// # Safety
///
/// As for [`check_level`].
pub(crate) unsafe fn dump_level<K: Clone, R: Reclaim, L: LevelKeys<K, R>>(
    lvl: &L,
    head: *mut L::Node,
) -> Vec<(Option<K>, bool, bool)> {
    let mut out = Vec::new();
    let mut cur = head;
    while !cur.is_null() {
        // SAFETY: the fn's `# Safety` contract.
        unsafe {
            let succ = (*cur).succ();
            let key = lvl.key_ref(cur).as_key().cloned();
            out.push((key, succ.is_marked(), succ.is_flagged()));
            cur = succ.ptr();
        }
    }
    out
}
