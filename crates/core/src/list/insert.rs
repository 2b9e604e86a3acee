//! `Insert` (paper Fig. 5) and the deletion routines `Delete`,
//! `TryFlag`, `HelpFlagged`, `TryMark` (paper Fig. 4/5).

use std::ptr;
use std::sync::atomic::Ordering;

use lf_metrics::CasType;
use lf_reclaim::{Publish, Reclaim};
use lf_tagged::{step, Backoff, StepKind};

use super::{Bound, FrList, Mode, Node};
use crate::pool::LocalPool;

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
        pool: &LocalPool<Node<K, V, R>>,
        guard: &R::Guard<'_>,
    ) -> Result<(), (K, V)> {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            // Line 1–3: locate the insertion point, reject duplicates.
            let (mut prev, mut next) = self.search_from(&key, self.head, Mode::Le, guard);
            if (*prev).key.as_key() == Some(&key) {
                return Err((key, value));
            }
            // Line 4: create the node on a pooled block (ownership of
            // key/value moves in; we read them back out if the insert
            // ultimately fails). Recycled blocks are re-initialized
            // through the seqlock protocol under pin-free backends.
            let (new_node, recycled) = pool.acquire(1);
            Node::init_at(
                new_node,
                Bound::Key(key),
                Some(value),
                ptr::null_mut(),
                R::birth_epoch(guard),
                recycled,
            );

            // Lines 5–22.
            let backoff = Backoff::new();
            loop {
                step(StepKind::Read);
                let prev_succ = (*prev).succ();
                if prev_succ.is_flagged() {
                    // Line 7–8: predecessor is flagged — help the deletion
                    // of its successor complete (which removes the flag).
                    self.help_flagged(prev, prev_succ.ptr(), guard);
                } else {
                    // Line 10: set the new node's successor (stamped with
                    // next's birth so pin-free readers can validate the
                    // hop). Relaxed: the node is still thread-private (or
                    // builder-bit-guarded); the Release insertion C&S
                    // below is what publishes this store (and every other
                    // field) to readers that Acquire-load prev.succ.
                    // ord: Relaxed — LIST.node-init: node is thread-private until the insert C&S
                    (*new_node)
                        .succ
                        .store(Node::clean_ptr(next), Ordering::Relaxed);
                    step(StepKind::CasInsert);
                    // Line 11: the insertion C&S (type 1). Release on
                    // success publishes the new node's initialization —
                    // the invariant every traversal relies on when it
                    // dereferences a pointer it loaded with Acquire.
                    // Acquire on failure: the value found may be a flagged
                    // pointer whose target we dereference in HelpFlagged.
                    // ord: Release/Acquire — LIST.insert-cas: publish node init; inspect failure
                    let res = (*prev).succ.compare_exchange(
                        Node::clean_ptr(next),
                        Node::clean_ptr(new_node),
                        Ordering::Release,
                        Ordering::Acquire,
                    );
                    lf_metrics::record_cas(CasType::Insert, res.is_ok());
                    match res {
                        Ok(_) => {
                            // Line 12–13: success. Relaxed: `len` is a pure
                            // statistic (never dereferenced, orders nothing).
                            // ord: Relaxed — STAT.len: pure statistic
                            self.len.fetch_add(1, Ordering::Relaxed);
                            return Ok(());
                        }
                        Err(found) => {
                            // Contended edge: let the winning thread finish
                            // before we re-read and retry.
                            backoff.spin();
                            // Line 15–16: failure due to flagging — help.
                            if found.is_flagged() {
                                self.help_flagged(prev, found.ptr(), guard);
                            }
                            // Line 17–18: failure possibly due to marking —
                            // walk backlinks to the first unmarked node.
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
                        }
                    }
                }
                // Line 19: re-search from the recovered position.
                let key_ref = (*new_node).key.as_key().expect("new node has user key");
                let (p, n) = self.search_from(key_ref, prev, Mode::Le, guard);
                prev = p;
                next = n;
                // Line 20–22: a concurrent insert won the key. The node was
                // never published, so move key/element back out and return
                // the block to the thread-local pool. (No stale reader can
                // hold this tenant's stamp — it was never reachable — so
                // releasing without a grace period is sound even under
                // pin-free backends.)
                if (*prev).key == (*new_node).key {
                    let k = ptr::read(&(*new_node).key);
                    let v = ptr::read(&(*new_node).element);
                    pool.release(new_node, 1);
                    match (k, v) {
                        (Bound::Key(k), Some(v)) => return Err((k, v)),
                        _ => unreachable!("new node always carries key and element"),
                    }
                }
            }
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
            if (*del).key.as_key() != Some(k) {
                return None;
            }
            // Line 4: first deletion step — flag the predecessor.
            // ord: Release/Acquire/Relaxed — LIST.flag-cas: wrapped flagging C&S; pred is dereferenced
            let (prev, result) = self.try_flag(prev, del, guard);
            // Line 5–6: if we know the flagged predecessor, complete the
            // marking and physical deletion (steps two and three).
            if !prev.is_null() {
                self.help_flagged(prev, del, guard);
            }
            // Line 7–8: another operation's deletion wins, or `del` vanished.
            if !result {
                return None;
            }
            // Line 9: success — this operation owns the deletion. Relaxed:
            // pure statistic (see `insert_impl`).
            // ord: Relaxed — STAT.len: pure statistic
            self.len.fetch_sub(1, Ordering::Relaxed);
            // Reading `del`'s element is safe: its initialization
            // happened-before the Acquire load that gave us `del` in
            // SearchFrom, and the guard keeps it from being reclaimed.
            Some(f((*del).element.as_ref().expect("user node has element")))
        }
    }

    /// Paper `TryFlag(prev_node, target_node)` (Fig. 5): repeatedly
    /// attempt the type-2 (flagging) C&S on `target`'s predecessor.
    ///
    /// Returns `(pred, true)` if this call placed the flag, `(pred,
    /// false)` if another operation's flag was found (that operation
    /// will report success), or `(null, false)` if `target` was deleted.
    ///
    /// # Safety
    ///
    /// `prev` and `target` must be nodes of this list protected by
    /// `guard`, with `prev` a last-known predecessor of `target`.
    // escape: ESC.node-search: the returned predecessor is protected by the
    // caller's `guard`; the `# Safety` contract bounds its life to it
    pub(crate) unsafe fn try_flag(
        &self,
        mut prev: *mut Node<K, V, R>,
        target: *mut Node<K, V, R>,
        guard: &R::Guard<'_>,
    ) -> (*mut Node<K, V, R>, bool) {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            let flagged = Node::flagged_ptr(target);
            let backoff = Backoff::new();
            loop {
                step(StepKind::Read);
                // Line 2–3: predecessor already flagged by someone else.
                if (*prev).succ() == flagged {
                    return (prev, false);
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
                let res = (*prev).succ.compare_exchange(
                    Node::clean_ptr(target),
                    flagged,
                    Ordering::Release,
                    Ordering::Acquire,
                );
                lf_metrics::record_cas(CasType::Flag, res.is_ok());
                match res {
                    // Line 5–6: we placed the flag.
                    Ok(_) => return (prev, true),
                    Err(found) => {
                        // Line 7–8: concurrent operation flagged it first.
                        if found == flagged {
                            return (prev, false);
                        }
                        // Contended edge: back off before the recovery walk
                        // and retry (paper Fig. 5 lines 9–13).
                        backoff.spin();
                        // Line 9–10: recover from marking via backlinks.
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
                        // Line 11–13: relocate target's predecessor.
                        let key_ref = (*target).key.as_key().expect("delete target has user key");
                        let (p, d) = self.search_from(key_ref, prev, Mode::Lt, guard);
                        if d != target {
                            // Target got deleted from the list.
                            return (ptr::null_mut(), false);
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
    /// `prev`/`del` must be nodes of this list protected by `guard`;
    /// `prev.succ` was observed flagged pointing at `del`.
    pub(crate) unsafe fn help_flagged(
        &self,
        prev: *mut Node<K, V, R>,
        del: *mut Node<K, V, R>,
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
            (*del).backlink.store(prev, Ordering::Release);
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
    /// `del` must be a node of this list protected by `guard`.
    pub(crate) unsafe fn try_mark(&self, del: *mut Node<K, V, R>, guard: &R::Guard<'_>) {
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
                // dereferenced below when flagged. The expected value
                // carries next's stamp, so the mark transform preserves it.
                // ord: Release/Acquire — LIST.mark-cas: mark freezes succ; failure decoded
                let res = (*del).succ.compare_exchange(
                    Node::clean_ptr(next),
                    Node::clean_ptr(next).with_mark(),
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
}
