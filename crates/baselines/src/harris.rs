//! Harris's lock-free linked list (T. Harris, *A pragmatic
//! implementation of non-blocking linked-lists*, DISC 2001) — the
//! paper's reference \[3\] and its main comparator.
//!
//! Two-step deletion: mark the victim's successor field (logical
//! deletion), then unlink it. A search snips out whole chains of marked
//! nodes with one C&S. The crucial difference from the
//! Fomitchev–Ruppert list: **any failed C&S restarts the operation from
//! the head of the list** — there are no backlinks to recover through,
//! which is what lets an adversary force `Ω(n̄·c̄)` average cost (§3.1).
//!
//! The node, sentinels, handle and trait impls are the shared
//! [`MarkedList`] core's; this module is the recovery policy.

use std::sync::atomic::{AtomicBool, Ordering};

use lf_metrics::CasType;
use lf_reclaim::{Collector, Guard, LocalHandle};
use lf_tagged::{step, StepKind, TaggedPtr};

use crate::marked::{MarkedList, Node, Ops, Recovery};

/// Harris's lock-free sorted linked list.
///
/// API mirrors the core crate's `FrList`: duplicate keys rejected, per-thread
/// handles, epoch reclamation.
///
/// # Examples
///
/// ```
/// use lf_baselines::HarrisList;
/// use lf_core::MapHandle;
///
/// let list = HarrisList::new();
/// let h = list.handle();
/// assert!(h.insert(1, "one").is_ok());
/// assert_eq!(h.insert(1, "dup"), Err((1, "dup")));
/// assert!(h.contains(&1));
/// assert_eq!(h.remove(&1), Some("one"));
/// ```
pub type HarrisList<K, V> = MarkedList<K, V, Harris>;

/// Harris's recovery: restart from the head, batch snips, epochs.
pub struct Harris;

type HNode<K, V> = Node<K, V, Harris>;

impl Recovery for Harris {
    const NAME: &'static str = "HarrisList";
    /// Claimed by the single thread that retires this node. Two snips
    /// can overlap (a later snip walks *through* an already-unlinked
    /// frozen region), so retirement must be idempotent.
    type Word<K, V> = AtomicBool;
    type Shared<K, V> = Collector;
}

impl<K, V> Ops for HarrisList<K, V>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    type Key = K;
    type Value = V;
    type Local = LocalHandle;

    fn register(&self) -> LocalHandle {
        self.shared.register()
    }

    fn insert(&self, local: &LocalHandle, key: K, value: V) -> Result<(), (K, V)> {
        let guard = local.pin();
        let new_node = HNode::alloc_user(key, value);
        // SAFETY: the guard pins this list's collector.
        unsafe {
            loop {
                let key_ref = (*new_node).key.as_key().expect("user key");
                let (left, right) = self.search(key_ref, &guard);
                if (*right).key.as_key() == Some(key_ref) {
                    return Err(HNode::into_pair(new_node));
                }
                (*new_node)
                    .succ
                    .store(TaggedPtr::unmarked(right), Ordering::SeqCst);
                step(StepKind::CasInsert);
                let res = (*left).succ.compare_exchange(
                    TaggedPtr::unmarked(right),
                    TaggedPtr::unmarked(new_node),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                );
                lf_metrics::record_cas(CasType::Insert, res.is_ok());
                if res.is_ok() {
                    self.len.fetch_add(1, Ordering::SeqCst);
                    return Ok(());
                }
                // Failure: restart (search starts from the head again).
            }
        }
    }

    fn remove_with<T>(&self, local: &LocalHandle, k: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        let guard = local.pin();
        // SAFETY: the guard pins this list's collector.
        unsafe {
            loop {
                let (_left, right) = self.search(k, &guard);
                if (*right).key.as_key() != Some(k) {
                    return None;
                }
                step(StepKind::Read);
                let right_succ = (*right).succ.load(Ordering::SeqCst);
                if right_succ.is_marked() {
                    // Another deleter got here first; restart to confirm.
                    continue;
                }
                step(StepKind::CasMark);
                let res = (*right).succ.compare_exchange(
                    right_succ,
                    right_succ.with_mark(),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                );
                lf_metrics::record_cas(CasType::Mark, res.is_ok());
                if res.is_ok() {
                    self.len.fetch_sub(1, Ordering::SeqCst);
                    let value = f((*right).element());
                    // Physical deletion: one more search snips it out.
                    let _ = self.search(k, &guard);
                    return Some(value);
                }
                // Mark failed: restart from the head.
            }
        }
    }

    fn get_with<T>(&self, local: &LocalHandle, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        let guard = local.pin();
        // SAFETY: the guard pins this list's collector; the returned
        // node stays valid while the guard lives.
        unsafe {
            let (_left, right) = self.search(key, &guard);
            ((*right).key.as_key() == Some(key)).then(|| f((*right).element()))
        }
    }

    fn amortize_pins(local: &LocalHandle, every: u32) {
        local.amortize_pins(every);
    }

    fn quiesce(local: &LocalHandle) {
        local.quiesce();
    }

    fn flush_reclamation(local: &LocalHandle) {
        local.flush();
    }
}

impl<K, V> HarrisList<K, V>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    /// Harris's `search`: returns `(left, right)` with `left.key < k <=
    /// right.key`, both unmarked at some point during the search, and
    /// `left.succ == right` (after snipping any marked chain between
    /// them). Restarts from the head whenever the snip C&S fails.
    ///
    /// # Safety
    ///
    /// `guard` must pin this list's collector; returned pointers are valid
    /// while it lives.
    unsafe fn search(&self, k: &K, guard: &Guard<'_>) -> (*mut HNode<K, V>, *mut HNode<K, V>) {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            'retry: loop {
                let mut left = self.head;
                step(StepKind::Read);
                let mut left_succ = (*left).succ.load(Ordering::SeqCst);
                let right;

                // Phase 1: locate left (last unmarked node with key < k) and
                // right (first unmarked node with key >= k).
                {
                    let mut t = self.head;
                    let mut t_succ = (*t).succ.load(Ordering::SeqCst);
                    loop {
                        if !t_succ.is_marked() {
                            left = t;
                            left_succ = t_succ;
                        }
                        t = t_succ.ptr();
                        if t.is_null() {
                            // Walked off the tail; can only happen transiently.
                            continue 'retry;
                        }
                        step(StepKind::Traverse);
                        lf_metrics::record_curr_update();
                        step(StepKind::Read);
                        t_succ = (*t).succ.load(Ordering::SeqCst);
                        if !(t_succ.is_marked() || (*t).key.cmp_key(k).is_lt()) {
                            right = t;
                            break;
                        }
                    }
                }

                // Phase 2: already adjacent?
                if left_succ.ptr() == right {
                    step(StepKind::Read);
                    if !right.is_null() && (*right).succ.load(Ordering::SeqCst).is_marked() {
                        continue 'retry;
                    }
                    return (left, right);
                }

                // Phase 3: snip the marked chain between left and right.
                step(StepKind::CasUnlink);
                let res = (*left).succ.compare_exchange(
                    left_succ,
                    TaggedPtr::unmarked(right),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                );
                lf_metrics::record_cas(CasType::Unlink, res.is_ok());
                if res.is_ok() {
                    // Retire the snipped chain. Chains from different snips
                    // can overlap (a later snip may walk through a region an
                    // earlier snip already removed, since marked successor
                    // pointers stay frozen), so each node is claimed with a
                    // CAS and retired exactly once.
                    let mut cur = left_succ.ptr();
                    while cur != right {
                        let next = (*cur).succ.load(Ordering::SeqCst).ptr();
                        if (*cur)
                            .word
                            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                            .is_ok()
                        {
                            guard.defer_drop_box(cur);
                        }
                        cur = next;
                    }
                    step(StepKind::Read);
                    if !(*right).succ.load(Ordering::SeqCst).is_marked() {
                        return (left, right);
                    }
                }
                // Failed C&S (or right got marked): restart from the head.
            }
        }
    }
}
