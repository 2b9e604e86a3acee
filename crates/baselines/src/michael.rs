//! Michael's lock-free list-based set (M. Michael, *High Performance
//! Dynamic Lock-Free Hash Tables and List-Based Sets*, SPAA 2002) —
//! the paper's reference \[8\].
//!
//! Michael kept Harris's mark-bit design but made it compatible with
//! **hazard-pointer** safe memory reclamation: a traversal publishes
//! each node in a hazard slot and re-validates its source before
//! dereferencing, and marked nodes are unlinked **one at a time** (no
//! chain snips — a chain's interior nodes couldn't all be protected).
//! Like Harris's list, any C&S failure restarts the operation from the
//! head; the Fomitchev–Ruppert backlinks are exactly what removes that
//! restart.
//!
//! Memory is managed end-to-end by [`lf_hazard`], so the workspace
//! exercises both reclamation schemes named in the paper's related
//! work (epochs in the core crate, hazard pointers here).

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

use lf_core::{ConcurrentMap, MapHandle};
use lf_hazard::{Domain, HazardHandle};
use lf_metrics::CasType;
use lf_tagged::{step, AtomicTaggedPtr, StepKind, TaggedPtr};

use crate::{metered, Bound};

#[repr(align(8))]
struct Node<K, V> {
    key: Bound<K>,
    element: Option<V>,
    /// Right pointer + mark bit (mark = this node is deleted).
    succ: AtomicTaggedPtr<Node<K, V>>,
}

impl<K, V> Node<K, V> {
    fn alloc(key: Bound<K>, element: Option<V>, right: *mut Node<K, V>) -> *mut Self {
        Box::into_raw(Box::new(Node {
            key,
            element,
            succ: AtomicTaggedPtr::new(TaggedPtr::unmarked(right)),
        }))
    }
}

/// Michael's hazard-pointer list-based set/map.
///
/// # Examples
///
/// ```
/// use lf_baselines::MichaelList;
///
/// let list = MichaelList::new();
/// let h = list.handle();
/// assert!(h.insert(1, "one").is_ok());
/// assert_eq!(h.insert(1, "dup"), Err((1, "dup")));
/// assert_eq!(h.get(&1), Some("one"));
/// assert_eq!(h.remove(&1), Some("one"));
/// assert!(!h.contains(&1));
/// ```
pub struct MichaelList<K, V> {
    head: *mut Node<K, V>,
    tail: *mut Node<K, V>,
    domain: Domain,
    len: AtomicUsize,
}

// SAFETY: all shared mutation goes through atomics; reclamation is
// hazard-pointer-protected, so cross-thread frees wait for readers.
unsafe impl<K: Send + Sync, V: Send + Sync> Send for MichaelList<K, V> {}
// SAFETY: same argument as `Send` above.
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for MichaelList<K, V> {}

impl<K, V> fmt::Debug for MichaelList<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MichaelList")
            .field("len", &self.len.load(Ordering::Relaxed))
            .finish()
    }
}

impl<K, V> Default for MichaelList<K, V>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    fn default() -> Self {
        Self::new()
    }
}

/// What `find` hands back: the predecessor's successor **field**, the
/// found node, and that node's successor snapshot. Hazard slots 0 and 1
/// protect the predecessor and found node respectively for as long as
/// the caller keeps them.
struct FindResult<K, V> {
    prev_field: *const AtomicTaggedPtr<Node<K, V>>,
    cur: *mut Node<K, V>,
    cur_succ: TaggedPtr<Node<K, V>>,
    found: bool,
}

impl<K, V> MichaelList<K, V>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    /// Create an empty list.
    pub fn new() -> Self {
        let tail = Node::alloc(Bound::PosInf, None, std::ptr::null_mut());
        let head = Node::alloc(Bound::NegInf, None, tail);
        MichaelList {
            head,
            tail,
            domain: Domain::new(),
            len: AtomicUsize::new(0),
        }
    }

    /// Register the calling thread and return an operation handle.
    pub fn handle(&self) -> MichaelHandle<'_, K, V> {
        MichaelHandle {
            list: self,
            hazard: self.domain.register(),
        }
    }

    /// Number of elements (exact when quiescent).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::SeqCst)
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Michael's `find`: position on the first node with `key >= k`,
    /// unlinking (and retiring) marked nodes one at a time. On any C&S
    /// failure or validation failure, restarts from the head.
    ///
    /// # Safety
    ///
    /// `hazard` must belong to this list's domain. On return, hazard
    /// slots 0/1 protect the predecessor/current node.
    unsafe fn find(&self, k: &K, hazard: &HazardHandle) -> FindResult<K, V> {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            'retry: loop {
                // The head is never retired; no hazard needed for it.
                hazard.clear(0);
                let mut prev_field: *const AtomicTaggedPtr<Node<K, V>> = &(*self.head).succ;
                step(StepKind::Read);
                let mut cur = (*prev_field).load(Ordering::SeqCst).ptr();
                loop {
                    // Publish cur, then validate prev still points at it
                    // cleanly (Michael's ⟨0, cur⟩ check).
                    hazard.publish(1, cur);
                    step(StepKind::Read);
                    let check = (*prev_field).load(Ordering::SeqCst);
                    if check.ptr() != cur || check.is_marked() {
                        continue 'retry;
                    }
                    step(StepKind::Read);
                    let cur_succ = (*cur).succ.load(Ordering::SeqCst);
                    if cur_succ.is_marked() {
                        // cur is logically deleted: unlink this single node.
                        step(StepKind::CasUnlink);
                        let res = (*prev_field).compare_exchange(
                            TaggedPtr::unmarked(cur),
                            TaggedPtr::unmarked(cur_succ.ptr()),
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        );
                        lf_metrics::record_cas(CasType::Unlink, res.is_ok());
                        if res.is_err() {
                            continue 'retry;
                        }
                        hazard.retire(cur);
                        cur = cur_succ.ptr();
                        lf_metrics::record_next_update();
                        continue;
                    }
                    let key_ge = match &(*cur).key {
                        Bound::NegInf => false,
                        Bound::PosInf => true,
                        Bound::Key(ck) => ck >= k,
                    };
                    if key_ge {
                        return FindResult {
                            prev_field,
                            cur,
                            cur_succ,
                            found: (*cur).key.as_key() == Some(k),
                        };
                    }
                    // Advance: cur becomes the predecessor (rotate hazards).
                    step(StepKind::Traverse);
                    hazard.publish(0, cur);
                    prev_field = &(*cur).succ;
                    cur = cur_succ.ptr();
                    lf_metrics::record_curr_update();
                }
            }
        }
    }
}

impl<K, V> Drop for MichaelList<K, V> {
    fn drop(&mut self) {
        let mut cur = self.head;
        while !cur.is_null() {
            // SAFETY: unique access (`&mut self`); nodes still linked
            // from the head were Box-allocated and are freed once here.
            let next = unsafe { (*cur).succ.load(Ordering::SeqCst).ptr() };
            // SAFETY: as above.
            drop(unsafe { Box::from_raw(cur) });
            cur = next;
        }
        let _ = self.tail;
    }
}

/// Per-thread handle to a [`MichaelList`]. Not `Send`.
pub struct MichaelHandle<'l, K, V> {
    list: &'l MichaelList<K, V>,
    hazard: HazardHandle,
}

impl<K, V> fmt::Debug for MichaelHandle<'_, K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("MichaelHandle")
    }
}

impl<K, V> MichaelHandle<'_, K, V>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    /// One metered operation; the hazard slots `find` published are
    /// cleared once `body` is done with the nodes they protect.
    fn op<T>(&self, body: impl FnOnce() -> T) -> T {
        metered(|| {
            let r = body();
            self.hazard.clear(0);
            self.hazard.clear(1);
            r
        })
    }

    /// Insert `key → value`; hands both back if `key` is present.
    pub fn insert(&self, key: K, value: V) -> Result<(), (K, V)> {
        let new_node = Node::alloc(Bound::Key(key), Some(value), std::ptr::null_mut());
        // SAFETY: `find` publishes hazard pointers for every node it
        // returns, so the dereferenced nodes cannot be freed until the
        // slots are cleared; retirement goes through the hazard domain.
        self.op(|| unsafe {
            loop {
                let key_ref = (*new_node).key.as_key().expect("user key");
                let at = self.list.find(key_ref, &self.hazard);
                if at.found {
                    let Node { key, element, .. } = *Box::from_raw(new_node);
                    break Err((key.into_key(), element.expect("user node has element")));
                }
                (*new_node)
                    .succ
                    .store(TaggedPtr::unmarked(at.cur), Ordering::SeqCst);
                step(StepKind::CasInsert);
                let res = (*at.prev_field).compare_exchange(
                    TaggedPtr::unmarked(at.cur),
                    TaggedPtr::unmarked(new_node),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                );
                lf_metrics::record_cas(CasType::Insert, res.is_ok());
                if res.is_ok() {
                    self.list.len.fetch_add(1, Ordering::SeqCst);
                    break Ok(());
                }
                // Restart from the head.
            }
        })
    }

    /// Remove `key` and apply `f` to a borrow of its value.
    pub fn remove_with<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        // SAFETY: as for `insert` — hazards protect every node `find`
        // returns until the slots are cleared.
        self.op(|| unsafe {
            loop {
                let at = self.list.find(key, &self.hazard);
                if !at.found {
                    break None;
                }
                // Logical deletion: mark cur's successor field.
                step(StepKind::CasMark);
                let res = (*at.cur).succ.compare_exchange(
                    at.cur_succ,
                    at.cur_succ.with_mark(),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                );
                lf_metrics::record_cas(CasType::Mark, res.is_ok());
                if res.is_err() {
                    continue; // restart from the head
                }
                self.list.len.fetch_sub(1, Ordering::SeqCst);
                let value = f((*at.cur).element.as_ref().expect("user node has element"));
                // Physical deletion: try the single unlink; on failure
                // a later find will do it.
                step(StepKind::CasUnlink);
                let unlinked = (*at.prev_field)
                    .compare_exchange(
                        TaggedPtr::unmarked(at.cur),
                        TaggedPtr::unmarked(at.cur_succ.ptr()),
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    )
                    .is_ok();
                lf_metrics::record_cas(CasType::Unlink, unlinked);
                if unlinked {
                    self.hazard.retire(at.cur);
                }
                break Some(value);
            }
        })
    }

    /// Look up `key` and apply `f` to a borrow of its value.
    pub fn get_with<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        // SAFETY: as for `insert` — hazards protect the traversal and
        // the found node until the slots are cleared.
        self.op(|| unsafe {
            let at = self.list.find(key, &self.hazard);
            at.found
                .then(|| f((*at.cur).element.as_ref().expect("user node has element")))
        })
    }

    /// Remove `key`, returning its value.
    pub fn remove(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.remove_with(key, V::clone)
    }

    /// Look up `key`, cloning its value.
    pub fn get(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.get_with(key, V::clone)
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &K) -> bool {
        self.get_with(key, |_| ()).is_some()
    }
}

impl<K, V> ConcurrentMap for MichaelList<K, V>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    type Key = K;
    type Value = V;
    type Handle<'a>
        = MichaelHandle<'a, K, V>
    where
        Self: 'a;

    fn handle(&self) -> Self::Handle<'_> {
        MichaelList::handle(self)
    }

    fn len(&self) -> usize {
        MichaelList::len(self)
    }
}

/// Hazard pointers take no epoch pins: the pin methods keep their
/// no-op defaults.
impl<K, V> MapHandle<K, V> for MichaelHandle<'_, K, V>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    fn insert(&self, key: K, value: V) -> Result<(), (K, V)> {
        MichaelHandle::insert(self, key, value)
    }

    fn remove_with<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        MichaelHandle::remove_with(self, key, f)
    }

    fn get_with<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        MichaelHandle::get_with(self, key, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn sequential_roundtrip() {
        let list = MichaelList::new();
        let h = list.handle();
        for k in [5, 1, 9, 3, 7] {
            assert!(h.insert(k, k * 10).is_ok());
        }
        assert_eq!(h.insert(3, 0), Err((3, 0)));
        assert_eq!(list.len(), 5);
        for k in [1, 3, 5, 7, 9] {
            assert_eq!(h.get(&k), Some(k * 10));
        }
        assert_eq!(h.remove(&5), Some(50));
        assert_eq!(h.remove(&5), None);
        assert!(!h.contains(&5));
        assert_eq!(list.len(), 4);
    }

    #[test]
    fn reinsert_after_remove() {
        let list = MichaelList::new();
        let h = list.handle();
        for round in 0..50 {
            assert!(h.insert(7, round).is_ok());
            assert_eq!(h.remove(&7), Some(round));
        }
        assert!(list.is_empty());
    }

    #[test]
    fn concurrent_unique_winners() {
        let list = Arc::new(MichaelList::new());
        let wins = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let list = list.clone();
                let wins = wins.clone();
                s.spawn(move || {
                    let h = list.handle();
                    for k in 0..100u32 {
                        if h.insert(k, ()).is_ok() {
                            wins.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        assert_eq!(wins.load(Ordering::SeqCst), 100);
        assert_eq!(list.len(), 100);
    }

    #[test]
    fn concurrent_churn_sound() {
        let list = Arc::new(MichaelList::new());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let list = list.clone();
                s.spawn(move || {
                    let h = list.handle();
                    for r in 0..400u64 {
                        let k = (r * (t + 3)) % 32;
                        if t % 2 == 0 {
                            let _ = h.insert(k, r);
                        } else {
                            let _ = h.remove(&k);
                        }
                    }
                });
            }
        });
        let h = list.handle();
        for k in 0..32u64 {
            if h.contains(&k) {
                assert!(h.get(&k).is_some());
            }
        }
        drop(h);
        list.validate_quiescent();
    }

    /// Values are freed through hazard-pointer scans, not just at drop.
    #[test]
    fn hazard_reclamation_frees_before_drop() {
        #[derive(Clone, Debug)]
        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let list = MichaelList::new();
        let h = list.handle();
        const N: u32 = 300;
        for k in 0..N {
            assert!(h.insert(k, Counted(drops.clone())).is_ok());
        }
        for k in 0..N {
            drop(h.remove(&k)); // drops the clone immediately
        }
        // Clones account for N; originals free via scans.
        let freed_originals = drops.load(Ordering::SeqCst).saturating_sub(N as usize);
        assert!(
            freed_originals >= (N as usize) / 2,
            "hazard scans freed only {freed_originals}/{N}"
        );
    }
}

#[allow(clippy::items_after_test_module)]
impl<K, V> MichaelList<K, V>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    /// Check structural invariants on a **quiescent** list (see
    /// `HarrisList::validate_quiescent`).
    ///
    /// # Panics
    ///
    /// Panics with a description of the violated invariant.
    pub fn validate_quiescent(&self) {
        let mut count = 0usize;
        // SAFETY: quiescent-only walk — the caller guarantees no
        // concurrent operations, so every reachable node stays valid.
        unsafe {
            let mut cur = self.head;
            loop {
                let succ = (*cur).succ.load(Ordering::SeqCst);
                assert!(!succ.is_marked(), "quiescent list has a marked node");
                let next = succ.ptr();
                if next.is_null() {
                    assert_eq!(cur, self.tail, "chain ends before the tail");
                    break;
                }
                assert!((*cur).key < (*next).key, "keys not strictly sorted");
                if (*next).key.as_key().is_some() {
                    count += 1;
                }
                cur = next;
            }
        }
        assert_eq!(count, self.len(), "len counter disagrees with chain");
    }
}
