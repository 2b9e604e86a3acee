//! The flag-bit ablation ("Valois-style" recovery): backlinks
//! **without** flag bits.
//!
//! Deletion is two-step (mark, then unlink), as in Harris/Michael, but
//! before marking, the deleter stores a backlink to its *last known*
//! predecessor — which, without the paper's flag bits, may itself
//! already be marked. Operations recover from C&S failures by walking
//! backlinks instead of restarting, exactly like the
//! Fomitchev–Ruppert list, but because backlinks can point at marked
//! nodes, chains of backlinks can **grow rightwards** and be traversed
//! repeatedly — the §3.1 pathology that flag bits exist to eliminate.
//! Experiment E8 measures exactly this difference.
//!
//! # Memory
//!
//! Because a backlink may target a node that was unlinked arbitrarily
//! long ago, epoch reclamation cannot prove those targets alive.
//! Unlinked nodes therefore go to a *graveyard* freed only when the
//! list is dropped. This ablation trades memory for fidelity to the
//! recovery behaviour being measured; the paper treats memory
//! management as orthogonal (§5).

use std::fmt;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::Mutex;

use lf_core::{ConcurrentMap, MapHandle};
use lf_metrics::CasType;
use lf_tagged::{step, AtomicTaggedPtr, StepKind, TaggedPtr};

use crate::{metered, Bound};

#[repr(align(8))]
struct Node<K, V> {
    key: Bound<K>,
    element: Option<V>,
    succ: AtomicTaggedPtr<Node<K, V>>,
    backlink: AtomicPtr<Node<K, V>>,
}

impl<K, V> Node<K, V> {
    fn alloc(key: Bound<K>, element: Option<V>, right: *mut Node<K, V>) -> *mut Self {
        Box::into_raw(Box::new(Node {
            key,
            element,
            succ: AtomicTaggedPtr::new(TaggedPtr::unmarked(right)),
            backlink: AtomicPtr::new(std::ptr::null_mut()),
        }))
    }

    #[inline]
    fn succ(&self) -> TaggedPtr<Node<K, V>> {
        self.succ.load(Ordering::SeqCst)
    }

    #[inline]
    fn right(&self) -> *mut Node<K, V> {
        self.succ().ptr()
    }

    #[inline]
    fn is_marked(&self) -> bool {
        self.succ().is_marked()
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Mode {
    Le,
    Lt,
}

#[inline]
fn key_before<K: Ord>(node_key: &Bound<K>, k: &K, mode: Mode) -> bool {
    match node_key {
        Bound::NegInf => true,
        Bound::PosInf => false,
        Bound::Key(nk) => match mode {
            Mode::Le => nk <= k,
            Mode::Lt => nk < k,
        },
    }
}

/// Backlinks-without-flags list (ablation baseline for experiment E8).
///
/// # Examples
///
/// ```
/// use lf_baselines::NoFlagList;
/// use lf_core::MapHandle;
///
/// let list = NoFlagList::new();
/// let h = list.handle();
/// assert!(h.insert(7, "seven").is_ok());
/// assert_eq!(h.remove(&7), Some("seven"));
/// assert!(!h.contains(&7));
/// ```
pub struct NoFlagList<K, V> {
    head: *mut Node<K, V>,
    tail: *mut Node<K, V>,
    len: AtomicUsize,
    /// Unlinked nodes, freed on drop (see module docs).
    graveyard: Mutex<Vec<usize>>,
}

// SAFETY: all shared mutation goes through atomics; unlinked nodes are
// parked in the graveyard (never freed while the list lives), so raw
// pointers stay valid for the list's lifetime.
unsafe impl<K: Send + Sync, V: Send + Sync> Send for NoFlagList<K, V> {}
// SAFETY: same argument as `Send` above.
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for NoFlagList<K, V> {}

impl<K, V> fmt::Debug for NoFlagList<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NoFlagList")
            .field("len", &self.len.load(Ordering::Relaxed))
            .finish()
    }
}

impl<K, V> Default for NoFlagList<K, V>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> NoFlagList<K, V>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    /// Create an empty list.
    pub fn new() -> Self {
        let tail = Node::alloc(Bound::PosInf, None, std::ptr::null_mut());
        let head = Node::alloc(Bound::NegInf, None, tail);
        NoFlagList {
            head,
            tail,
            len: AtomicUsize::new(0),
            graveyard: Mutex::new(Vec::new()),
        }
    }

    /// Per-thread handle (API symmetry with the other lists; this
    /// structure has no per-thread reclamation state).
    pub fn handle(&self) -> NoFlagHandle<'_, K, V> {
        NoFlagHandle { list: self }
    }

    /// Number of elements (exact when quiescent).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::SeqCst)
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Physically unlink the marked `del` from `prev` (both-clean CAS).
    ///
    /// # Safety
    ///
    /// `prev` and `del` must be nodes of this list (unlinked nodes stay
    /// valid via the graveyard).
    unsafe fn help_marked(&self, prev: *mut Node<K, V>, del: *mut Node<K, V>) {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            step(StepKind::Read);
            let next = (*del).right();
            step(StepKind::CasUnlink);
            let res = (*prev).succ.compare_exchange(
                TaggedPtr::unmarked(del),
                TaggedPtr::unmarked(next),
                Ordering::SeqCst,
                Ordering::SeqCst,
            );
            lf_metrics::record_cas(CasType::Unlink, res.is_ok());
            if res.is_ok() {
                self.graveyard.lock().unwrap().push(del as usize);
            }
        }
    }

    /// FR-style `SearchFrom` without the flag machinery.
    ///
    /// # Safety
    ///
    /// `curr` must be a node of this list with `curr.key <= k`.
    unsafe fn search_from(
        &self,
        k: &K,
        mut curr: *mut Node<K, V>,
        mode: Mode,
    ) -> (*mut Node<K, V>, *mut Node<K, V>) {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            step(StepKind::Read);
            let mut next = (*curr).right();
            while key_before(&(*next).key, k, mode) {
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
                    if (*curr).right() == next {
                        self.help_marked(curr, next);
                    }
                    step(StepKind::Read);
                    next = (*curr).right();
                    lf_metrics::record_next_update();
                }
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

    /// Walk backlinks from a marked node to the first unmarked one.
    /// Without flags this chain can be long and can revisit nodes.
    ///
    /// # Safety
    ///
    /// `prev` must be a node of this list.
    unsafe fn recover(&self, mut prev: *mut Node<K, V>) -> *mut Node<K, V> {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            loop {
                step(StepKind::Read);
                if !(*prev).is_marked() {
                    break;
                }
                step(StepKind::Backlink);
                let back = (*prev).backlink.load(Ordering::SeqCst);
                if back.is_null() {
                    // Marked before any deleter stored a backlink is
                    // impossible (store precedes mark), but be defensive:
                    // restart from the head.
                    return self.head;
                }
                prev = back;
                lf_metrics::record_backlink();
            }
            prev
        }
    }

    /// # Safety
    ///
    /// Must only be called while the list is live; node pointers stay
    /// valid via the graveyard.
    unsafe fn insert_impl(&self, key: K, value: V) -> Result<(), (K, V)> {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            let (mut prev, mut next) = self.search_from(&key, self.head, Mode::Le);
            if (*prev).key.as_key() == Some(&key) {
                return Err((key, value));
            }
            let new_node = Node::alloc(Bound::Key(key), Some(value), std::ptr::null_mut());
            loop {
                (*new_node)
                    .succ
                    .store(TaggedPtr::unmarked(next), Ordering::SeqCst);
                step(StepKind::CasInsert);
                let res = (*prev).succ.compare_exchange(
                    TaggedPtr::unmarked(next),
                    TaggedPtr::unmarked(new_node),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                );
                lf_metrics::record_cas(CasType::Insert, res.is_ok());
                if res.is_ok() {
                    self.len.fetch_add(1, Ordering::SeqCst);
                    return Ok(());
                }
                prev = self.recover(prev);
                let key_ref = (*new_node).key.as_key().expect("user key");
                let (p, n) = self.search_from(key_ref, prev, Mode::Le);
                prev = p;
                next = n;
                if (*prev).key == (*new_node).key {
                    let Node { key, element, .. } = *Box::from_raw(new_node);
                    return Err((key.into_key(), element.expect("user node has element")));
                }
            }
        }
    }

    /// # Safety
    ///
    /// Must only be called while the list is live; node pointers stay
    /// valid via the graveyard.
    unsafe fn delete_impl<T>(&self, k: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            let (mut prev, del) = self.search_from(k, self.head, Mode::Lt);
            if (*del).key.as_key() != Some(k) {
                return None;
            }
            loop {
                // Store the backlink to the last-known predecessor *before*
                // marking — without a flag, `prev` may already be marked.
                step(StepKind::Write);
                (*del).backlink.store(prev, Ordering::SeqCst);
                step(StepKind::Read);
                let del_succ = (*del).succ();
                if del_succ.is_marked() {
                    // Another operation's deletion wins.
                    return None;
                }
                step(StepKind::CasMark);
                let res = (*del).succ.compare_exchange(
                    del_succ,
                    del_succ.with_mark(),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                );
                lf_metrics::record_cas(CasType::Mark, res.is_ok());
                if res.is_ok() {
                    self.len.fetch_sub(1, Ordering::SeqCst);
                    let value = f((*del).element.as_ref().expect("user node has element"));
                    self.help_marked(prev, del);
                    return Some(value);
                }
                // `del.succ` changed: either someone marked it (next loop
                // iteration returns None) or a node was inserted after it.
                // Keep `prev` fresh enough by re-searching from a recovered
                // position.
                prev = self.recover(prev);
                let (p, d) = self.search_from(k, prev, Mode::Lt);
                prev = p;
                if d != del {
                    // `del` was unlinked by someone else after being marked.
                    return None;
                }
            }
        }
    }

    /// # Safety
    ///
    /// Must only be called while the list is live; node pointers stay
    /// valid via the graveyard.
    unsafe fn find(&self, k: &K) -> Option<*mut Node<K, V>> {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            let (curr, _) = self.search_from(k, self.head, Mode::Le);
            ((*curr).key.as_key() == Some(k)).then_some(curr)
        }
    }
}

impl<K, V> Drop for NoFlagList<K, V> {
    fn drop(&mut self) {
        for &addr in self.graveyard.lock().unwrap().iter() {
            // SAFETY: graveyard entries are unlinked Box-allocated nodes,
            // recorded exactly once by the winning unlink CAS.
            drop(unsafe { Box::from_raw(addr as *mut Node<K, V>) });
        }
        let mut cur = self.head;
        while !cur.is_null() {
            // SAFETY: &mut self — no concurrent access; the remaining
            // chain holds only live Box-allocated nodes.
            let next = unsafe { (*cur).right() };
            // SAFETY: as above; each chained node is freed exactly once.
            drop(unsafe { Box::from_raw(cur) });
            cur = next;
        }
        let _ = self.tail;
    }
}

/// Per-thread handle to a [`NoFlagList`].
pub struct NoFlagHandle<'l, K, V> {
    list: &'l NoFlagList<K, V>,
}

impl<K, V> fmt::Debug for NoFlagHandle<'_, K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("NoFlagHandle")
    }
}

impl<K, V> ConcurrentMap for NoFlagList<K, V>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    type Key = K;
    type Value = V;
    type Handle<'a>
        = NoFlagHandle<'a, K, V>
    where
        Self: 'a;

    fn handle(&self) -> Self::Handle<'_> {
        NoFlagList::handle(self)
    }

    fn len(&self) -> usize {
        NoFlagList::len(self)
    }
}

/// The graveyard frees nothing before drop, so there is nothing to pin:
/// the pin methods keep their no-op defaults.
impl<K, V> MapHandle<K, V> for NoFlagHandle<'_, K, V>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    /// Insert `key → value`; hands both back if `key` is present.
    fn insert(&self, key: K, value: V) -> Result<(), (K, V)> {
        // SAFETY: the borrowed list is live; graveyard keeps pointers valid.
        metered(|| unsafe { self.list.insert_impl(key, value) })
    }

    /// Remove `key` and apply `f` to a borrow of its value.
    fn remove_with<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        // SAFETY: as for `insert`.
        metered(|| unsafe { self.list.delete_impl(key, f) })
    }

    /// Look up `key` and apply `f` to a borrow of its value.
    fn get_with<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        // SAFETY: as for `insert`; the found node is a live user node.
        metered(|| unsafe {
            self.list
                .find(key)
                .map(|n| f((*n).element.as_ref().expect("user node has element")))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn sequential_roundtrip() {
        let list = NoFlagList::new();
        let h = list.handle();
        for k in 0..50u32 {
            assert!(h.insert(k, k).is_ok());
        }
        assert_eq!(h.insert(25, 99), Err((25, 99)));
        assert_eq!(list.len(), 50);
        for k in (0..50u32).step_by(2) {
            assert_eq!(h.remove(&k), Some(k));
        }
        for k in 0..50u32 {
            assert_eq!(h.contains(&k), k % 2 == 1);
        }
    }

    #[test]
    fn delete_missing() {
        let list: NoFlagList<u32, u32> = NoFlagList::new();
        assert_eq!(list.handle().remove(&1), None);
    }

    #[test]
    fn concurrent_churn_sound() {
        let list = Arc::new(NoFlagList::new());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let list = list.clone();
                s.spawn(move || {
                    let h = list.handle();
                    for r in 0..300u64 {
                        let k = (r * (t + 3)) % 24;
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
        for k in 0..24u64 {
            let _ = h.contains(&k);
        }
    }

    #[test]
    fn concurrent_unique_remove_winners() {
        let list = Arc::new(NoFlagList::new());
        {
            let h = list.handle();
            for k in 0..100u32 {
                assert!(h.insert(k, k).is_ok());
            }
        }
        let wins = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let list = list.clone();
                let wins = wins.clone();
                s.spawn(move || {
                    let h = list.handle();
                    for k in 0..100u32 {
                        if h.remove(&k).is_some() {
                            wins.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        assert_eq!(wins.load(Ordering::SeqCst), 100);
        assert_eq!(list.len(), 0);
    }
}
