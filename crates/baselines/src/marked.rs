//! One core for the three marked-link lists — Harris's, Michael's and
//! the no-flag ablation — and the handle every lock-free baseline uses.
//!
//! All three lists are sorted singly-linked lists between `-∞`/`+∞`
//! sentinels whose nodes carry a key, an element and one successor
//! word with a mark bit (the flag bit is unused). [`MarkedList`] owns
//! what they share: the node and its allocation, the sentinels, `new`,
//! `len`, `Drop`, the `ConcurrentMap` impl and the quiescent validator.
//! Each list's [`Recovery`] policy names its reclamation state and the
//! one word of its own each node carries, and the list's [`Ops`] impl
//! (in its own module) is its search, insert and delete:
//!
//! * `harris.rs`: restart from the head, batch snips, a `retired` claim
//!   word per node, epoch reclamation.
//! * `michael.rs`: single-node unlinks under hazard pointers, no extra
//!   word.
//! * `noflag.rs`: backlinks without flags (the backlink is its word),
//!   unlinked nodes parked in a graveyard until drop.
//!
//! [`Handle`] turns any [`Ops`] — these three and the restart skip
//! list — into a metered [`MapHandle`].

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

use lf_core::{ConcurrentMap, MapHandle};
use lf_tagged::{AtomicTaggedPtr, TaggedPtr};

use crate::{metered, Bound};

/// What one marked-link list keeps beyond the shared core.
pub trait Recovery: Sized + 'static {
    /// The list's name, for `Debug`.
    const NAME: &'static str;
    /// The word each node carries beside its key, element and successor.
    type Word<K, V>: Default;
    /// List-wide reclamation state; dropped after the list's chain.
    type Shared<K, V>: Default + Send + Sync;
}

/// A lock-free baseline's operations, run with the calling thread's
/// reclamation state; [`Handle`] wraps each in one metered op.
pub trait Ops {
    /// Key type.
    type Key;
    /// Value type.
    type Value;
    /// Per-thread reclamation state, one per handle.
    type Local;

    /// Register the calling thread with the structure's reclamation.
    fn register(&self) -> Self::Local;

    /// See [`MapHandle::insert`].
    fn insert(
        &self,
        local: &Self::Local,
        key: Self::Key,
        value: Self::Value,
    ) -> Result<(), (Self::Key, Self::Value)>;

    /// See [`MapHandle::remove_with`].
    fn remove_with<T>(
        &self,
        local: &Self::Local,
        key: &Self::Key,
        f: impl FnOnce(&Self::Value) -> T,
    ) -> Option<T>;

    /// See [`MapHandle::get_with`].
    fn get_with<T>(
        &self,
        local: &Self::Local,
        key: &Self::Key,
        f: impl FnOnce(&Self::Value) -> T,
    ) -> Option<T>;

    /// See [`MapHandle::amortize_pins`]; a no-op without epoch pins.
    fn amortize_pins(_local: &Self::Local, _every: u32) {}

    /// See [`MapHandle::quiesce`]; a no-op without epoch pins.
    fn quiesce(_local: &Self::Local) {}

    /// See [`MapHandle::flush_reclamation`]; a no-op without epoch pins.
    fn flush_reclamation(_local: &Self::Local) {}
}

/// Per-thread handle to a lock-free baseline. Not `Send`.
pub struct Handle<'l, L: Ops> {
    list: &'l L,
    local: L::Local,
}

impl<'l, L: Ops> Handle<'l, L> {
    /// Register the calling thread with `list`.
    pub(crate) fn new(list: &'l L) -> Self {
        Handle {
            list,
            local: list.register(),
        }
    }
}

impl<L: Ops> fmt::Debug for Handle<'_, L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Handle")
    }
}

impl<L: Ops> MapHandle<L::Key, L::Value> for Handle<'_, L> {
    /// Insert `key → value`; hands both back if `key` is present.
    fn insert(&self, key: L::Key, value: L::Value) -> Result<(), (L::Key, L::Value)> {
        metered(|| self.list.insert(&self.local, key, value))
    }

    /// Remove `key` and apply `f` to a borrow of its value.
    fn remove_with<T>(&self, key: &L::Key, f: impl FnOnce(&L::Value) -> T) -> Option<T> {
        metered(|| self.list.remove_with(&self.local, key, f))
    }

    /// Look up `key` and apply `f` to a borrow of its value.
    fn get_with<T>(&self, key: &L::Key, f: impl FnOnce(&L::Value) -> T) -> Option<T> {
        metered(|| self.list.get_with(&self.local, key, f))
    }

    fn amortize_pins(&self, every: u32) {
        L::amortize_pins(&self.local, every);
    }

    fn quiesce(&self) {
        L::quiesce(&self.local);
    }

    fn flush_reclamation(&self) {
        L::flush_reclamation(&self.local);
    }
}

/// A list node: key, element, successor word (right pointer + mark
/// bit; mark = this node is deleted) and the policy's own word.
#[repr(align(8))]
pub struct Node<K, V, P: Recovery> {
    pub(crate) key: Bound<K>,
    pub(crate) element: Option<V>,
    pub(crate) succ: AtomicTaggedPtr<Node<K, V, P>>,
    pub(crate) word: P::Word<K, V>,
}

impl<K, V, P: Recovery> Node<K, V, P> {
    fn alloc(key: Bound<K>, element: Option<V>, right: *mut Self) -> *mut Self {
        Box::into_raw(Box::new(Node {
            key,
            element,
            succ: AtomicTaggedPtr::new(TaggedPtr::unmarked(right)),
            word: Default::default(),
        }))
    }

    /// A user node holding `key` and `value`, not yet linked.
    pub(crate) fn alloc_user(key: K, value: V) -> *mut Self {
        Self::alloc(Bound::Key(key), Some(value), std::ptr::null_mut())
    }

    /// Free a user node that was never published and hand its pair back.
    ///
    /// # Safety
    ///
    /// `node` came from [`alloc_user`](Self::alloc_user) and no other
    /// thread can reach it.
    pub(crate) unsafe fn into_pair(node: *mut Self) -> (K, V) {
        // SAFETY: the fn's `# Safety` contract: a private Box allocation.
        let Node { key, element, .. } = *unsafe { Box::from_raw(node) };
        (key.into_key(), element.expect("user node has element"))
    }

    /// The element of a user node.
    pub(crate) fn element(&self) -> &V {
        self.element.as_ref().expect("user node has element")
    }
}

/// The sorted marked-link list behind [`HarrisList`](crate::HarrisList),
/// [`MichaelList`](crate::MichaelList) and
/// [`NoFlagList`](crate::NoFlagList); `P` is the list's recovery policy.
///
/// API mirrors the core crate's `FrList`: duplicate keys rejected,
/// per-thread handles.
pub struct MarkedList<K, V, P: Recovery> {
    pub(crate) head: *mut Node<K, V, P>,
    pub(crate) len: AtomicUsize,
    pub(crate) shared: P::Shared<K, V>,
}

// SAFETY: all shared mutation goes through atomics, and each policy's
// reclamation (epochs, hazard pointers, the graveyard) keeps every node
// a thread can still reach allocated.
unsafe impl<K: Send + Sync, V: Send + Sync, P: Recovery> Send for MarkedList<K, V, P> {}
// SAFETY: same argument as `Send` above.
unsafe impl<K: Send + Sync, V: Send + Sync, P: Recovery> Sync for MarkedList<K, V, P> {}

impl<K, V, P: Recovery> fmt::Debug for MarkedList<K, V, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct(P::NAME)
            .field("len", &self.len.load(Ordering::Relaxed))
            .finish()
    }
}

impl<K: Ord, V, P: Recovery> Default for MarkedList<K, V, P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord, V, P: Recovery> MarkedList<K, V, P> {
    /// Create an empty list.
    pub fn new() -> Self {
        let tail = Node::alloc(Bound::PosInf, None, std::ptr::null_mut());
        MarkedList {
            head: Node::alloc(Bound::NegInf, None, tail),
            len: AtomicUsize::new(0),
            shared: Default::default(),
        }
    }

    /// Register the calling thread and return an operation handle.
    pub fn handle(&self) -> Handle<'_, Self>
    where
        Self: Ops,
    {
        Handle::new(self)
    }

    /// Number of elements (exact when quiescent).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::SeqCst)
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Check structural invariants on a **quiescent** list: strictly
    /// sorted keys, no marked nodes, chain reaches the tail, count
    /// matches [`len`](Self::len).
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
                    assert!((*cur).key == Bound::PosInf, "chain ends before the tail");
                    break;
                }
                assert!((*cur).key < (*next).key, "keys not strictly sorted");
                count += usize::from((*next).key.as_key().is_some());
                cur = next;
            }
        }
        assert_eq!(count, self.len(), "len counter disagrees with chain");
    }
}

impl<K, V, P: Recovery> Drop for MarkedList<K, V, P> {
    fn drop(&mut self) {
        let mut cur = self.head;
        while !cur.is_null() {
            // SAFETY: unique access (`&mut self`); nodes still linked
            // from the head were Box-allocated and are freed once here.
            // Unlinked nodes belong to `shared`, dropped after this.
            let node = unsafe { Box::from_raw(cur) };
            cur = node.succ.load(Ordering::SeqCst).ptr();
        }
    }
}

impl<K, V, P> ConcurrentMap for MarkedList<K, V, P>
where
    K: Ord + Send + Sync,
    V: Send + Sync,
    P: Recovery,
    Self: Ops<Key = K, Value = V>,
{
    type Key = K;
    type Value = V;
    type Handle<'a>
        = Handle<'a, Self>
    where
        Self: 'a;

    fn handle(&self) -> Self::Handle<'_> {
        Handle::new(self)
    }

    fn len(&self) -> usize {
        MarkedList::len(self)
    }
}

/// The unit tests all three lists share, written once and run per list.
#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    const THREADS: u64 = 4;
    const ROUNDS: u64 = if cfg!(miri) { 40 } else { 400 };
    const KEYS: u32 = if cfg!(miri) { 24 } else { 100 };

    type List<P> = MarkedList<u64, u64, P>;

    /// Inserts with a duplicate, reads, removes, a missing key, and
    /// re-insertion after removal.
    fn sequential_roundtrip<P: Recovery>()
    where
        List<P>: Ops<Key = u64, Value = u64>,
    {
        let list = List::<P>::new();
        let h = list.handle();
        for k in [5, 1, 9, 3, 7] {
            assert!(h.insert(k, k * 10).is_ok());
        }
        assert_eq!(h.insert(3, 0), Err((3, 0)));
        assert_eq!(list.len(), 5);
        for k in [1, 3, 5, 7, 9] {
            assert_eq!(h.get(&k), Some(k * 10));
        }
        assert!(!h.contains(&4));
        assert_eq!(h.remove(&4), None);
        assert_eq!(h.remove(&5), Some(50));
        assert_eq!(h.remove(&5), None);
        assert!(!h.contains(&5));
        assert_eq!(list.len(), 4);
        for round in 0..50 {
            assert!(h.insert(5, round).is_ok());
            assert_eq!(h.remove(&5), Some(round));
        }
        for k in [1, 3, 7, 9] {
            assert_eq!(h.remove(&k), Some(k * 10));
        }
        assert!(list.is_empty());
        list.validate_quiescent();
    }

    /// User keys at the sentinels' neighbours, `i64::MIN` and `i64::MAX`.
    fn sentinel_edges<P: Recovery>()
    where
        MarkedList<i64, (), P>: Ops<Key = i64, Value = ()>,
    {
        let list = MarkedList::<i64, (), P>::new();
        let h = list.handle();
        assert!(!h.contains(&0));
        assert_eq!(h.remove(&0), None);
        assert!(h.insert(i64::MIN, ()).is_ok());
        assert!(h.insert(i64::MAX, ()).is_ok());
        assert!(h.contains(&i64::MIN) && h.contains(&i64::MAX));
        list.validate_quiescent();
        assert_eq!(h.remove(&i64::MIN), Some(()));
        assert_eq!(h.remove(&i64::MAX), Some(()));
        list.validate_quiescent();
    }

    /// Racing inserts of the same keys: exactly one winner per key.
    fn unique_insert_winners<P: Recovery>()
    where
        List<P>: Ops<Key = u64, Value = u64>,
    {
        let list = List::<P>::new();
        let wins = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    let h = list.handle();
                    for k in 0..u64::from(KEYS) {
                        if h.insert(k, k).is_ok() {
                            wins.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        assert_eq!(wins.load(Ordering::SeqCst), KEYS as usize);
        assert_eq!(list.len(), KEYS as usize);
        list.validate_quiescent();
    }

    /// Racing removes of the same present keys: exactly one winner per key.
    fn unique_remove_winners<P: Recovery>()
    where
        List<P>: Ops<Key = u64, Value = u64>,
    {
        let list = List::<P>::new();
        {
            let h = list.handle();
            for k in 0..u64::from(KEYS) {
                assert!(h.insert(k, k).is_ok());
            }
        }
        let wins = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    let h = list.handle();
                    for k in 0..u64::from(KEYS) {
                        if h.remove(&k).is_some() {
                            wins.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        assert_eq!(wins.load(Ordering::SeqCst), KEYS as usize);
        assert!(list.is_empty());
        list.validate_quiescent();
    }

    /// Two inserting and two removing threads over 32 keys, then the
    /// quiescent structure check.
    fn churn_then_validate<P: Recovery>()
    where
        List<P>: Ops<Key = u64, Value = u64>,
    {
        let list = List::<P>::new();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let list = &list;
                s.spawn(move || {
                    let h = list.handle();
                    for r in 0..ROUNDS {
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
            assert_eq!(h.contains(&k), h.get(&k).is_some());
        }
        drop(h);
        list.validate_quiescent();
    }

    macro_rules! per_list {
        ($($list:ident: $policy:ty;)*) => {$(
            mod $list {
                #[test]
                fn sequential_roundtrip() {
                    super::sequential_roundtrip::<$policy>();
                }
                #[test]
                fn sentinel_edges() {
                    super::sentinel_edges::<$policy>();
                }
                #[test]
                fn unique_insert_winners() {
                    super::unique_insert_winners::<$policy>();
                }
                #[test]
                fn unique_remove_winners() {
                    super::unique_remove_winners::<$policy>();
                }
                #[test]
                fn churn_then_validate() {
                    super::churn_then_validate::<$policy>();
                }
            }
        )*};
    }

    per_list! {
        harris: crate::harris::Harris;
        michael: crate::michael::Michael;
        noflag: crate::noflag::NoFlag;
    }

    /// Each list's node keeps the fields and size it had when the lists
    /// were written separately.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn node_sizes() {
        use std::mem::size_of;
        assert_eq!(size_of::<Node<u64, u64, crate::harris::Harris>>(), 48);
        assert_eq!(size_of::<Node<u64, u64, crate::michael::Michael>>(), 40);
        assert_eq!(size_of::<Node<u64, u64, crate::noflag::NoFlag>>(), 48);
    }
}
