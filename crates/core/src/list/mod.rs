//! The Fomitchev–Ruppert lock-free sorted singly-linked list (paper §3).
//!
//! A sorted dictionary over `(K, V)` pairs supporting concurrent
//! `insert`, `remove`, `get`, and `contains` from any number of threads,
//! with no locks anywhere: every update is a single-word C&S on a
//! node's composite *successor field* `(right, mark, flag)`.
//!
//! Deletion follows the paper's three-step protocol (Fig. 2):
//!
//! 1. **flag** the predecessor's successor field (announces "deletion of
//!    my successor is in progress" and freezes the field);
//! 2. set the victim's **backlink** to the predecessor, then **mark**
//!    the victim (freezing its successor field forever);
//! 3. **physically delete**: swing the predecessor's field past the
//!    victim, simultaneously removing the flag.
//!
//! When an operation's C&S fails because its reference point got marked,
//! it follows backlinks leftwards to the first unmarked node and resumes
//! from there — never from the head. Flags guarantee backlinks always
//! point at nodes that were unmarked when the backlink was set, so
//! chains of backlinks never grow rightwards; this is what gives the
//! amortized `O(n(S) + c(S))` bound.
//!
//! # Pluggable reclamation
//!
//! The list is generic over its safe-memory-reclamation backend
//! (`R:` [`Reclaim`], DESIGN.md §13), defaulting to epoch-based
//! reclamation ([`Ebr`]). Under a backend with pin-free reads (VBR,
//! `lf-vbr`), node pointers carry 16-bit birth stamps and
//! [`ListHandle::try_read`] can look keys up without announcing
//! anything to the reclamation domain.

mod insert;
mod iter;
mod level;
mod node;
mod read;
mod search;
mod set;
mod sibling;

pub use iter::{ChainIter, Iter};
pub(crate) use level::{check_level, dump_level, validate_level, FlagStatus, Level, LevelNode};
pub(crate) use node::{Bound, Node};
pub(crate) use search::key_before as search_key_before;
pub use set::{ListSet, SetHandle};

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use lf_reclaim::{Ebr, Publish, Reclaim};
use lf_tagged::CachePadded;

use crate::pool::{LocalPool, SharedPool};

/// Operations between epoch-announcement refreshes on a handle (see
/// `LocalHandle::amortize_pins`): large enough to amortize the two
/// SeqCst stores away, small enough that reclamation lag stays within
/// one collect cadence.
pub(crate) const PIN_AMORTIZE_OPS: u32 = 16;

/// Which comparison `SearchFrom` uses (paper: `SearchFrom` vs
/// `SearchFrom2`, written `SearchFrom(k − ε)`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Mode {
    /// Advance while `next.key <= k`; postcondition `n1.key <= k < n2.key`.
    Le,
    /// Advance while `next.key < k`; postcondition `n1.key < k <= n2.key`.
    Lt,
}

/// A lock-free sorted linked-list dictionary (Fomitchev & Ruppert 2004).
///
/// Duplicate keys are rejected, as in the paper. For anything beyond a
/// handful of elements prefer [`SkipList`](crate::SkipList), which uses
/// this list's algorithms on every level; the flat list is the paper's
/// §3 contribution and the right tool when `n` is small or when you
/// need its worst-case amortized guarantees.
///
/// Each thread should obtain a [`ListHandle`] once via
/// [`handle`](FrList::handle) and issue operations through it; the
/// convenience methods on `FrList` itself register a fresh handle per
/// call and are noticeably slower.
///
/// The third type parameter selects the reclamation backend and
/// defaults to [`Ebr`]; [`FrList::with_backend`] builds a list over any
/// [`Reclaim`] implementor (e.g. `lf_vbr::Vbr` for pin-free reads).
///
/// # Examples
///
/// ```
/// use lf_core::FrList;
///
/// let list = FrList::new();
/// let h = list.handle();
/// assert!(h.insert(3, "three").is_ok());
/// assert!(h.insert(3, "again").is_err()); // duplicate key
/// assert_eq!(h.get(&3), Some("three"));
/// assert_eq!(h.remove(&3), Some("three"));
/// assert_eq!(h.get(&3), None);
/// ```
pub struct FrList<K, V, R: Reclaim = Ebr> {
    pub(crate) head: *mut Node<K, V, R>,
    pub(crate) tail: *mut Node<K, V, R>,
    /// Declared before `pool` so retire closures fire (returning blocks
    /// to the pool) before the pool's own `Arc` here is released.
    pub(crate) domain: R::Domain,
    /// Free-block store fed by the reclamation backend; handles draw
    /// from it through per-thread caches.
    pub(crate) pool: Arc<SharedPool<Node<K, V, R>>>,
    /// Cache-line-aligned: every successful insert/delete bumps this
    /// word; without padding it would false-share with the (read-only)
    /// head/tail pointers above on the same line.
    pub(crate) len: CachePadded<AtomicUsize>,
}

// SAFETY: all shared mutation goes through atomic successor fields and
// backlinks; nodes are freed only via the reclamation backend or in
// `Drop` (unique access). `K`/`V` cross threads, hence the bounds;
// `R::Domain` and `R::Slot<_>` are `Send + Sync` by the `Reclaim`
// contract.
unsafe impl<K: Send + Sync, V: Send + Sync, R: Reclaim> Send for FrList<K, V, R> {}
// SAFETY: same argument as `Send` above.
unsafe impl<K: Send + Sync, V: Send + Sync, R: Reclaim> Sync for FrList<K, V, R> {}

impl<K, V, R> Default for FrList<K, V, R>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    fn default() -> Self {
        Self::with_backend()
    }
}

impl<K, V, R: Reclaim> fmt::Debug for FrList<K, V, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FrList")
            .field("backend", &R::NAME)
            // ord: Relaxed — STAT.len: pure statistic
            .field("len", &self.len.load(Ordering::Relaxed))
            .finish()
    }
}

impl<K, V> FrList<K, V>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    /// Create an empty list (head and tail sentinels only) over the
    /// default EBR backend.
    pub fn new() -> Self {
        Self::with_backend()
    }
}

impl<K, V, R> FrList<K, V, R>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    /// Create an empty list over the reclamation backend `R`.
    pub fn with_backend() -> Self {
        Self::with_domain(R::new_domain())
    }

    /// Create an empty list inside an existing reclamation `domain`
    /// (lists sharing a domain also share its grace-period bookkeeping,
    /// but not their node pools).
    pub fn with_domain(domain: R::Domain) -> Self {
        let tail = Node::alloc(Bound::PosInf, None, std::ptr::null_mut());
        let head = Node::alloc(Bound::NegInf, None, tail);
        FrList {
            head,
            tail,
            domain,
            pool: SharedPool::new(),
            len: CachePadded::new(AtomicUsize::new(0)),
        }
    }

    /// Create an empty list sharing this list's reclamation domain
    /// **and** its node pool — the bucket constructor for composite
    /// structures (`lf-map`'s bucket array): one registration and one
    /// guard cover every sibling, and freed blocks recycle through a
    /// single shared store instead of per-bucket pools.
    ///
    /// Unlike [`with_domain`](Self::with_domain), pool sharing means a
    /// block retired from one sibling can be re-tenanted in another;
    /// pin-free readers stay sound because birth-stamp validation
    /// rejects a re-tenanted block no matter which sibling's chain it
    /// resurfaces on (the sentinels are never pooled). The sibling
    /// operations on [`ListHandle`] (`insert_in` and friends) accept
    /// any list created by `new_sibling` from the same family.
    pub fn new_sibling(&self) -> Self {
        let tail = Node::alloc(Bound::PosInf, None, std::ptr::null_mut());
        let head = Node::alloc(Bound::NegInf, None, tail);
        FrList {
            head,
            tail,
            domain: self.domain.clone(),
            pool: Arc::clone(&self.pool),
            len: CachePadded::new(AtomicUsize::new(0)),
        }
    }

    /// Whether `self` and `other` retire into the same reclamation
    /// domain — true when one was created as a
    /// [`new_sibling`](Self::new_sibling) of the other (or both share
    /// an ancestor), or via [`with_domain`](Self::with_domain) with the
    /// same domain.
    pub fn shares_domain_with(&self, other: &Self) -> bool {
        R::domain_eq(&self.domain, &other.domain)
    }

    /// Register the calling thread and return an operation handle.
    pub fn handle(&self) -> ListHandle<'_, K, V, R> {
        let reclaim = R::register(&self.domain);
        R::amortize_pins(&reclaim, PIN_AMORTIZE_OPS);
        ListHandle {
            list: self,
            reclaim,
            pool: LocalPool::new(Arc::clone(&self.pool)),
        }
    }

    /// Insert through a temporary handle. See [`ListHandle::insert`].
    ///
    /// # Errors
    ///
    /// Returns the rejected pair if `key` is already present.
    pub fn insert(&self, key: K, value: V) -> Result<(), (K, V)> {
        self.handle().insert(key, value)
    }

    /// Remove through a temporary handle. See [`ListHandle::remove`].
    pub fn remove(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.handle().remove(key)
    }

    /// Lookup through a temporary handle. See [`ListHandle::get`].
    pub fn get(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.handle().get(key)
    }

    /// Membership test through a temporary handle.
    pub fn contains(&self, key: &K) -> bool {
        self.handle().contains(key)
    }
}

impl<K, V, R: Reclaim> FrList<K, V, R> {
    /// The reclamation domain this list retires into.
    pub fn domain(&self) -> &R::Domain {
        &self.domain
    }

    /// Number of elements (exact when quiescent; during concurrent
    /// updates it may transiently lag in-flight operations).
    pub fn len(&self) -> usize {
        // Relaxed: the counter is a statistic, not a synchronization
        // point — it orders nothing and is never dereferenced. Exactness
        // when quiescent comes from whatever joined the threads.
        // ord: Relaxed — STAT.len: pure statistic
        self.len.load(Ordering::Relaxed)
    }

    /// Check structural invariants on a **quiescent** list (no
    /// concurrent operations): keys strictly sorted (INV 1), the chain
    /// from head reaches the tail, no node is marked or flagged, and
    /// the element count matches [`len`](Self::len).
    ///
    /// Intended for tests and debugging.
    ///
    /// # Panics
    ///
    /// Panics (with a description) if any invariant is violated.
    pub fn validate_quiescent(&self)
    where
        K: Ord,
    {
        // SAFETY: quiescence (caller contract) means no concurrent
        // updates or reclamation; every pointer on the chain is live.
        let count = unsafe { validate_level(self.head, self.tail, 1, |_| {}) };
        assert_eq!(count, self.len(), "len counter disagrees with chain");
    }

    /// Check the paper's §3.3 invariants INV 1–5 on a list that may hold
    /// marked and flagged nodes, but on which no operation is running
    /// right now — e.g. from a deterministic scheduler's director,
    /// between grants.
    ///
    /// Walking the successor chain from the head covers exactly the
    /// regular and logically deleted nodes (INV 2); along it:
    ///
    /// * INV 1 — keys strictly sorted;
    /// * INV 3 — every logically deleted node's predecessor is flagged
    ///   at it, and its successor is unmarked;
    /// * INV 4 — every logically deleted node's backlink points at
    ///   that predecessor;
    /// * INV 5 — no successor field is both marked and flagged.
    ///
    /// # Panics
    ///
    /// Panics with a description of the violated invariant.
    pub fn check_invariants(&self)
    where
        K: Ord + fmt::Debug,
    {
        // SAFETY: no operation runs during the walk (caller contract), so
        // nothing linked from the head is unlinked or reclaimed under it.
        unsafe { check_level(self.head, self.tail, 1, |_| {}) }
    }

    /// `(key, marked, flagged)` for every node linked from the head,
    /// sentinels included (their key is `None`), under the same contract
    /// as [`check_invariants`](Self::check_invariants) — for traces of a
    /// scripted schedule.
    pub fn dump(&self) -> Vec<(Option<K>, bool, bool)>
    where
        K: Clone,
    {
        // SAFETY: as for `check_invariants` — no operation runs, so
        // every node linked from the head stays valid.
        unsafe { dump_level(self.head) }
    }

    /// Whether the list holds no elements (same caveat as [`len`](Self::len)).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K, V, R: Reclaim> Drop for FrList<K, V, R> {
    fn drop(&mut self) {
        // Unique access: free every node still linked from the head
        // (regular and logically-deleted nodes). Physically deleted
        // nodes are disjoint from this chain and are freed when
        // `domain` drops right after.
        let mut cur = self.head;
        while !cur.is_null() {
            // SAFETY: `&mut self` gives unique access; chain nodes were
            // Box-allocated (or cap-1 pool blocks with Box layout) and
            // are freed exactly once here.
            let next = unsafe { (*cur).right() };
            // SAFETY: as above.
            drop(unsafe { Box::from_raw(cur) });
            cur = next;
        }
    }
}

/// A per-thread handle to an [`FrList`].
///
/// Owns the thread's registration with the list's reclamation domain;
/// every operation (except [`try_read`](Self::try_read) on a pin-free
/// backend) pins the thread for its duration. Not `Send`.
pub struct ListHandle<'l, K, V, R: Reclaim = Ebr> {
    pub(crate) list: &'l FrList<K, V, R>,
    pub(crate) reclaim: R::Handle,
    /// Thread-private cache of free node blocks.
    pub(crate) pool: LocalPool<Node<K, V, R>>,
}

impl<K, V, R: Reclaim> fmt::Debug for ListHandle<'_, K, V, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ListHandle")
    }
}

impl<'l, K, V, R> ListHandle<'l, K, V, R>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    /// Insert `key → value`.
    ///
    /// Linearizes at the successful insertion C&S (paper §3.3).
    ///
    /// # Errors
    ///
    /// If `key` is already present, returns `Err((key, value))` handing
    /// both back to the caller (the paper's `DUPLICATE_KEY`).
    pub fn insert(&self, key: K, value: V) -> Result<(), (K, V)> {
        self.bracket(|| self.insert_in(self.list, key, value))
    }

    /// Remove `key`, returning its value.
    ///
    /// A successful removal linearizes when the node becomes marked; an
    /// unsuccessful one per the paper's §3.3 case analysis.
    pub fn remove(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.remove_with(key, V::clone)
    }

    /// Remove `key` and apply `f` to a borrow of its value, without
    /// cloning (`None` if the key was absent or another remover won).
    /// `f` runs under this handle's pin, as for
    /// [`get_with`](Self::get_with).
    pub fn remove_with<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        self.bracket(|| self.remove_with_in(self.list, key, f))
    }

    /// Look up `key`, returning a clone of its value.
    pub fn get(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.get_with(key, V::clone)
    }

    /// Look up `key` and apply `f` to a borrow of its value, without
    /// cloning (`None` if the key is absent).
    ///
    /// The visitor runs under this handle's pin: the borrow is valid
    /// for exactly the duration of the call, so `f` must not stash it.
    /// Keep `f` short — the pin delays reclamation domain-wide while it
    /// runs.
    pub fn get_with<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        self.bracket(|| self.get_with_in(self.list, key, f))
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &K) -> bool {
        self.get_with(key, |_| ()).is_some()
    }

    /// A plain operation is the `lf_metrics` op bracket around the
    /// pinned body of its sibling form (`insert_in`, …) run on the
    /// handle's own list; composite callers of the sibling forms
    /// bracket their own operations.
    #[inline]
    fn bracket<T>(&self, body: impl FnOnce() -> T) -> T {
        let op = lf_metrics::op_begin();
        let res = body();
        lf_metrics::op_end(op);
        res
    }

    /// Iterate over a weakly-consistent snapshot of the list, cloning
    /// each `(key, value)` pair that is present (unmarked) when visited.
    ///
    /// Concurrent updates may or may not be reflected; every pair
    /// yielded was present at some moment during the iteration.
    pub fn iter(&self) -> Iter<'_, 'l, K, V, R>
    where
        K: Clone,
        V: Clone,
    {
        ChainIter::single(self)
    }

    /// Iterate over a chain of sibling lists (see
    /// [`FrList::new_sibling`]) under **one** pin — the bucket
    /// iteration of a composite structure such as `lf-map`. Each list
    /// is walked in key order, lists in the order given; the overall
    /// sequence is unordered and makes no cross-list atomicity claim.
    ///
    /// # Panics
    ///
    /// Panics if any list does not share this handle's reclamation
    /// domain.
    pub fn iter_chain(
        &self,
        lists: impl IntoIterator<Item = &'l FrList<K, V, R>>,
    ) -> ChainIter<'_, 'l, K, V, R>
    where
        K: Clone,
        V: Clone,
    {
        ChainIter::new(self, lists.into_iter().collect())
    }

    /// The smallest key and its value, if any (weakly consistent).
    pub fn first(&self) -> Option<(K, V)>
    where
        K: Clone,
        V: Clone,
    {
        self.iter().next()
    }

    /// Remove and return an entry that was the smallest at some moment
    /// during the call (lock-free DeleteMin; see
    /// [`SkipList::pop_first`](crate::SkipList) — prefer the skip list
    /// when `n` is large).
    pub fn pop_first(&self) -> Option<(K, V)>
    where
        K: Clone,
        V: Clone,
    {
        loop {
            let (k, _) = self.first()?;
            if let Some(v) = self.remove(&k) {
                return Some((k, v));
            }
        }
    }

    /// Return `key`'s value, inserting `value` first if absent. On a
    /// race the returned value is the winning insert's.
    pub fn get_or_insert(&self, key: K, value: V) -> V
    where
        K: Clone,
        V: Clone,
    {
        loop {
            if let Some(existing) = self.get(&key) {
                return existing;
            }
            match self.insert(key.clone(), value.clone()) {
                Ok(()) => return value,
                // Lost the race to a concurrent insert: re-read.
                Err(_) => continue,
            }
        }
    }

    /// The list this handle operates on.
    pub fn list(&self) -> &'l FrList<K, V, R> {
        self.list
    }

    /// Opportunistically advance reclamation (frees retired nodes whose
    /// grace period elapsed). Called automatically at a fixed cadence.
    ///
    /// Also withdraws this handle's amortized epoch announcement (see
    /// `LocalHandle::quiesce`), so a thread that stops operating can
    /// stop delaying the whole domain's reclamation.
    pub fn flush_reclamation(&self) {
        R::flush(&self.reclaim);
    }

    /// Withdraw this handle's standing epoch announcement without
    /// collecting (see `LocalHandle::quiesce`).
    ///
    /// Handles amortize epoch pins: the announcement made by an
    /// operation stays standing until the 16th next operation, so an
    /// *idle but registered* handle delays reclamation domain-wide
    /// exactly like a held guard. Call this (or
    /// [`flush_reclamation`](Self::flush_reclamation), or drop the
    /// handle) when the thread will stop operating for a while.
    pub fn quiesce(&self) {
        R::quiesce(&self.reclaim);
    }

    /// Re-tune how many consecutive operations share one standing epoch
    /// announcement (default 16; see `LocalHandle::amortize_pins`).
    ///
    /// Batch executors that drain `n` queued requests back-to-back set
    /// this to the batch size so a whole drained batch costs a single
    /// announcement, then [`quiesce`](Self::quiesce) between batches.
    pub fn amortize_pins(&self, every: u32) {
        R::amortize_pins(&self.reclaim, every);
    }
}

#[cfg(test)]
mod tests;

impl<K, V, R> FromIterator<(K, V)> for FrList<K, V, R>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    /// Build a list from pairs; later duplicates are dropped.
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let list = Self::with_backend();
        {
            let h = list.handle();
            for (k, v) in iter {
                let _ = h.insert(k, v);
            }
        }
        list
    }
}

impl<K, V, R> Extend<(K, V)> for FrList<K, V, R>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    /// Insert pairs; duplicates of existing keys are dropped.
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        let h = self.handle();
        for (k, v) in iter {
            let _ = h.insert(k, v);
        }
    }
}
