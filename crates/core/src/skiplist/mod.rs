//! The Fomitchev–Ruppert lock-free skip list (paper §4).
//!
//! Each key is represented by a *tower* of nodes whose bottom (*root*)
//! node carries the element; the nodes at each level form a sorted
//! linked list run by the §3 linked-list algorithms (backlinks + flag
//! bits). Insertions build towers bottom-up and linearize when the root
//! is linked; deletions mark the root first (making the tower
//! *superfluous*) and then dismantle the upper levels top-down.
//! Searches help by physically deleting every superfluous node they
//! encounter, so no operation can be forced to re-traverse long
//! backlink chains.
//!
//! # Pluggable reclamation
//!
//! Like [`FrList`](crate::FrList), the skip list is generic over a
//! [`Reclaim`] backend (default [`Ebr`]); see DESIGN.md §13. Under a
//! pin-free backend (VBR), [`SkipListHandle::try_read`] looks keys up
//! without touching the reclamation domain at all.

mod delete;
mod insert;
mod level;
mod node;
mod range;
mod read;
mod scan;
mod set;

pub use range::{RangeIter, SkipIter};
pub use scan::merged_range;
pub use set::{SkipSet, SkipSetHandle};

pub(crate) use node::SkipNode;

use std::cell::{Cell, RefCell};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use lf_metrics::OpSteps;
use lf_reclaim::{Ebr, Publish, Reclaim};
use lf_tagged::CachePadded;
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

use crate::list::{self, Bound, LevelNode, Mode, PIN_AMORTIZE_OPS};
use crate::pool::{LocalPool, SharedPool};

/// Default number of levels (towers grow to at most one less, so the
/// top level is always empty and descent can start there).
pub const DEFAULT_MAX_LEVEL: usize = 32;

/// A lock-free skip list dictionary (Fomitchev & Ruppert 2004, §4).
///
/// Expected `O(log n)` searches, insertions and deletions without any
/// locks; linearizable; lock-free. Duplicate keys are rejected, as in
/// the paper.
///
/// Obtain a per-thread [`SkipListHandle`] with
/// [`handle`](SkipList::handle) and operate through it; the convenience
/// methods on `SkipList` itself register a fresh handle per call.
///
/// Generic over the reclamation backend `R` (default [`Ebr`]); build
/// over a different backend with [`with_backend`](Self::with_backend).
///
/// # Examples
///
/// ```
/// use lf_core::SkipList;
///
/// let map = SkipList::new();
/// let h = map.handle();
/// assert!(h.insert(1, "one").is_ok());
/// assert!(h.insert(2, "two").is_ok());
/// assert_eq!(h.get(&1), Some("one"));
/// assert_eq!(h.remove(&2), Some("two"));
/// assert_eq!(h.get(&2), None);
/// ```
pub struct SkipList<K, V, R: Reclaim = Ebr> {
    /// `heads[i]`/`tails[i]` are the sentinels of level `i + 1`.
    pub(crate) heads: Vec<*mut SkipNode<K, V, R>>,
    pub(crate) tails: Vec<*mut SkipNode<K, V, R>>,
    /// Declared before `pool`: the domain's drop runs the deferred
    /// tower retirements (which recycle blocks into the pool) before
    /// the pool's drop frees the blocks themselves.
    pub(crate) domain: R::Domain,
    /// Recycles tower blocks, bucketed by height.
    pub(crate) pool: Arc<SharedPool<SkipNode<K, V, R>>>,
    /// Cache-padded: this counter is hammered by every successful
    /// update and must not share a line with the read-mostly fields.
    pub(crate) len: CachePadded<AtomicUsize>,
    pub(crate) max_level: usize,
    /// Handles registered so far; the ticket seeds each handle's
    /// tower-height generator, so a replayed single-threaded script
    /// builds the same towers and counts the same steps.
    handles: AtomicU64,
}

// SAFETY: as for `FrList` — all shared mutation is atomic, reclamation
// is backend-protected and tower-scoped; `R::Domain: Send + Sync`.
unsafe impl<K: Send + Sync, V: Send + Sync, R: Reclaim> Send for SkipList<K, V, R> {}
// SAFETY: same argument as `Send` above.
unsafe impl<K: Send + Sync, V: Send + Sync, R: Reclaim> Sync for SkipList<K, V, R> {}

impl<K, V, R: Reclaim> fmt::Debug for SkipList<K, V, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SkipList")
            // ord: Relaxed — STAT.len: pure statistic, no ordering role
            .field("len", &self.len.load(Ordering::Relaxed))
            .field("max_level", &self.max_level)
            .field("reclaim", &R::NAME)
            .finish()
    }
}

impl<K, V, R> Default for SkipList<K, V, R>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    fn default() -> Self {
        Self::with_backend()
    }
}

impl<K, V> SkipList<K, V>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    /// Create an empty skip list with [`DEFAULT_MAX_LEVEL`] levels over
    /// the default EBR backend.
    pub fn new() -> Self {
        Self::with_max_level(DEFAULT_MAX_LEVEL)
    }

    /// Create an empty EBR-backed skip list with `max_level` levels
    /// (towers grow to at most `max_level - 1`).
    ///
    /// # Panics
    ///
    /// Panics if `max_level < 2`.
    pub fn with_max_level(max_level: usize) -> Self {
        Self::with_backend_max_level(max_level)
    }
}

impl<K, V, R> SkipList<K, V, R>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    /// Create an empty skip list over the reclamation backend `R` with
    /// [`DEFAULT_MAX_LEVEL`] levels.
    pub fn with_backend() -> Self {
        Self::with_backend_max_level(DEFAULT_MAX_LEVEL)
    }

    /// Create an empty skip list over the reclamation backend `R` with
    /// `max_level` levels.
    ///
    /// # Panics
    ///
    /// Panics if `max_level < 2`.
    pub fn with_backend_max_level(max_level: usize) -> Self {
        Self::build(max_level, R::new_domain(), SharedPool::new())
    }

    /// Create an empty skip list that **shares** this list's
    /// reclamation domain and tower-block pool (same `max_level`).
    ///
    /// Siblings form one reclamation domain: a guard pinned through a
    /// handle of any of them protects traversals of all of them, which
    /// is what lets a cross-shard merge scan (`lf-shard`) walk every
    /// shard under a single amortized pin. Retired towers from every
    /// sibling are recycled through the one shared pool.
    pub fn new_sibling(&self) -> Self {
        Self::build(self.max_level, self.domain.clone(), Arc::clone(&self.pool))
    }

    /// Whether `self` and `other` share one reclamation domain (i.e.
    /// one was created as a [`new_sibling`](Self::new_sibling) of the
    /// other, directly or transitively).
    pub fn shares_domain_with(&self, other: &Self) -> bool {
        R::domain_eq(&self.domain, &other.domain)
    }

    fn build(
        max_level: usize,
        domain: R::Domain,
        pool: Arc<SharedPool<SkipNode<K, V, R>>>,
    ) -> Self {
        assert!(max_level >= 2, "max_level must be at least 2");
        let mut heads = Vec::with_capacity(max_level);
        let mut tails = Vec::with_capacity(max_level);
        let mut below: (*mut SkipNode<K, V, R>, *mut SkipNode<K, V, R>) =
            (std::ptr::null_mut(), std::ptr::null_mut());
        for _ in 0..max_level {
            // ord: Relaxed — TOWER.top: sentinel self-init before publication
            let tail = node::SkipNode::alloc_sentinel(Bound::PosInf, below.1);
            // ord: Relaxed — TOWER.top: sentinel self-init before publication
            let head = node::SkipNode::alloc_sentinel(Bound::NegInf, below.0);
            // SAFETY: both sentinels were just allocated and are not
            // yet shared.
            unsafe {
                // Relaxed: the list is not yet shared; `Self` is
                // published to other threads by whatever synchronizes
                // the `SkipList` value itself (e.g. `Arc`). Sentinel
                // birth is 0, so the unmarked pointer's stamp (0) is
                // already correct.
                // ord: Relaxed — LIST.sentinel-init: pre-publication construction store
                // validate: VAL.exclusive: freshly allocated, unshared
                // sentinel — no concurrent access before publication
                (*head)
                    .succ
                    .store(lf_tagged::TaggedPtr::unmarked(tail), Ordering::Relaxed);
            }
            heads.push(head);
            tails.push(tail);
            below = (head, tail);
        }
        SkipList {
            heads,
            tails,
            domain,
            pool,
            len: CachePadded::new(AtomicUsize::new(0)),
            max_level,
            handles: AtomicU64::new(0),
        }
    }

    /// Register the calling thread and return an operation handle.
    pub fn handle(&self) -> SkipListHandle<'_, K, V, R> {
        let reclaim = R::register(&self.domain);
        // Amortize pin announcements across operations; handle drop
        // (or an explicit `flush_reclamation`) withdraws the standing
        // announcement.
        R::amortize_pins(&reclaim, PIN_AMORTIZE_OPS);
        // ord: Relaxed — TOWER.seed: handle ticket, only uniqueness matters
        let ticket = self.handles.fetch_add(1, Ordering::Relaxed);
        SkipListHandle {
            list: self,
            reclaim,
            pool: LocalPool::new(Arc::clone(&self.pool)),
            heights: RefCell::new(SmallRng::seed_from_u64(ticket)),
            steps: Cell::new(OpSteps::default()),
        }
    }

    /// Insert through a temporary handle. See [`SkipListHandle::insert`].
    ///
    /// # Errors
    ///
    /// Returns the rejected pair if `key` is already present.
    pub fn insert(&self, key: K, value: V) -> Result<(), (K, V)> {
        self.handle().insert(key, value)
    }

    /// Remove through a temporary handle. See [`SkipListHandle::remove`].
    pub fn remove(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.handle().remove(key)
    }

    /// Lookup through a temporary handle. See [`SkipListHandle::get`].
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

    /// The level (1-based) at which descending searches start: the
    /// lowest level from which every higher level is empty, but no
    /// lower than `min_level`.
    pub(crate) fn start_level(&self, min_level: usize) -> usize {
        // Towers never reach `max_level`, so the top level is always
        // empty and the scan can start just below it.
        let mut level = self.max_level - 1;
        while level > min_level {
            // SAFETY: sentinels live for the whole list lifetime.
            if unsafe { (*self.heads[level - 1]).right() } != self.tails[level - 1] {
                break;
            }
            level -= 1;
        }
        level
    }

    /// `SearchToLevel_SL(k, v)`: descend from the start level to level
    /// `target_level`, returning the bracketing pair `(n1, n2)` on that
    /// level (comparison per `mode`). Deletes superfluous nodes on the
    /// way (via `SearchRight`).
    ///
    /// # Safety
    ///
    /// `guard` must pin this list's domain; `1 <= target_level <
    /// max_level`.
    // escape: ESC.node-search: returned nodes are protected by the caller's
    // `guard`; the `# Safety` contract bounds their life to it
    pub(crate) unsafe fn search_to_level(
        &self,
        k: &K,
        target_level: usize,
        mode: Mode,
        guard: &R::Guard<'_>,
    ) -> (*mut SkipNode<K, V, R>, *mut SkipNode<K, V, R>) {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            debug_assert!(target_level >= 1 && target_level < self.max_level);
            let mut level = self.start_level(target_level);
            let mut curr = self.heads[level - 1];
            loop {
                // ord: Release/Acquire/Relaxed — LIST.flag-cas: per-level search helps deletions (wrapped C&S)
                let (n1, n2) = self.search_right(k, curr, mode, guard);
                if level == target_level {
                    return (n1, n2);
                }
                // ord: Relaxed — TOWER.layout: tenant-invariant tower geometry
                curr = (*n1).down();
                debug_assert!(!curr.is_null(), "descending below level 1");
                level -= 1;
            }
        }
    }

    /// `Search_SL(k)` core: the root node holding `k`, if present.
    ///
    /// # Safety
    ///
    /// `guard` must pin this list's domain; the returned pointer is
    /// valid while `guard` lives.
    // escape: ESC.node-search: returned root is protected by the caller's
    // `guard`; the `# Safety` contract bounds its life to it
    pub(crate) unsafe fn search_impl(
        &self,
        k: &K,
        guard: &R::Guard<'_>,
    ) -> Option<*mut SkipNode<K, V, R>> {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            // ord: Release/Acquire/Relaxed — LIST.flag-cas: descent helps flagged deletions (wrapped C&S)
            let (curr, _) = self.search_to_level(k, 1, Mode::Le, guard);
            ((*curr).key_ref().as_key() == Some(k)).then_some(curr)
        }
    }
}

impl<K, V, R: Reclaim> SkipList<K, V, R> {
    /// Number of elements (exact when quiescent).
    pub fn len(&self) -> usize {
        // Relaxed: a pure statistic — the value is never dereferenced
        // and orders nothing.
        // ord: Relaxed — STAT.len: pure statistic, no ordering role
        self.len.load(Ordering::Relaxed)
    }

    /// Whether the skip list holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured maximum number of levels.
    pub fn max_level(&self) -> usize {
        self.max_level
    }

    /// This list's reclamation domain.
    pub fn domain(&self) -> &R::Domain {
        &self.domain
    }

    /// Heights of every tower in the skip list (**quiescent** use
    /// only): walks level 1 and measures each root's `top` chain.
    ///
    /// Used by the tower-census experiment (E7) to compare the height
    /// distribution against the ideal geometric(1/2).
    pub fn tower_heights(&self) -> Vec<usize> {
        let mut out = Vec::new();
        // SAFETY: quiescent-only walk — the caller guarantees no
        // concurrent operations, so every reachable node stays valid.
        unsafe {
            let mut cur = (*self.heads[0]).right();
            while cur != self.tails[0] {
                // ord: Relaxed — TOWER.layout: tenant-invariant tower geometry
                let root = (*cur).root();
                let mut h = 0;
                // Relaxed: quiescent diagnostic — `top` is final once
                // every construction reference has been released.
                // ord: Relaxed — TOWER.top: quiescent-only diagnostic field
                // validate: VAL.exclusive: quiescent caller contract — no
                // concurrent updates or reclamation during this walk
                let mut t = (*root).top.load(Ordering::Relaxed);
                while !t.is_null() {
                    h += 1;
                    // ord: Relaxed — TOWER.layout: tenant-invariant tower geometry
                    // validate: VAL.exclusive: as above — quiescent walk
                    t = (*t).down();
                }
                out.push(h);
                cur = (*cur).right();
            }
        }
        out
    }

    /// Check structural invariants on a **quiescent** skip list: every
    /// level strictly sorted with no marks or flags, every node's
    /// `down` chain reaching its tower root, no superfluous towers, and
    /// the level-1 element count matching [`len`](Self::len).
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
        let mut count = 0usize;
        for level in 0..self.max_level {
            let on_node = |node: *mut SkipNode<K, V, R>| {
                // SAFETY: quiescent-only walk — the caller guarantees no
                // concurrent operations, so every reachable node stays valid.
                unsafe {
                    // ord: Relaxed — TOWER.layout: tenant-invariant tower geometry
                    let root = (*node).root();
                    // validate: VAL.exclusive: quiescent caller contract — no
                    // concurrent updates or reclamation during this walk
                    assert!(!(*root).is_marked(), "superfluous tower at quiescence");
                    assert_down_chain(node, level + 1);
                }
            };
            // SAFETY: as above.
            let n = unsafe {
                list::validate_level(self.heads[level], self.tails[level], level + 1, on_node)
            };
            if level == 0 {
                count = n;
            }
        }
        assert_eq!(count, self.len(), "len counter disagrees with level 1");
    }

    /// Check the §3.3 invariants INV 1–5 on every level, plus the
    /// vertical tower structure, on a skip list that may hold marked,
    /// flagged and superfluous nodes but on which no operation is
    /// running right now (see [`FrList::check_invariants`](crate::FrList::check_invariants)).
    ///
    /// # Panics
    ///
    /// Panics with a description of the violated invariant.
    pub fn check_invariants(&self)
    where
        K: Ord + fmt::Debug,
    {
        for level in 0..self.max_level {
            let l = level + 1;
            // SAFETY: no operation runs during the walk (caller contract), so
            // nothing linked at any level is unlinked or reclaimed under it.
            unsafe {
                list::check_level(self.heads[level], self.tails[level], l, |node| {
                    assert_down_chain(node, l)
                });
            }
        }
    }

    /// Every level's `(key, marked, flagged)` triples, level 1 first,
    /// sentinels included (their key is `None`), under the same
    /// contract as [`check_invariants`](Self::check_invariants).
    pub fn dump(&self) -> Vec<Vec<(Option<K>, bool, bool)>>
    where
        K: Clone,
    {
        // SAFETY: as for `check_invariants` — no operation runs, so
        // every linked node stays valid.
        self.heads
            .iter()
            .map(|&head| unsafe { list::dump_level(head) })
            .collect()
    }
}

/// Assert that `node`'s down chain reaches its tower root.
///
/// # Safety
///
/// Quiescent use only: no operation runs during the walk.
unsafe fn assert_down_chain<K, V, R: Reclaim>(node: *mut SkipNode<K, V, R>, l: usize) {
    // SAFETY: the fn's `# Safety` contract covers the whole body.
    unsafe {
        let mut d = node;
        // ord: Relaxed — TOWER.layout: tenant-invariant tower geometry
        while !(*d).down().is_null() {
            // ord: Relaxed — TOWER.layout: tenant-invariant tower geometry
            d = (*d).down();
        }
        // ord: Relaxed — TOWER.layout: tenant-invariant tower geometry
        assert_eq!(d, (*node).root(), "down chain at level {l} misses its root");
    }
}

impl<K, V, R: Reclaim> Drop for SkipList<K, V, R> {
    fn drop(&mut self) {
        // Unique access. Towers may be partially unlinked (some levels
        // already removed, others still linked), but every node of a
        // tower lives inside its root's contiguous block, so collecting
        // the distinct roots reachable from any level covers all live
        // towers. Towers whose last reference was already released are
        // disjoint from this set and are recycled by the domain's
        // drop (which runs before the pool's — field order).
        let mut roots = std::collections::HashSet::new();
        for level in 0..self.max_level {
            // SAFETY: unique access (`&mut self`); every linked node is
            // still valid because nothing has been freed yet.
            let mut cur = unsafe { (*self.heads[level]).right() };
            while cur != self.tails[level] {
                // SAFETY: as above — `cur` is a live node of this level.
                // ord: Relaxed — TOWER.layout: tenant-invariant tower geometry
                roots.insert(unsafe { (*cur).root() });
                // SAFETY: as above.
                cur = unsafe { (*cur).right() };
            }
        }
        for root in roots {
            // SAFETY: unique access; each distinct root is visited once,
            // so key/element are dropped once and the block recycled once.
            unsafe {
                // Only the root carries owned data; upper nodes hold
                // placeholder key/element that own nothing.
                std::ptr::drop_in_place(&mut (*root).key);
                std::ptr::drop_in_place(&mut (*root).element);
                let cap = (*root).height;
                self.pool.recycle(root as usize, cap);
            }
        }
        for level in 0..self.max_level {
            // SAFETY: sentinels were Box-allocated in `build` and never
            // freed elsewhere.
            drop(unsafe { Box::from_raw(self.heads[level]) });
            // SAFETY: as above.
            drop(unsafe { Box::from_raw(self.tails[level]) });
        }
    }
}

/// A per-thread handle to a [`SkipList`]. Not `Send`.
pub struct SkipListHandle<'l, K, V, R: Reclaim = Ebr> {
    pub(crate) list: &'l SkipList<K, V, R>,
    pub(crate) reclaim: R::Handle,
    /// Thread-local front for the list's tower-block pool.
    pub(crate) pool: LocalPool<SkipNode<K, V, R>>,
    /// Tower-height generator, seeded from the list's handle ticket.
    heights: RefCell<SmallRng>,
    /// Steps of the op brackets closed since the last
    /// [`take_op_steps`](Self::take_op_steps).
    steps: Cell<OpSteps>,
}

impl<K, V, R: Reclaim> fmt::Debug for SkipListHandle<'_, K, V, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SkipListHandle")
    }
}

impl<'l, K, V, R> SkipListHandle<'l, K, V, R>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    /// Insert `key → value`. Linearizes when the tower's root node is
    /// linked into level 1.
    ///
    /// # Errors
    ///
    /// If `key` is already present, returns `Err((key, value))`.
    pub fn insert(&self, key: K, value: V) -> Result<(), (K, V)> {
        let height_bits = self.heights.borrow_mut().next_u64();
        self.insert_bits(key, value, height_bits)
    }

    /// [`insert`](Self::insert) with a tower of exactly `height` levels
    /// (capped at `max_level - 1`) instead of a drawn one, for scripted
    /// schedules.
    ///
    /// # Errors
    ///
    /// If `key` is already present, returns `Err((key, value))`.
    #[doc(hidden)]
    pub fn insert_with_height(&self, key: K, value: V, height: u32) -> Result<(), (K, V)> {
        assert!((1..=64).contains(&height), "tower height out of range");
        // `height - 1` trailing ones draw exactly `height` levels.
        self.insert_bits(key, value, (1u64 << (height - 1)) - 1)
    }

    fn insert_bits(&self, key: K, value: V, height_bits: u64) -> Result<(), (K, V)> {
        // SAFETY: the guard pins this list's domain.
        self.bracket(|guard| unsafe {
            self.list
                .insert_impl(key, value, height_bits, &self.pool, guard)
        })
    }

    /// Remove `key`, returning its value. Linearizes when the root node
    /// becomes marked.
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
        // SAFETY: the guard pins this list's domain.
        self.bracket(|guard| unsafe { self.list.delete_impl(key, guard, f) })
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
    /// The visitor runs under this handle's pin: the borrow is
    /// valid for exactly the duration of the call, so `f` must not
    /// stash it. Keep `f` short — the pin delays reclamation
    /// domain-wide while it runs.
    ///
    /// # Examples
    ///
    /// ```
    /// use lf_core::SkipList;
    ///
    /// let map = SkipList::new();
    /// let h = map.handle();
    /// h.insert(1, "one".to_string()).unwrap();
    /// assert_eq!(h.get_with(&1, |v| v.len()), Some(3));
    /// assert_eq!(h.get_with(&2, |v| v.len()), None);
    /// ```
    pub fn get_with<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        // SAFETY: the guard pins this list's domain; the root (and
        // the borrow of its element handed to `f`) stays valid while
        // the guard lives, which spans the visitor call.
        self.bracket(|guard| unsafe {
            // ord: Release/Acquire/Relaxed — LIST.flag-cas: search helps flagged deletions (wrapped C&S)
            self.list
                .search_impl(key, guard)
                .map(|n| f((*n).element.as_ref().expect("root node has element")))
        })
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &K) -> bool {
        self.get_with(key, |_| ()).is_some()
    }

    /// One point operation: `body` under one pin of this handle,
    /// bracketed as a skip-list op whose steps are banked for
    /// [`take_op_steps`](Self::take_op_steps).
    #[inline]
    fn bracket<T>(&self, body: impl FnOnce(&R::Guard<'_>) -> T) -> T {
        let op = lf_metrics::op_begin_for(lf_metrics::Structure::SkipList);
        let guard = R::pin(&self.reclaim);
        let res = body(&guard);
        drop(guard);
        self.end_op(op);
        res
    }

    /// Close an op bracket, banking its steps for
    /// [`take_op_steps`](Self::take_op_steps).
    #[inline]
    pub(crate) fn end_op(&self, op: lf_metrics::OpToken) {
        self.steps.set(self.steps.get() + lf_metrics::op_end(op));
    }

    /// The steps of every point operation this handle ran since the
    /// last call, and reset the count — how a partitioning wrapper
    /// (`lf-shard`) credits each routed operation to its shard without
    /// bracketing the operation a second time.
    #[inline]
    pub fn take_op_steps(&self) -> OpSteps {
        self.steps.take()
    }

    /// Iterate over a weakly-consistent snapshot (level-1 traversal),
    /// cloning each `(key, value)` pair present when visited.
    pub fn iter(&self) -> SkipIter<'_, 'l, K, V, R>
    where
        K: Clone,
        V: Clone,
    {
        self.range(..)
    }

    /// Iterate over the keys in `range` (weakly consistent), positioned
    /// with an expected-`O(log n)` descent rather than a full scan.
    ///
    /// # Examples
    ///
    /// ```
    /// use lf_core::SkipList;
    ///
    /// let map = SkipList::new();
    /// let h = map.handle();
    /// for k in 0..100u32 {
    ///     h.insert(k, k).unwrap();
    /// }
    /// let window: Vec<u32> = h.range(10..15).map(|(k, _)| k).collect();
    /// assert_eq!(window, vec![10, 11, 12, 13, 14]);
    /// ```
    pub fn range<B>(&self, range: B) -> RangeIter<'_, 'l, K, V, R>
    where
        K: Clone,
        V: Clone,
        B: std::ops::RangeBounds<K>,
    {
        RangeIter::new(
            self,
            range.start_bound().cloned(),
            range.end_bound().cloned(),
        )
    }

    /// The smallest key and its value, if any (weakly consistent).
    pub fn first(&self) -> Option<(K, V)>
    where
        K: Clone,
        V: Clone,
    {
        self.range(..).next()
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

    /// Remove and return an entry that was the smallest at some moment
    /// during the call — the classic lock-free *DeleteMin* built from
    /// the dictionary operations (the priority-queue application named
    /// in the paper's §2).
    ///
    /// Under concurrency several callers never pop the same entry; a
    /// caller retries if its candidate minimum is removed first, so the
    /// operation is lock-free (each retry implies another pop
    /// succeeded).
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
            // Someone else removed it; retry with the new minimum.
        }
    }

    /// The skip list this handle operates on.
    pub fn list(&self) -> &'l SkipList<K, V, R> {
        self.list
    }

    /// Opportunistically advance reclamation. Withdraws this handle's
    /// standing announcement (see `LocalHandle::quiesce`) first,
    /// so garbage blocked on it can be freed.
    pub fn flush_reclamation(&self) {
        R::flush(&self.reclaim);
    }

    /// Withdraw this handle's standing announcement without
    /// collecting (see `LocalHandle::quiesce`). An idle but registered
    /// handle otherwise delays reclamation domain-wide exactly like a
    /// held guard; call this (or drop the handle) when the thread will
    /// stop operating for a while.
    pub fn quiesce(&self) {
        R::quiesce(&self.reclaim);
    }

    /// Re-tune how many consecutive operations share one standing pin
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

impl<K, V, R> FromIterator<(K, V)> for SkipList<K, V, R>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    /// Build a skip list from pairs; later duplicates are dropped.
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let sl = SkipList::with_backend();
        {
            let h = sl.handle();
            for (k, v) in iter {
                let _ = h.insert(k, v);
            }
        }
        sl
    }
}

impl<K, V, R> Extend<(K, V)> for SkipList<K, V, R>
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
