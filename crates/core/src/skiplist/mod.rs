//! The Fomitchev–Ruppert lock-free skip list (paper §4).
//!
//! Each key is represented by a *tower* — one block holding a header
//! (key, element) and one level cell per level (see `crate::tower`,
//! whose height-1 blocks are also the list's nodes); the cells
//! at each level form a sorted linked list run by the §3 linked-list
//! algorithms (backlinks + flag bits), and the level-1 cell is the
//! tower's *root*. Insertions build towers bottom-up and linearize when
//! the root is linked; deletions mark the root first (making the tower
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
mod range;
mod read;
mod scan;

pub use range::{RangeIter, SkipIter};
pub(crate) use read::{ReadRace, ReadWalk, READ_ATTEMPTS};
pub use scan::merged_range;

use std::cell::RefCell;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use lf_reclaim::{Ebr, Publish, Reclaim};
use lf_tagged::CachePadded;
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

use crate::list::{self, LevelNode, Mode, PIN_AMORTIZE_OPS};
use crate::pool::{LocalPool, SharedPool};
use crate::tower::{cell_at, down, tower_of, LevelCell, Tower};
use crate::{ConcurrentMap, MapHandle};

/// Default number of levels (towers grow to at most one less, so the
/// top level is always empty and descent can start there).
pub const DEFAULT_MAX_LEVEL: usize = 32;

/// The most levels a skip list may have: an update records its descent
/// in a fixed stack array of this many per-level pairs.
pub const MAX_LEVEL_LIMIT: usize = 32;

/// Consecutive cells `(n1, n2)` of one level.
type Pair<K, V, R> = (*mut LevelCell<K, V, R>, *mut LevelCell<K, V, R>);

/// One update's descent: the `(n1, n2)` pair `SearchRight` returned at
/// every level from the start level `top` down to level 1, kept on the
/// stack (no per-op allocation). The cells are protected only by the
/// guard the descent ran under, whose borrow `'g` the path holds, and a
/// pair may be stale by the time it is used: its users either link
/// through the level's validating C&S or walk backlinks to an unmarked
/// node before searching on.
pub(crate) struct SearchPath<'g, K, V, R: Reclaim> {
    pairs: [Pair<K, V, R>; MAX_LEVEL_LIMIT],
    top: usize,
    guard: PhantomData<&'g ()>,
}

impl<K, V, R: Reclaim> SearchPath<'_, K, V, R> {
    fn new() -> Self {
        SearchPath {
            pairs: [(std::ptr::null_mut(), std::ptr::null_mut()); MAX_LEVEL_LIMIT],
            top: 0,
            guard: PhantomData,
        }
    }

    /// The level the descent started at: every higher level was empty.
    pub(crate) fn top(&self) -> usize {
        self.top
    }

    /// The pair recorded at `level`, or `None` above [`top`](Self::top).
    pub(crate) fn at(&self, level: usize) -> Option<Pair<K, V, R>> {
        (level <= self.top).then(|| self.pairs[level - 1])
    }
}

/// A lock-free skip list dictionary (Fomitchev & Ruppert 2004, §4).
///
/// Expected `O(log n)` searches, insertions and deletions without any
/// locks; linearizable; lock-free. Duplicate keys are rejected, as in
/// the paper.
///
/// Obtain a per-thread [`SkipListHandle`] with
/// [`handle`](SkipList::handle) and operate through it.
///
/// Generic over the reclamation backend `R` (default [`Ebr`]); build
/// over a different backend with [`with_backend`](Self::with_backend).
///
/// # Examples
///
/// ```
/// use lf_core::{MapHandle, SkipList};
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
    /// The head and tail sentinel blocks, `max_level` cells each: the
    /// level-`l` cells are level `l`'s sentinels ([`head`](Self::head),
    /// [`tail`](Self::tail)).
    head: *mut Tower<K, V, R>,
    tail: *mut Tower<K, V, R>,
    /// Declared before `pool`: the domain's drop runs the deferred
    /// tower retirements (which recycle blocks into the pool) before
    /// the pool's drop frees the blocks themselves.
    pub(crate) domain: R::Domain,
    /// Recycles tower blocks, bucketed by height.
    pub(crate) pool: Arc<SharedPool<Tower<K, V, R>>>,
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
    /// Panics unless `2 <= max_level <=` [`MAX_LEVEL_LIMIT`] (the capacity
    /// of an update's stack-held search path).
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
    /// Panics unless `2 <= max_level <=` [`MAX_LEVEL_LIMIT`] (the capacity
    /// of an update's stack-held search path).
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

    fn build(max_level: usize, domain: R::Domain, pool: Arc<SharedPool<Tower<K, V, R>>>) -> Self {
        assert!(
            (2..=MAX_LEVEL_LIMIT).contains(&max_level),
            "max_level must be in 2..={MAX_LEVEL_LIMIT}"
        );
        let (head, tail) = Tower::sentinels(max_level);
        SkipList {
            head,
            tail,
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
        }
    }

    /// The level (1-based) at which descending searches start: the
    /// lowest level from which every higher level is empty, but no
    /// lower than `min_level`.
    pub(crate) fn start_level(&self, min_level: usize) -> usize {
        // Towers never reach `max_level`, so the top level is always
        // empty and the scan can start just below it.
        self.highest_nonempty(self.max_level - 1, min_level)
    }

    /// The highest non-empty level at or below `level`, but no lower
    /// than `min_level`. The head cells it reads are contiguous.
    pub(crate) fn highest_nonempty(&self, mut level: usize, min_level: usize) -> usize {
        while level > min_level {
            // SAFETY: sentinels live for the whole list lifetime.
            if unsafe { (*self.head(level)).right() } != self.tail(level) {
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
    ) -> Pair<K, V, R> {
        // SAFETY: forwarded contract.
        // ord: Release/Acquire/Relaxed — LIST.flag-cas: per-level search helps deletions (wrapped C&S)
        unsafe { self.descend(k, target_level, mode, None, guard) }
    }

    /// `SearchToLevel_SL(k, 1)` for an update: the same descent, with
    /// every level's pair recorded so the update can link or dismantle
    /// its upper levels without descending again.
    ///
    /// # Safety
    ///
    /// `guard` must pin this list's domain; the path borrows it, so its
    /// nodes stay protected for the path's whole life.
    pub(crate) unsafe fn search_path<'g>(
        &self,
        k: &K,
        mode: Mode,
        guard: &'g R::Guard<'_>,
    ) -> SearchPath<'g, K, V, R> {
        let mut path = SearchPath::new();
        // SAFETY: forwarded contract.
        // ord: Release/Acquire/Relaxed — LIST.flag-cas: per-level search helps deletions (wrapped C&S)
        unsafe { self.descend(k, 1, mode, Some(&mut path), guard) };
        path
    }

    /// The descent behind [`search_to_level`](Self::search_to_level)
    /// and [`search_path`](Self::search_path), recording each level's
    /// pair into `path` when given.
    ///
    /// # Safety
    ///
    /// As for [`search_to_level`](Self::search_to_level).
    // escape: ESC.node-search: returned nodes are protected by the caller's
    // `guard`; the `# Safety` contract bounds their life to it
    unsafe fn descend(
        &self,
        k: &K,
        target_level: usize,
        mode: Mode,
        mut path: Option<&mut SearchPath<'_, K, V, R>>,
        guard: &R::Guard<'_>,
    ) -> Pair<K, V, R> {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            debug_assert!(target_level >= 1 && target_level < self.max_level);
            let mut level = self.start_level(target_level);
            if let Some(path) = path.as_deref_mut() {
                path.top = level;
            }
            let mut curr = self.head(level);
            loop {
                // ord: Release/Acquire/Relaxed — LIST.flag-cas: per-level search helps deletions (wrapped C&S)
                let (n1, n2) = self.at(level).search_right(k, curr, mode, guard);
                if let Some(path) = path.as_deref_mut() {
                    // escape: ESC.search-path: the path lives strictly inside
                    // the update's `guard` scope, so recorded nodes stay protected
                    path.pairs[level - 1] = (n1, n2);
                }
                if level == target_level {
                    return (n1, n2);
                }
                curr = down(n1);
                level -= 1;
            }
        }
    }

    /// `Search_SL(k)` core: the tower holding `k`, if present.
    ///
    /// # Safety
    ///
    /// `guard` must pin this list's domain; the returned pointer is
    /// valid while `guard` lives.
    // escape: ESC.node-search: returned tower is protected by the caller's
    // `guard`; the `# Safety` contract bounds its life to it
    pub(crate) unsafe fn search_impl(
        &self,
        k: &K,
        guard: &R::Guard<'_>,
    ) -> Option<*mut Tower<K, V, R>> {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            // ord: Release/Acquire/Relaxed — LIST.flag-cas: descent helps flagged deletions (wrapped C&S)
            let (curr, _) = self.search_to_level(k, 1, Mode::Le, guard);
            let tower = tower_of(curr, 1);
            ((*tower).key.as_key() == Some(k)).then_some(tower)
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

    /// Level `level`'s head sentinel cell.
    #[inline]
    pub(crate) fn head(&self, level: usize) -> *mut LevelCell<K, V, R> {
        debug_assert!(level >= 1 && level <= self.max_level);
        // SAFETY: the head block holds `max_level` cells.
        unsafe { cell_at(self.head, level) }
    }

    /// Level `level`'s tail sentinel cell.
    #[inline]
    pub(crate) fn tail(&self, level: usize) -> *mut LevelCell<K, V, R> {
        debug_assert!(level >= 1 && level <= self.max_level);
        // SAFETY: the tail block holds `max_level` cells.
        unsafe { cell_at(self.tail, level) }
    }

    /// Heights of every tower in the skip list (**quiescent** use
    /// only): walks level 1 and reads each tower's `top`.
    ///
    /// Used by the tower-census experiment (E12) to compare the height
    /// distribution against the ideal geometric(1/2).
    pub fn tower_heights(&self) -> Vec<usize> {
        let mut out = Vec::new();
        // SAFETY: quiescent-only walk — the caller guarantees no
        // concurrent operations, so every reachable cell stays valid.
        unsafe {
            let mut cur = (*self.head(1)).right();
            while cur != self.tail(1) {
                // Relaxed: quiescent diagnostic — `top` is final once
                // every construction reference has been released.
                // ord: Relaxed — TOWER.top: quiescent-only diagnostic field
                let top = (*tower_of(cur, 1)).top.load(Ordering::Relaxed);
                out.push(usize::from(top));
                cur = (*cur).right();
            }
        }
        out
    }

    /// Check structural invariants on a **quiescent** skip list: every
    /// level strictly sorted with no marks or flags, every cell at a
    /// level its tower has linked (at most its `top`), no superfluous
    /// towers, and the level-1 element count matching [`len`](Self::len).
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
        for l in 1..=self.max_level {
            let on_node = |cell: *mut LevelCell<K, V, R>| {
                // SAFETY: quiescent-only walk — the caller guarantees no
                // concurrent operations, so every reachable cell stays valid.
                unsafe {
                    assert!(
                        !self.at(l).is_superfluous(cell),
                        "superfluous tower at quiescence"
                    );
                    assert_within_top(cell, l);
                }
            };
            // SAFETY: as above.
            let n = unsafe {
                list::validate_level(&self.at(l), self.head(l), self.tail(l), l, on_node)
            };
            if l == 1 {
                count = n;
            }
        }
        assert_eq!(count, self.len(), "len counter disagrees with level 1");
    }

    /// Check the §3.3 invariants INV 1–5 on every level, plus the
    /// vertical tower structure, on a skip list that may hold marked,
    /// flagged and superfluous cells but on which no operation is
    /// running right now (see [`FrList::check_invariants`](crate::FrList::check_invariants)).
    ///
    /// # Panics
    ///
    /// Panics with a description of the violated invariant.
    pub fn check_invariants(&self)
    where
        K: Ord + fmt::Debug,
    {
        for l in 1..=self.max_level {
            // SAFETY: no operation runs during the walk (caller contract), so
            // nothing linked at any level is unlinked or reclaimed under it.
            unsafe {
                list::check_level(&self.at(l), self.head(l), self.tail(l), l, |cell| {
                    assert_within_top(cell, l)
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
        // every linked cell stays valid.
        (1..=self.max_level)
            .map(|l| unsafe { list::dump_level(&self.at(l), self.head(l)) })
            .collect()
    }
}

/// Assert that the level-`l` `cell` is at or below its tower's `top`:
/// a tower links its levels bottom-up and raises `top` before linking
/// each, so no linked cell may sit above it.
///
/// # Safety
///
/// No operation runs during the check; `cell` is linked at level `l`.
unsafe fn assert_within_top<K, V, R: Reclaim>(cell: *mut LevelCell<K, V, R>, l: usize) {
    // SAFETY: the fn's `# Safety` contract covers the whole body.
    unsafe {
        let tower = tower_of(cell, l);
        // ord: Relaxed — TOWER.top: quiescent-only diagnostic field
        let top = usize::from((*tower).top.load(Ordering::Relaxed));
        assert!(
            l <= top && top <= usize::from((*tower).height),
            "cell at level {l} above its tower's top {top}"
        );
    }
}

impl<K, V, R: Reclaim> Drop for SkipList<K, V, R> {
    fn drop(&mut self) {
        // Unique access. Towers may be partially unlinked (some levels
        // already removed, others still linked), but every cell of a
        // tower lives inside its block, so collecting the distinct
        // towers reachable from any level covers all live towers.
        // Towers whose last reference was already released are
        // disjoint from this set and are recycled by the domain's
        // drop (which runs before the pool's — field order).
        let mut towers = std::collections::HashSet::new();
        for l in 1..=self.max_level {
            // SAFETY: unique access (`&mut self`); every linked cell is
            // still valid because nothing has been freed yet.
            let mut cur = unsafe { (*self.head(l)).right() };
            while cur != self.tail(l) {
                // SAFETY: as above — `cur` is a live cell of level `l`.
                towers.insert(unsafe { tower_of(cur, l) });
                // SAFETY: as above.
                cur = unsafe { (*cur).right() };
            }
        }
        for tower in towers {
            // SAFETY: unique access; each distinct tower is visited
            // once, so it is recycled once.
            unsafe { Tower::recycle(tower, &self.pool) };
        }
        // SAFETY: the sentinel blocks came from `Tower::sentinels` in
        // `build` and are freed only here.
        unsafe {
            Tower::free_sentinel(self.head, self.max_level);
            Tower::free_sentinel(self.tail, self.max_level);
        }
    }
}

/// A per-thread handle to a [`SkipList`]. Not `Send`.
pub struct SkipListHandle<'l, K, V, R: Reclaim = Ebr> {
    pub(crate) list: &'l SkipList<K, V, R>,
    pub(crate) reclaim: R::Handle,
    /// Thread-local front for the list's tower-block pool.
    pub(crate) pool: LocalPool<Tower<K, V, R>>,
    /// Tower-height generator, seeded from the list's handle ticket.
    heights: RefCell<SmallRng>,
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
    /// [`insert`](MapHandle::insert) with a tower of exactly `height` levels
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

    /// One point operation: `body` under one pin of this handle,
    /// bracketed as a skip-list op.
    #[inline]
    fn bracket<T>(&self, body: impl FnOnce(&R::Guard<'_>) -> T) -> T {
        let op = lf_metrics::op_begin_for(lf_metrics::Structure::SkipList);
        let guard = R::pin(&self.reclaim);
        let res = body(&guard);
        drop(guard);
        lf_metrics::op_end(op);
        res
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
    /// use lf_core::{MapHandle, SkipList};
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

    /// The skip list this handle operates on.
    pub fn list(&self) -> &'l SkipList<K, V, R> {
        self.list
    }
}

impl<K, V, R> ConcurrentMap for SkipList<K, V, R>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    type Key = K;
    type Value = V;
    type Handle<'a>
        = SkipListHandle<'a, K, V, R>
    where
        Self: 'a;

    const ORDERED: bool = true;

    fn handle(&self) -> Self::Handle<'_> {
        SkipList::handle(self)
    }

    fn len(&self) -> usize {
        SkipList::len(self)
    }
}

impl<K, V, R> MapHandle<K, V> for SkipListHandle<'_, K, V, R>
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
    fn insert(&self, key: K, value: V) -> Result<(), (K, V)> {
        let height_bits = self.heights.borrow_mut().next_u64();
        self.insert_bits(key, value, height_bits)
    }

    /// Remove `key` and apply `f` to a borrow of its value, without
    /// cloning (`None` if the key was absent or another remover won).
    /// `f` runs under this handle's pin, as for `get_with`. A removal
    /// linearizes when the root node becomes marked.
    fn remove_with<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        // SAFETY: the guard pins this list's domain.
        self.bracket(|guard| unsafe { self.list.delete_impl(key, guard, f) })
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
    /// use lf_core::{MapHandle, SkipList};
    ///
    /// let map = SkipList::new();
    /// let h = map.handle();
    /// h.insert(1, "one".to_string()).unwrap();
    /// assert_eq!(h.get_with(&1, |v| v.len()), Some(3));
    /// assert_eq!(h.get_with(&2, |v| v.len()), None);
    /// ```
    fn get_with<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        // SAFETY: the guard pins this list's domain; the root (and
        // the borrow of its element handed to `f`) stays valid while
        // the guard lives, which spans the visitor call.
        self.bracket(|guard| unsafe {
            // ord: Release/Acquire/Relaxed — LIST.flag-cas: search helps flagged deletions (wrapped C&S)
            self.list
                .search_impl(key, guard)
                .map(|t| f((*t).element.as_ref().expect("user tower has element")))
        })
    }

    fn scan(&self, after: Option<&K>, visit: &mut dyn FnMut(&K, &V) -> bool) {
        // The sharded tier's walk, over this one list.
        let start = after.map_or(std::ops::Bound::Unbounded, std::ops::Bound::Excluded);
        merged_range(&[self], start, std::ops::Bound::Unbounded, visit);
    }

    /// Re-tune how many consecutive operations share one standing pin
    /// announcement (default 16; see `LocalHandle::amortize_pins`).
    ///
    /// Batch executors that drain `n` queued requests back-to-back set
    /// this to the batch size so a whole drained batch costs a single
    /// announcement, then `quiesce` between batches.
    fn amortize_pins(&self, every: u32) {
        R::amortize_pins(&self.reclaim, every);
    }

    /// Withdraw this handle's standing announcement without
    /// collecting (see `LocalHandle::quiesce`). An idle but registered
    /// handle otherwise delays reclamation domain-wide exactly like a
    /// held guard; call this (or drop the handle) when the thread will
    /// stop operating for a while.
    fn quiesce(&self) {
        R::quiesce(&self.reclaim);
    }

    /// Opportunistically advance reclamation. Withdraws this handle's
    /// standing announcement (see `LocalHandle::quiesce`) first,
    /// so garbage blocked on it can be freed.
    fn flush_reclamation(&self) {
        R::flush(&self.reclaim);
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
