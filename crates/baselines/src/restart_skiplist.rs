//! A Fraser/Harris-style lock-free skip list: per-level Harris lists,
//! no backlinks, no flag bits — an operation that detects interference
//! **restarts its descent from the top of the skip list**.
//!
//! This is the design style of Fraser (2003) and, per the paper's §2,
//! of the lock-free skip lists developed concurrently with
//! Fomitchev–Ruppert. It shares this workspace's tower architecture
//! (one node per level, `down`/`tower_root` pointers, tower-scoped
//! reclamation), so benchmark comparisons against [`lf_core::SkipList`]
//! isolate exactly the recovery strategy: restart-from-top versus
//! backlink recovery with flag bits.
//!
//! Interrupted constructions are handled the way the paper notes is
//! possible for Harris-style designs (§4): when an inserter discovers
//! its root got marked, it *marks the node it just linked*, making the
//! whole tower uniformly marked so searches snip it out.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};

use lf_core::{ConcurrentMap, MapHandle};
use lf_metrics::CasType;
use lf_reclaim::{Collector, Guard, LocalHandle};
use lf_tagged::{AtomicTaggedPtr, TaggedPtr};
use rand::Rng;

use crate::{metered, Bound};

const MAX_LEVEL: usize = 32;

/// Per-level `(left, right)` bracketing pairs from a descent.
type LevelPairs<K, V> = Vec<(*mut Node<K, V>, *mut Node<K, V>)>;

#[repr(align(8))]
struct Node<K, V> {
    key: Bound<K>,
    element: Option<V>,
    /// Right pointer + mark bit (no flag bit in this design).
    succ: AtomicTaggedPtr<Node<K, V>>,
    down: *mut Node<K, V>,
    tower_root: *mut Node<K, V>,
    /// Root only: linked-node count + construction reference.
    remaining: AtomicUsize,
    /// Root only: topmost node (written only by the inserter).
    top: AtomicPtr<Node<K, V>>,
    /// Claimed by the single snip that releases this node's tower
    /// reference (snipped chains can overlap; see `search_level`).
    released: AtomicBool,
}

impl<K, V> Node<K, V> {
    fn alloc_root(key: K, element: V) -> *mut Self {
        let node = Box::into_raw(Box::new(Node {
            key: Bound::Key(key),
            element: Some(element),
            succ: AtomicTaggedPtr::new(TaggedPtr::null()),
            down: std::ptr::null_mut(),
            tower_root: std::ptr::null_mut(),
            remaining: AtomicUsize::new(2),
            top: AtomicPtr::new(std::ptr::null_mut()),
            released: AtomicBool::new(false),
        }));
        // SAFETY: `node` was just allocated and is not yet shared.
        unsafe {
            (*node).tower_root = node;
            (*node).top.store(node, Ordering::SeqCst);
        }
        node
    }

    fn alloc_upper(down: *mut Node<K, V>, tower_root: *mut Node<K, V>) -> *mut Self {
        Box::into_raw(Box::new(Node {
            key: Bound::NegInf, // placeholder; read through tower_root
            element: None,
            succ: AtomicTaggedPtr::new(TaggedPtr::null()),
            down,
            tower_root,
            remaining: AtomicUsize::new(0),
            top: AtomicPtr::new(std::ptr::null_mut()),
            released: AtomicBool::new(false),
        }))
    }

    fn alloc_sentinel(key: Bound<K>, down: *mut Node<K, V>) -> *mut Self {
        let node = Box::into_raw(Box::new(Node {
            key,
            element: None,
            succ: AtomicTaggedPtr::new(TaggedPtr::null()),
            down,
            tower_root: std::ptr::null_mut(),
            remaining: AtomicUsize::new(1),
            top: AtomicPtr::new(std::ptr::null_mut()),
            released: AtomicBool::new(false),
        }));
        // SAFETY: `node` was just allocated and is not yet shared.
        unsafe {
            (*node).tower_root = node;
            (*node).top.store(node, Ordering::SeqCst);
        }
        node
    }

    /// # Safety
    ///
    /// `tower_root` must point at a live root node (true for any node
    /// reached through the list under a guard).
    unsafe fn key_ref(&self) -> &Bound<K> {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe { &(*self.tower_root).key }
    }

    fn succ(&self) -> TaggedPtr<Node<K, V>> {
        self.succ.load(Ordering::SeqCst)
    }

    fn is_marked(&self) -> bool {
        self.succ().is_marked()
    }
}

/// A restart-on-interference lock-free skip list (Fraser/Harris style).
///
/// # Examples
///
/// ```
/// use lf_baselines::RestartSkipList;
///
/// let sl = RestartSkipList::new();
/// let h = sl.handle();
/// assert!(h.insert(1, "one").is_ok());
/// assert_eq!(h.insert(1, "dup"), Err((1, "dup")));
/// assert_eq!(h.remove(&1), Some("one"));
/// assert!(!h.contains(&1));
/// ```
pub struct RestartSkipList<K, V> {
    heads: Vec<*mut Node<K, V>>,
    tails: Vec<*mut Node<K, V>>,
    collector: Collector,
    len: AtomicUsize,
}

// SAFETY: all shared mutation goes through atomics; node reclamation is
// epoch-protected, so raw pointers reached under a guard stay valid.
unsafe impl<K: Send + Sync, V: Send + Sync> Send for RestartSkipList<K, V> {}
// SAFETY: same argument as `Send` above.
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for RestartSkipList<K, V> {}

impl<K, V> fmt::Debug for RestartSkipList<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RestartSkipList")
            .field("len", &self.len.load(Ordering::Relaxed))
            .finish()
    }
}

impl<K, V> Default for RestartSkipList<K, V>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> RestartSkipList<K, V>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    /// Create an empty skip list.
    pub fn new() -> Self {
        let mut heads = Vec::with_capacity(MAX_LEVEL);
        let mut tails = Vec::with_capacity(MAX_LEVEL);
        let mut below: (*mut Node<K, V>, *mut Node<K, V>) =
            (std::ptr::null_mut(), std::ptr::null_mut());
        for _ in 0..MAX_LEVEL {
            let tail = Node::alloc_sentinel(Bound::PosInf, below.1);
            let head = Node::alloc_sentinel(Bound::NegInf, below.0);
            // SAFETY: `head` was just allocated and is not yet shared.
            unsafe {
                (*head)
                    .succ
                    .store(TaggedPtr::unmarked(tail), Ordering::SeqCst);
            }
            heads.push(head);
            tails.push(tail);
            below = (head, tail);
        }
        RestartSkipList {
            heads,
            tails,
            collector: Collector::new(),
            len: AtomicUsize::new(0),
        }
    }

    /// Register the calling thread and return an operation handle.
    pub fn handle(&self) -> RestartHandle<'_, K, V> {
        RestartHandle {
            list: self,
            reclaim: self.collector.register(),
        }
    }

    /// Number of elements (exact when quiescent).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::SeqCst)
    }

    /// Whether the skip list is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn random_height(&self) -> usize {
        let mut rng = rand::thread_rng();
        let mut h = 1;
        while h < MAX_LEVEL - 1 && rng.gen::<bool>() {
            h += 1;
        }
        h
    }

    fn start_level(&self) -> usize {
        let mut level = MAX_LEVEL - 1;
        while level > 1 {
            // SAFETY: head sentinels live as long as the list.
            if unsafe { (*self.heads[level - 1]).right_clean() } != self.tails[level - 1] {
                break;
            }
            level -= 1;
        }
        level
    }

    /// # Safety
    ///
    /// `root` must be a tower root of this list protected by `guard`;
    /// the caller must own one reference on `root.remaining`.
    unsafe fn release_tower_ref(&self, root: *mut Node<K, V>, guard: &Guard<'_>) {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            if (*root).remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
                let mut cur = (*root).top.load(Ordering::SeqCst);
                while !cur.is_null() {
                    let down = (*cur).down;
                    let addr = cur as usize;
                    guard.defer_unchecked(move || drop(Box::from_raw(addr as *mut Node<K, V>)));
                    cur = down;
                }
            }
        }
    }

    /// One full descent: Harris-style search at every level from the
    /// start level down to level 1, snipping marked chains. Returns the
    /// per-level `(left, right)` pairs indexed `[level - 1]` for levels
    /// `1..=start` (with `start >= min_start`, so inserters get pairs
    /// for every level they will link), or `None` if any snip C&S
    /// failed (the caller must restart from the top — the defining cost
    /// of this design).
    ///
    /// # Safety
    ///
    /// `guard` must pin this list's collector; returned pointers are
    /// valid while it lives.
    unsafe fn descend(
        &self,
        k: &K,
        min_start: usize,
        guard: &Guard<'_>,
    ) -> Option<LevelPairs<K, V>> {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            let start = self.start_level().max(min_start);
            let mut out = vec![(std::ptr::null_mut(), std::ptr::null_mut()); start];
            let mut curr = self.heads[start - 1];
            for level in (1..=start).rev() {
                let (left, right) = self.search_level(k, curr, guard)?;
                out[level - 1] = (left, right);
                if level > 1 {
                    curr = (*left).down;
                }
            }
            Some(out)
        }
    }

    /// Harris search on one level starting at `curr` (`curr.key < k`):
    /// returns `(left, right)` with `left.key < k <= right.key`,
    /// snipping marked chains. `None` = snip C&S failed.
    ///
    /// # Safety
    ///
    /// `curr` must be a node of this list protected by `guard`, with
    /// `curr.key < k`.
    #[allow(clippy::type_complexity)]
    unsafe fn search_level(
        &self,
        k: &K,
        curr: *mut Node<K, V>,
        guard: &Guard<'_>,
    ) -> Option<(*mut Node<K, V>, *mut Node<K, V>)> {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            let mut left = curr;
            let mut left_succ = (*left).succ();
            let right;
            let mut t = curr;
            let mut t_succ = (*t).succ();
            loop {
                if !t_succ.is_marked() {
                    left = t;
                    left_succ = t_succ;
                }
                t = t_succ.ptr();
                if t.is_null() {
                    return None; // walked off a frozen edge; restart
                }
                lf_metrics::record_curr_update();
                t_succ = (*t).succ();
                let key_lt = match (*t).key_ref() {
                    Bound::NegInf => true,
                    Bound::PosInf => false,
                    Bound::Key(nk) => nk < k,
                };
                if !(t_succ.is_marked() || key_lt) {
                    right = t;
                    break;
                }
            }
            if left_succ.ptr() == right {
                if (*right).is_marked() {
                    return None;
                }
                return Some((left, right));
            }
            let res = (*left).succ.compare_exchange(
                left_succ,
                TaggedPtr::unmarked(right),
                Ordering::SeqCst,
                Ordering::SeqCst,
            );
            lf_metrics::record_cas(CasType::Unlink, res.is_ok());
            match res {
                Ok(_) => {
                    // Release each snipped node's tower reference. Chains
                    // from different snips can overlap (frozen marked
                    // pointers still lead through regions an earlier snip
                    // removed), so each node's release is claimed with a
                    // CAS and happens exactly once.
                    let mut cur = left_succ.ptr();
                    while cur != right {
                        let next = (*cur).succ().ptr();
                        if (*cur)
                            .released
                            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                            .is_ok()
                        {
                            self.release_tower_ref((*cur).tower_root, guard);
                        }
                        cur = next;
                    }
                    if (*right).is_marked() {
                        return None;
                    }
                    Some((left, right))
                }
                Err(_) => None,
            }
        }
    }

    /// Keep descending until a full descent succeeds without any snip
    /// failure (each failure restarts from the top — this is where the
    /// restart penalty accrues).
    ///
    /// # Safety
    ///
    /// Same contract as [`Self::descend`].
    unsafe fn descend_retry(&self, k: &K, min_start: usize, guard: &Guard<'_>) -> LevelPairs<K, V> {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            let mut restarts: u32 = 0;
            loop {
                if let Some(v) = self.descend(k, min_start, guard) {
                    return v;
                }
                restarts += 1;
                // Every restart is triggered by another thread's C&S
                // landing mid-descent, so a long burst of consecutive
                // restarts means this thread keeps losing to (and keeps
                // invalidating) its peers. On an oversubscribed or
                // single-core machine that mutual invalidation can persist
                // across whole scheduling quanta; yielding occasionally
                // lets the operation that would unblock the rest actually
                // finish. Scheduling aid only — the algorithm is unchanged.
                if restarts.is_multiple_of(32) {
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Mark `node` (loop until marked by someone).
    ///
    /// # Safety
    ///
    /// `node` must be a node of this list protected by the caller's
    /// guard.
    unsafe fn mark_node(&self, node: *mut Node<K, V>) {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            loop {
                let succ = (*node).succ();
                if succ.is_marked() {
                    return;
                }
                let res = (*node).succ.compare_exchange(
                    succ,
                    succ.with_mark(),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                );
                lf_metrics::record_cas(CasType::Mark, res.is_ok());
                if res.is_ok() {
                    return;
                }
            }
        }
    }

    /// # Safety
    ///
    /// `guard` must pin this list's collector.
    unsafe fn insert_impl(&self, key: K, value: V, guard: &Guard<'_>) -> Result<(), (K, V)> {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            let height = self.random_height();
            let mut levels = self.descend_retry(&key, height, guard);
            {
                let (_, right) = levels[0];
                if (*right).key_ref().as_key() == Some(&key) {
                    return Err((key, value));
                }
            }
            let root = Node::alloc_root(key, value);
            let mut new_node = root;

            'levels: for level in 1..=height {
                if level > 1 {
                    let upper = Node::alloc_upper(new_node, root);
                    (*root).remaining.fetch_add(1, Ordering::SeqCst);
                    (*root).top.store(upper, Ordering::SeqCst);
                    new_node = upper;
                }
                // Link `new_node` at `level`, restarting the descent from
                // the top on any failure.
                loop {
                    let (left, right) = levels[level - 1];
                    if (*right).key_ref().as_key() == (*root).key.as_key() {
                        if level == 1 {
                            // Lost the race to another inserter of the key.
                            let Node { key, element, .. } = *Box::from_raw(root);
                            return Err((key.into_key(), element.expect("root has element")));
                        }
                        // A transiently-unmarked node of a superfluous tower
                        // with our key occupies this level; help mark it so
                        // the re-descent snips it (keeps us lock-free).
                        self.mark_node(right);
                        let key_ref = (*root).key.as_key().expect("root has user key");
                        levels = self.descend_retry(key_ref, height, guard);
                        continue;
                    }
                    // Publish the forward pointer. `new_node` is unlinked
                    // but — for level > 1 — not private: `top` already
                    // points at it, and the deleter that marked our root
                    // walks the `top` chain marking every node it finds,
                    // linked or not. A plain store here could erase such a
                    // mark and then link a node the deleter believes is
                    // dead (a mark must be frozen forever once set — the
                    // snip walk and the search termination both rely on
                    // it). C&S from the observed value instead, and treat
                    // a mark as the tower's death sentence.
                    let observed = (*new_node).succ();
                    let doomed = observed.is_marked()
                        || (*new_node)
                            .succ
                            .compare_exchange(
                                observed,
                                TaggedPtr::unmarked(right),
                                Ordering::SeqCst,
                                Ordering::SeqCst,
                            )
                            .is_err();
                    if doomed {
                        // The only other writer to an unlinked node's succ
                        // is that marking walk, so a C&S failure re-reads
                        // as marked. The walk started at `top == new_node`
                        // and marked everything below it, so every linked
                        // node of the tower is already marked and will be
                        // snipped; abandoning construction leaks nothing.
                        debug_assert!(new_node != root, "unlinked root cannot be reached");
                        debug_assert!((*new_node).is_marked());
                        debug_assert!((*root).is_marked());
                        // Undo this never-linked node's accounting and free
                        // it after grace (the marking deleter still holds a
                        // reference it obtained under its guard).
                        (*root).top.store((*new_node).down, Ordering::SeqCst);
                        (*root).remaining.fetch_sub(1, Ordering::SeqCst);
                        let addr = new_node as usize;
                        guard.defer_unchecked(move || drop(Box::from_raw(addr as *mut Node<K, V>)));
                        break 'levels;
                    }
                    let res = (*left).succ.compare_exchange(
                        TaggedPtr::unmarked(right),
                        TaggedPtr::unmarked(new_node),
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    );
                    lf_metrics::record_cas(CasType::Insert, res.is_ok());
                    if res.is_ok() {
                        break;
                    }
                    // Restart from the very top (no backlinks to recover by).
                    let key_ref = (*root).key.as_key().expect("root has user key");
                    levels = self.descend_retry(key_ref, height, guard);
                }
                if level == 1 {
                    self.len.fetch_add(1, Ordering::SeqCst);
                }
                // Interrupted construction: if our root got marked, mark the
                // node we just linked (uninserted-node marking, §4) so
                // searches snip the whole tower, then stop.
                if (*root).is_marked() {
                    if new_node != root {
                        self.mark_node(new_node);
                    }
                    break;
                }
            }
            self.release_tower_ref(root, guard); // construction reference
            Ok(())
        }
    }

    /// # Safety
    ///
    /// `guard` must pin this list's collector.
    unsafe fn delete_impl<T>(
        &self,
        k: &K,
        guard: &Guard<'_>,
        f: impl FnOnce(&V) -> T,
    ) -> Option<T> {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            loop {
                let levels = self.descend_retry(k, 1, guard);
                let (_, root) = levels[0];
                if (*root).key_ref().as_key() != Some(k) {
                    return None;
                }
                // Claim the deletion by marking the root (linearization
                // point of a successful deletion).
                let succ = (*root).succ();
                if succ.is_marked() {
                    return None;
                }
                let res = (*root).succ.compare_exchange(
                    succ,
                    succ.with_mark(),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                );
                lf_metrics::record_cas(CasType::Mark, res.is_ok());
                if res.is_err() {
                    // Someone else marked it, or a neighbouring insert
                    // changed the field: restart the whole delete.
                    continue;
                }
                self.len.fetch_sub(1, Ordering::SeqCst);
                let value = f((*root).element.as_ref().expect("root has element"));
                // Mark the rest of the tower (top chain) so searches snip it.
                let mut cur = (*root).top.load(Ordering::SeqCst);
                while cur != root && !cur.is_null() {
                    self.mark_node(cur);
                    cur = (*cur).down;
                }
                // One cleaning descent to unlink what we marked.
                let _ = self.descend(k, 1, guard);
                return Some(value);
            }
        }
    }

    /// # Safety
    ///
    /// `guard` must pin this list's collector; the returned pointer is
    /// valid while it lives.
    unsafe fn find(&self, k: &K, guard: &Guard<'_>) -> Option<*mut Node<K, V>> {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            let levels = self.descend_retry(k, 1, guard);
            let (_, right) = levels[0];
            ((*right).key_ref().as_key() == Some(k)).then_some(right)
        }
    }
}

impl<K, V> Node<K, V> {
    fn right_clean(&self) -> *mut Node<K, V> {
        self.succ.load(Ordering::SeqCst).ptr()
    }
}

impl<K, V> Drop for RestartSkipList<K, V> {
    fn drop(&mut self) {
        // Same whole-membership walk as the core skip list.
        // SAFETY (whole fn): &mut self — no concurrent access; every
        // node reachable from the level lists (plus full towers via
        // their roots) is live and Box-allocated, and `seen` dedupes so
        // each is freed exactly once. Sentinels are freed last.
        let mut seen = std::collections::HashSet::new();
        for level in 0..MAX_LEVEL {
            // SAFETY: see the block comment above.
            let mut cur = unsafe { (*self.heads[level]).right_clean() };
            while cur != self.tails[level] {
                // SAFETY: as above.
                let root = unsafe { (*cur).tower_root };
                if seen.insert(root) {
                    // SAFETY: as above.
                    let mut t = unsafe { (*root).top.load(Ordering::SeqCst) };
                    while !t.is_null() {
                        seen.insert(t);
                        // SAFETY: as above.
                        t = unsafe { (*t).down };
                    }
                }
                seen.insert(cur);
                // SAFETY: as above.
                cur = unsafe { (*cur).right_clean() };
            }
        }
        for node in seen {
            // SAFETY: as above.
            drop(unsafe { Box::from_raw(node) });
        }
        for level in 0..MAX_LEVEL {
            // SAFETY: as above.
            drop(unsafe { Box::from_raw(self.heads[level]) });
            // SAFETY: as above.
            drop(unsafe { Box::from_raw(self.tails[level]) });
        }
    }
}

/// Per-thread handle to a [`RestartSkipList`]. Not `Send`.
pub struct RestartHandle<'l, K, V> {
    list: &'l RestartSkipList<K, V>,
    reclaim: LocalHandle,
}

impl<K, V> fmt::Debug for RestartHandle<'_, K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("RestartHandle")
    }
}

impl<K, V> RestartHandle<'_, K, V>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    /// Insert `key → value`; hands both back if `key` is present.
    pub fn insert(&self, key: K, value: V) -> Result<(), (K, V)> {
        let guard = self.reclaim.pin();
        // SAFETY: the guard pins this list's collector.
        metered(|| unsafe { self.list.insert_impl(key, value, &guard) })
    }

    /// Remove `key` and apply `f` to a borrow of its value.
    pub fn remove_with<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        let guard = self.reclaim.pin();
        // SAFETY: as for `insert`.
        metered(|| unsafe { self.list.delete_impl(key, &guard, f) })
    }

    /// Look up `key` and apply `f` to a borrow of its value.
    pub fn get_with<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        let guard = self.reclaim.pin();
        // SAFETY: as for `insert`; the node stays valid while the
        // guard lives.
        metered(|| unsafe {
            self.list
                .find(key, &guard)
                .map(|n| f((*n).element.as_ref().expect("root has element")))
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

impl<K, V> ConcurrentMap for RestartSkipList<K, V>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    type Key = K;
    type Value = V;
    type Handle<'a>
        = RestartHandle<'a, K, V>
    where
        Self: 'a;

    fn handle(&self) -> Self::Handle<'_> {
        RestartSkipList::handle(self)
    }

    fn len(&self) -> usize {
        RestartSkipList::len(self)
    }
}

impl<K, V> MapHandle<K, V> for RestartHandle<'_, K, V>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    fn insert(&self, key: K, value: V) -> Result<(), (K, V)> {
        RestartHandle::insert(self, key, value)
    }

    fn remove_with<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        RestartHandle::remove_with(self, key, f)
    }

    fn get_with<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        RestartHandle::get_with(self, key, f)
    }

    fn amortize_pins(&self, every: u32) {
        self.reclaim.amortize_pins(every);
    }

    fn quiesce(&self) {
        self.reclaim.quiesce();
    }

    fn flush_reclamation(&self) {
        self.reclaim.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn sequential_roundtrip() {
        let sl = RestartSkipList::new();
        let h = sl.handle();
        for k in 0..200u32 {
            assert!(h.insert(k, k * 3).is_ok());
        }
        assert_eq!(h.insert(100, 0), Err((100, 0)));
        assert_eq!(sl.len(), 200);
        for k in 0..200u32 {
            assert_eq!(h.get(&k), Some(k * 3));
        }
        for k in (0..200u32).step_by(2) {
            assert_eq!(h.remove(&k), Some(k * 3));
        }
        for k in 0..200u32 {
            assert_eq!(h.contains(&k), k % 2 == 1);
        }
    }

    #[test]
    fn remove_missing() {
        let sl: RestartSkipList<u32, u32> = RestartSkipList::new();
        assert_eq!(sl.handle().remove(&7), None);
    }

    #[test]
    fn concurrent_unique_winners() {
        let sl = Arc::new(RestartSkipList::new());
        let wins = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let sl = sl.clone();
                let wins = wins.clone();
                s.spawn(move || {
                    let h = sl.handle();
                    for k in 0..100u32 {
                        if h.insert(k, ()).is_ok() {
                            wins.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        assert_eq!(wins.load(Ordering::SeqCst), 100);
        assert_eq!(sl.len(), 100);
    }

    #[test]
    fn concurrent_churn_sound() {
        let sl = Arc::new(RestartSkipList::new());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let sl = sl.clone();
                s.spawn(move || {
                    let h = sl.handle();
                    for r in 0..250u64 {
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
        let h = sl.handle();
        for k in 0..24u64 {
            let _ = h.contains(&k);
        }
    }
}
