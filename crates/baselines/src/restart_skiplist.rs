//! A Fraser/Harris-style lock-free skip list: per-level Harris lists,
//! no backlinks, no flag bits — an operation that detects interference
//! **restarts its descent from the top of the skip list**.
//!
//! This is the design style of Fraser (2003) and, per the paper's §2,
//! of the lock-free skip lists developed concurrently with
//! Fomitchev–Ruppert, built the way crossbeam's and smr-benchmark's
//! skip lists are:
//!
//! * One allocation per tower: key, value, height, a reference count,
//!   and a `next` array of `height` links (right pointer + mark bit).
//! * Deletion marks the tower top-down; whoever marks level 1 wins.
//! * Unlinks are single-node, as in Michael's list: a search that meets
//!   a marked node unlinks that node alone with one C&S.
//! * `refs = height + 1`: each winning per-level unlink, and the
//!   inserter when it is done building, drop one reference, and the
//!   last one retires the tower through the epoch guard.
//! * Any failed C&S restarts the descent from the top.
//!
//! Heights are geometric(½) in `1..MAX_LEVEL`, as in
//! [`lf_core::SkipList`], so benchmark comparisons against it isolate
//! the recovery strategy: restart-from-top versus backlink recovery
//! with flag bits.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::cell::RefCell;
use std::fmt;
use std::mem::size_of;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use lf_core::ConcurrentMap;
use lf_metrics::CasType;
use lf_reclaim::{Collector, Guard, LocalHandle};
use lf_tagged::{step, AtomicTaggedPtr, StepKind, TaggedPtr};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

use crate::marked::{Handle, Ops};

const MAX_LEVEL: usize = 32;

type Link<K, V> = AtomicTaggedPtr<Node<K, V>>;

/// A tower's header; its `height` links follow it in the same block.
struct Node<K, V> {
    key: K,
    value: V,
    height: usize,
    /// One per level the tower may be linked at, plus the inserter's.
    refs: AtomicUsize,
}

impl<K, V> Node<K, V> {
    /// A header followed by `height` links. The header's alignment (its
    /// `AtomicUsize`) covers a link's, so the links start right after it.
    fn layout(height: usize) -> Layout {
        let links = Layout::array::<Link<K, V>>(height).expect("tower layout overflow");
        let (layout, at) = Layout::new::<Self>()
            .extend(links)
            .expect("tower layout overflow");
        debug_assert_eq!(at, size_of::<Self>(), "links follow the header directly");
        layout.pad_to_align()
    }

    /// A private tower of `height` unlinked levels.
    fn alloc(key: K, value: V, height: usize) -> *mut Self {
        let layout = Self::layout(height);
        // SAFETY: the layout has a non-zero size (the header's).
        let node = unsafe { alloc(layout) }.cast::<Self>();
        if node.is_null() {
            handle_alloc_error(layout);
        }
        let refs = AtomicUsize::new(height + 1);
        // SAFETY: `node` is a fresh block of `layout`: the header, then
        // `height` links.
        unsafe {
            node.write(Node {
                key,
                value,
                height,
                refs,
            });
            let links = Self::links(node).cast_mut();
            for level in 0..height {
                links.add(level).write(Link::new(TaggedPtr::null()));
            }
        }
        node
    }

    /// The tower's links, `height` of them, right after its header.
    fn links(node: *mut Self) -> *const Link<K, V> {
        node.wrapping_add(1).cast()
    }

    /// The tower's link at `level` (0-based: level 1 is `link(node, 0)`).
    ///
    /// # Safety
    ///
    /// `node` is a live tower and `level < height`.
    unsafe fn link<'a>(node: *mut Self, level: usize) -> &'a Link<K, V> {
        // SAFETY: the fn's `# Safety` contract.
        unsafe { &*Self::links(node).add(level) }
    }

    /// Free a tower, dropping its key and value.
    ///
    /// # Safety
    ///
    /// `node` came from [`alloc`](Self::alloc), no thread can reach it,
    /// and it is freed once.
    unsafe fn free(node: *mut Self) {
        // SAFETY: the fn's `# Safety` contract.
        drop(unsafe { Self::into_pair(node) });
    }

    /// Free a tower and hand its pair back.
    ///
    /// # Safety
    ///
    /// As for [`free`](Self::free).
    unsafe fn into_pair(node: *mut Self) -> (K, V) {
        // SAFETY: the fn's `# Safety` contract; the fields are read out
        // once and the block freed without dropping them again.
        unsafe {
            let pair = (std::ptr::read(&(*node).key), std::ptr::read(&(*node).value));
            dealloc(node.cast(), Self::layout((*node).height));
            pair
        }
    }

    /// Drop one reference; the last one retires the tower.
    ///
    /// # Safety
    ///
    /// `node` is a tower of a list `guard` pins; the caller owns one of
    /// its references, and the last is dropped only once every level
    /// is unlinked.
    unsafe fn decrement(node: *mut Self, guard: &Guard<'_>)
    where
        K: Send + 'static,
        V: Send + 'static,
    {
        // SAFETY: the fn's `# Safety` contract.
        unsafe {
            if (*node).refs.fetch_sub(1, Ordering::SeqCst) == 1 {
                let addr = node as usize;
                guard.defer_unchecked(move || Node::free(addr as *mut Node<K, V>));
            }
        }
    }
}

/// Per-level predecessors (as link arrays: the head's or a tower's) and
/// successors of a key, from one full descent.
struct Cursor<K, V> {
    preds: [*const Link<K, V>; MAX_LEVEL],
    succs: [*mut Node<K, V>; MAX_LEVEL],
}

impl<K: Ord, V> Cursor<K, V> {
    /// The tower holding `k` at level 1, if any.
    ///
    /// # Safety
    ///
    /// The cursor's towers are still protected by the guard of its descent.
    unsafe fn found(&self, k: &K) -> Option<*mut Node<K, V>> {
        let node = self.succs[0];
        // SAFETY: the fn's `# Safety` contract.
        (!node.is_null() && unsafe { (*node).key == *k }).then_some(node)
    }
}

/// A restart-on-interference lock-free skip list (Fraser/Harris style).
///
/// # Examples
///
/// ```
/// use lf_baselines::RestartSkipList;
/// use lf_core::MapHandle;
///
/// let sl = RestartSkipList::new();
/// let h = sl.handle();
/// assert!(h.insert(1, "one").is_ok());
/// assert_eq!(h.insert(1, "dup"), Err((1, "dup")));
/// assert_eq!(h.remove(&1), Some("one"));
/// assert!(!h.contains(&1));
/// ```
pub struct RestartSkipList<K, V> {
    /// The head's links, one per level; a null link ends its level.
    head: Box<[Link<K, V>; MAX_LEVEL]>,
    collector: Collector,
    len: AtomicUsize,
    /// Seeds each handle's height generator in registration order, so
    /// a run (and a scheduler's schedule) repeats its tower heights.
    tickets: AtomicU64,
}

/// A handle's reclamation registration and tower-height generator.
pub struct ThreadState {
    reclaim: LocalHandle,
    heights: RefCell<SmallRng>,
}

// SAFETY: all shared mutation goes through atomics; tower reclamation is
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

impl<K: Ord, V> Default for RestartSkipList<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> Ops for RestartSkipList<K, V>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    type Key = K;
    type Value = V;
    type Local = ThreadState;

    fn register(&self) -> ThreadState {
        let ticket = self.tickets.fetch_add(1, Ordering::SeqCst);
        ThreadState {
            reclaim: self.collector.register(),
            heights: RefCell::new(SmallRng::seed_from_u64(ticket)),
        }
    }

    fn insert(&self, local: &ThreadState, key: K, value: V) -> Result<(), (K, V)> {
        let guard = &local.reclaim.pin();
        // SAFETY: the guard pins this list's collector, so every tower
        // reached below stays allocated while it lives.
        unsafe {
            let mut cursor = self.find(&key, guard);
            if cursor.found(&key).is_some() {
                return Err((key, value));
            }
            let height = tower_height(local.heights.borrow_mut().next_u64());
            let node = Node::alloc(key, value, height);
            let key = &(*node).key;

            // Level 1: linking here is the insert's linearization point.
            loop {
                let succ = cursor.succs[0];
                Node::link(node, 0).store(TaggedPtr::unmarked(succ), Ordering::SeqCst);
                step(StepKind::CasInsert);
                let res = (*cursor.preds[0]).compare_exchange(
                    TaggedPtr::unmarked(succ),
                    TaggedPtr::unmarked(node),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                );
                lf_metrics::record_cas(CasType::Insert, res.is_ok());
                if res.is_ok() {
                    break;
                }
                cursor = self.find(key, guard);
                if cursor.found(key).is_some() {
                    return Err(Node::into_pair(node));
                }
            }
            self.len.fetch_add(1, Ordering::SeqCst);

            // The upper levels, bottom-up; a deleter's mark stops them.
            let mut linked = 1;
            'build: for level in 1..height {
                let link = Node::link(node, level);
                loop {
                    step(StepKind::Read);
                    let next = link.load(Ordering::SeqCst);
                    if next.is_marked() {
                        break 'build;
                    }
                    let (pred, succ) = (cursor.preds[level], cursor.succs[level]);
                    if !succ.is_null() && (*succ).key == *key {
                        // A deleted tower of this key not yet unlinked
                        // here: the next descent unlinks it. (A live one
                        // cannot be: it would have been linked at level 1
                        // after this tower was marked there, and marking
                        // is top-down.)
                        cursor = self.find(key, guard);
                        continue;
                    }
                    // Point this level at `succ` with a C&S, so that a
                    // deleter's mark is never overwritten.
                    step(StepKind::Write);
                    let new_next = TaggedPtr::unmarked(succ);
                    if link
                        .compare_exchange(next, new_next, Ordering::SeqCst, Ordering::SeqCst)
                        .is_err()
                    {
                        break 'build;
                    }
                    step(StepKind::CasInsert);
                    let res = (*pred.add(level)).compare_exchange(
                        TaggedPtr::unmarked(succ),
                        TaggedPtr::unmarked(node),
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    );
                    lf_metrics::record_cas(CasType::Insert, res.is_ok());
                    if res.is_ok() {
                        linked += 1;
                        break;
                    }
                    cursor = self.find(key, guard);
                }
            }
            // Levels never linked hold no reference.
            (*node).refs.fetch_sub(height - linked, Ordering::SeqCst);
            // A deleter that marked the tower while it was being built
            // may have finished its cleanup before the last level was
            // linked: one more descent unlinks what is left.
            step(StepKind::Read);
            if Node::link(node, height - 1)
                .load(Ordering::SeqCst)
                .is_marked()
            {
                self.find(key, guard);
            }
            Node::decrement(node, guard); // the inserter's reference
            Ok(())
        }
    }

    fn remove_with<T>(&self, local: &ThreadState, k: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        let guard = &local.reclaim.pin();
        // SAFETY: as for `insert`.
        unsafe {
            let node = self.find(k, guard).found(k)?;
            if !mark_tower(node) {
                return None;
            }
            self.len.fetch_sub(1, Ordering::SeqCst);
            let value = f(&(*node).value);
            // One more descent unlinks the tower, one node per level it
            // is linked at.
            self.find(k, guard);
            Some(value)
        }
    }

    fn get_with<T>(&self, local: &ThreadState, k: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        let guard = &local.reclaim.pin();
        // SAFETY: as for `insert`; the tower stays valid while the
        // guard lives.
        unsafe {
            let node = self.find(k, guard).found(k)?;
            Some(f(&(*node).value))
        }
    }

    fn amortize_pins(local: &ThreadState, every: u32) {
        local.reclaim.amortize_pins(every);
    }

    fn quiesce(local: &ThreadState) {
        local.reclaim.quiesce();
    }

    fn flush_reclamation(local: &ThreadState) {
        local.reclaim.flush();
    }
}

impl<K: Ord, V> RestartSkipList<K, V> {
    /// Create an empty skip list.
    pub fn new() -> Self {
        RestartSkipList {
            head: Box::new(std::array::from_fn(|_| Link::new(TaggedPtr::null()))),
            collector: Collector::new(),
            len: AtomicUsize::new(0),
            tickets: AtomicU64::new(0),
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

    /// Whether the skip list is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One full descent from the top level to level 1, unlinking every
    /// marked node met on the way, one at a time. Any failed C&S, or a
    /// predecessor found marked, restarts the descent from the top —
    /// the defining cost of this design.
    ///
    /// # Safety
    ///
    /// `guard` must pin this list's collector; the cursor's pointers
    /// are valid while it lives.
    unsafe fn find(&self, k: &K, guard: &Guard<'_>) -> Cursor<K, V>
    where
        K: Send + 'static,
        V: Send + 'static,
    {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            let mut restarts: u32 = 0;
            'search: loop {
                let mut cursor = Cursor {
                    preds: [self.head.as_ptr(); MAX_LEVEL],
                    succs: [std::ptr::null_mut(); MAX_LEVEL],
                };
                let mut pred = self.head.as_ptr();
                for level in (0..MAX_LEVEL).rev() {
                    step(StepKind::Read);
                    let first = (*pred.add(level)).load(Ordering::SeqCst);
                    if first.is_marked() {
                        // `pred` is being deleted: no longer a predecessor.
                        back_off(&mut restarts);
                        continue 'search;
                    }
                    let mut curr = first.ptr();
                    while !curr.is_null() {
                        step(StepKind::Read);
                        let succ = Node::link(curr, level).load(Ordering::SeqCst);
                        if succ.is_marked() {
                            // `curr` is deleted: unlink it alone.
                            step(StepKind::CasUnlink);
                            let res = (*pred.add(level)).compare_exchange(
                                TaggedPtr::unmarked(curr),
                                TaggedPtr::unmarked(succ.ptr()),
                                Ordering::SeqCst,
                                Ordering::SeqCst,
                            );
                            lf_metrics::record_cas(CasType::Unlink, res.is_ok());
                            if res.is_err() {
                                back_off(&mut restarts);
                                continue 'search;
                            }
                            Node::decrement(curr, guard);
                            curr = succ.ptr();
                            lf_metrics::record_next_update();
                        } else if (*curr).key < *k {
                            step(StepKind::Traverse);
                            pred = Node::links(curr);
                            curr = succ.ptr();
                            lf_metrics::record_curr_update();
                        } else {
                            break;
                        }
                    }
                    cursor.preds[level] = pred;
                    cursor.succs[level] = curr;
                }
                return cursor;
            }
        }
    }

    /// Check structural invariants on a **quiescent** skip list: every
    /// level strictly sorted with no marked link; every tower on an
    /// upper level also on level 1 and tall enough for that level; each
    /// tower's reference count equal to the number of levels it is
    /// linked at; and the level-1 count equal to [`len`](Self::len).
    ///
    /// # Panics
    ///
    /// Panics with a description of the violated invariant.
    pub fn validate_quiescent(&self) {
        let mut levels_of = std::collections::HashMap::new();
        // SAFETY: quiescent-only walk — the caller guarantees no
        // concurrent operations, so every reachable tower stays valid.
        unsafe {
            for level in 0..MAX_LEVEL {
                let mut link = self.head[level].load(Ordering::SeqCst);
                let mut prev: Option<&K> = None;
                while !link.ptr().is_null() {
                    assert!(!link.is_marked(), "quiescent skip list has a marked link");
                    let node = link.ptr();
                    assert!(level < (*node).height, "tower linked above its height");
                    assert!(prev < Some(&(*node).key), "level {} not sorted", level + 1);
                    prev = Some(&(*node).key);
                    let seen = levels_of.entry(node).or_insert(0usize);
                    assert!(level == 0 || *seen > 0, "tower on level {} only", level + 1);
                    *seen += 1;
                    link = Node::link(node, level).load(Ordering::SeqCst);
                }
                if level == 0 {
                    assert_eq!(
                        levels_of.len(),
                        self.len(),
                        "len counter disagrees with level 1"
                    );
                }
            }
            for (&node, &levels) in &levels_of {
                let refs = (*node).refs.load(Ordering::SeqCst);
                assert_eq!(
                    refs, levels,
                    "tower references disagree with its linked levels"
                );
            }
        }
    }
}

/// A geometric(½) height from one word of random bits, capped at
/// `MAX_LEVEL - 1`, as `lf_core::SkipList` draws its towers.
fn tower_height(bits: u64) -> usize {
    (1 + bits.trailing_ones() as usize).min(MAX_LEVEL - 1)
}

/// Count one restart. Every restart is triggered by another thread's
/// C&S landing mid-descent, so a long burst of them means this thread
/// keeps losing to (and invalidating) its peers. On an oversubscribed
/// or single-core machine that can persist across whole scheduling
/// quanta; yielding every 32nd time lets the operation that would
/// unblock the rest finish. Scheduling aid only.
fn back_off(restarts: &mut u32) {
    *restarts += 1;
    if restarts.is_multiple_of(32) {
        std::thread::yield_now();
    }
}

/// Mark every level of `node`, top-down. Returns whether this call
/// marked level 1 — the linearization point of a successful delete.
///
/// # Safety
///
/// `node` is a tower protected by the caller's guard.
unsafe fn mark_tower<K, V>(node: *mut Node<K, V>) -> bool {
    // SAFETY: the fn's `# Safety` contract covers the whole body.
    unsafe {
        for level in (0..(*node).height).rev() {
            let link = Node::link(node, level);
            loop {
                step(StepKind::Read);
                let next = link.load(Ordering::SeqCst);
                if next.is_marked() {
                    if level == 0 {
                        return false; // another deleter won
                    }
                    break;
                }
                step(StepKind::CasMark);
                let res = link.compare_exchange(
                    next,
                    next.with_mark(),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                );
                lf_metrics::record_cas(CasType::Mark, res.is_ok());
                if res.is_ok() {
                    break;
                }
            }
        }
        true
    }
}

impl<K, V> Drop for RestartSkipList<K, V> {
    fn drop(&mut self) {
        // Every tower still linked anywhere is linked at level 1 (a
        // completed delete unlinks all its levels), so freeing level 1
        // frees them all.
        let mut cur = self.head[0].load(Ordering::SeqCst).ptr();
        while !cur.is_null() {
            // SAFETY: &mut self — no concurrent access; each tower on
            // level 1 is live and appears there once.
            unsafe {
                let next = Node::link(cur, 0).load(Ordering::SeqCst).ptr();
                Node::free(cur);
                cur = next;
            }
        }
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
        = Handle<'a, Self>
    where
        Self: 'a;

    fn handle(&self) -> Self::Handle<'_> {
        Handle::new(self)
    }

    fn len(&self) -> usize {
        RestartSkipList::len(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lf_core::MapHandle;

    const KEYS: u32 = if cfg!(miri) { 40 } else { 200 };
    const ROUNDS: u64 = if cfg!(miri) { 40 } else { 250 };

    #[test]
    fn sequential_roundtrip() {
        let sl = RestartSkipList::new();
        let h = sl.handle();
        for k in 0..KEYS {
            assert!(h.insert(k, k * 3).is_ok());
        }
        assert_eq!(h.insert(KEYS / 2, 0), Err((KEYS / 2, 0)));
        assert_eq!(sl.len(), KEYS as usize);
        for k in 0..KEYS {
            assert_eq!(h.get(&k), Some(k * 3));
        }
        for k in (0..KEYS).step_by(2) {
            assert_eq!(h.remove(&k), Some(k * 3));
        }
        for k in 0..KEYS {
            assert_eq!(h.contains(&k), k % 2 == 1);
        }
        sl.validate_quiescent();
    }

    #[test]
    fn remove_missing() {
        let sl: RestartSkipList<u32, u32> = RestartSkipList::new();
        assert_eq!(sl.handle().remove(&7), None);
    }

    /// A duplicate insert hands back its pair without leaking or
    /// double-dropping the never-published tower.
    #[test]
    fn duplicate_insert_returns_owned_pair() {
        let sl = RestartSkipList::new();
        let h = sl.handle();
        assert!(h.insert(1, String::from("one")).is_ok());
        assert_eq!(
            h.insert(1, String::from("dup")),
            Err((1, String::from("dup")))
        );
        assert_eq!(h.remove(&1).as_deref(), Some("one"));
        sl.validate_quiescent();
    }

    #[test]
    fn concurrent_unique_winners() {
        let sl = RestartSkipList::new();
        let wins = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let h = sl.handle();
                    for k in 0..KEYS {
                        if h.insert(k, ()).is_ok() {
                            wins.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        assert_eq!(wins.load(Ordering::SeqCst), KEYS as usize);
        assert_eq!(sl.len(), KEYS as usize);
        sl.validate_quiescent();
    }

    #[test]
    fn concurrent_churn_sound() {
        let sl = RestartSkipList::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let sl = &sl;
                s.spawn(move || {
                    let h = sl.handle();
                    for r in 0..ROUNDS {
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
            assert_eq!(h.contains(&k), h.get(&k).is_some());
        }
        drop(h);
        sl.validate_quiescent();
    }
}
