//! Merged range scan over *sibling* skip lists: the ordered
//! cross-shard read path of `lf-shard`.
//!
//! [`merged_range`] walks the level-1 lists of several skip lists that
//! share one reclamation domain (see [`SkipList::new_sibling`]) and
//! emits their united key space in ascending order — a k-way merge of
//! per-shard traversals under a **single** amortized pin. Each
//! per-shard cursor honors marks and flags exactly as the paper's
//! `SearchRight` does: superfluous towers encountered on the way are
//! physically deleted (all three deletion steps), so a scan helps
//! rather than hinders concurrent deleters.
//!
//! # Lock-step positioning
//!
//! Before the merge, every cursor must stand on its list's last node
//! before the start bound — one `SearchToLevel` descent per list. The
//! descents are independent pointer chases, each hop a cache miss that
//! the next hop's address depends on; run one after another, `k` lists
//! pay `k` times the full miss chain. [`lock_step_anchors`] instead
//! keeps one small resumable [`Descent`] per list and advances them
//! round-robin, one hop each, so the misses of different lists are
//! outstanding together. A hop is exactly one iteration of the paper's
//! `SearchRight` loop (same loads, same comparison, same step
//! counters); the moment one meets a superfluous tower the level is
//! handed to the real [`SkipList::search_right`], so helping is the
//! paper's code, not a copy of it. Each list therefore ends on the
//! node a sequential `search_to_level` would return, having counted
//! the same steps — only the order in which independent lists take
//! their hops differs, which no list can observe. The consistency
//! contract below is untouched.
//!
//! # What the scan does *not* guarantee
//!
//! There is no atomic snapshot across shards (nor within one — see
//! [`SkipListHandle::range`]). The guarantees are per key: a key
//! present in the map for the scan's entire duration is visited
//! exactly once; a key absent for the entire duration is never
//! visited; keys inserted or deleted mid-scan may or may not appear.
//! Output order is strictly ascending when every key routes to exactly
//! one list (the sharding invariant), and non-decreasing otherwise.

use std::borrow::Borrow;
use std::ops::Bound as RangeBound;
use std::ptr;

use lf_reclaim::{Publish, Reclaim};

use super::level::FlagStatus;
use super::node::SkipNode;
use super::{Bound, Mode, SkipList, SkipListHandle};
use crate::list::search_key_before as key_before;

/// One per-list scan cursor of the k-way merge. It first descends to
/// its start position (`level > 0`), then walks level 1 (`level == 0`).
struct Cursor<'a, K, V, R: Reclaim> {
    list: &'a SkipList<K, V, R>,
    /// The level (1-based) the positioning descent stands on; 0 once
    /// the cursor is positioned.
    level: usize,
    /// Descending: the node the descent stands on. Merging: the last
    /// node this cursor consumed (or its start position) — the
    /// monotonicity anchor after helping relocates us leftwards.
    anchor: *mut SkipNode<K, V, R>,
    /// Descending: `anchor`'s successor, which the next hop examines.
    /// Merging: the next in-range unmarked root to merge, null when
    /// exhausted.
    cand: *mut SkipNode<K, V, R>,
}

fn after_start<K: Ord>(key: &K, start: &RangeBound<&K>) -> bool {
    match start {
        RangeBound::Unbounded => true,
        RangeBound::Included(s) => key >= s,
        RangeBound::Excluded(s) => key > s,
    }
}

fn within_end<K: Ord>(key: &K, end: &RangeBound<&K>) -> bool {
    match end {
        RangeBound::Unbounded => true,
        RangeBound::Included(e) => key <= e,
        RangeBound::Excluded(e) => key < e,
    }
}

/// Advance one cursor: starting from `anchor`, find the next unmarked
/// level-1 root with key strictly greater than `anchor`'s that lies
/// within `[start, end]`, helping physical deletion of superfluous
/// towers on the way (the inner loop of `SearchRight`, §4). Returns
/// null when the cursor's list is exhausted for this range.
///
/// # Safety
///
/// `anchor` must be a node of `list` protected by `guard`.
// escape: ESC.node-search: the returned root is protected by the caller's
// `guard`; the `# Safety` contract bounds its life to it
unsafe fn advance<K, V, R>(
    list: &SkipList<K, V, R>,
    anchor: *mut SkipNode<K, V, R>,
    start: &RangeBound<&K>,
    end: &RangeBound<&K>,
    guard: &R::Guard<'_>,
) -> *mut SkipNode<K, V, R>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    // SAFETY: the fn's `# Safety` contract covers the whole body.
    unsafe {
        let mut curr = anchor;
        loop {
            let mut next = (*curr).right();
            if next.is_null() {
                return ptr::null_mut();
            }
            // Delete superfluous towers in our way, exactly as
            // `SearchRight` does (flag, then help with mark + unlink).
            while (*next).is_superfluous() {
                // ord: Release/Acquire/Relaxed — LIST.flag-cas: wrapped flagging C&S; pred is dereferenced
                let (new_curr, status, _) = list.try_flag_node(curr, next, guard);
                curr = new_curr;
                if status == FlagStatus::In {
                    list.help_flagged(curr, next, guard);
                }
                next = (*curr).right();
                lf_metrics::record_next_update();
            }
            match (*next).key_ref() {
                Bound::PosInf => return ptr::null_mut(),
                Bound::NegInf => unreachable!("head is never a successor"),
                Bound::Key(k) => {
                    if !within_end(k, end) {
                        return ptr::null_mut();
                    }
                    // Skip nodes at or before the anchor (helping may
                    // have walked us leftwards — never re-emit), nodes
                    // before the start bound, and roots already marked.
                    if (*next).key_ref() <= (*anchor).key_ref()
                        || !after_start(k, start)
                        || (*next).is_marked()
                    {
                        curr = next;
                        lf_metrics::record_curr_update();
                        continue;
                    }
                    return next;
                }
            }
        }
    }
}

impl<'a, K, V, R> Cursor<'a, K, V, R>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    /// A cursor at the top of `list`, where `search_to_level(_, 1, ..)`
    /// starts its descent.
    fn at_top(list: &'a SkipList<K, V, R>) -> Self {
        let level = list.start_level(1);
        let anchor = list.heads[level - 1];
        Cursor {
            list,
            level,
            anchor,
            // SAFETY: sentinels live for the whole list lifetime.
            cand: unsafe { (*anchor).right() },
        }
    }

    /// One hop of the positioning descent towards `k`: one iteration
    /// of `SearchRight`'s loop, or — once `cand` is no longer before
    /// `k` — the step down a level. A superfluous tower in the way
    /// hands the rest of the level to [`SkipList::search_right`].
    /// Returns `true` when `anchor` is the level-1 node
    /// `search_to_level(k, 1, mode)` returns as `n1`.
    ///
    /// # Safety
    ///
    /// `guard` pins the list's domain and has since
    /// [`at_top`](Self::at_top); `hop` has not yet returned `true`.
    unsafe fn hop(&mut self, k: &K, mode: Mode, guard: &R::Guard<'_>) -> bool {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            if key_before((*self.cand).key_ref(), k, mode) {
                if !(*self.cand).is_superfluous() {
                    self.anchor = self.cand;
                    lf_metrics::record_curr_update();
                    self.cand = (*self.anchor).right();
                    return false;
                }
                // ord: Release/Acquire/Relaxed — LIST.flag-cas: the rest of the level helps deletions (wrapped C&S)
                let (n1, n2) = self.list.search_right(k, self.anchor, mode, guard);
                // escape: ESC.scan-cursor: a cursor lives strictly inside
                // `merged_range`'s `guard` scope, so stored nodes stay protected
                self.anchor = n1;
                // escape: ESC.scan-cursor: as above — cursor outlived by the guard
                self.cand = n2;
            }
            if self.level == 1 {
                return true;
            }
            // ord: Relaxed — TOWER.layout: tenant-invariant tower geometry
            self.anchor = (*self.anchor).down();
            debug_assert!(!self.anchor.is_null(), "descending below level 1");
            self.level -= 1;
            self.cand = (*self.anchor).right();
            false
        }
    }
}

/// One cursor per list, each standing on its list's last level-1 node
/// before `start` — per list what `search_to_level(k, 1, mode).0`
/// returns, but found by descending all lists in lock step (see the
/// module docs). Candidates are not yet filled.
///
/// # Safety
///
/// `guard` must pin the reclamation domain every list shares; the
/// cursors' nodes are valid while it lives.
unsafe fn lock_step_cursors<'a, K, V, R>(
    lists: impl Iterator<Item = &'a SkipList<K, V, R>>,
    start: &RangeBound<&K>,
    guard: &R::Guard<'_>,
) -> Vec<Cursor<'a, K, V, R>>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    let (k, mode) = match *start {
        RangeBound::Unbounded => {
            return lists
                .map(|list| Cursor {
                    list,
                    level: 0,
                    anchor: list.heads[0],
                    cand: ptr::null_mut(),
                })
                .collect()
        }
        RangeBound::Included(k) => (k, Mode::Lt),
        RangeBound::Excluded(k) => (k, Mode::Le),
    };
    let mut cursors: Vec<_> = lists.map(Cursor::at_top).collect();
    let mut descending = cursors.len();
    while descending > 0 {
        for c in cursors.iter_mut().filter(|c| c.level != 0) {
            // SAFETY: `c` is an unfinished descent under `guard`.
            if unsafe { c.hop(k, mode, guard) } {
                c.level = 0;
                descending -= 1;
            }
        }
    }
    cursors
}

/// Ordered scan over the union of several **sibling** skip lists.
///
/// Calls `visitor(key, value)` for each visited pair in ascending key
/// order across all lists; the visitor returns `true` to continue or
/// `false` to stop early. Returns the number of pairs visited.
///
/// The whole scan runs under one pin taken from `handles[0]`,
/// which is sound **only** because sibling lists share a reclamation
/// domain — the function asserts this via
/// [`SkipList::shares_domain_with`] and panics otherwise.
///
/// See the [module docs](self) for the consistency contract.
///
/// # Examples
///
/// ```
/// use lf_core::skiplist::{merged_range, SkipList};
/// use std::ops::Bound;
///
/// let a: SkipList<u64, u64> = SkipList::new();
/// let b = a.new_sibling();
/// let (ha, hb) = (a.handle(), b.handle());
/// // Shard by parity: evens in `a`, odds in `b`.
/// for k in 0..10u64 {
///     if k % 2 == 0 { ha.insert(k, k) } else { hb.insert(k, k) };
/// }
/// let mut seen = Vec::new();
/// let n = merged_range(
///     &[&ha, &hb],
///     Bound::Included(&2),
///     Bound::Excluded(&7),
///     |k, _v| {
///         seen.push(*k);
///         true
///     },
/// );
/// assert_eq!(n, 5);
/// assert_eq!(seen, vec![2, 3, 4, 5, 6]);
/// ```
pub fn merged_range<'l, K, V, R, H, F>(
    handles: &[H],
    start: RangeBound<&K>,
    end: RangeBound<&K>,
    mut visitor: F,
) -> usize
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
    H: Borrow<SkipListHandle<'l, K, V, R>>,
    F: FnMut(&K, &V) -> bool,
{
    let Some(first) = handles.first().map(Borrow::borrow) else {
        return 0;
    };
    for h in &handles[1..] {
        assert!(
            first.list.shares_domain_with(h.borrow().list),
            "merged_range requires sibling lists sharing one reclamation domain"
        );
    }
    let op = lf_metrics::op_begin_for(lf_metrics::Structure::SkipList);
    // One pin covers every sibling: their nodes are retired into the
    // shared domain, so this guard protects all traversals below.
    let guard = R::pin(&first.reclaim);

    // Position each cursor at the last node *before* the range (the
    // `RangeIter` convention), then pre-fill its first candidate.
    // SAFETY: the guard pins the shared domain; positioning nodes stay
    // valid while it lives.
    let mut cursors =
        unsafe { lock_step_cursors(handles.iter().map(|h| h.borrow().list), &start, &guard) };
    for c in &mut cursors {
        // SAFETY: `c.anchor` is a node of `c.list` under the guard.
        // ord: Release/Acquire/Relaxed — LIST.flag-cas: cursor advance helps deletions (wrapped C&S)
        let cand = unsafe { advance(c.list, c.anchor, &start, &end, &guard) };
        // escape: ESC.scan-cursor: the cursor set lives strictly inside
        // this fn's `guard` scope, so stored candidates stay protected
        c.cand = cand;
    }

    let mut visited = 0usize;
    loop {
        // Linear min over the (small, = shard count) cursor set.
        let mut min_i: Option<usize> = None;
        for (i, c) in cursors.iter().enumerate() {
            if c.cand.is_null() {
                continue;
            }
            let better = match min_i {
                None => true,
                // SAFETY: candidates are live roots under the guard.
                Some(m) => unsafe { (*c.cand).key_ref() < (*cursors[m].cand).key_ref() },
            };
            if better {
                min_i = Some(i);
            }
        }
        let Some(m) = min_i else { break };
        let node = cursors[m].cand;
        let mut stop = false;
        // SAFETY: `node` is protected by the guard; the borrows of its
        // key and element handed to the visitor end before the cursor
        // advances, well inside the guard's lifetime.
        unsafe {
            // Re-check the mark at emission time, as `RangeIter` does:
            // a root marked since the cursor found it is already
            // logically deleted and must not be reported.
            if !(*node).is_marked() {
                let k = (*node).key_ref().as_key().expect("candidate has user key");
                let v = (*node).element.as_ref().expect("root node has element");
                visited += 1;
                stop = !visitor(k, v);
            }
            // escape: ESC.scan-cursor: as above — cursor outlived by the guard
            cursors[m].anchor = node;
            // ord: Release/Acquire/Relaxed — LIST.flag-cas: cursor advance helps deletions (wrapped C&S)
            let next = advance(cursors[m].list, node, &start, &end, &guard);
            // escape: ESC.scan-cursor: as above — cursor outlived by the guard
            cursors[m].cand = next;
        }
        if stop {
            break;
        }
    }
    drop(guard);
    lf_metrics::op_end(op);
    visited
}

#[cfg(test)]
mod tests {
    use super::*;
    use lf_reclaim::Ebr;

    /// Quiescent lists: the lock-step descent must stop on the very
    /// node the sequential `search_to_level` returns, for every list,
    /// start bound and probe key (present, absent, beyond both ends),
    /// including lists that are empty.
    #[test]
    fn lock_step_positions_equal_sequential_descent() {
        for shards in [1usize, 2, 8] {
            let first: SkipList<u64, u64> = SkipList::new();
            let mut lists = vec![];
            for _ in 1..shards {
                lists.push(first.new_sibling());
            }
            lists.insert(0, first);
            let handles: Vec<_> = lists.iter().map(SkipList::handle).collect();
            // Keys 10..=4000 step 10 (so 5, 15, 4005 are absent), spread
            // by a multiplicative hash; the last list of 8 stays empty.
            let live = if shards == 8 { 7 } else { shards };
            for k in (10..=4000u64).step_by(10) {
                let i = (k.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize % live;
                handles[i].insert(k, k).unwrap();
            }
            for probe in [0u64, 5, 10, 15, 2000, 2005, 4000, 4005, u64::MAX] {
                for start in [
                    RangeBound::Unbounded,
                    RangeBound::Included(&probe),
                    RangeBound::Excluded(&probe),
                ] {
                    let guard = Ebr::pin(&handles[0].reclaim);
                    // SAFETY: siblings share the pinned domain.
                    let got: Vec<_> = unsafe { lock_step_cursors(lists.iter(), &start, &guard) }
                        .iter()
                        .map(|c| (c.level, c.anchor))
                        .collect();
                    let want: Vec<_> = lists
                        .iter()
                        // SAFETY: as above.
                        .map(|l| unsafe {
                            match start {
                                RangeBound::Unbounded => l.heads[0],
                                RangeBound::Included(k) => {
                                    l.search_to_level(k, 1, Mode::Lt, &guard).0
                                }
                                RangeBound::Excluded(k) => {
                                    l.search_to_level(k, 1, Mode::Le, &guard).0
                                }
                            }
                        })
                        .map(|n| (0, n))
                        .collect();
                    assert_eq!(got, want, "shards={shards} probe={probe} start={start:?}");
                }
            }
        }
    }
}
