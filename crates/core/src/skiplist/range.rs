//! Weakly-consistent iteration over the bottom level: one walker,
//! [`RangeIter`], positioned at a range start by an `O(log n)` descent;
//! the whole-list [`SkipIter`] is its `..` case.

use std::fmt;
use std::ops::Bound as RangeBound;

use lf_reclaim::{Ebr, Publish, Reclaim};

use super::node::SkipNode;
use super::{Bound, Mode, SkipListHandle};

/// Iterator over a weakly-consistent snapshot of a
/// [`SkipList`](super::SkipList), produced by [`SkipListHandle::iter`]:
/// a [`RangeIter`] over `..`, which starts at the level-1 head with an
/// open end. Pins the thread for its whole lifetime.
pub type SkipIter<'h, 'l, K, V, R = Ebr> = RangeIter<'h, 'l, K, V, R>;

/// Iterator over a key range of a [`SkipList`](super::SkipList),
/// produced by [`SkipListHandle::range`].
///
/// Positions at the range start with a skip list descent (expected
/// `O(log n)`; none for an unbounded start), then walks level 1 cloning
/// each pair whose root is unmarked when visited, until the end bound.
/// Pins the thread for its whole lifetime.
pub struct RangeIter<'h, 'l, K, V, R: Reclaim = Ebr> {
    _handle: &'h SkipListHandle<'l, K, V, R>,
    _guard: R::Guard<'h>,
    curr: *mut SkipNode<K, V, R>,
    end: RangeBound<K>,
}

impl<K, V, R: Reclaim> fmt::Debug for RangeIter<'_, '_, K, V, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("skiplist::RangeIter")
    }
}

impl<'h, 'l, K, V, R> RangeIter<'h, 'l, K, V, R>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    pub(crate) fn new(
        handle: &'h SkipListHandle<'l, K, V, R>,
        start: RangeBound<K>,
        end: RangeBound<K>,
    ) -> Self {
        let guard = R::pin(&handle.reclaim);
        // Position `curr` at the last node *before* the range, so the
        // iterator's first advance lands on the first in-range root.
        // SAFETY: the guard pins the list's domain for the whole
        // iterator lifetime (it is stored alongside `curr`).
        let curr = unsafe {
            match &start {
                RangeBound::Unbounded => handle.list.heads[0],
                RangeBound::Included(k) => {
                    // ord: Release/Acquire/Relaxed — LIST.flag-cas: positioning search helps deletions (wrapped C&S)
                    let (n1, _) = handle.list.search_to_level(k, 1, Mode::Lt, &guard);
                    n1
                }
                RangeBound::Excluded(k) => {
                    // ord: Release/Acquire/Relaxed — LIST.flag-cas: positioning search helps deletions (wrapped C&S)
                    let (n1, _) = handle.list.search_to_level(k, 1, Mode::Le, &guard);
                    n1
                }
            }
        };
        RangeIter {
            _handle: handle,
            _guard: guard,
            curr,
            end,
        }
    }

    fn within_end(&self, key: &K) -> bool {
        match &self.end {
            RangeBound::Unbounded => true,
            RangeBound::Included(e) => key <= e,
            RangeBound::Excluded(e) => key < e,
        }
    }
}

impl<K, V, R> Iterator for RangeIter<'_, '_, K, V, R>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    type Item = (K, V);

    fn next(&mut self) -> Option<(K, V)> {
        // SAFETY: traversal under the pin; marked nodes' successor
        // fields are frozen.
        unsafe {
            loop {
                let next = (*self.curr).right();
                if next.is_null() {
                    return None;
                }
                self.curr = next;
                match (*self.curr).key_ref() {
                    Bound::PosInf => return None,
                    Bound::NegInf => unreachable!("head is never a successor"),
                    Bound::Key(k) => {
                        if !self.within_end(k) {
                            return None;
                        }
                        if !(*self.curr).is_marked() {
                            let v = (*self.curr).element.clone().expect("root node has element");
                            return Some((k.clone(), v));
                        }
                    }
                }
            }
        }
    }
}
