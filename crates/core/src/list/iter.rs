//! Weakly-consistent iteration: one walker, [`ChainIter`], over a chain
//! of sibling lists; the single-list [`Iter`] is its one-list case.

use std::fmt;

use lf_reclaim::{Ebr, Publish, Reclaim};

use super::{Bound, FrList, ListHandle, Node};

/// Iterator over a weakly-consistent snapshot of an
/// [`FrList`](super::FrList), produced by [`ListHandle::iter`]: a
/// [`ChainIter`] over the handle's own list alone.
///
/// Pins the thread for its whole lifetime; drop it promptly in
/// long-running threads so reclamation can advance.
pub type Iter<'h, 'l, K, V, R = Ebr> = ChainIter<'h, 'l, K, V, R>;

/// Iterator over a *chain* of sibling lists (the buckets of a
/// composite structure such as `lf-map`), produced by
/// [`ListHandle::iter_chain`]. Yields each list's pairs in key order,
/// lists in the order given; across lists the result is unordered.
///
/// Holds **one** pin for its whole lifetime — a single iterator-scoped
/// guard amortized over every bucket, rather than one pin per bucket.
/// The snapshot is weakly consistent per bucket and makes no
/// cross-bucket atomicity claim: an element moving between buckets
/// (delete + reinsert) may be seen twice or not at all. Drop it
/// promptly; the pin delays reclamation for the whole shared domain.
pub struct ChainIter<'h, 'l, K, V, R: Reclaim = Ebr> {
    _handle: &'h ListHandle<'l, K, V, R>,
    _guard: R::Guard<'h>,
    /// The lists still to walk after the current one.
    rest: std::vec::IntoIter<&'l FrList<K, V, R>>,
    /// Null once every list is exhausted.
    curr: *mut Node<K, V, R>,
}

impl<K, V, R: Reclaim> fmt::Debug for ChainIter<'_, '_, K, V, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("list::ChainIter")
    }
}

impl<'h, 'l, K, V, R> ChainIter<'h, 'l, K, V, R>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    pub(crate) fn new(
        handle: &'h ListHandle<'l, K, V, R>,
        lists: Vec<&'l FrList<K, V, R>>,
    ) -> Self {
        for list in &lists {
            assert!(
                handle.list.shares_domain_with(list),
                "chain iteration over a list from a foreign reclamation domain"
            );
        }
        let mut rest = lists.into_iter();
        let curr = rest.next().map_or(std::ptr::null_mut(), |l| l.head);
        ChainIter {
            _guard: R::pin(&handle.reclaim),
            _handle: handle,
            rest,
            curr,
        }
    }

    /// The walk of the handle's own list alone. An empty `Vec` does not
    /// allocate, so this costs what a dedicated single-list walker would.
    pub(crate) fn single(handle: &'h ListHandle<'l, K, V, R>) -> Self {
        ChainIter {
            _guard: R::pin(&handle.reclaim),
            _handle: handle,
            rest: Vec::new().into_iter(),
            curr: handle.list.head,
        }
    }
}

impl<K, V, R> Iterator for ChainIter<'_, '_, K, V, R>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    type Item = (K, V);

    fn next(&mut self) -> Option<(K, V)> {
        // SAFETY: `curr` is a head sentinel or a node reached through
        // successor pointers while pinned; the single guard covers the
        // shared domain, so it protects every sibling's nodes alike.
        // Marked nodes' successor fields are frozen, so traversing
        // through a logically deleted region is well-defined.
        unsafe {
            loop {
                if self.curr.is_null() {
                    return None;
                }
                let next = (*self.curr).right();
                let at_end = next.is_null() || matches!((*next).key, Bound::PosInf);
                if at_end {
                    // This list is exhausted; hop to the next sibling's
                    // head under the same guard.
                    self.curr = self.rest.next().map_or(std::ptr::null_mut(), |l| l.head);
                    continue;
                }
                self.curr = next;
                match &(*self.curr).key {
                    Bound::PosInf => unreachable!("handled as at_end above"),
                    Bound::NegInf => unreachable!("head is never a successor"),
                    Bound::Key(k) => {
                        if !(*self.curr).is_marked() {
                            let v = (*self.curr).element.clone().expect("user node has element");
                            return Some((k.clone(), v));
                        }
                    }
                }
            }
        }
    }
}
