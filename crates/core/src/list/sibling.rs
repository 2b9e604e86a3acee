//! Sibling-list operations: run ops against *another* [`FrList`] under
//! **this** handle's registration.
//!
//! A composite structure built from many lists — `lf-map`'s bucket
//! array is the motivating case — wants one reclamation registration
//! (and one amortized pin cadence) per thread, not one per bucket.
//! [`FrList::new_sibling`] creates lists sharing a domain and a node
//! pool; the `*_in` methods here run a sibling's operation under the
//! handle's own guard, which is sound precisely because the domains
//! are shared (checked at runtime by [`ListHandle::check_sibling`]).
//!
//! There is no sibling copy of any list algorithm. Each `*_in` method
//! is the sibling check plus one pin around the list's own routine
//! (`insert_impl`, `delete_impl`, `search_impl`), and it is the one
//! pinned body of its operation: the handle's plain op is the same
//! method on its own list inside an op bracket.
//! [`try_read_in`](ListHandle::try_read_in) (in `read.rs`) shares
//! `try_read`'s retry loop over the one pin-free walk. Pool sharing — a
//! block retired from bucket `i` re-tenanted into bucket `j` — needs no
//! code of its own: the walk's birth-stamp validation rejects it
//! exactly like in-list recycling (the argument is in its doc), and the
//! pinned paths only ever see it after a grace period.
//!
//! These entry points record **no** op boundary themselves
//! (`lf_metrics::op_begin`/`op_end`); the composite structure brackets
//! each of its operations once, with its own
//! [`Structure`](lf_metrics::Structure) attribution.

use std::sync::Arc;

use lf_reclaim::{Publish, Reclaim};

use super::{FrList, ListHandle};

impl<'l, K, V, R> ListHandle<'l, K, V, R>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    /// Assert that `list` really is a sibling: same reclamation domain
    /// (so this handle's guards protect its nodes) and same node pool
    /// (so blocks this handle acquires or retires stay in one store).
    ///
    /// # Panics
    ///
    /// Panics if `list` was not created via [`FrList::new_sibling`]
    /// from the same family as this handle's list.
    pub(super) fn check_sibling(&self, list: &FrList<K, V, R>) {
        assert!(
            self.list.shares_domain_with(list),
            "sibling op on a list from a foreign reclamation domain"
        );
        assert!(
            Arc::ptr_eq(&self.list.pool, &list.pool),
            "sibling op on a list with a foreign node pool"
        );
    }

    /// [`insert`](crate::MapHandle::insert) against the sibling `list`, under this
    /// handle's registration. Records no op boundary — composite
    /// callers bracket their own.
    ///
    /// # Errors
    ///
    /// Returns the rejected pair if `key` is already present.
    ///
    /// # Panics
    ///
    /// Panics if `list` is not a sibling of this handle's list.
    pub fn insert_in(&self, list: &FrList<K, V, R>, key: K, value: V) -> Result<(), (K, V)> {
        self.check_sibling(list);
        let guard = R::pin(&self.reclaim);
        // SAFETY: `guard` pins the shared domain (checked above) and
        // `pool` fronts the shared pool, so `insert_impl`'s contract
        // holds for the sibling exactly as for the handle's own list.
        let res = unsafe { list.insert_impl(key, value, &self.pool, &guard) };
        drop(guard);
        res
    }

    /// [`remove_with`](crate::MapHandle::remove_with) against the sibling `list`.
    ///
    /// # Panics
    ///
    /// Panics if `list` is not a sibling of this handle's list.
    pub fn remove_with_in<T>(
        &self,
        list: &FrList<K, V, R>,
        key: &K,
        f: impl FnOnce(&V) -> T,
    ) -> Option<T> {
        self.check_sibling(list);
        let guard = R::pin(&self.reclaim);
        // SAFETY: `guard` pins the shared domain (checked above); the
        // borrow handed to `f` lives inside it.
        let res = unsafe { list.delete_impl(key, &guard, f) };
        drop(guard);
        res
    }

    /// [`get_with`](crate::MapHandle::get_with) against the sibling `list`: apply
    /// `f` to a borrow of the value without cloning. The borrow lives
    /// exactly as long as the call; keep `f` short — the pin delays
    /// reclamation domain-wide (that is, across *every* sibling).
    ///
    /// # Panics
    ///
    /// Panics if `list` is not a sibling of this handle's list.
    pub fn get_with_in<T>(
        &self,
        list: &FrList<K, V, R>,
        key: &K,
        f: impl FnOnce(&V) -> T,
    ) -> Option<T> {
        self.check_sibling(list);
        let guard = R::pin(&self.reclaim);
        // SAFETY: `guard` pins the shared domain (checked above); the
        // node (and the borrow handed to `f`) stays live while `guard`
        // is held, which spans the visitor call.
        let res = unsafe {
            // ord: Release/Acquire/Relaxed — LIST.flag-cas: search helps flagged deletions (wrapped C&S)
            list.search_impl(key, &guard)
                .map(|n| f((*n).element.as_ref().expect("user node has element")))
        };
        drop(guard);
        res
    }
}

#[cfg(test)]
mod tests {
    use lf_reclaim::Ebr;

    use super::super::FrList;
    use crate::MapHandle;

    #[test]
    fn sibling_ops_roundtrip_under_one_handle() {
        let a: FrList<u64, u64, Ebr> = FrList::new();
        let b = a.new_sibling();
        let h = a.handle();
        assert!(h.insert_in(&b, 7, 70).is_ok());
        assert!(h.insert_in(&b, 7, 71).is_err(), "duplicate rejected");
        assert_eq!(h.get_with_in(&b, &7, |v| v + 1), Some(71));
        assert_eq!(h.try_read_in(&b, &7), Some(70));
        assert_eq!(h.remove_with_in(&b, &7, |v| *v), Some(70));
        assert_eq!(h.get_with_in(&b, &7, |v| *v), None);
        assert_eq!(b.len(), 0);
        assert_eq!(a.len(), 0, "sibling ops never touch the handle's list");
    }

    #[test]
    fn siblings_share_domain_and_pool() {
        let a: FrList<u32, u32, Ebr> = FrList::new();
        let b = a.new_sibling();
        let c = b.new_sibling();
        assert!(a.shares_domain_with(&b));
        assert!(a.shares_domain_with(&c));
        let other: FrList<u32, u32, Ebr> = FrList::new();
        assert!(!a.shares_domain_with(&other));
    }

    #[test]
    #[should_panic(expected = "foreign reclamation domain")]
    fn foreign_list_is_rejected() {
        let a: FrList<u32, u32, Ebr> = FrList::new();
        let other: FrList<u32, u32, Ebr> = FrList::new();
        let h = a.handle();
        let _ = h.get_with_in(&other, &1, |_| ());
    }

    #[test]
    fn deleted_sibling_blocks_recycle_into_shared_pool() {
        let a: FrList<u64, u64, Ebr> = FrList::new();
        let b = a.new_sibling();
        let h = a.handle();
        for k in 0..32 {
            h.insert_in(&b, k, k).unwrap();
        }
        for k in 0..32 {
            assert_eq!(h.remove_with_in(&b, &k, |v| *v), Some(k));
        }
        // Drain reclamation so the retires recycle.
        for _ in 0..64 {
            h.flush_reclamation();
        }
        // New inserts into the *other* sibling may reuse those blocks —
        // either way both lists stay consistent.
        for k in 0..32 {
            h.insert(k, k).unwrap();
        }
        a.validate_quiescent();
        b.validate_quiescent();
    }

    /// A pin-free reader that stood on a block (or was about to hop to
    /// it) before the block was retired from one sibling and
    /// re-initialized into another must see a race when it resumes with
    /// the old stamp — never the new tenant's list or value.
    #[test]
    fn vbr_walk_rejects_a_block_retenanted_into_a_sibling() {
        use std::ptr;
        use std::sync::atomic::Ordering;

        use lf_tagged::TaggedPtr;
        use lf_vbr::Vbr;

        use crate::list::{LevelKeys, LevelNode};
        use crate::skiplist::{ReadRace, ReadWalk};
        use crate::tower::{cell_at, Bound, Tower};

        let a: FrList<u64, u64, Vbr> = FrList::with_backend();
        let b = a.new_sibling();
        let h = a.handle();
        h.insert(1, 10).unwrap();
        h.insert(2, 20).unwrap();
        // What a reader of `a` loaded from the head: key 1's cell and
        // the stamp of its tenant.
        let hop = unsafe { (*a.head).succ.load(Ordering::Acquire) };
        let (x, old) = (hop.ptr(), hop.stamp());
        assert_eq!(h.remove(&1), Some(10));
        for _ in 0..64 {
            h.flush_reclamation();
        }
        // The only recycled block is the next one handed out.
        h.insert_in(&b, 1, 111).unwrap();
        h.insert_in(&b, 2, 222).unwrap();
        unsafe {
            assert_eq!((*b.head).right(), x, "key 1's block moved to `b`");
            assert_ne!(b.stamp_of(x), old, "the new tenant has a newer birth");
        }
        // Resumed on the block: its successor is now `b`'s key 2.
        // SAFETY: `x` is a level-1 cell once reached from `a`'s head.
        let from_cell = unsafe { ReadWalk::new(x, Some(old), a.tail, 1) }.run(&2);
        assert_eq!(from_cell, Err(ReadRace), "must not read b's key 2");
        // Resumed at the hop to the block from a trusted position.
        unsafe {
            let pred = Tower::<u64, u64, Vbr>::sentinel_block(Bound::NegInf, 1, ptr::null_mut());
            let pred_cell = cell_at(pred, 1);
            (*pred_cell)
                .succ
                .store(TaggedPtr::unmarked(x).with_stamp(old), Ordering::Relaxed);
            // SAFETY: as above; `pred` stands in for `a`'s head.
            let at_hop = ReadWalk::new(pred_cell, None, a.tail, 1).run(&1);
            assert_eq!(at_hop, Err(ReadRace), "must not read b's key 1");
            Tower::free_sentinel(pred, 1);
        }
        assert_eq!(h.try_read_in(&a, &1), None);
        assert_eq!(h.try_read_in(&a, &2), Some(20));
        assert_eq!(h.try_read_in(&b, &1), Some(111));
        assert_eq!(h.try_read_in(&b, &2), Some(222));
    }
}
