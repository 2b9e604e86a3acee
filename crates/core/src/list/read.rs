//! Pin-free optimistic point reads: `try_read` and its sibling form
//! `try_read_in` (`lf-map`'s bucket read).
//!
//! Under a backend with [`Reclaim::PIN_FREE_READS`] (VBR), a lookup
//! can traverse the list **without announcing anything** to the
//! reclamation domain: no epoch pin, no hazard slot — a stalled reader
//! holds back nothing. Safety comes from validation instead of
//! protection (DESIGN.md §9.7): birth-stamped pointers, type-stable
//! pooled blocks, and snoops bracketed by birth re-checks.
//!
//! A list node is a height-1 tower, so the list has no walk of its own:
//! [`read_retrying`](FrList::read_retrying) runs the skip list's
//! validated descent (`skiplist::ReadWalk`) on the list's one level,
//! from its own head to its own tail. That walk's doc carries the
//! argument that pool sharing across siblings needs nothing more.
//! Payloads are copied out of the shadow slots, so only `K: Pod`,
//! `V: Pod` payloads are eligible. On the pinned backend (`Ebr`) both
//! entry points delegate to the pinned reads.

use lf_reclaim::{Pod, Publish, Reclaim};

use super::{FrList, ListHandle};
use crate::skiplist::{ReadRace, ReadWalk, READ_ATTEMPTS};
use crate::MapHandle;

impl<'l, K, V, R> ListHandle<'l, K, V, R>
where
    K: Pod + Ord,
    V: Pod,
    R: Reclaim + Publish<K> + Publish<V>,
{
    /// Look up `key` without pinning the reclamation domain, when the
    /// backend supports it.
    ///
    /// On a pin-free backend (VBR) this runs the optimistic
    /// validate-and-restart traversal; after `READ_ATTEMPTS` (3) raced
    /// attempts (or always, on pinned backends) it falls back to the
    /// pinned [`get`](MapHandle::get). Same semantics as `get`: returns a
    /// copy of the value if `key` is present.
    pub fn try_read(&self, key: &K) -> Option<V> {
        if !R::PIN_FREE_READS {
            return self.get(key);
        }
        let op = lf_metrics::op_begin();
        let read = self.list.read_retrying(key);
        lf_metrics::op_end(op);
        read.unwrap_or_else(|| self.get(key))
    }

    /// [`try_read`](Self::try_read) against the sibling `list`: a
    /// pin-free point lookup on `PIN_FREE_READS` backends, falling back
    /// to the pinned [`get_with_in`](Self::get_with_in) after raced
    /// attempts (or always, on pinned backends).
    ///
    /// # Panics
    ///
    /// Panics if `list` is not a sibling of this handle's list.
    pub fn try_read_in(&self, list: &FrList<K, V, R>, key: &K) -> Option<V> {
        self.check_sibling(list);
        if !R::PIN_FREE_READS {
            return self.get_with_in(list, key, V::clone);
        }
        list.read_retrying(key)
            .unwrap_or_else(|| self.get_with_in(list, key, V::clone))
    }
}

impl<K, V, R> FrList<K, V, R>
where
    K: Pod + Ord,
    V: Pod,
    R: Reclaim + Publish<K> + Publish<V>,
{
    /// The retry loop of [`ListHandle::try_read`] and
    /// [`ListHandle::try_read_in`]: up to [`READ_ATTEMPTS`] optimistic
    /// walks of level 1 from the head sentinel, or `None` when every one
    /// raced and the caller should take its pinned slow path.
    pub(super) fn read_retrying(&self, k: &K) -> Option<Option<V>> {
        // SAFETY: this list's level-1 sentinels; the list outlives the
        // walk and its user blocks all come from its pool.
        let walk = unsafe { ReadWalk::new(self.head, None, self.tail, 1) };
        for _ in 0..READ_ATTEMPTS {
            match walk.run(k) {
                Ok(res) => return Some(res),
                Err(ReadRace) => lf_metrics::record_try_read_restart(),
            }
        }
        // Persistent interference: give up on the pin-free path.
        lf_metrics::record_try_read_fallback();
        None
    }
}
