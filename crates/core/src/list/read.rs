//! Pin-free optimistic point reads (`try_read`).
//!
//! Under a backend with [`Reclaim::PIN_FREE_READS`] (VBR), a lookup
//! can traverse the list **without announcing anything** to the
//! reclamation domain: no epoch pin, no hazard slot — a stalled reader
//! holds back nothing. Safety comes from validation instead of
//! protection (DESIGN.md §9.7):
//!
//! * every published pointer carries the low 16 bits of its target's
//!   birth epoch (`lf_tagged` stamp bits);
//! * node memory is type-stable (pooled), so dereferencing a stale
//!   pointer reads *some* tenant's fields, never unmapped memory;
//! * before using anything read through a hop, the reader re-checks
//!   the node's birth word against the pointer's stamp — a recycled or
//!   mid-rebuild node fails validation and the attempt restarts.
//!
//! Payloads are copied out with per-word atomic snoops from the node's
//! shadow slots, bracketed by the seqlock checks, so only `K: Pod`,
//! `V: Pod` payloads are eligible. On pinned backends (`Ebr`, `Hp`)
//! `try_read` simply delegates to the pinned [`ListHandle::get`].
//!
//! `try_read` and the sibling form `try_read_in` (`lf-map`'s bucket
//! read) share one retry loop over one traversal, `read_impl`, whose
//! doc carries the argument that pool sharing across siblings needs
//! nothing more.

use std::sync::atomic::{fence, Ordering};

use lf_reclaim::{Pod, Publish, Reclaim, BIRTH_BUILDING};

use super::{FrList, ListHandle};

/// Optimistic traversal attempts before falling back to a pinned get.
const READ_ATTEMPTS: usize = 3;

/// An optimistic attempt observed a recycled/rebuilding node and must
/// restart.
struct ReadRace;

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
    /// validate-and-restart traversal; after [`READ_ATTEMPTS`] raced
    /// attempts (or always, on pinned backends) it falls back to the
    /// pinned [`get`](Self::get). Same semantics as `get`: returns a
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
}

impl<K, V, R> FrList<K, V, R>
where
    K: Pod + Ord,
    V: Pod,
    R: Reclaim + Publish<K> + Publish<V>,
{
    /// The retry loop of [`ListHandle::try_read`] and
    /// [`ListHandle::try_read_in`]: up to [`READ_ATTEMPTS`] optimistic
    /// traversals, or `None` when every one raced and the caller should
    /// take its pinned slow path.
    pub(super) fn read_retrying(&self, k: &K) -> Option<Option<V>> {
        for _ in 0..READ_ATTEMPTS {
            match self.read_impl(k) {
                Ok(res) => return Some(res),
                Err(ReadRace) => lf_metrics::record_try_read_restart(),
            }
        }
        // Persistent interference: give up on the pin-free path.
        lf_metrics::record_try_read_fallback();
        None
    }

    /// One optimistic traversal. Walks successor pointers from the head
    /// sentinel, validating every hop against its birth stamp, and
    /// snoops the key (and value) of each candidate through the shadow
    /// slots.
    ///
    /// Never dereferences anything but type-stable pool blocks and the
    /// two sentinels, so it needs no guard; `Err(ReadRace)` means a hop
    /// failed validation (the node was recycled or is being rebuilt)
    /// and the caller should retry or fall back.
    ///
    /// The one pin-free read for every list, including pool-sharing
    /// siblings ([`FrList::new_sibling`], `lf-map`'s buckets), where a
    /// stale pointer into this list may resurface as a tenant of
    /// **another** sibling's chain. The birth-stamp bracket rejects that
    /// exactly like in-list recycling — the re-tenant's birth is strictly
    /// newer than the retire its recycle rode on — so a read never
    /// continues onto a foreign list. A *validated* hop's successor was
    /// loaded from a current tenant of this list, so it targets this
    /// list's nodes or its own tail sentinel; sentinels are never pooled,
    /// hence never re-tenanted.
    fn read_impl(&self, k: &K) -> Result<Option<V>, ReadRace> {
        // The head sentinel is trusted: never recycled, birth 0.
        let mut curr = self.head;
        let mut curr_stamp: u16 = 0;
        let mut curr_trusted = true;
        loop {
            // SAFETY: `curr` is the head sentinel or a pool block
            // (type-stable storage with initialized atomics); either
            // way the load itself is in-bounds. Whether the *value*
            // belongs to the tenant we meant is decided by the
            // validation below.
            // ord: Acquire — VBR.read-traverse: the hop target's fields are read next
            let succ = unsafe { &(*curr).succ }.load(Ordering::Acquire);
            if !curr_trusted {
                // Hop validation: the succ we just loaded is only our
                // tenant's if curr's birth still matches the stamp we
                // reached it with. The fence pairs with the writer's
                // release fence after it sets the builder bit, so a
                // reader that read a re-initializer's field store must
                // observe (at least) the builder bit here. A block
                // re-tenanted into another sibling's chain fails here
                // just the same.
                // ord: Acquire — VBR.birth-validate: seqlock read fence
                fence(Ordering::Acquire);
                // SAFETY: type-stable storage, as above.
                // ord: Relaxed — VBR.birth-validate: ordered by the fence above
                let b = unsafe { &(*curr).birth }.load(Ordering::Relaxed);
                if b & BIRTH_BUILDING != 0 || (b & 0xffff) != u64::from(curr_stamp) {
                    return Err(ReadRace);
                }
            }
            let next = succ.ptr();
            if next == self.tail {
                return Ok(None);
            }
            if next.is_null() {
                // Mid-rebuild provisional successor; validation would
                // have caught it, but never follow a null hop.
                return Err(ReadRace);
            }
            let next_stamp = succ.stamp();
            // Pre-validation: the shadow slots only hold `next_stamp`'s
            // tenant's bytes if that tenant is fully published (no
            // builder bit) and still current. Acquire pairs with the
            // re-initializer's release finalize store, ordering the
            // tenant's publishes before our snoops.
            // SAFETY: type-stable storage, as above.
            // ord: Acquire — VBR.birth-validate: pre-snoop tenant check
            // validate: VAL.list-read: this load opens the birth-stamp bracket
            // that validates the optimistic `next` hop (type-stable storage)
            let b1 = unsafe { &(*next).birth }.load(Ordering::Acquire);
            if b1 & BIRTH_BUILDING != 0 || (b1 & 0xffff) != u64::from(next_stamp) {
                return Err(ReadRace);
            }
            // SAFETY: the slots are type-stable and snoops are per-word
            // atomic copies; the bytes are validated before use.
            // validate: VAL.list-read: snoop inside the birth-stamp bracket;
            // bytes are discarded unless `b2 == b1` below
            let key_bytes = unsafe { <R as Publish<K>>::snoop(&(*next).skey) };
            // SAFETY: as above.
            // validate: VAL.list-read: as above — bracketed snoop
            let val_bytes = unsafe { <R as Publish<V>>::snoop(&(*next).sval) };
            // ord: Acquire — VBR.birth-validate: seqlock read fence
            fence(Ordering::Acquire);
            // SAFETY: type-stable storage, as above.
            // ord: Relaxed — VBR.birth-validate: ordered by the fence above
            // validate: VAL.list-read: this re-load closes the birth-stamp
            // bracket; a mismatch discards the snooped bytes
            let b2 = unsafe { &(*next).birth }.load(Ordering::Relaxed);
            if b2 != b1 {
                return Err(ReadRace);
            }
            // The two birth checks bracket the snoops: the bytes are one
            // complete, untorn publication by tenant `b1`, and `Pod`
            // makes any complete value valid.
            // SAFETY: validated complete publication, `K: Pod`.
            let key = unsafe { key_bytes.assume_init() };
            match key.cmp(k) {
                std::cmp::Ordering::Equal => {
                    // Same tenant, same validation window — the value
                    // snoop is vouched for by the b2 == b1 re-check.
                    // SAFETY: validated complete publication, `V: Pod`.
                    return Ok(Some(unsafe { val_bytes.assume_init() }));
                }
                std::cmp::Ordering::Less => {
                    curr = next;
                    curr_stamp = next_stamp;
                    curr_trusted = false;
                }
                std::cmp::Ordering::Greater => return Ok(None),
            }
        }
    }
}
