//! Pin-free optimistic point reads (`try_read`) — skip list version.
//!
//! Same validation scheme as the list's (`list/read.rs`, DESIGN.md
//! §9.7): no pin, type-stable pool blocks, birth-stamped pointers,
//! snoops bracketed by birth re-checks. The skip list adds two things:
//!
//! * **descent** — moving down a tower follows the `down` field, whose
//!   value is *tenant-invariant* per block (element `i` of a
//!   `cap`-block always points at element `i - 1`), so it can be
//!   followed without validation; the expected stamp carries over
//!   unchanged because every element of a tower holds the same birth;
//! * **indirect keys** — only tower roots carry the key, so a hop's
//!   candidate is keyed by snooping its root's shadow slots through
//!   `tower_root` (also tenant-invariant). A validated hop can only
//!   lead to a node of the traversal's own level or that level's tail
//!   sentinel, so the root is always a published user root.

use std::sync::atomic::{fence, Ordering};

use lf_reclaim::{Pod, Publish, Reclaim, BIRTH_BUILDING};

use super::{SkipList, SkipListHandle};

/// Optimistic traversal attempts before falling back to a pinned get.
const READ_ATTEMPTS: usize = 3;

/// An optimistic attempt observed a recycled/rebuilding node and must
/// restart.
struct ReadRace;

impl<'l, K, V, R> SkipListHandle<'l, K, V, R>
where
    K: Pod + Ord,
    V: Pod,
    R: Reclaim + Publish<K> + Publish<V>,
{
    /// Look up `key` without pinning the reclamation domain, when the
    /// backend supports it.
    ///
    /// On a pin-free backend (VBR) this runs the optimistic
    /// validate-and-restart descent; after [`READ_ATTEMPTS`] raced
    /// attempts (or always, on pinned backends) it falls back to the
    /// pinned [`get`](Self::get). Same semantics as `get`: returns a
    /// copy of the value if `key` is present.
    pub fn try_read(&self, key: &K) -> Option<V> {
        if !R::PIN_FREE_READS {
            return self.get(key);
        }
        let op = lf_metrics::op_begin_for(lf_metrics::Structure::SkipList);
        for _ in 0..READ_ATTEMPTS {
            match self.list.read_impl(key) {
                Ok(res) => {
                    self.end_op(op);
                    return res;
                }
                Err(ReadRace) => {
                    lf_metrics::record_try_read_restart();
                    continue;
                }
            }
        }
        self.end_op(op);
        // Persistent interference: take the pinned slow path.
        lf_metrics::record_try_read_fallback();
        self.get(key)
    }
}

impl<K, V, R> SkipList<K, V, R>
where
    K: Pod + Ord,
    V: Pod,
    R: Reclaim + Publish<K> + Publish<V>,
{
    /// One optimistic descent. Starts at the head sentinel of the
    /// start level, walks right validating every hop against its birth
    /// stamp, and drops a level whenever the next key would overshoot.
    ///
    /// Never dereferences anything but type-stable pool blocks and the
    /// sentinels, so it needs no guard; `Err(ReadRace)` means a hop
    /// failed validation (the node was recycled or is being rebuilt)
    /// and the caller should retry or fall back.
    fn read_impl(&self, k: &K) -> Result<Option<V>, ReadRace> {
        let mut level = self.start_level(1);
        // Head sentinels are trusted: never recycled, birth 0.
        let mut curr = self.heads[level - 1];
        let mut curr_stamp: u16 = 0;
        let mut curr_trusted = true;
        loop {
            // SAFETY: `curr` is a sentinel or a pool block (type-stable
            // storage with initialized atomics); the load itself is
            // in-bounds. Whether the *value* belongs to the tenant we
            // meant is decided by the validation below.
            // ord: Acquire — VBR.read-traverse: the hop target's fields are read next
            let succ = unsafe { &(*curr).succ }.load(Ordering::Acquire);
            if !curr_trusted {
                // Hop validation: the succ we just loaded is our
                // tenant's only if curr's birth still matches the stamp
                // we reached it with. Pairs with the re-initializer's
                // release fence after it sets the builder bits.
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
            if next == self.tails[level - 1] {
                if level == 1 {
                    return Ok(None);
                }
                // Drop a level: `down` is tenant-invariant per block
                // (sentinel chains are immortal), and a tower's lower
                // element shares the birth the carried stamp encodes.
                // SAFETY: type-stable storage, as above.
                // ord: Relaxed — TOWER.layout: tenant-invariant tower geometry
                // validate: VAL.skip-read: tenant-invariant hop on type-stable
                // storage; the next birth-stamp bracket re-validates the path
                curr = unsafe { (*curr).down() };
                level -= 1;
                continue;
            }
            if next.is_null() {
                // Mid-rebuild provisional successor; validation would
                // have caught it, but never follow a null hop.
                return Err(ReadRace);
            }
            let next_stamp = succ.stamp();
            // The candidate's key lives in its tower root. A validated
            // hop only yields same-level nodes (tails were just ruled
            // out by identity), so `root` is a user root with published
            // shadow slots; `tower_root` is tenant-invariant.
            // SAFETY: type-stable storage, as above.
            // ord: Relaxed — TOWER.layout: tenant-invariant tower geometry
            // validate: VAL.skip-read: tenant-invariant hop on type-stable
            // storage; the birth-stamp bracket below re-validates it
            let root = unsafe { (*next).root() };
            // Pre-validation: the root's slots hold `next_stamp`'s
            // tenant's bytes only if that tenant is fully published (no
            // builder bit) and still current; every element of a tower
            // carries the same birth, so the root's word vouches for
            // `next` too. Acquire pairs with the release finalize store.
            // SAFETY: type-stable storage, as above.
            // ord: Acquire — VBR.birth-validate: pre-snoop tenant check
            // validate: VAL.skip-read: this load opens the birth-stamp
            // bracket that validates the optimistic hop to `next`/`root`
            let b1 = unsafe { &(*root).birth }.load(Ordering::Acquire);
            if b1 & BIRTH_BUILDING != 0 || (b1 & 0xffff) != u64::from(next_stamp) {
                return Err(ReadRace);
            }
            // SAFETY: the slots are type-stable and snoops are per-word
            // atomic copies; the bytes are validated before use.
            // validate: VAL.skip-read: snoop inside the birth-stamp bracket;
            // bytes are discarded unless `b2 == b1` below
            let key_bytes = unsafe { <R as Publish<K>>::snoop(&(*root).skey) };
            // SAFETY: as above.
            // validate: VAL.skip-read: as above — bracketed snoop
            let val_bytes = unsafe { <R as Publish<V>>::snoop(&(*root).sval) };
            // ord: Acquire — VBR.birth-validate: seqlock read fence
            fence(Ordering::Acquire);
            // SAFETY: type-stable storage, as above.
            // ord: Relaxed — VBR.birth-validate: ordered by the fence above
            // validate: VAL.skip-read: this re-load closes the birth-stamp
            // bracket; a mismatch discards the snooped bytes
            let b2 = unsafe { &(*root).birth }.load(Ordering::Relaxed);
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
                std::cmp::Ordering::Greater => {
                    if level == 1 {
                        return Ok(None);
                    }
                    // Overshot: drop a level from `curr` (see above).
                    // SAFETY: type-stable storage, as above.
                    // ord: Relaxed — TOWER.layout: tenant-invariant tower geometry
                    // validate: VAL.skip-read: tenant-invariant hop on
                    // type-stable storage; re-validated by the next bracket
                    curr = unsafe { (*curr).down() };
                    level -= 1;
                }
            }
        }
    }
}
