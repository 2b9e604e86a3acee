//! Pin-free optimistic point reads (`try_read`): the one validated
//! walk, [`ReadWalk`], run as the skip list's descent. The list runs
//! the same walk on its single level, from its own head to its own tail
//! (`list/read.rs`).
//!
//! Validation replaces protection (DESIGN.md §9.7): no pin, type-stable
//! pool blocks, birth-stamped pointers, snoops bracketed by birth
//! re-checks. Because list nodes and skip-list towers are the same
//! blocks (`crate::tower`), the walk needs only address arithmetic on
//! them:
//!
//! * **descent** — the cell one level down is the previous cell of the
//!   same block, so moving down loads nothing and needs no validation;
//!   the expected stamp carries over unchanged because a tower has one
//!   birth word;
//! * **header reads** — a cell's key, shadow slots and birth live in its
//!   tower's header, `level - 1` cells and one header back. The pool
//!   buckets blocks by height, so that address holds a header of the
//!   same geometry for every tenant of the block, and the birth bracket
//!   decides whether it is the tenant the hop meant. A validated hop
//!   can only lead to a cell of the walk's own structure and level or
//!   that level's tail sentinel, so the header is a published user
//!   tower's — also when structures share a pool (`new_sibling`, the
//!   hash map's buckets): a block re-tenanted into another structure
//!   carries a newer birth, which fails the bracket exactly like
//!   in-structure recycling. Sentinels are never pooled.

use std::sync::atomic::{fence, Ordering};

use lf_reclaim::{Pod, Publish, Reclaim, BIRTH_BUILDING};

use super::{SkipList, SkipListHandle};
use crate::tower::{down, tower_of, LevelCell};
use crate::MapHandle;

/// Optimistic traversal attempts before falling back to a pinned get.
pub(crate) const READ_ATTEMPTS: usize = 3;

/// An optimistic attempt observed a recycled/rebuilding node and must
/// restart.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct ReadRace;

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
    /// validate-and-restart descent; after `READ_ATTEMPTS` (3) raced
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
                    lf_metrics::op_end(op);
                    return res;
                }
                Err(ReadRace) => {
                    lf_metrics::record_try_read_restart();
                    continue;
                }
            }
        }
        lf_metrics::op_end(op);
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
    /// One optimistic descent from the head sentinel of the start level.
    fn read_impl(&self, k: &K) -> Result<Option<V>, ReadRace> {
        let level = self.start_level(1);
        // SAFETY: the level's sentinels, of this list, which outlives
        // the walk.
        unsafe { ReadWalk::new(self.head(level), None, self.tail(level), level) }.run(k)
    }
}

/// A pin-free reader's position, from which [`run`](Self::run) walks:
/// a cell of one level of a list or skip list, the stamp the reader
/// reached it with (`None` for a head sentinel, which is trusted: never
/// recycled, birth 0), and that level's tail sentinel.
pub(crate) struct ReadWalk<K, V, R: Reclaim> {
    curr: *mut LevelCell<K, V, R>,
    stamp: Option<u16>,
    tail: *mut LevelCell<K, V, R>,
    level: usize,
}

impl<K, V, R: Reclaim> ReadWalk<K, V, R> {
    /// The walk from `curr`, reached with `stamp`, on level `level`
    /// whose tail sentinel is `tail`.
    ///
    /// # Safety
    ///
    /// `tail` is the level-`level` tail sentinel of a list or skip list
    /// that outlives every run of this walk and whose user blocks all
    /// come from its pool; `curr` is a cell of that level once reached
    /// from its head (the head sentinel itself when `stamp` is `None`),
    /// possibly since retired and re-tenanted.
    pub(crate) unsafe fn new(
        curr: *mut LevelCell<K, V, R>,
        stamp: Option<u16>,
        tail: *mut LevelCell<K, V, R>,
        level: usize,
    ) -> Self {
        ReadWalk {
            curr,
            stamp,
            tail,
            level,
        }
    }
}

impl<K, V, R> ReadWalk<K, V, R>
where
    K: Pod + Ord,
    V: Pod,
    R: Reclaim + Publish<K> + Publish<V>,
{
    /// One optimistic walk: right along the level validating every hop
    /// against its birth stamp, dropping a level whenever the next key
    /// would overshoot, until level 1 decides.
    ///
    /// Never dereferences anything but type-stable pool blocks and the
    /// sentinel blocks, so it needs no guard; `Err(ReadRace)` means a
    /// hop failed validation (the node was recycled or is being
    /// rebuilt) and the caller should retry or fall back.
    pub(crate) fn run(&self, k: &K) -> Result<Option<V>, ReadRace> {
        let mut curr = self.curr;
        let mut tail = self.tail;
        let mut level = self.level;
        let mut curr_trusted = self.stamp.is_none();
        let mut curr_stamp = self.stamp.unwrap_or(0);
        loop {
            // SAFETY: `curr` is a sentinel cell or a cell of a pool block
            // (type-stable storage with initialized atomics); the load
            // itself is in-bounds. Whether the *value* belongs to the
            // tenant we meant is decided by the validation below.
            // ord: Acquire — VBR.read-traverse: the hop target's fields are read next
            let succ = unsafe { &(*curr).succ }.load(Ordering::Acquire);
            if !curr_trusted {
                // Hop validation: the succ we just loaded is our tenant's
                // only if curr's tower birth still matches the stamp we
                // reached it with. Pairs with the re-initializer's release
                // fence after it sets the builder bit. A block re-tenanted
                // into another structure fails here just the same.
                // ord: Acquire — VBR.birth-validate: seqlock read fence
                fence(Ordering::Acquire);
                // SAFETY: `curr` is a level-`level` cell of a block of this
                // height bucket (see the module docs), so its header lies in
                // the same type-stable block.
                // ord: Relaxed — VBR.birth-validate: ordered by the fence above
                let b = unsafe { &(*tower_of(curr, level)).birth }.load(Ordering::Relaxed);
                if b & BIRTH_BUILDING != 0 || (b & 0xffff) != u64::from(curr_stamp) {
                    return Err(ReadRace);
                }
            }
            let next = succ.ptr();
            if next == tail {
                if level == 1 {
                    return Ok(None);
                }
                // Drop a level: the cell below in the same block (the head
                // and tail blocks' cells are contiguous too), which shares
                // the birth the carried stamp encodes.
                // SAFETY: `level >= 2`, so the cells below are in the blocks.
                unsafe {
                    curr = down(curr);
                    tail = down(tail);
                }
                level -= 1;
                continue;
            }
            if next.is_null() {
                // Mid-rebuild provisional successor; validation would have
                // caught it, but never follow a null hop.
                return Err(ReadRace);
            }
            let next_stamp = succ.stamp();
            // The candidate's key lives in its tower's header. A validated
            // hop only yields cells of the walk's own level (tails were just
            // ruled out by identity), so the header is a user tower's with
            // published shadow slots.
            // SAFETY: type-stable storage, as above.
            let tower = unsafe { tower_of(next, level) };
            // Pre-validation: the header's slots hold `next_stamp`'s
            // tenant's bytes only if that tenant is fully published (no
            // builder bit) and still current; the tower has one birth word,
            // so it vouches for `next` too. Acquire pairs with the release
            // finalize store.
            // SAFETY: type-stable storage, as above.
            // ord: Acquire — VBR.birth-validate: pre-snoop tenant check
            // validate: VAL.tower-read: this load opens the birth-stamp
            // bracket that validates the optimistic hop to `next`'s tower
            let b1 = unsafe { &(*tower).birth }.load(Ordering::Acquire);
            if b1 & BIRTH_BUILDING != 0 || (b1 & 0xffff) != u64::from(next_stamp) {
                return Err(ReadRace);
            }
            // SAFETY: the slots are type-stable and snoops are per-word
            // atomic copies; the bytes are validated before use.
            // validate: VAL.tower-read: snoop inside the birth-stamp bracket;
            // bytes are discarded unless `b2 == b1` below
            let key_bytes = unsafe { <R as Publish<K>>::snoop(&(*tower).skey) };
            // SAFETY: as above.
            // validate: VAL.tower-read: as above — bracketed snoop
            let val_bytes = unsafe { <R as Publish<V>>::snoop(&(*tower).sval) };
            // ord: Acquire — VBR.birth-validate: seqlock read fence
            fence(Ordering::Acquire);
            // SAFETY: type-stable storage, as above.
            // ord: Relaxed — VBR.birth-validate: ordered by the fence above
            // validate: VAL.tower-read: this re-load closes the birth-stamp
            // bracket; a mismatch discards the snooped bytes
            let b2 = unsafe { &(*tower).birth }.load(Ordering::Relaxed);
            if b2 != b1 {
                return Err(ReadRace);
            }
            // The two birth checks bracket the snoops: the bytes are one
            // complete, untorn publication by tenant `b1`, and `Pod` makes
            // any complete value valid.
            // SAFETY: validated complete publication, `K: Pod`.
            let key = unsafe { key_bytes.assume_init() };
            match key.cmp(k) {
                std::cmp::Ordering::Equal => {
                    // Same tenant, same validation window — the value snoop
                    // is vouched for by the b2 == b1 re-check.
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
                    // SAFETY: `level >= 2`, as above.
                    unsafe {
                        curr = down(curr);
                        tail = down(tail);
                    }
                    level -= 1;
                }
            }
        }
    }
}
