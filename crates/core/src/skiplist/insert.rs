//! `Insert_SL`: bottom-up tower construction (paper §4).
//!
//! The paper re-runs `SearchToLevel_SL(k, v)` from the top for every
//! new level. Here one descent records the `(n1, n2)` pair of every
//! level ([`SearchPath`](super::SearchPath)), and each upper level is
//! linked from its recorded pair. A stale pair is safe: `InsertNode`'s
//! type-1 C&S succeeds only while `n1.succ` is still `(n2, 0, 0)`, and
//! on failure it recovers exactly as on the list — flag help, backlink
//! walk, `SearchRight` from the recovered node. Levels above the
//! descent's start level (empty when it ran) and the retry after a
//! same-key node occupied a level still use the top-down search.

use std::sync::atomic::Ordering;

use lf_reclaim::{Publish, Reclaim};
use lf_tagged::{step, StepKind};

use super::{Mode, SkipList};
use crate::list::{Level, LevelKeys, LevelNode};
use crate::pool::LocalPool;
use crate::tower::{cell_at, Tower};

impl<K, V, R> SkipList<K, V, R>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    /// Geometric tower height from one word of random bits: grow with
    /// probability 1/2 per level (one bit each), capped at
    /// `max_level - 1` so the top level stays empty.
    fn tower_height(&self, bits: u64) -> usize {
        (1 + bits.trailing_ones() as usize).min(self.max_level - 1)
    }

    /// `Insert_SL(k, e)`: insert a tower for `key`, bottom-up.
    ///
    /// The height is fixed up front (from `height_bits`, a draw of the
    /// handle's generator) so the whole tower is carved from one
    /// contiguous pool block (see [`Tower`]): a header, then one cell
    /// per level.
    ///
    /// Linearizes when the root (level-1) cell is linked. If the root
    /// gets marked (by a concurrent deletion) while upper levels are
    /// still being built, construction stops — and if a cell was just
    /// linked into the now-superfluous tower, this operation deletes it
    /// again.
    ///
    /// # Safety
    ///
    /// `guard` must pin this list's domain; `pool` must front this
    /// list's shared pool.
    pub(crate) unsafe fn insert_impl(
        &self,
        key: K,
        value: V,
        height_bits: u64,
        pool: &LocalPool<Tower<K, V, R>>,
        guard: &R::Guard<'_>,
    ) -> Result<(), (K, V)> {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            let path = self.search_path(&key, Mode::Le, guard);
            let (mut prev, mut next) = path.at(1).expect("level 1 is always recorded");
            if self.at(1).key_ref(prev).as_key() == Some(&key) {
                return Err((key, value));
            }
            let height = self.tower_height(height_bits);
            let (tower, recycled) = pool.acquire(height);
            Tower::init_at(tower, height, key, value, R::birth_epoch(guard), recycled);
            let root = cell_at(tower, 1);
            let mut new_node = root;
            let mut cur_level = 1usize;

            loop {
                let level = self.at(cur_level);
                let inserted = level.insert_node(new_node, &mut prev, &mut next, guard);

                if !inserted && cur_level == 1 {
                    // The tower was never published; move key/element
                    // back out, return the block to the pool, and hand
                    // the pair back.
                    let pair = Tower::take_pair(tower);
                    pool.release(tower, height);
                    return Err(pair);
                }

                if inserted && cur_level == 1 {
                    // Linearization point of a successful insertion.
                    // Relaxed: `len` is a pure statistic (never
                    // dereferenced, orders nothing).
                    // ord: Relaxed — STAT.len: pure statistic, no ordering role
                    self.len.fetch_add(1, Ordering::Relaxed);
                }

                step(StepKind::Read);
                if (*root).is_marked() {
                    // The tower became superfluous while we were building.
                    if !inserted {
                        // `new_node` (an upper cell) was never linked:
                        // undo its tower accounting. The cell itself is
                        // part of the tower's block and needs no freeing.
                        self.abandon_upper(tower, cur_level);
                    } else if new_node != root {
                        // We just linked a cell into a superfluous
                        // tower: delete it again (all three steps). A
                        // targeted delete can be deflected when another
                        // interrupted construction left a same-key
                        // superfluous cell at this level (the Lt-mode
                        // relocation search stops at the first of
                        // them), so loop with Le-mode cleaning searches
                        // — which delete every superfluous cell on
                        // their path — until our cell is marked.
                        // ord: Release/Acquire/Relaxed — LIST.flag-cas: wrapped flagging C&S; pred is dereferenced
                        level.delete_node(prev, new_node, guard);
                        loop {
                            step(StepKind::Read);
                            if (*new_node).is_marked() {
                                break;
                            }
                            let key_ref = (*tower).key.as_key().expect("tower has user key");
                            // ord: Release/Acquire/Relaxed — LIST.flag-cas: cleaning search deletes superfluous towers (wrapped C&S)
                            let _ = self.search_to_level(key_ref, cur_level, Mode::Le, guard);
                        }
                    }
                    self.release_tower_ref(tower, guard); // construction ref
                    return Ok(());
                }

                if !inserted {
                    // A leftover superfluous cell with our key occupies this
                    // level; our searches delete superfluous towers, so
                    // retrying makes progress.
                    let key_ref = (*tower).key.as_key().expect("tower has user key");
                    // ord: Release/Acquire/Relaxed — LIST.flag-cas: cleaning search deletes superfluous towers (wrapped C&S)
                    let (p, n) = self.search_to_level(key_ref, cur_level, Mode::Le, guard);
                    prev = p;
                    next = n;
                    continue;
                }

                cur_level += 1;
                if cur_level > height {
                    self.release_tower_ref(tower, guard); // construction ref
                    return Ok(());
                }

                // Grow the tower: the block's next cell is the next level's.
                // Account for it before it can be linked (and thus
                // unlinked) by anyone. Relaxed increment: we hold the
                // construction reference, so the count cannot reach zero
                // concurrently (same argument as `Arc::clone`); our final
                // `release_tower_ref` (an AcqRel RMW on the same counter)
                // orders everything done here before the last decrement.
                // ord: Relaxed — TOWER.refcount: construction ref keeps count nonzero
                (*tower).remaining.fetch_add(1, Ordering::Relaxed);
                // Relaxed: `top` is consulted only by quiescent diagnostics.
                // ord: Relaxed — TOWER.top: quiescent-only diagnostic field
                (*tower).top.store(cur_level as u16, Ordering::Relaxed);
                new_node = cell_at(tower, cur_level);

                // Link from the pair the descent recorded at this level;
                // `insert_node`'s C&S validates it. Above the descent's
                // start level there is none: search from the top.
                (prev, next) = match path.at(cur_level) {
                    Some(pair) => pair,
                    None => {
                        let key_ref = (*tower).key.as_key().expect("tower has user key");
                        // ord: Release/Acquire/Relaxed — LIST.flag-cas: ascent repositions via helping search (wrapped C&S)
                        self.search_to_level(key_ref, cur_level, Mode::Le, guard)
                    }
                };
            }
        }
    }

    /// Undo the accounting for the never-linked cell at `level`. The
    /// cell stays where it is — inside the tower's block — and is
    /// reclaimed with it.
    ///
    /// # Safety
    ///
    /// Caller is the inserting thread (sole writer of `top`), still
    /// holding the construction reference; the cell at `level >= 2` was
    /// never linked.
    unsafe fn abandon_upper(&self, tower: *mut Tower<K, V, R>, level: usize) {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            // Relaxed stores: same argument as the growth accounting above —
            // the construction reference's own AcqRel release publishes
            // these to the eventual freeing thread.
            // ord: Relaxed — TOWER.top: quiescent-only diagnostic field
            (*tower).top.store(level as u16 - 1, Ordering::Relaxed);
            // Cannot hit zero: we still hold the construction reference.
            // ord: Relaxed — TOWER.refcount: construction ref keeps count nonzero
            let prev = (*tower).remaining.fetch_sub(1, Ordering::Relaxed);
            debug_assert!(prev >= 2);
        }
    }
}
